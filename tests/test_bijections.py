import pytest

from forest_spectra import (
    bijection_forestbij,
    bijection_pr4,
    bijection_q2r5,
    bijections_pr123,
    build_families,
    complete_bipartite_graph,
    complete_graph,
    edge,
    edge_pair_counts,
    verify_count_inequalities,
    vertex,
)
from forest_spectra.bijections import _verify_bijection

from conftest import bfs_partition


def test_families_k22():
    fam = build_families(complete_bipartite_graph(2, 2), 1)
    sizes = fam.sizes()
    assert (sizes["p"], sizes["q"], sizes["r"]) == (2, 2, 2)
    assert sizes["core"] == 1 and sizes["core_right"] == 1
    assert sizes["share_left_parts"] == [0, 1, 0, 0]
    assert sizes["share_right_parts"] == [1, 0, 0, 0]
    assert sizes["disjoint_parts"] == [0, 1, 0, 0, 0]
    assert sizes["disjoint_parts_right"] == [0, 0, 0, 1, 0]


def test_families_k23_frozen():
    fam = build_families(complete_bipartite_graph(2, 3), 1)
    sizes = fam.sizes()
    assert (sizes["p"], sizes["q"], sizes["r"]) == (5, 4, 5)
    assert sizes["core"] == 2 and sizes["core_right"] == 2
    assert sizes["share_left_parts"] == [1, 2, 0, 0]
    assert sizes["disjoint_parts"] == [1, 2, 0, 0, 0]


def test_families_match_pair_counts():
    for (m, n), k in [((2, 3), 1), ((3, 3), 2), ((2, 4), 2)]:
        g = complete_bipartite_graph(m, n)
        fam = build_families(g, k)
        assert fam.pair_counts() == edge_pair_counts(g, k)


@pytest.mark.parametrize("mn,k", [((2, 2), 1), ((3, 3), 1), ((3, 3), 2), ((3, 2), 2), ((2, 4), 2)])
def test_partition_identities(mn, k):
    fam = build_families(complete_bipartite_graph(*mn), k)
    assert len(fam.share_left) == len(fam.core) + sum(map(len, fam.share_left_parts))
    assert len(fam.disjoint) == len(fam.core) + sum(map(len, fam.disjoint_parts))
    assert len(fam.share_right) == len(fam.core_right) + sum(map(len, fam.share_right_parts))
    assert len(fam.disjoint) == len(fam.core_right) + sum(map(len, fam.disjoint_parts_right))
    # rest-families are genuine partitions: no forest appears in two pieces
    all_left = [f for part in fam.share_left_parts for f in part]
    assert len(all_left) == len(set(all_left))
    all_disjoint = [f for part in fam.disjoint_parts for f in part]
    assert len(all_disjoint) == len(set(all_disjoint))


A, B, C, D = vertex(1), vertex(1, right=True), vertex(2), vertex(2, right=True)
AB, AD, CB, CD = edge(A, B), edge(A, D), edge(C, B), edge(C, D)


def _docstring_piece(family, f):
    """The piece the bijections module docstring assigns: delete the two
    anchor edges, then see where c (share_left, disjoint) or d lands."""
    cut = {"share_left": {AB, AD}, "share_right": {AB, CB}, "disjoint": {AB, CD}}[family]
    comp = {v: i for i, part in enumerate(bfs_partition(f.vertices, f.edges - cut)) for v in part}
    if family == "share_left":
        return {comp[A]: 1, comp[B]: 2, comp[D]: 4}.get(comp[C], 3)
    if family == "share_right":
        return {comp[A]: 1, comp[B]: 2, comp[C]: 4}.get(comp[D], 3)
    return {comp[A]: 1, comp[B]: 2}.get(comp[C]) or {comp[A]: 4, comp[B]: 5}.get(comp[D], 3)


@pytest.mark.parametrize("mn", [(m, n) for m in range(2, 5) for n in range(m, 5)], ids=str)
def test_every_piece_follows_the_docstring_rule(mn):
    g = complete_bipartite_graph(*mn)
    for k in range(1, g.vertex_count - 1):
        fam = build_families(g, k)
        for family, parts in (
            ("share_left", fam.share_left_parts),
            ("share_right", fam.share_right_parts),
            ("disjoint", fam.disjoint_parts),
            ("disjoint", fam.disjoint_parts_right),
        ):
            for piece, part in enumerate(parts, 1):
                for f in part:
                    assert _docstring_piece(family, f) == piece, (g.name, k, family, str(f))


def test_complete_families_k4():
    fam = build_families(complete_graph(4), 2)
    assert len(fam.with_wedge) == 1 and len(fam.with_matching) == 1
    (sf,) = fam.per_subset
    assert sf.labels == (1, 2, 3, 4)
    assert len(sf.trees_wedge) == 3 and len(sf.trees_matching) == 4
    assert len(sf.split_wedge) == 1 and len(sf.split_matching) == 1


def test_complete_families_requires_four_vertices():
    with pytest.raises(ValueError):
        build_families(complete_graph(3), 1)


@pytest.mark.parametrize("labels", [(1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 6, 7)])
def test_forestbij_verifies(labels):
    record = bijection_forestbij(labels)
    assert record.verified
    assert record.domain_size == record.codomain_size


def test_forestbij_image_edges():
    # forward images always contain the edge 3-4 and never the edge 2-3
    from forest_spectra.bijections import _build_split_families

    fam = _build_split_families((1, 2, 3, 4, 5))
    e23 = edge(vertex(2), vertex(3))
    e34 = edge(vertex(3), vertex(4))
    for f in fam.split_wedge:
        swapped = f.replace_edges(remove=(e23,), add=(e34,))
        assert swapped in set(fam.split_matching)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forestbij_reuses_split_families(k):
    for sf in build_families(complete_graph(6), k).per_subset:
        assert bijection_forestbij(sf.labels, families=sf) == bijection_forestbij(sf.labels)


def test_forestbij_rejects_families_for_other_labels():
    sf = build_families(complete_graph(5), 1).per_subset[0]
    with pytest.raises(ValueError):
        bijection_forestbij((1, 2, 3, 4, 5), families=sf)


def test_forestbij_label_guard():
    with pytest.raises(ValueError):
        bijection_forestbij((1, 2, 3))


def test_pr123_and_pr4_and_q2r5_small():
    g = complete_bipartite_graph(2, 2)
    fam = build_families(g, 1)
    for i in (1, 2, 3):
        rec = bijections_pr123(g, 1, i, families=fam)
        assert rec.verified
    assert bijection_pr4(g, 1, families=fam).verified
    assert bijection_q2r5(g, 1, families=fam).verified


def test_pr123_k33_piece_sizes():
    g = complete_bipartite_graph(3, 3)
    fam = build_families(g, 2)
    rec = bijections_pr123(g, 2, 1, families=fam)
    assert rec.verified and rec.domain_size == 1
    rec = bijections_pr123(g, 2, 2, families=fam)
    assert rec.verified and rec.domain_size == 5


def test_pr4_on_nonempty_piece():
    # piece 4 is nonempty for K_{3,3}, k=1 (one forest on each side)
    g = complete_bipartite_graph(3, 3)
    fam = build_families(g, 1)
    rec = bijection_pr4(g, 1, families=fam)
    assert rec.verified and rec.domain_size == 1


def test_q2r5_on_nonempty_piece():
    g = complete_bipartite_graph(3, 3)
    fam = build_families(g, 1)
    rec = bijection_q2r5(g, 1, families=fam)
    assert rec.verified and rec.domain_size == 3


def test_pr123_rejects_bad_piece_index():
    g = complete_bipartite_graph(2, 2)
    with pytest.raises(ValueError):
        bijections_pr123(g, 1, 4)


def test_bijections_require_bipartite():
    with pytest.raises(ValueError):
        bijection_pr4(complete_graph(4), 1)


def test_verifier_reports_failures():
    # a deliberately wrong map: identity from the wedge family into the
    # matching family; every element should be flagged
    fam = build_families(complete_bipartite_graph(2, 2), 1)
    record = _verify_bijection(
        "broken",
        fam.share_left_parts[1],
        fam.disjoint_parts[1],
        lambda f: f,
        lambda f: f,
    )
    assert not record.verified
    assert record.failures
    kinds = {f.kind for f in record.failures}
    assert "image-outside-codomain" in kinds or "preimage-outside-domain" in kinds


def test_inequalities_k22_boundary():
    fam = build_families(complete_bipartite_graph(2, 2), 1)
    report = verify_count_inequalities(fam)
    assert report.satisfied
    assert report.r_minus_p == 0 and report.r_minus_q == 0
    assert not report.left_strict_expected and not report.right_strict_expected
    assert report.boundary_notes


def test_inequalities_k23():
    # p equals r here: the left side has no third vertex to route around,
    # so the fifth disjoint piece is empty; q < r is strict
    fam = build_families(complete_bipartite_graph(2, 3), 1)
    report = verify_count_inequalities(fam)
    assert (report.p, report.q, report.r) == (5, 4, 5)
    assert report.r_minus_p == 0 and not report.left_strict_expected
    assert report.r_minus_q == 1 and report.right_strict_expected
    assert report.p_plus_q_minus_r == 4
    assert report.satisfied


def test_inequalities_k33_strict():
    fam = build_families(complete_bipartite_graph(3, 3), 2)
    report = verify_count_inequalities(fam)
    assert report.left_strict_expected and report.right_strict_expected
    assert report.r_minus_p > 0 and report.r_minus_q > 0
    assert report.satisfied


def test_inequalities_strictness_matches_piece_sizes():
    # r - p is exactly the size of the fifth disjoint piece, and r - q the
    # size of the first right-relative piece
    for (m, n), k in [((3, 3), 1), ((3, 3), 2), ((2, 4), 2), ((4, 3), 2)]:
        fam = build_families(complete_bipartite_graph(m, n), k)
        report = verify_count_inequalities(fam)
        assert report.r_minus_p == len(fam.disjoint_parts[4])
        assert report.r_minus_q == len(fam.disjoint_parts_right[0])


def test_inequalities_out_of_range():
    fam = build_families(complete_bipartite_graph(2, 2), 2)
    with pytest.raises(ValueError):
        verify_count_inequalities(fam)
