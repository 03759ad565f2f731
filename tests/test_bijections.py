import itertools

import pytest

from forest_spectra import (
    bijection_forestbij,
    bijection_pr4,
    bijection_q2r5,
    bijections_pr123,
    build_families,
    complete_bipartite_graph,
    complete_graph,
    complete_graph_on,
    edge,
    edge_pair_counts,
    spanning_forest,
    verify_count_inequalities,
    vertex,
)
from forest_spectra.bijections import _verify_on
from forest_spectra.forests import MaskedForests

from conftest import bfs_partition, brute_forests


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


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_split_families_hold_4_w_to_the_w_minus_5(n):
    # both split families of a w-vertex subset are two-tree forests of K_w,
    # 4 w^(w-5) of them (one at w = 4); they do not depend on k
    for sf in build_families(complete_graph(n), 1).per_subset:
        w = len(sf.labels)
        assert len(sf.split_wedge) == len(sf.split_matching) == 4 * w ** (w - 4) // w, sf.labels


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
    # a deliberately wrong map: the identity from a share-left piece into a
    # disjoint piece; each element lands outside the other family
    fam = build_families(complete_bipartite_graph(2, 2), 1)
    record = _verify_on(
        "broken",
        fam.graph,
        fam.share_left_parts[1],
        fam.disjoint_parts[1],
        lambda x: x,
        lambda x: x,
    )
    assert (record.domain_size, record.codomain_size, record.verified) == (1, 1, False)
    assert _failures(record) == [
        ("image-outside-codomain", ("1-1'", "1-2'", "2-1'"), "Forest(1-1',1-2',2-1')"),
        ("preimage-outside-domain", ("1-1'", "2-1'", "2-2'"), "Forest(1-1',2-1',2-2')"),
    ]


def _table(images):
    """The mask map reading ``images``; undefined (ValueError) elsewhere."""

    def mapped(x):
        if x not in images:
            raise ValueError(f"no image for {x}")
        return images[x]

    return mapped


def test_verifier_fires_each_branch_once():
    # K_4 edge masks: bit 0 is 1-2, then 1-3, 1-4, 2-3, 2-4, 3-4; 11 = 1-2, 1-3,
    # 2-3 is a triangle
    g = complete_graph(4)
    domain = MaskedForests(g, (1, 2, 8, 16, 32, 9))
    codomain = MaskedForests(g, (3, 5, 6, 10, 12))
    forward = _table({1: 11, 2: 4, 8: 3, 16: 3, 32: 5, 9: 6})
    backward = _table({3: 8, 6: 8, 10: 48, 12: 1})
    record = _verify_on("branches", g, domain, codomain, forward, backward)
    assert (record.domain_size, record.codomain_size, record.verified) == (6, 5, False)
    assert _failures(record) == [
        # the domain loop; 2-3 -> 1-2,1-3 -> 2-3 is the one clean round trip
        ("forward-undefined", ("1-2",), "edge set contains a cycle"),
        ("image-outside-codomain", ("1-3",), "Forest(1-4)"),
        ("not-injective", ("2-4",), "Forest(1-2,1-3)"),
        ("backward-undefined", ("1-2", "1-4"), "no image for 5"),
        ("round-trip", ("1-2", "2-3"), "came back as Forest(2-3)"),
        # the codomain loop skips 1-2,1-3, settled above, and 1-2,1-4, whose
        # backward failure is reported once
        ("round-trip", ("1-3", "1-4"), "came back as Forest(1-2,1-3)"),
        ("preimage-outside-domain", ("1-3", "2-3"), "Forest(2-4,3-4)"),
        ("forward-undefined", ("1-2",), "edge set contains a cycle"),
        ("size-mismatch", ("1-2",), "domain 6 vs codomain 5"),
    ]


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


# ---------------------------------------------------------------------------
# failure reports on hand-built families holding out-of-domain elements: the
# exact (kind, element, detail) of every failure is part of the contract


def _forest(g, *names):
    def v(label):
        return vertex(int(label[:-1]), right=True) if label.endswith("'") else vertex(int(label))

    return spanning_forest(g, [edge(v(a), v(b)) for a, b in (n.split("-") for n in names)])


def _failures(record):
    return [(f.kind, f.element.edge_names(), f.detail) for f in record.failures]


def test_forestbij_failure_reports_are_exact():
    from forest_spectra.bijections import _build_split_families

    labels = (1, 2, 3, 4, 5, 6)
    g = complete_graph_on(labels)
    real = _build_split_families(labels)
    fam = real._replace(
        split_wedge=(
            real.split_wedge[0],
            _forest(g, "1-2", "2-3", "2-4", "5-6"),  # 1 and 4 in one tree; 3-4 closes a cycle
            _forest(g, "1-2", "2-3", "3-4", "5-6"),  # 1 and 4 in one tree through 3-4
            _forest(g, "1-2", "3-4", "4-5", "5-6"),  # no 2-3
            _forest(g, "1-2", "2-3", "5-6"),  # three trees: 5-6 is dropped
            _forest(g, "1-2", "2-3"),  # the same image
        ),
        split_matching=(
            real.split_matching[0],
            _forest(g, "1-2", "3-4"),
            _forest(g, "1-2", "3-4", "5-6"),  # comes back without 5-6
            _forest(g, "1-2", "3-4", "4-5"),  # comes back outside the domain
            _forest(g, "1-2", "4-5", "5-6"),  # no 3-4
            _forest(g, "1-2", "1-3", "3-4", "5-6"),  # 1-2 and 3-4 in one tree; 2-3 closes a cycle
        ),
    )
    record = bijection_forestbij(labels, families=fam)
    assert (record.domain_size, record.codomain_size, record.verified) == (6, 6, False)
    assert _failures(record) == [
        ("forward-undefined", ("1-2", "2-3", "2-4", "5-6"), "edge set contains a cycle"),
        ("image-outside-codomain", ("1-2", "2-3", "3-4", "5-6"), "Forest(1-2,2-3,3-4)"),
        ("forward-undefined", ("1-2", "3-4", "4-5", "5-6"), "edge 2-3 is not in the tree"),
        ("round-trip", ("1-2", "2-3", "5-6"), "came back as Forest(1-2,2-3)"),
        ("not-injective", ("1-2", "2-3"), "Forest(1-2,3-4)"),
        ("round-trip", ("1-2", "3-4", "5-6"), "came back as Forest(1-2,3-4)"),
        ("preimage-outside-domain", ("1-2", "3-4", "4-5"), "Forest(1-2,2-3,4-5)"),
        ("backward-undefined", ("1-2", "4-5", "5-6"), "edge 3-4 is not in the tree"),
        ("backward-undefined", ("1-2", "1-3", "3-4", "5-6"), "edge set contains a cycle"),
    ]


def _with_extras(parts, piece, *extra):
    """``parts`` with piece ``piece`` (1-based) cut to its first element
    and ``extra`` appended."""
    parts = list(parts)
    parts[piece - 1] = parts[piece - 1][:1] + extra
    return tuple(parts)


def test_bipartite_failure_reports_are_exact():
    g = complete_bipartite_graph(3, 3)
    real = build_families(g, 1)
    left = _with_extras(
        real.share_left_parts,
        1,
        _forest(g, "1-1'", "2-1'", "3-1'", "1-3'", "3-2'"),  # no 1-2'
        _forest(g, "1-1'", "1-2'", "2-3'", "3-3'", "3-2'"),  # 2 reaches 2': 2-2' closes a cycle
        _forest(g, "1-1'", "1-2'", "2-2'", "3-1'", "3-3'"),  # already holds 2-2'
    )
    left = _with_extras(
        left,
        4,
        _forest(g, "1-2'", "2-1'", "3-1'", "3-3'", "2-2'"),  # no 1-1', so no 2-1' after the relabel
        _forest(g, "1-1'", "1-2'", "2-3'", "3-3'", "3-1'"),  # the relabel, then 1-1', closes a cycle
    )
    disjoint = _with_extras(
        real.disjoint_parts,
        1,
        _forest(g, "1-1'", "2-2'", "3-1'", "3-3'"),  # the core element's image
        _forest(g, "1-1'", "1-2'", "2-1'", "3-1'", "3-3'"),  # no 2-2'
        _forest(g, "1-1'", "2-2'", "1-3'", "3-3'", "3-2'"),  # 1 reaches 2': 1-2' closes a cycle
    )
    disjoint = _with_extras(disjoint, 4, _forest(g, "1-1'", "1-2'", "2-2'", "3-1'", "3-3'"))
    disjoint = _with_extras(disjoint, 5, _forest(g, "1-1'", "1-2'", "2-1'", "3-1'", "3-3'"))
    right = _with_extras(
        real.share_right_parts,
        2,
        _forest(g, "1-1'", "1-2'", "1-3'", "2-3'", "3-2'"),  # no 2-1'
        _forest(g, "1-1'", "2-1'", "2-3'", "3-3'", "3-2'"),  # 2 reaches 2': 2-2' closes a cycle
    )
    fam = real._replace(share_left_parts=left, disjoint_parts=disjoint, share_right_parts=right)
    records = [bijections_pr123(g, 1, 1, families=fam)]
    records.append(bijection_pr4(g, 1, families=fam))
    records.append(bijection_q2r5(g, 1, families=fam))
    assert [(r.domain_size, r.codomain_size, r.verified) for r in records] == [
        (4, 4, False),
        (3, 2, False),
        (3, 2, False),
    ]
    assert [_failures(r) for r in records] == [
        [
            ("forward-undefined", ("1-1'", "1-3'", "2-1'", "3-1'", "3-2'"), "cannot remove absent edges: 1-2'"),
            ("forward-undefined", ("1-1'", "1-2'", "2-3'", "3-2'", "3-3'"), "edge set contains a cycle"),
            ("round-trip", ("1-1'", "1-2'", "2-2'", "3-1'", "3-3'"), "came back as Forest(1-1',1-2',3-1',3-3')"),
            ("preimage-outside-domain", ("1-1'", "2-2'", "3-1'", "3-3'"), "Forest(1-1',1-2',3-1',3-3')"),
            ("backward-undefined", ("1-1'", "1-2'", "2-1'", "3-1'", "3-3'"), "cannot remove absent edges: 2-2'"),
            ("backward-undefined", ("1-1'", "1-3'", "2-2'", "3-2'", "3-3'"), "edge set contains a cycle"),
        ],
        [
            ("forward-undefined", ("1-2'", "2-1'", "2-2'", "3-1'", "3-3'"), "cannot remove absent edges: 2-1'"),
            ("forward-undefined", ("1-1'", "1-2'", "2-3'", "3-1'", "3-3'"), "edge set contains a cycle"),
            ("preimage-outside-domain", ("1-1'", "1-2'", "2-2'", "3-1'", "3-3'"), "Forest(1-1',1-2',2-2',3-1',3-3')"),
            ("size-mismatch", ("1-1'", "1-2'", "2-3'", "3-2'", "3-3'"), "domain 3 vs codomain 2"),
        ],
        [
            ("forward-undefined", ("1-1'", "1-2'", "1-3'", "2-3'", "3-2'"), "cannot remove absent edges: 2-1'"),
            ("forward-undefined", ("1-1'", "2-1'", "2-3'", "3-2'", "3-3'"), "edge set contains a cycle"),
            ("backward-undefined", ("1-1'", "1-2'", "2-1'", "3-1'", "3-3'"), "cannot remove absent edges: 2-2'"),
            ("size-mismatch", ("1-1'", "1-3'", "2-1'", "3-1'", "3-2'"), "domain 3 vs codomain 2"),
        ],
    ]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_split_families_match_the_brute_force_oracle(n):
    v1, v2, v3, v4 = (vertex(i) for i in range(1, 5))
    wedge = (edge(v1, v2), edge(v2, v3))
    matching = (edge(v1, v2), edge(v3, v4))
    per_subset = build_families(complete_graph(n), 1).per_subset
    spare = range(5, n + 1)
    assert {sf.labels for sf in per_subset} == {
        (1, 2, 3, 4) + extra for size in range(n - 3) for extra in itertools.combinations(spare, size)
    }
    for sf in per_subset:
        g = sf.graph

        def apart(forests, u, v):
            return [s for s in forests if not any({u, v} <= part for part in bfs_partition(g.vertices, s))]

        assert [f.edges for f in sf.trees_wedge] == brute_forests(g, 1, wedge), sf.labels
        assert [f.edges for f in sf.trees_matching] == brute_forests(g, 1, matching), sf.labels
        assert [f.edges for f in sf.split_wedge] == apart(brute_forests(g, 2, wedge), v1, v4), sf.labels
        assert [f.edges for f in sf.split_matching] == apart(brute_forests(g, 2, matching), v1, v3), sf.labels


def _count_map_calls(monkeypatch):
    """Wrap every map :func:`_verify_on` runs in call counters; the returned
    list gains (record, forward calls, backward calls) per check."""
    from forest_spectra import bijections

    checks = []
    verify_on = bijections._verify_on

    def counted(name, g, domain, codomain, forward, backward):
        calls = {"forward": 0, "backward": 0}  # piece 4's two maps are one function

        def count(role, f):
            def mapped(x):
                calls[role] += 1
                return f(x)

            return mapped

        record = verify_on(
            name, g, domain, codomain, count("forward", forward), count("backward", backward)
        )
        checks.append((record, calls["forward"], calls["backward"]))
        return record

    monkeypatch.setattr(bijections, "_verify_on", counted)
    return checks


def test_verified_bijections_run_each_map_once_per_element(monkeypatch):
    checks = _count_map_calls(monkeypatch)
    bijection_forestbij((1, 2, 3, 4, 5, 6))
    g = complete_bipartite_graph(3, 3)
    fam = build_families(g, 1)
    for i in (1, 2, 3):
        bijections_pr123(g, 1, i, families=fam)
    bijection_pr4(g, 1, families=fam)
    bijection_q2r5(g, 1, families=fam)
    assert [record.domain_size for record, _, _ in checks] == [24, 3, 9, 0, 1, 3]
    for record, forward_calls, backward_calls in checks:
        assert record.verified, record.name
        assert (forward_calls, backward_calls) == (record.domain_size, record.codomain_size)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_split_families_match_the_filtered_search(n):
    # the old route as the oracle: every 2-forest through the pair, kept
    # when its own union-find puts u and v in different trees
    from forest_spectra.bijections import _build_split_families
    from forest_spectra.forests import _anchor_pairs, _find, _forest_masks, _mask_union_find

    sf = _build_split_families(range(1, n + 1))
    g = sf.graph
    ends = g.edge_ends
    wedge, matching = _anchor_pairs(g)
    (v1, _), (v3, v4) = matching

    def filtered(pair, u, v):
        u, v = g.vertices.index(u), g.vertices.index(v)
        out = []
        for x in _forest_masks(g, 2, required=pair):
            parent = _mask_union_find(ends, g.vertex_count, x)
            if _find(parent, u) != _find(parent, v):
                out.append(x)
        return out

    assert list(sf.split_wedge.masks) == filtered(wedge, v1, v4)
    assert list(sf.split_matching.masks) == filtered(matching, v1, v3)
    assert sf.split_wedge.masks


def test_hand_built_families_must_hold_spanning_forests():
    g = complete_bipartite_graph(2, 2)
    fam = build_families(g, 1)
    other = build_families(complete_bipartite_graph(2, 3), 1)
    foreign = fam._replace(share_left_parts=other.share_left_parts)
    with pytest.raises(ValueError) as err:
        bijections_pr123(g, 1, 2, families=foreign)
    assert str(err.value) == "Forest(1-1',1-2',1-3',2-1') is not a spanning forest of K_{2,2}"
