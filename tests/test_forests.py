import time
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import assume, given, strategies as st

from forest_spectra import (
    Forest,
    PairCounts,
    count_forests_constrained,
    complete_bipartite_graph,
    complete_graph,
    complete_graph_on,
    edge,
    edge_name,
    edge_pair_counts,
    enumerate_forests,
    enumerate_forests_constrained,
    moon_tree_counts,
    pq_decomposition,
    spanning_forest,
    split_tree_at_edge,
    vertex,
)
from forest_spectra.errors import InsufficientVertices, TooLarge
from forest_spectra.forests import _anchor_pairs, _bipartite_through, _forests_by_size, _forests_through

from conftest import (
    brute_acyclic_subset_count,
    brute_count,
    brute_forests,
    bfs_component_count,
    bfs_partition,
    bipartite_tree_counts,
    is_acyclic,
    recurrence_bipartite_forests,
    recurrence_bipartite_pair_counts,
    recurrence_forest_count,
    subset_sum_decomposition,
)

E12 = edge(vertex(1), vertex(2))
E23 = edge(vertex(2), vertex(3))
E34 = edge(vertex(3), vertex(4))

# forests on n labeled vertices with k tree components, checked against the
# naive subset oracle for n <= 6 and an exponential-generating-function
# computation for n = 7
COMPLETE_COUNTS = {
    4: [16, 15, 6, 1],
    5: [125, 110, 45, 10, 1],
    6: [1296, 1080, 435, 105, 15, 1],
    7: [16807, 13377, 5250, 1295, 210, 21, 1],
}

BIPARTITE_COUNTS = {
    (2, 2): [4, 6, 4, 1],
    (2, 3): [12, 20, 15, 6, 1],
    (3, 3): [81, 117, 84, 36, 9, 1],
    (3, 4): [432, 648, 477, 220, 66, 12, 1],
    (4, 4): [4096, 5632, 3936, 1784, 560, 120, 16, 1],
}


@pytest.mark.parametrize("n", sorted(COMPLETE_COUNTS))
def test_complete_forest_counts(n):
    g = complete_graph(n)
    got = [len(enumerate_forests(g, k)) for k in range(1, n + 1)]
    assert got == COMPLETE_COUNTS[n]


@pytest.mark.parametrize("mn", sorted(BIPARTITE_COUNTS))
def test_bipartite_forest_counts(mn):
    g = complete_bipartite_graph(*mn)
    got = [len(enumerate_forests(g, k)) for k in range(1, sum(mn) + 1)]
    assert got == BIPARTITE_COUNTS[mn]


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), complete_graph(5), complete_bipartite_graph(2, 3)],
    ids=["K4", "K5", "K23"],
)
def test_enumeration_matches_subset_oracle(g):
    for k in range(1, g.vertex_count + 1):
        got = {f.edges for f in enumerate_forests(g, k)}
        assert got == set(brute_forests(g, k))


@pytest.mark.parametrize(
    "g",
    [complete_graph(5), complete_graph(6), complete_bipartite_graph(3, 3)],
    ids=["K5", "K6", "K33"],
)
def test_total_forests_equal_acyclic_subsets(g):
    total = sum(len(enumerate_forests(g, k)) for k in range(1, g.vertex_count + 1))
    assert total == brute_acyclic_subset_count(g)


def test_enumeration_order_and_validity():
    g = complete_graph(5)
    forests = enumerate_forests(g, 2)
    index = g.edge_index
    tuples = [tuple(sorted(index[e] for e in f.edges)) for f in forests]
    assert tuples == sorted(tuples)
    assert len(set(tuples)) == len(tuples)
    for f in forests[:50]:
        nxg = nx.Graph()
        nxg.add_nodes_from(f.vertices)
        nxg.add_edges_from(f.edges)
        assert nx.is_forest(nxg)
        assert nx.number_connected_components(nxg) == 2


def test_enumerate_rejects_bad_k():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        enumerate_forests(g, 0)
    with pytest.raises(ValueError):
        enumerate_forests(g, 5)


def test_constrained_counts_examples():
    g = complete_graph(4)
    assert count_forests_constrained(g, 1, required=(E12, E23)) == 3
    assert count_forests_constrained(g, 1, required=(E12, E34)) == 4
    assert count_forests_constrained(g, 4) == 1


def test_constrained_counts_forbidden_and_oracle():
    g = complete_graph(5)
    e15 = edge(vertex(1), vertex(5))
    for k in (1, 2, 3):
        assert count_forests_constrained(g, k, required=(E12,), forbidden=(e15,)) == brute_count(
            g, k, required=(E12,), forbidden=(e15,)
        )


def test_constrained_overlap_rejected():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        count_forests_constrained(g, 1, required=(E12,), forbidden=(E12,))


COUNTING_GRAPHS = [complete_graph(n) for n in range(3, 8)] + [
    complete_bipartite_graph(m, n) for m in range(2, 5) for n in range(m, 5)
]


@pytest.mark.parametrize("g", COUNTING_GRAPHS, ids=lambda g: g.name)
def test_counts_match_enumeration(g):
    for k in range(1, g.vertex_count + 1):
        assert count_forests_constrained(g, k) == len(enumerate_forests_constrained(g, k)), k


@given(data=st.data())
def test_constrained_counts_match_subset_oracle(data):
    g = data.draw(st.sampled_from([complete_graph(5), complete_bipartite_graph(3, 3)]))
    k = data.draw(st.integers(1, g.vertex_count))
    # each edge is free, required or forbidden, so the two sets never overlap
    roles = data.draw(st.lists(st.sampled_from("frx"), min_size=g.edge_count, max_size=g.edge_count))
    required = [e for e, role in zip(g.edges, roles) if role == "r"]
    forbidden = [e for e, role in zip(g.edges, roles) if role == "x"]
    assert count_forests_constrained(g, k, required, forbidden) == brute_count(g, k, required, forbidden)


def _edges_on(*pairs, right=False):
    return tuple(edge(vertex(a), vertex(b, right=right)) for a, b in pairs)


def test_required_cycle_gives_zero():
    cases = [
        (complete_graph(4), _edges_on((1, 2), (2, 3), (1, 3))),
        (complete_graph(6), _edges_on((1, 2), (2, 3), (3, 4), (1, 4), (5, 6))),
        (complete_bipartite_graph(2, 2), _edges_on((1, 1), (1, 2), (2, 1), (2, 2), right=True)),
        (complete_bipartite_graph(3, 3), _edges_on((1, 1), (2, 1), (2, 2), (1, 2), right=True)),
    ]
    for g, required in cases:
        for k in range(1, g.vertex_count + 1):
            assert count_forests_constrained(g, k, required=required) == 0, (g.name, k)
            assert enumerate_forests_constrained(g, k, required=required) == (), (g.name, k)


@pytest.mark.parametrize(
    "k, required, forbidden, message",
    [
        (0, (), (), "component count k=0 out of range 1..4"),
        (5, (), (), "component count k=5 out of range 1..4"),
        (1.0, (), (), "component count k=1.0 out of range 1..4"),
        (1, (E12, E23), (E23, E12), "required and forbidden edges overlap: 1-2, 2-3"),
        (1, (edge(vertex(1), vertex(5)),), (), "1-5 is not an edge of K_4"),
        (1, (), (edge(vertex(1), vertex(1, right=True)),), "1-1' is not an edge of K_4"),
        # validation runs before the search: a bad k wins over a foreign edge
        (9, (edge(vertex(1), vertex(5)),), (), "component count k=9 out of range 1..4"),
    ],
)
def test_constrained_rejections_keep_their_messages(k, required, forbidden, message):
    g = complete_graph(4)
    for search in (count_forests_constrained, enumerate_forests_constrained):
        with pytest.raises(ValueError) as err:
            search(g, k, required=required, forbidden=forbidden)
        assert str(err.value) == message


def test_pair_counts_k4():
    counts = edge_pair_counts(complete_graph(4), 1)
    assert (counts.p, counts.q, counts.r) == (3, 4, None)


def test_pair_counts_k22():
    counts = edge_pair_counts(complete_bipartite_graph(2, 2), 1)
    assert (counts.p, counts.q, counts.r) == (2, 2, 2)


def test_pair_counts_k5_frozen():
    counts = edge_pair_counts(complete_graph(5), 2)
    assert (counts.p, counts.q) == (7, 8)
    assert counts.q - counts.p > 0


def test_pair_counts_k6_frozen():
    counts = edge_pair_counts(complete_graph(6), 2)
    assert (counts.p, counts.q) == (57, 68)


def test_pair_counts_range_errors():
    with pytest.raises(InsufficientVertices):
        edge_pair_counts(complete_graph(3), 1)
    with pytest.raises(ValueError):
        edge_pair_counts(complete_graph(4), 2)
    with pytest.raises(InsufficientVertices):
        edge_pair_counts(complete_bipartite_graph(1, 3), 1)
    with pytest.raises(ValueError):
        edge_pair_counts(complete_bipartite_graph(2, 2), 2)


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in (4, 5, 6)]
    + [complete_bipartite_graph(m, n) for m in (2, 3) for n in (2, 3)],
    ids=["K4", "K5", "K6", "K22", "K23", "K32", "K33"],
)
def test_entry_uniformity_within_pair_classes(g):
    # same count for every edge pair in one class, not just the anchored one
    from forest_spectra import classify_edge_pair, theorem_range

    for k in range(1, g.vertex_count + 1):
        if not theorem_range(g, k):
            continue
        per_class = {}
        for i, e in enumerate(g.edges):
            for e2 in g.edges[i + 1 :]:
                cls = classify_edge_pair(g, e, e2)
                c = count_forests_constrained(g, k, required=(e, e2))
                per_class.setdefault(cls, set()).add(c)
        assert all(len(values) == 1 for values in per_class.values()), k


def test_moon_formula_values():
    assert moon_tree_counts(4) == (3, 4)
    assert moon_tree_counts(5) == (15, 20)
    with pytest.raises(ValueError):
        moon_tree_counts(3)


@pytest.mark.parametrize("w", [4, 5, 6])
def test_moon_matches_enumeration(w):
    g = complete_graph(w)
    adjacent, disjoint = moon_tree_counts(w)
    assert count_forests_constrained(g, 1, required=(E12, E23)) == adjacent
    assert count_forests_constrained(g, 1, required=(E12, E34)) == disjoint


def test_pq_decomposition_k1_has_no_f_term():
    d = pq_decomposition(5, 1)
    assert (d.t, d.f) == (5, 0)
    counts = edge_pair_counts(complete_graph(5), 1)
    assert counts.p == 3 * d.t and counts.q == 4 * d.t


@pytest.mark.parametrize(
    "n,k,expected",
    [(5, 2, (1, 4)), (6, 2, (11, 24)), (6, 3, (1, 9)), (7, 2, (126, 196))],
)
def test_pq_decomposition_frozen(n, k, expected):
    d = pq_decomposition(n, k)
    assert (d.t, d.f) == expected


@pytest.mark.parametrize("n,k", [(n, k) for n in range(4, 11) for k in range(1, n - 2)])
def test_pq_identity_against_counts(n, k):
    # the closed forms against the constrained frontier walk through each
    # anchored pair on K_4..K_10 at every k
    g = complete_graph(n)
    walk = [count_forests_constrained(g, k, required=pair) for pair in _anchor_pairs(g)]
    d = pq_decomposition(n, k)
    assert walk == [3 * d.t + d.f, 4 * d.t + d.f]
    assert edge_pair_counts(g, k) == PairCounts(*walk)


def test_pair_counts_answer_where_the_walk_refuses():
    # the constrained walk refuses K_20 at k = 10; the closed form answers
    # at once, and matches the paper's subset sums
    g = complete_graph(20)
    with pytest.raises(TooLarge, match="frontier walk over 153 arcs"):
        count_forests_constrained(g, 10, required=_anchor_pairs(g)[0])
    start = time.perf_counter()
    counts = edge_pair_counts(g, 10)
    assert time.perf_counter() - start < 1.0
    d = pq_decomposition(20, 10)
    assert (counts.p, counts.q) == (3 * d.t + d.f, 4 * d.t + d.f)
    assert (d.t, d.f) == subset_sum_decomposition(20, 10)


@pytest.mark.parametrize(
    "labels,missing",
    [([2, 5, 6, 7, 8], "1-2"), ([1, 3, 4, 5, 6], "1-2"), ([1, 2, 4, 5, 6], "2-3"), ([1, 2, 3, 5, 6], "3-4")],
)
def test_pair_counts_name_the_first_missing_anchor_edge(labels, missing):
    # the anchors 1-2, 2-3, 3-4 are checked in order, after the size and k
    g = complete_graph_on(labels)
    with pytest.raises(ValueError) as err:
        edge_pair_counts(g, 1)
    assert str(err.value) == f"{missing} is not an edge of K_5"
    with pytest.raises(ValueError, match="outside the range"):
        edge_pair_counts(g, 3)


@pytest.mark.parametrize("n", range(4, 61))
def test_pq_decomposition_matches_the_subset_sum_oracle(n):
    # the closed forms against the paper's sums over the anchors' tree
    for k in range(1, n - 2):
        d = pq_decomposition(n, k)
        assert (d.t, d.f) == subset_sum_decomposition(n, k), (n, k)


def test_pq_decomposition_matches_the_subset_sums_at_k400():
    # the recurrence oracle is too slow here; its sums run on the a = 1
    # closed form, which the recurrence checks below
    d = pq_decomposition(400, 200)
    assert (d.t, d.f) == subset_sum_decomposition(400, 200, _forests_by_size)


def test_pq_decomposition_answers_k2000_at_k1000_at_once():
    start = time.perf_counter()
    d = pq_decomposition(2000, 1000)
    assert time.perf_counter() - start < 1.0
    assert d.t > 0 and d.f > 0


@pytest.mark.parametrize("n", [*range(61), 10**3, 10**5])
def test_forests_through_an_edge_double_count_the_edges(n):
    # each k-forest holds n - k of the C(n, 2) edges, each edge lying in
    # as many k-forests as any other
    ks = range(-1, n + 2) if n <= 60 else (1, 2, n - 3, n - 1, n)
    for k in ks:
        assert _forests_through(n, k, 2) * comb(n, 2) == _forests_by_size(n, k) * (n - k), (n, k)


@pytest.mark.parametrize("n", range(11))
def test_forests_by_size_recursion_matches_counting(n):
    # the closed form against the frontier count on K_1..K_10 at
    # every k, and against the subset oracle on K_1..K_6
    expected = [1 if n == 0 else 0]
    if n:
        g = complete_graph(n)
        expected += [count_forests_constrained(g, j) for j in range(1, n + 1)]
        if n <= 6:
            assert expected[1:] == [brute_count(g, j) for j in range(1, n + 1)]
    assert [_forests_by_size(n, j) for j in range(n + 2)] == expected + [0]


@pytest.mark.parametrize("n", range(61))
def test_forests_by_size_matches_the_recurrence_oracle(n):
    # Renyi's formula against the tree-through-vertex-1 recurrence at every k
    assert [_forests_by_size(n, k) for k in range(-1, n + 2)] == [
        recurrence_forest_count(n, k) for k in range(-1, n + 2)
    ]


@pytest.mark.parametrize("n", [10**3, 10**5, 10**6])
def test_forests_by_size_at_few_edges_and_one_tree(n):
    # up to three edges every subset is a forest but the triangles, so
    # F(n, n-j) counts edge subsets; one tree is Cayley's n^(n-2)
    pairs = comb(n, 2)
    assert _forests_by_size(n, n) == 1
    assert _forests_by_size(n, n - 1) == pairs
    assert _forests_by_size(n, n - 2) == comb(pairs, 2)
    assert _forests_by_size(n, n - 3) == comb(pairs, 3) - comb(n, 3)
    if n <= 10**5:
        assert _forests_by_size(n, 1) == n ** (n - 2)


def test_forests_by_size_needs_no_recursion():
    # the formula is one loop over min(k, n - k) + 1 terms, so k levels take
    # no call stack: a recursion over k = 4999 would pass Python's limit;
    # one edge is a (n-1)-forest, so there are C(n, 2)
    assert _forests_by_size(5000, 4999) == comb(5000, 2)


def test_a_table_past_the_work_limit_refuses_itself():
    # pq_decomposition reads p from the closed form for the forests of
    # K_100000 through the wedge 1-2-3, which is refused before its first
    # Horner step
    start = time.perf_counter()
    formula = (
        "the closed form for the 50000-component forests of K_100000 "
        "through a fixed 3-vertex tree is estimated at "
    )
    with pytest.raises(TooLarge, match=formula):
        pq_decomposition(100000, 50000)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 7) for n in range(2, 7)])
def test_bipartite_pair_counts_match_the_walks_and_the_recurrence(m, n):
    # the closed form against the constrained frontier walk through each
    # anchored pair, and against the recurrence on the tree through vertex
    # 1, on K_{2,2}..K_{6,6} at every k in range
    g = complete_bipartite_graph(m, n)
    for k in range(1, m + n - 2):
        walk = PairCounts(*(count_forests_constrained(g, k, required=pair) for pair in _anchor_pairs(g)))
        assert edge_pair_counts(g, k) == walk == PairCounts(*recurrence_bipartite_pair_counts(m, n, k)), k


@pytest.mark.parametrize("a,b", [(a, b) for a in range(2, 6) for b in range(2, 6)])
def test_bipartite_tree_counts_match_the_walk(a, b):
    # the recurrence's spanning-tree counts through an edge and through
    # each anchored pair, against the constrained walk on K_{a,b}
    g = complete_bipartite_graph(a, b)
    edge_ = _anchor_pairs(g)[0][0]
    walk = [count_forests_constrained(g, 1, required=(edge_,))]
    walk += [count_forests_constrained(g, 1, required=pair) for pair in _anchor_pairs(g)]
    assert list(bipartite_tree_counts(a, b)) == walk


# fixed trees by their left and right vertices: a vertex, an edge, both
# wedges, paths and a caterpillar
_FIXED_TREES = {
    (1, 0): [],
    (1, 1): [(1, 1)],
    (1, 2): [(1, 1), (1, 2)],
    (2, 1): [(1, 1), (2, 1)],
    (2, 2): [(1, 1), (2, 1), (2, 2)],
    (3, 2): [(1, 1), (2, 1), (2, 2), (3, 2)],
    (2, 3): [(1, 1), (1, 2), (1, 3), (2, 3)],
}


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 6)])
def test_bipartite_forests_through_a_fixed_tree_match_the_walk(m, n):
    # the count depends only on the fixed tree's part sizes; 0 outside
    # 1..V, as for no forest at all
    g = complete_bipartite_graph(m, n)
    for (s, t), pairs in _FIXED_TREES.items():
        if s > m or t > n:
            continue
        tree = [edge(vertex(i), vertex(j, right=True)) for i, j in pairs]
        for k in range(-1, m + n + 2):
            expected = count_forests_constrained(g, k, required=tree) if 1 <= k <= m + n else 0
            assert _bipartite_through(m, n, k, s, t) == expected, (s, t, k)


@pytest.mark.parametrize("m", range(1, 13))
def test_bipartite_forest_counts_match_the_recurrence(m):
    for n in range(1, 13):
        assert [_bipartite_through(m, n, k, 1, 0) for k in range(m + n + 2)] == [
            recurrence_bipartite_forests(m, n, k) for k in range(m + n + 2)
        ], n


def test_bipartite_pair_counts_mirror_the_parts():
    # swapping the parts swaps the two wedges and keeps the disjoint pairs
    for m, n, k in [*((m, n, k) for m in range(2, 9) for n in range(2, 9) for k in range(1, m + n - 2)),
                    (20, 7, 12), (30, 50, 20), (1000, 3, 1), (200, 150, 100)]:
        pq = edge_pair_counts(complete_bipartite_graph(m, n), k)
        qp = edge_pair_counts(complete_bipartite_graph(n, m), k)
        assert (pq.p, pq.q, pq.r) == (qp.q, qp.p, qp.r), (m, n, k)


def test_bipartite_pair_counts_answer_where_the_walks_refuse():
    # the constrained walks refuse K_{10,10} and K_{20,20}; the closed form
    # answers K_{8,8} and K_{9,9} at k = 1 in milliseconds, and K_{20,20} at
    # k = 10 equals the recurrence and satisfies the paper's signs
    from forest_spectra import predicted_signs

    for size in (10, 20):
        g = complete_bipartite_graph(size, size)
        with pytest.raises(TooLarge, match="frontier walk over"):
            count_forests_constrained(g, 1, required=_anchor_pairs(g)[0])
    for size in (8, 9):
        start = time.perf_counter()
        counts = edge_pair_counts(complete_bipartite_graph(size, size), 1)
        assert time.perf_counter() - start < 0.01
        assert list(bipartite_tree_counts(size, size))[1:] == [counts.p, counts.q, counts.r]
    start = time.perf_counter()
    counts = edge_pair_counts(complete_bipartite_graph(20, 20), 10)
    assert time.perf_counter() - start < 1.0
    assert (counts.p, counts.q, counts.r) == recurrence_bipartite_pair_counts(20, 20, 10)
    assert predicted_signs(counts, (20, 20)).all_satisfied


def test_bipartite_closed_form_refuses_before_it_computes(monkeypatch):
    # the estimate comes first: the formula's tables and binomials would
    # fail here if it ran
    from forest_spectra import forests

    def never(*args):
        raise AssertionError("the oversized formula passed its guard")

    monkeypatch.setattr(forests, "accumulate", never)
    monkeypatch.setattr(forests, "comb", never)
    formula = (
        "the closed form for the 1500-component forests of K_{3000,3000} through a fixed "
        "tree on 1 left and 2 right vertices is estimated at 7.16e+08 integer operations, "
        "over the limit of 1e+08"
    )
    start = time.perf_counter()
    with pytest.raises(TooLarge) as err:
        edge_pair_counts(complete_bipartite_graph(3000, 3000), 1500)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == formula


def test_bipartite_closed_form_answers_within_its_estimate(monkeypatch):
    # K_{100000,100000}'s spanning trees through a left wedge are estimated
    # at a tenth of the limit, and answered
    from forest_spectra import forests

    assert _bipartite_through(100000, 100000, 1, 1, 2) == bipartite_tree_counts(100000, 100000)[1]
    monkeypatch.setattr(forests, "MAX_FRONTIER_WORK", 10**7)
    with pytest.raises(TooLarge, match=r"estimated at 1\.10e\+07 integer operations"):
        _bipartite_through(100000, 100000, 1, 1, 2)


def test_bipartite_spanning_tree_counts_match_scoins_formula():
    for m in range(1, 6):
        for n in range(1, 6):
            g = complete_bipartite_graph(m, n)
            assert count_forests_constrained(g, 1) == m ** (n - 1) * n ** (m - 1), (m, n)


def test_pq_decomposition_range_errors():
    with pytest.raises(ValueError):
        pq_decomposition(3, 1)
    with pytest.raises(ValueError):
        pq_decomposition(5, 3)


def test_split_tree_path():
    g = complete_graph(3)
    tree = Forest(g, frozenset(g.vertices), frozenset((E12, E23)))
    side2, side3 = split_tree_at_edge(tree, E23)
    assert side2.vertices == {vertex(1), vertex(2)} and side2.edges == {E12}
    assert side3.vertices == {vertex(3)} and not side3.edges


def test_split_tree_star():
    g = complete_graph(4)
    e24 = edge(vertex(2), vertex(4))
    star = Forest(g, frozenset(g.vertices), frozenset((E12, E23, e24)))
    side2, side3 = split_tree_at_edge(star, E23)
    assert side2.vertices == {vertex(1), vertex(2), vertex(4)}
    assert side2.edges == {E12, e24}
    assert side3.vertices == {vertex(3)}


def test_split_single_edge():
    g = complete_graph(2)
    tree = spanning_forest(g, [E12])
    a, b = split_tree_at_edge(tree, E12)
    assert a.vertices == {vertex(1)} and b.vertices == {vertex(2)}


def test_split_tree_errors():
    g = complete_graph(4)
    two_trees = spanning_forest(g, [E12, E34])
    with pytest.raises(ValueError):
        split_tree_at_edge(two_trees, E12)
    tree = Forest(g, frozenset([vertex(1), vertex(2)]), frozenset([E12]))
    with pytest.raises(ValueError):
        split_tree_at_edge(tree, E23)


def test_forest_rejects_cycles():
    g = complete_graph(3)
    e13 = edge(vertex(1), vertex(3))
    with pytest.raises(ValueError):
        spanning_forest(g, [E12, E23, e13])


def _verts(*labels):
    return frozenset(vertex(i) for i in labels)


def _edges(*pairs):
    return frozenset(edge(vertex(a), vertex(b)) for a, b in pairs)


_TRIANGLE = ((1, 2), (2, 3), (1, 3))


@pytest.mark.parametrize(
    "graph,vertices,edges,message",
    [
        (complete_graph(3), frozenset(), frozenset(), "a forest needs at least one vertex"),
        (complete_graph(3), _verts(1, 4), frozenset(), "forest vertices must belong to the graph"),
        (
            complete_bipartite_graph(2, 2),
            frozenset(complete_bipartite_graph(2, 2).vertices),
            _edges((1, 2)),
            "1-2 is not an edge of K_{2,2}",
        ),
        (complete_graph(4), _verts(1, 2), _edges((1, 2), (2, 3)), "edge 2-3 leaves the vertex set"),
        (complete_graph(3), _verts(1, 2, 3), _edges(*_TRIANGLE), "edge set contains a cycle"),
        (complete_graph(4), _verts(1, 2, 3), _edges(*_TRIANGLE), "edge set contains a cycle"),
        # two defects: the first check in the order above names the input
        (complete_graph(3), frozenset(), _edges(*_TRIANGLE), "a forest needs at least one vertex"),
        (complete_graph(4), _verts(1, 2, 3), _edges(*_TRIANGLE, (3, 4)), "edge 3-4 leaves the vertex set"),
        (
            complete_bipartite_graph(2, 2),
            frozenset(complete_bipartite_graph(2, 2).vertices),
            frozenset(complete_bipartite_graph(2, 2).edges) | _edges((1, 2)),
            "1-2 is not an edge of K_{2,2}",
        ),
    ],
    ids=[
        "empty",
        "foreign-vertex",
        "non-edge",
        "leaves-vertex-set",
        "cycle",
        "cycle-restricted",
        "empty-and-cycle",
        "cycle-and-leaving-edge",
        "cycle-and-non-edge",
    ],
)
def test_forest_rejections_name_the_defect(graph, vertices, edges, message):
    with pytest.raises(ValueError) as err:
        Forest(graph, vertices, edges)
    assert str(err.value) == message


def _first_defect(g, verts, edges):
    """The message an edge-by-edge validation gives, or None for a forest."""
    if not verts:
        return "a forest needs at least one vertex"
    if not verts <= set(g.vertices):
        return "forest vertices must belong to the graph"
    for e in edges:
        if not g.has_edge(e):
            return f"{edge_name(e)} is not an edge of {g.name}"
        if not set(e) <= verts:
            return f"edge {edge_name(e)} leaves the vertex set"
    return None if is_acyclic(verts, edges) else "edge set contains a cycle"


@given(data=st.data())
def test_forest_accepts_exactly_the_valid_inputs(data):
    g = data.draw(st.sampled_from([complete_graph(4), complete_bipartite_graph(2, 3)]))
    foreign = vertex(9)
    verts = data.draw(st.frozensets(st.sampled_from(g.vertices + (foreign,))))
    extra = (edge(vertex(1), vertex(2)), edge(vertex(1), foreign))
    edges = data.draw(st.frozensets(st.sampled_from(g.edges + extra)))
    defect = _first_defect(g, verts, edges)
    if defect is None:
        f = Forest(g, verts, edges)
        assert f.component_count == bfs_component_count(verts, edges)
    else:
        with pytest.raises(ValueError) as err:
            Forest(g, verts, edges)
        assert str(err.value) == defect


@given(data=st.data())
def test_component_queries_match_bfs_partition(data):
    g = data.draw(st.sampled_from([complete_graph(4), complete_bipartite_graph(2, 3)]))
    verts = data.draw(
        st.one_of(st.just(frozenset(g.vertices)), st.frozensets(st.sampled_from(g.vertices), min_size=1))
    )
    inside = [e for e in g.edges if set(e) <= verts]
    edges = data.draw(st.frozensets(st.sampled_from(inside))) if inside else frozenset()
    assume(is_acyclic(verts, edges))
    f = Forest(g, verts, edges)
    parts = bfs_partition(verts, edges)
    comps = f.components()
    assert len(comps) == bfs_component_count(verts, edges) == f.component_count
    assert [c.vertices for c in comps] == parts
    for c in comps:
        assert bfs_component_count(c.vertices, c.edges) == 1
        assert len(c.edges) == len(c.vertices) - 1
    assert sum(len(c.edges) for c in comps) == len(edges)
    assert frozenset().union(*(c.edges for c in comps)) == edges
    for u in verts:
        (part,) = [p for p in parts if u in p]
        assert f.component_containing(u) == comps[parts.index(part)]
        for v in verts:
            assert f.same_component(u, v) == (v in part)


def test_component_queries_reject_vertices_outside_the_forest():
    g = complete_graph(4)
    foreign = vertex(9)
    message = f"vertex {foreign} is not in this forest"
    f = spanning_forest(g, [E12])
    for u, v in ((vertex(1), foreign), (foreign, vertex(1))):
        with pytest.raises(ValueError) as err:
            f.same_component(u, v)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        f.component_containing(foreign)
    assert str(err.value) == message
    restricted = Forest(g, _verts(1, 2), _edges((1, 2)))
    with pytest.raises(ValueError, match="is not in this forest"):
        restricted.same_component(vertex(1), vertex(3))


def test_replace_edges_validates():
    g = complete_graph(4)
    f = spanning_forest(g, [E12, E23])
    e13 = edge(vertex(1), vertex(3))
    with pytest.raises(ValueError):
        f.replace_edges(add=(e13,))  # closes the triangle
    with pytest.raises(ValueError):
        f.replace_edges(remove=(E34,))  # not present
    swapped = f.replace_edges(remove=(E23,), add=(E34,))
    assert swapped.edges == {E12, E34}


def test_constrained_enumeration_respects_constraints():
    g = complete_bipartite_graph(2, 3)
    a, b = vertex(1), vertex(1, right=True)
    ab = edge(a, b)
    for f in enumerate_forests_constrained(g, 2, required=(ab,)):
        assert ab in f.edges


def test_masked_forests_read_as_a_tuple_of_forests():
    from forest_spectra.forests import MaskedForests, _forest_masks

    g = complete_bipartite_graph(2, 3)
    forests = enumerate_forests(g, 2)
    view = MaskedForests(g, _forest_masks(g, 2))
    assert len(view) == len(forests) and tuple(view) == forests
    assert view[3] == forests[3] and view[-1] == forests[-1]
    assert view[1:4] == forests[1:4]
    assert [sum(1 << g.edge_index[e] for e in f.edges) for f in forests] == list(view.masks)
    converted = MaskedForests.of(g, forests)
    assert converted == view and hash(converted) == hash(view)
    assert MaskedForests.of(g, view) is view
    restricted = Forest(g, _verts(1, 2), frozenset())
    with pytest.raises(ValueError, match="is not a spanning forest"):
        MaskedForests.of(g, forests + (restricted,))


def test_masked_forests_items_skip_revalidation(monkeypatch):
    # the search proved each mask acyclic; a user-built Forest still validates
    from forest_spectra.forests import MaskedForests, _forest_masks

    g = complete_bipartite_graph(2, 3)
    view = MaskedForests(g, _forest_masks(g, 2))
    validate = Forest.__post_init__

    def never(self):
        raise AssertionError("a search mask was validated again")

    monkeypatch.setattr(Forest, "__post_init__", never)
    items = tuple(view)
    with pytest.raises(AssertionError):
        spanning_forest(g, [])
    monkeypatch.setattr(Forest, "__post_init__", validate)
    validated = tuple(spanning_forest(g, f.edges) for f in items)
    assert items == validated and list(map(hash, items)) == list(map(hash, validated))
    assert [f.components() for f in items] == [f.components() for f in validated]


@given(st.data())
def test_frontier_walks_match_the_subset_oracle_in_any_edge_order(data):
    # arbitrary simple graphs with their edges in arbitrary order, so vertices
    # enter and leave the frontier in orders the canonical edge list never
    # shows; both walks against subsets from itertools.combinations
    from forest_spectra.forests import _count_by_frontier, _pair_counts_by_frontier

    nverts = data.draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(nverts) for v in range(u + 1, nverts)]
    ends = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    ends = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in ends]
    need = data.draw(st.integers(0, nverts))
    vertices = range(nverts)
    subsets = [s for s in combinations(range(len(ends)), need) if is_acyclic(vertices, [ends[i] for i in s])]
    arcs = {}
    for u, v in ends:
        arcs[min(u, v), max(u, v)] = 1
    assert _count_by_frontier(arcs, need) == len(subsets)
    expected = [[0] * len(ends) for _ in ends]
    for s in subsets:
        for y, x in combinations(s, 2):
            expected[x][y] += 1
    assert _pair_counts_by_frontier(ends, need) == expected


def test_frontier_walks_refuse_oversized_inputs_before_any_state():
    from forest_spectra.forests import _frontier_schedule

    k13 = complete_graph(13).edge_ends
    k10 = complete_graph(10).edge_ends
    # K_10's pair walk (27 integers of up to 24750 bits) stays under the limit,
    # K_13's (36 of up to 120120 bits) and the counts of K_13 and K_30 are refused
    assert len(_frontier_schedule(k10, 27, 24750)) == 45
    for ints, bits in ((36, 120120), (12, 0)):
        with pytest.raises(ValueError, match="is estimated at more than .* integer operations"):
            _frontier_schedule(k13, ints, bits)
    with pytest.raises(ValueError, match=r"frontier walk over 435 arcs"):
        _frontier_schedule(complete_graph(30).edge_ends, 29, 0)
