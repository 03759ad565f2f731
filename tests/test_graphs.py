from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from forest_spectra import (
    PairClass,
    classify_edge_pair,
    complete_bipartite_graph,
    complete_graph,
    complete_graph_on,
    edge,
    edge_name,
    vertex,
)


def test_complete_graph_k4_edges():
    g = complete_graph(4)
    assert [edge_name(e) for e in g.edges] == ["1-2", "1-3", "1-4", "2-3", "2-4", "3-4"]


def test_complete_graph_sizes():
    assert complete_graph(1).edge_count == 0
    assert complete_graph(7).edge_count == 21


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


def test_complete_graph_on_labels():
    g = complete_graph_on([4, 1, 2, 6])
    assert [edge_name(e) for e in g.edges] == ["1-2", "1-4", "1-6", "2-4", "2-6", "4-6"]


def test_bipartite_edges():
    g = complete_bipartite_graph(2, 2)
    assert [edge_name(e) for e in g.edges] == ["1-1'", "1-2'", "2-1'", "2-2'"]
    assert complete_bipartite_graph(1, 1).edge_count == 1
    assert complete_bipartite_graph(3, 4).edge_count == 12


def test_bipartite_rejects_zero():
    with pytest.raises(ValueError):
        complete_bipartite_graph(0, 2)
    with pytest.raises(ValueError):
        complete_bipartite_graph(2, 0)


def test_classify_complete_pairs():
    g = complete_graph(4)
    e12 = edge(vertex(1), vertex(2))
    e23 = edge(vertex(2), vertex(3))
    e34 = edge(vertex(3), vertex(4))
    assert classify_edge_pair(g, e12, e23) is PairClass.SHARE_VERTEX
    assert classify_edge_pair(g, e12, e34) is PairClass.DISJOINT
    assert classify_edge_pair(g, e12, e12) is PairClass.EQUAL


def test_classify_bipartite_pairs():
    g = complete_bipartite_graph(2, 2)
    a, b = vertex(1), vertex(1, right=True)
    c, d = vertex(2), vertex(2, right=True)
    assert classify_edge_pair(g, edge(a, b), edge(a, d)) is PairClass.SHARE_LEFT
    assert classify_edge_pair(g, edge(a, b), edge(c, b)) is PairClass.SHARE_RIGHT
    assert classify_edge_pair(g, edge(a, b), edge(c, d)) is PairClass.DISJOINT


def test_classify_rejects_foreign_edges():
    g = complete_bipartite_graph(2, 2)
    foreign = edge(vertex(1), vertex(2))  # both endpoints on the left
    with pytest.raises(ValueError):
        classify_edge_pair(g, g.edges[0], foreign)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pair_class_counts_match_eigenvalue_coefficients(n):
    # from a fixed edge: 2(n-2) sharing pairs and (n-2)(n-3)/2 disjoint ones
    g = complete_graph(n)
    e = g.edges[0]
    share = sum(
        1 for e2 in g.edges if classify_edge_pair(g, e, e2) is PairClass.SHARE_VERTEX
    )
    disjoint = sum(
        1 for e2 in g.edges if classify_edge_pair(g, e, e2) is PairClass.DISJOINT
    )
    assert share == 2 * (n - 2)
    assert disjoint == (n - 2) * (n - 3) // 2


@given(st.data())
def test_classify_is_symmetric(data):
    bip = data.draw(st.booleans())
    if bip:
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        g = complete_bipartite_graph(m, n)
    else:
        g = complete_graph(data.draw(st.integers(2, 7)))
    i = data.draw(st.integers(0, g.edge_count - 1))
    j = data.draw(st.integers(0, g.edge_count - 1))
    e, e2 = g.edges[i], g.edges[j]
    assert classify_edge_pair(g, e, e2) is classify_edge_pair(g, e2, e)


def test_edge_requires_distinct_endpoints():
    with pytest.raises(ValueError):
        edge(vertex(3), vertex(3))


def test_vertex_requires_positive_label():
    with pytest.raises(ValueError):
        vertex(0)


GRAPHS = [complete_graph(n) for n in range(1, 9)] + [
    complete_bipartite_graph(m, n) for m in range(1, 6) for n in range(1, 6)
]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_sizes_and_edges_match_the_built_graph(g):
    # the counts come from the sizes, the tuples are built on first read;
    # the oracle is the edge(u, v) construction over the labelled vertices
    left = [vertex(i) for i in range(1, g.left_size + 1)]
    right = [vertex(j, right=True) for j in range(1, g.right_size + 1)]
    if g.right_size:
        oracle = [edge(u, v) for u in left for v in right]
    else:
        oracle = [edge(u, v) for u, v in combinations(left, 2)]
    assert g.vertices == tuple(left + right)
    assert list(g.edges) == oracle
    assert (g.vertex_count, g.edge_count) == (len(g.vertices), len(g.edges))
    assert g.edge_index == {e: i for i, e in enumerate(oracle)}


@pytest.mark.parametrize("n", range(1, 9))
def test_complete_graph_on_one_to_n_is_complete_graph(n):
    g = complete_graph_on(range(1, n + 1))
    assert g == complete_graph(n) and hash(g) == hash(complete_graph(n))
    assert complete_graph_on(reversed(range(1, n + 1))) == g


def test_complete_graph_on_refuses_a_label_below_one():
    with pytest.raises(ValueError, match="vertex labels are positive integers, got 0"):
        complete_graph_on([0, 3])


@pytest.mark.parametrize("sizes", [(5,), (2, 3)], ids=["K5", "K23"])
def test_a_graph_is_freed_once_its_caller_drops_it(sizes):
    # what the kernels build from a graph (its edge list, index and endpoint
    # positions) is held by the graph, not by a cache that outlives it
    import gc
    import weakref

    from forest_spectra import build_families, count_forests_constrained, structured_params, tilde_hessian

    g = complete_graph(*sizes) if len(sizes) == 1 else complete_bipartite_graph(*sizes)
    ref = weakref.ref(g)
    e, e2 = g.edges[0], g.edges[-1]
    out = [
        count_forests_constrained(g, 2, required=[e]),
        structured_params(tilde_hessian(g, 2), g),
        build_families(g, 2),
        classify_edge_pair(g, e, e2),
    ]
    del g, out
    gc.collect()
    assert ref() is None
