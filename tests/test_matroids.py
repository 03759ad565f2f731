import pytest
from hypothesis import given, settings, strategies as st

from forest_spectra import (
    Matroid,
    basis_generating_polynomial,
    complete_bipartite_graph,
    complete_graph,
    enumerate_forests,
    forest_generating_polynomial,
    graphic_matroid,
    truncate,
    verify_exchange_axiom,
)

from conftest import brute_forests, pairwise_exchange_axiom


def test_graphic_matroid_k4():
    m = graphic_matroid(complete_graph(4))
    assert m.basis_count == 16
    assert m.rank == 3


def test_graphic_matroid_k22():
    m = graphic_matroid(complete_bipartite_graph(2, 2))
    assert m.basis_count == 4
    assert m.rank == 3


def test_graphic_matroid_k2():
    m = graphic_matroid(complete_graph(2))
    assert m.basis_count == 1
    assert m.rank == 1


def test_truncate_counts():
    m = graphic_matroid(complete_graph(4))
    assert truncate(m, 2).basis_count == 15
    assert truncate(m, 1).basis_count == 6
    assert truncate(m, 3) is m


def test_truncate_range():
    m = graphic_matroid(complete_graph(4))
    with pytest.raises(ValueError):
        truncate(m, 0)
    with pytest.raises(ValueError):
        truncate(m, 4)


def test_truncated_bases_are_small_forests():
    g = complete_graph(5)
    m = truncate(graphic_matroid(g), 3)
    assert set(m.bases) == {f.edges for f in enumerate_forests(g, 2)}


def test_exchange_axiom_graphic():
    assert verify_exchange_axiom(graphic_matroid(complete_graph(4)))
    assert verify_exchange_axiom(truncate(graphic_matroid(complete_graph(5)), 3))


def test_exchange_axiom_tiny_cases():
    good = Matroid(("a", "b"), (frozenset("a"), frozenset("b")))
    assert verify_exchange_axiom(good)
    uneven = Matroid(("a", "b"), (frozenset("a"), frozenset("ab")))
    assert not verify_exchange_axiom(uneven)


def test_exchange_axiom_detects_non_matroid():
    # two disjoint pairs: exchanging one element of {a,b} into {c,d} fails
    bad = Matroid(("a", "b", "c", "d"), (frozenset("ab"), frozenset("cd")))
    assert not verify_exchange_axiom(bad)
    # the one failing pair is (ad, bc): a leaves ad, and neither bd nor cd
    # is a basis; bc is the last basis in canonical order
    bad = Matroid(("a", "b", "c", "d"), tuple(map(frozenset, ("ab", "ac", "ad", "bc"))))
    assert not verify_exchange_axiom(bad)


def test_matroid_validation():
    with pytest.raises(ValueError):
        Matroid(("a",), ())
    with pytest.raises(ValueError):
        Matroid(("a",), (frozenset("ab"),))
    with pytest.raises(ValueError):
        Matroid(("a", "a"), (frozenset("a"),))


def test_basis_polynomial_rank_one_truncation():
    g = complete_graph(4)
    phi = basis_generating_polynomial(truncate(graphic_matroid(g), 1))
    assert phi.term_count() == 6
    assert phi.homogeneous_degree() == 1
    assert phi == forest_generating_polynomial(g, 3)


def test_basis_polynomial_k22():
    g = complete_bipartite_graph(2, 2)
    phi = basis_generating_polynomial(graphic_matroid(g))
    assert phi == forest_generating_polynomial(g, 1)
    assert phi.term_count() == 4 and phi.homogeneous_degree() == 3


def test_basis_polynomial_single_basis():
    m = Matroid(("a", "b"), (frozenset("ab"),))
    phi = basis_generating_polynomial(m)
    assert phi.terms == {(1, 1): 1}


@pytest.mark.parametrize("n", [4, 5, 6, 7, 2, 3])
def test_truncations_generate_forest_polynomials_complete(n):
    g = complete_graph(n)
    m = graphic_matroid(g)
    for r in range(1, n):
        truncation = truncate(m, r)
        assert basis_generating_polynomial(truncation) == forest_generating_polynomial(
            g, n - r
        )
        if n <= 6:
            # canonical order is the brute-force oracle's combination order
            assert list(truncation.bases) == brute_forests(g, n - r)


@pytest.mark.parametrize("mn", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (1, 1), (1, 2), (1, 3)])
def test_truncations_generate_forest_polynomials_bipartite(mn):
    g = complete_bipartite_graph(*mn)
    m = graphic_matroid(g)
    total = sum(mn)
    for r in range(1, total):
        truncation = truncate(m, r)
        assert basis_generating_polynomial(truncation) == forest_generating_polynomial(
            g, total - r
        )
        if max(mn) <= 3:
            assert list(truncation.bases) == brute_forests(g, total - r)


def test_exchange_axiom_all_constructed_small():
    for g in (complete_graph(4), complete_bipartite_graph(2, 3)):
        m = graphic_matroid(g)
        for r in range(1, m.rank + 1):
            assert verify_exchange_axiom(truncate(m, r))


_FULL_TRUNCATIONS = [
    truncate(m, r)
    for m in map(graphic_matroid, (complete_graph(4), complete_graph(5), complete_bipartite_graph(2, 3)))
    for r in range(1, m.rank + 1)
]


@given(
    m=st.sampled_from(_FULL_TRUNCATIONS),
    keep=st.lists(st.booleans(), min_size=125, max_size=125),
)
def test_exchange_axiom_matches_oracle_on_truncation_subfamilies(m, keep):
    bases = tuple(b for b, kept in zip(m.bases, keep) if kept) or m.bases[:1]
    sub = Matroid(m.ground, bases)
    assert verify_exchange_axiom(sub) == pairwise_exchange_axiom(sub)


@settings(max_examples=300)
@given(data=st.data(), equicardinal=st.booleans())
def test_exchange_axiom_matches_oracle_on_set_systems(data, equicardinal):
    n = data.draw(st.integers(1, 7))
    ground = tuple(range(n))
    if equicardinal:
        size = data.draw(st.integers(0, n))
        element = st.frozensets(st.sampled_from(ground), min_size=size, max_size=size)
    else:
        element = st.frozensets(st.sampled_from(ground))
    bases = data.draw(st.lists(element, min_size=1, max_size=12))
    m = Matroid(ground, tuple(bases))
    assert verify_exchange_axiom(m) == pairwise_exchange_axiom(m)
    # canonical order: distinct bases by their sorted ground indices, whatever
    # the order they came in
    index = {x: i for i, x in enumerate(ground)}
    assert list(m.bases) == sorted(set(bases), key=lambda b: sorted(index[x] for x in b))
    assert Matroid(ground, tuple(data.draw(st.permutations(bases)))).bases == m.bases


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_exchange_axiom_holds_on_every_truncation_of_k5(r):
    m = truncate(graphic_matroid(complete_graph(5)), r)
    assert verify_exchange_axiom(m)
    assert pairwise_exchange_axiom(m)
