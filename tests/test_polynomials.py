from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from forest_spectra import (
    ExactMatrix,
    Polynomial,
    all_ones_point,
    apply_diff_operator,
    apply_monomial_operator,
    complete_graph,
    complete_bipartite_graph,
    edge,
    evaluate,
    forest_generating_polynomial,
    hessian_matrix,
    partial_derivative,
    vertex,
)

VARS = ("a", "b", "c")


def poly(terms):
    return Polynomial(VARS, terms)


# random square-free polynomials over three variables
square_free = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    st.fractions(min_value=-5, max_value=5),
    max_size=8,
).map(poly)

# random small polynomials with exponents up to 3
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    st.fractions(min_value=-5, max_value=5),
    max_size=6,
).map(poly)


def test_derivative_of_product_monomial():
    p = poly({(1, 1, 0): 1})
    assert partial_derivative(p, "a") == poly({(0, 1, 0): 1})


def test_derivative_of_constant_is_zero():
    p = Polynomial.constant(VARS, 7)
    assert partial_derivative(p, "b").is_zero()


def test_derivative_unknown_variable():
    with pytest.raises(ValueError):
        partial_derivative(poly({}), "z")


def test_derivative_of_forest_polynomial():
    # five of the fifteen two-edge forests on four vertices contain edge 1-2
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    d = partial_derivative(phi, edge(vertex(1), vertex(2)))
    assert d.term_count() == 5
    assert d.homogeneous_degree() == 1
    assert set(d.terms.values()) == {Fraction(1)}


def test_apply_operator_full_match():
    p = poly({(1, 1, 0): 1})
    assert apply_diff_operator(p, p) == Polynomial.constant(VARS, 1)


def test_square_operator_kills_square_free():
    op = poly({(2, 0, 0): 1})
    target = poly({(1, 1, 0): 3, (0, 1, 1): 2})
    assert apply_diff_operator(op, target).is_zero()


def test_linear_operator_on_forest_polynomial():
    # summing the edge derivatives of the two-edge forest polynomial gives
    # a linear polynomial with every coefficient 5
    g = complete_graph(4)
    phi2 = forest_generating_polynomial(g, 2)
    phi3 = forest_generating_polynomial(g, 3)
    result = apply_diff_operator(phi3, phi2)
    assert result.term_count() == 6
    assert set(result.terms.values()) == {Fraction(5)}


def test_falling_factorial_coefficients():
    # d^2/dx^2 on x^3 is 6x
    p = poly({(3, 0, 0): 1})
    assert apply_monomial_operator(p, (2, 0, 0)) == poly({(1, 0, 0): 6})


def test_monomial_operator_refuses_negative_exponents():
    # d^-1 is no operator: it must not act as multiplication by a variable
    p = poly({(2, 1, 0): 1})
    with pytest.raises(ValueError, match=r"^negative exponent in \(-1, 0, 0\)$"):
        apply_monomial_operator(p, (-1, 0, 0))
    assert apply_monomial_operator(p, (3, 0, 0)) == poly({})


def test_evaluate_forest_polynomials_at_ones():
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 1)
    assert evaluate(phi, all_ones_point(phi)) == 16
    gb = complete_bipartite_graph(2, 2)
    phib = forest_generating_polynomial(gb, 1)
    assert evaluate(phib, all_ones_point(phib)) == 4


def test_evaluate_homogeneous_at_zero():
    p = poly({(1, 1, 0): 2, (0, 0, 1): 5})
    assert evaluate(p, {"a": 0, "b": 0, "c": 0}) == 0


def test_evaluate_missing_assignment():
    p = poly({(1, 0, 0): 1})
    with pytest.raises(ValueError):
        evaluate(p, {"a": 1, "b": 1})


def test_hessian_of_two_edge_forest_polynomial():
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    h = hessian_matrix(phi, all_ones_point(phi))
    expected = ExactMatrix.from_rows(
        [[0 if i == j else 1 for j in range(6)] for i in range(6)]
    )
    assert h == expected


def test_hessian_of_linear_polynomial_is_zero():
    p = poly({(1, 0, 0): 2, (0, 1, 0): 3})
    h = hessian_matrix(p, {"a": 4, "b": 5, "c": 6})
    assert h.is_zero()


def test_hessian_with_general_point_and_exponents():
    # p = a^2 b: second partials evaluated at (2, 3, 1)
    p = poly({(2, 1, 0): 1})
    h = hessian_matrix(p, {"a": 2, "b": 3, "c": 1})
    assert h[0, 0] == 2 * 3  # d2/da2 = 2b
    assert h[0, 1] == 2 * 2  # d2/dadb = 2a
    assert h[1, 1] == 0
    assert h.symmetric


@given(small_polys)
def test_mixed_partials_commute(p):
    ab = partial_derivative(partial_derivative(p, "a"), "b")
    ba = partial_derivative(partial_derivative(p, "b"), "a")
    assert ab == ba


@given(small_polys, small_polys, small_polys)
def test_operator_composition(op1, op2, target):
    combined = apply_diff_operator(op1 * op2, target)
    nested = apply_diff_operator(op1, apply_diff_operator(op2, target))
    assert combined == nested


@given(small_polys, st.tuples(st.fractions(min_value=-3, max_value=3),
                              st.fractions(min_value=-3, max_value=3),
                              st.fractions(min_value=-3, max_value=3)))
def test_hessian_agrees_with_double_derivative(p, values):
    point = dict(zip(VARS, values))
    h = hessian_matrix(p, point)
    for i, vi in enumerate(VARS):
        for j, vj in enumerate(VARS):
            d2 = partial_derivative(partial_derivative(p, vi), vj)
            assert h[i, j] == evaluate(d2, point)


def test_polynomial_invariants():
    p = poly({(1, 1, 0): 1, (0, 0, 2): -1})
    assert p.is_homogeneous() and p.homogeneous_degree() == 2
    assert not p.is_square_free()
    q = poly({(1, 0, 0): 1, (1, 1, 0): 1})
    assert not q.is_homogeneous()
    with pytest.raises(ValueError):
        q.homogeneous_degree()
    assert poly({(0, 0, 0): 0}).is_zero()


def test_zero_coefficients_are_dropped():
    p = poly({(1, 0, 0): 1}) + poly({(1, 0, 0): -1})
    assert p.is_zero()
    assert p.term_count() == 0
