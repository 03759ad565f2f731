import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import add

import networkx
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from forest_spectra import (
    ExactMatrix,
    Matroid,
    Polynomial,
    all_ones_point,
    apply_diff_operator,
    apply_monomial_operator,
    basis_generating_polynomial,
    catalecticant_matrix,
    check_degree_one_lefschetz,
    complete_bipartite_graph,
    complete_graph,
    complete_graph_on,
    evaluate,
    exact_determinant,
    exact_rank,
    forest_generating_polynomial,
    graded_basis,
    graphic_matroid,
    hessian_matrix,
    higher_hessian,
    hilbert_function,
    slp_check,
    tilde_hessian,
    truncate,
)
from forest_spectra.linalg import RowEchelon, _symmetric_bareiss

from conftest import ldl_inertia, load_perfbench

VARS = ("a", "b", "c")


def tri(terms):
    return Polynomial(VARS, terms)


def truncated_polynomial(g, r):
    return basis_generating_polynomial(truncate(graphic_matroid(g), r))


# Hilbert functions and all-ones Hessian determinants for every truncated
# graphic matroid algebra in the acceptance window, frozen from an
# independent sympy computation (catalecticant ranks + berkowitz dets)
FROZEN = {
    ("K", 4, 3): ((1, 6, 6, 1), ["16", "-4096"]),
    ("K", 5, 3): ((1, 10, 10, 1), ["110", "-3367210176"]),
    ("K", 5, 4): ((1, 10, 20, 10, 1), ["125", "-5859375000000", "-49152"]),
    ("B", (2, 2), 3): ((1, 4, 4, 1), ["4", "-48"]),
    ("B", (2, 3), 3): ((1, 6, 6, 1), ["20", "-20480"]),
    ("B", (2, 3), 4): ((1, 6, 12, 6, 1), ["12", "-55296", "64"]),
    ("B", (3, 3), 3): ((1, 9, 9, 1), ["84", "322828856"]),
    ("B", (3, 3), 4): ((1, 9, 36, 9, 1), ["117", "3184870643136", "20971520"]),
    ("B", (3, 3), 5): (
        (1, 9, 36, 36, 9, 1),
        ["81", "10041939074880", "8049055779343322968510955520"],
    ),
}


def test_catalecticant_degree_zero():
    phi = truncated_polynomial(complete_graph(4), 2)
    m = catalecticant_matrix(phi, 0)
    assert m.nrows == 1
    assert exact_rank(m) == 1


def test_catalecticant_two_variable_product():
    phi = tri({(1, 1, 0): 1})
    assert exact_rank(catalecticant_matrix(phi, 1)) == 2


def test_catalecticant_k4_quadratic_full_rank():
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    assert exact_rank(catalecticant_matrix(phi, 1)) == 6


def test_catalecticant_left_kernel_is_annihilator():
    # squares annihilate a square-free polynomial, mixed products may not
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    square = Polynomial.monomial(phi.variables, (2, 0, 0, 0, 0, 0))
    assert apply_diff_operator(square, phi).is_zero()
    pair = Polynomial.monomial(phi.variables, (1, 1, 0, 0, 0, 0))
    assert not apply_diff_operator(pair, phi).is_zero()


def test_catalecticant_range_guard():
    phi = tri({(1, 1, 0): 1})
    with pytest.raises(ValueError):
        catalecticant_matrix(phi, 3)


def test_hilbert_function_examples():
    g = complete_graph(4)
    assert hilbert_function(forest_generating_polynomial(g, 2)).dims == (1, 6, 1)
    assert hilbert_function(forest_generating_polynomial(g, 1)).dims == (1, 6, 6, 1)
    assert hilbert_function(tri({(1, 1, 1): 1})).dims == (1, 3, 3, 1)


def test_hilbert_function_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_function(tri({(1, 0, 0): 1, (1, 1, 0): 1}))
    with pytest.raises(ValueError):
        hilbert_function(Polynomial.zero(VARS))


def test_hilbert_matches_sympy_rank_oracle():
    phi = truncated_polynomial(complete_graph(4), 3)
    cat1 = catalecticant_matrix(phi, 1)
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in cat1.rows])
    assert exact_rank(cat1) == m.rank()


def test_graded_basis_degree_zero_is_constant():
    phi = truncated_polynomial(complete_graph(4), 3)
    basis = graded_basis(phi, 0)
    assert basis.monomials == ((0,) * 6,)


def test_graded_basis_degree_one_all_variables():
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    basis = graded_basis(phi, 1)
    assert len(basis.monomials) == 6
    assert all(sum(m) == 1 for m in basis.monomials)


def test_graded_basis_two_variable_product():
    phi = tri({(1, 1, 0): 1})
    basis = graded_basis(phi, 1)
    assert basis.monomials == ((1, 0, 0), (0, 1, 0))


def test_higher_hessian_degree_zero_is_value():
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    h = higher_hessian(phi, 0, all_ones_point(phi))
    assert h.rows == ((Fraction(15),),)


def test_higher_hessian_degree_one_matches_tilde():
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    point = all_ones_point(phi)
    assert higher_hessian(phi, 1, point) == hessian_matrix(phi, point)
    assert higher_hessian(phi, 1, point) == tilde_hessian(g, 2)
    gb = complete_bipartite_graph(2, 2)
    phib = forest_generating_polynomial(gb, 1)
    assert higher_hessian(phib, 1, all_ones_point(phib)) == tilde_hessian(gb, 1)


def test_higher_hessian_degree_guard():
    phi = truncated_polynomial(complete_graph(4), 3)  # socle degree 3
    with pytest.raises(ValueError):
        higher_hessian(phi, 2, all_ones_point(phi))


def test_slp_check_k4_quadratic():
    g = complete_graph(4)
    phi = forest_generating_polynomial(g, 2)
    report = slp_check(phi, all_ones_point(phi))
    assert report.holds
    assert [str(c.determinant) for c in report.checks] == ["15", "-5"]


def test_slp_check_monomial():
    phi = tri({(1, 1, 1): 1})
    report = slp_check(phi, {"a": 1, "b": 1, "c": 1})
    assert report.holds


def test_slp_check_k4_kirchhoff():
    phi = truncated_polynomial(complete_graph(4), 3)
    report = slp_check(phi, all_ones_point(phi))
    assert report.holds
    assert [str(c.determinant) for c in report.checks] == ["16", "-4096"]


def test_slp_degenerate_point_is_verdict_not_error():
    phi = tri({(1, 1, 0): 1, (0, 1, 1): 1})
    report = slp_check(phi, {"a": 1, "b": 0, "c": -1})
    assert not report.holds  # the degree-0 Hessian is phi itself, zero here


@pytest.mark.parametrize("key", sorted(FROZEN, key=repr))
def test_frozen_profiles_and_determinants(key):
    kind, size, r = key
    g = complete_graph(size) if kind == "K" else complete_bipartite_graph(*size)
    phi = truncated_polynomial(g, r)
    dims, dets = FROZEN[key]
    profile = hilbert_function(phi)
    assert profile.dims == dims
    assert profile.symmetric
    report = slp_check(phi, all_ones_point(phi))
    assert [str(c.determinant) for c in report.checks] == dets
    assert report.holds


# The exact inertia (n+, n0, n-) of the degree-2 Hessian at all-ones of the
# r-edge forest polynomial.  Hodge-Riemann in degree 2 predicts
# n+ = h_0 + (h_2 - h_1) and n- = h_1 - h_0; among these it holds exactly
# for the spanning-tree forms of K_n.  The Maeno-Numata conjecture asks for
# the strong Lefschetz property (n0 = 0), not for this signature.
HODGE_RIEMANN_DEGREE_TWO = {
    ("K", 5, 4): (11, 0, 9),
    ("K", 6, 5): (36, 0, 14),
    ("K", 6, 4): (41, 0, 24),
    ("B", (2, 3), 4): (6, 0, 6),
    ("B", (3, 3), 4): (22, 0, 14),
    ("B", (3, 3), 5): (22, 0, 14),
    ("B", (2, 4), 4): (12, 0, 8),
    ("B", (2, 4), 5): (14, 0, 8),
    ("B", (3, 4), 5): (46, 0, 20),
}


@pytest.mark.parametrize("key", list(HODGE_RIEMANN_DEGREE_TWO), ids=repr)
def test_degree_two_hessian_signatures_are_pinned(key):
    kind, size, r = key
    g = complete_graph(size) if kind == "K" else complete_bipartite_graph(*size)
    phi = forest_generating_polynomial(g, g.vertex_count - r)
    h = higher_hessian(phi, 2, all_ones_point(phi))
    inertia = _symmetric_bareiss([list(row[i:]) for i, row in enumerate(h._num)])[1]
    assert inertia == HODGE_RIEMANN_DEGREE_TWO[key]
    assert ldl_inertia(h.rows) == (exact_determinant(h), inertia)
    h0, h1, h2 = hilbert_function(phi).dims[:3]
    predicted = (h0 + h2 - h1, 0, h1 - h0)
    assert (inertia == predicted) == (kind == "K" and r == g.vertex_count - 1)


def test_check_degree_one_complete():
    m = truncate(graphic_matroid(complete_graph(4)), 3)
    report = check_degree_one_lefschetz(m)
    assert report.bijective
    assert report.determinant == -4096
    assert report.spectrum_certified
    assert report.in_theorem_range and report.in_stated_range


def test_check_degree_one_k5():
    m = truncate(graphic_matroid(complete_graph(5)), 3)
    report = check_degree_one_lefschetz(m)
    assert report.bijective and report.spectrum_certified


def test_check_degree_one_bipartite():
    m = graphic_matroid(complete_bipartite_graph(2, 2))
    report = check_degree_one_lefschetz(m)
    assert report.bijective
    assert report.in_theorem_range
    assert not report.in_stated_range  # the stated bound uses the right part size


def test_check_degree_one_boundary_reported():
    m = truncate(graphic_matroid(complete_graph(4)), 2)
    report = check_degree_one_lefschetz(m)
    assert not report.in_theorem_range
    assert report.determinant == -5  # computed anyway


def test_check_degree_one_names_a_graph_without_a_valid_rank():
    # the rank-1 truncation of K_2 is its whole graphic matroid, and the
    # degree-one check needs r >= 2: the range 2..1 is empty
    m = truncate(graphic_matroid(complete_graph(2)), 1)
    message = "K_2 admits no valid rank: the degree-one check needs r >= 2 and its graphic matroid has rank 1"
    with pytest.raises(ValueError) as err:
        check_degree_one_lefschetz(m)
    assert str(err.value) == message


def test_check_degree_one_refuses_a_part_of_one_vertex():
    # K_{1,n} has no closed-form degree-one spectrum: refused before the
    # bases are compared with the forest search
    m = truncate(graphic_matroid(complete_bipartite_graph(1, 4)), 3)
    with pytest.raises(ValueError) as err:
        check_degree_one_lefschetz(m)
    assert str(err.value) == "K_{1,4} has no closed-form degree-one spectrum: it needs m, n >= 2"


def test_check_degree_one_rejects_non_truncation():
    g = complete_graph(4)
    bases = (frozenset([g.edges[0]]),)
    fake = Matroid(g.edges, bases)
    with pytest.raises(ValueError):
        check_degree_one_lefschetz(fake)


def _k4_rank_two():
    return truncate(graphic_matroid(complete_graph(4)), 2)


def test_check_degree_one_names_a_ground_set_out_of_edge_order():
    m = _k4_rank_two()
    with pytest.raises(ValueError) as err:
        check_degree_one_lefschetz(Matroid(m.ground[::-1], m.bases))
    assert str(err.value) == "ground set is not in canonical edge order"


def test_check_degree_one_names_a_missing_basis():
    # rank 2 is in range, so the bases themselves are compared
    m = _k4_rank_two()
    with pytest.raises(ValueError) as err:
        check_degree_one_lefschetz(Matroid(m.ground, m.bases[1:]))
    assert str(err.value) == "bases are not the 2-edge forests of K_4; not a truncation"


def test_check_degree_one_names_a_complete_graph_off_1_to_n():
    # K on {2, 3, 5} is a complete graph, but not on the labels 1..n
    g = complete_graph_on([2, 3, 5])
    fake = Matroid(g.edges, tuple(frozenset(pair) for pair in combinations(g.edges, 2)))
    with pytest.raises(ValueError) as err:
        check_degree_one_lefschetz(fake)
    assert str(err.value) == "ground set is not the edge set of K_n or K_{m,n}"


def test_check_degree_one_rejects_foreign_ground():
    fake = Matroid(("a", "b"), (frozenset("a"),))
    with pytest.raises(ValueError):
        check_degree_one_lefschetz(fake)


def test_check_degree_one_names_a_ground_set_of_non_edges():
    # integers are not vertex pairs, so the ground set names no graph
    fake = Matroid((1, 2, 3), (frozenset({1, 2}), frozenset({2, 3})))
    with pytest.raises(ValueError) as err:
        check_degree_one_lefschetz(fake)
    assert str(err.value) == "ground set is not the edge set of K_n or K_{m,n}"


def test_hilbert_symmetry_for_small_matroids():
    cases = [complete_graph(n) for n in (4, 5)] + [
        complete_bipartite_graph(2, 2),
        complete_bipartite_graph(2, 3),
        complete_bipartite_graph(3, 3),
    ]
    for g in cases:
        m = graphic_matroid(g)
        for r in range(1, m.rank + 1):
            profile = hilbert_function(basis_generating_polynomial(truncate(m, r)))
            assert profile.symmetric


# -- the derivative map against the monomial-by-monomial route ---------------


def degree_monomials(nvars, degree):
    """Every exponent vector of the given degree, in canonical order."""
    return [
        tuple(combo.count(i) for i in range(nvars))
        for combo in combinations_with_replacement(range(nvars), degree)
    ]


def operator_rows(phi, k):
    """Every degree-k operator u, in canonical order, with its catalecticant
    row: d^u phi by the monomial operator, read on every degree-(s-k)
    monomial."""
    nvars, s = len(phi.variables), phi.homogeneous_degree()
    cols = degree_monomials(nvars, s - k)
    out = []
    for u in degree_monomials(nvars, k):
        derivative = apply_monomial_operator(phi, u)
        out.append((u, [derivative.coefficient(w) for w in cols]))
    return out


def reference_basis(phi, k):
    """Greedy Fraction row reduction over every degree-k monomial."""
    rows = operator_rows(phi, k)
    echelon = RowEchelon(len(rows[0][1]))
    return tuple(u for u, row in rows if echelon.add(row))


def reference_catalecticant(phi, k):
    """The full catalecticant with its zero rows and columns dropped."""
    rows = [row for _u, row in operator_rows(phi, k) if any(row)]
    keep = [j for j in range(len(rows[0])) if any(row[j] for row in rows)]
    return ExactMatrix.from_rows([row[j] for j in keep] for row in rows)


def reference_hessian(phi, k, point):
    basis = reference_basis(phi, k)
    values = {}
    for a in basis:
        for b in basis:
            u = tuple(map(add, a, b))
            if u not in values:
                values[u] = evaluate(apply_monomial_operator(phi, u), point)
    return ExactMatrix.from_rows([values[tuple(map(add, a, b))] for b in basis] for a in basis)


@st.composite
def rational_forms(draw):
    """Homogeneous forms in 2..4 variables with repeated exponents allowed."""
    nvars = draw(st.integers(2, 4))
    degree = draw(st.integers(1, 4))
    monomials = draw(
        st.lists(st.sampled_from(degree_monomials(nvars, degree)), min_size=1, max_size=6, unique=True)
    )
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
    terms = {m: draw(coeffs) for m in monomials}
    return Polynomial(("a", "b", "c", "d")[:nvars], terms)


positive_rationals = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)


@settings(max_examples=60)
@given(rational_forms(), st.data())
def test_derivative_map_matches_monomial_operators(phi, data):
    s = phi.homogeneous_degree()
    point = {v: data.draw(positive_rationals) for v in phi.variables}
    bases = [reference_basis(phi, k) for k in range(s + 1)]
    assert hilbert_function(phi).dims == tuple(len(b) for b in bases)
    for k in range(s + 1):
        assert graded_basis(phi, k).monomials == bases[k]
        assert catalecticant_matrix(phi, k) == reference_catalecticant(phi, k)
    for k in range(s // 2 + 1):
        assert higher_hessian(phi, k, point) == reference_hessian(phi, k, point)


def test_derivative_map_on_repeated_exponents():
    # phi = a^3 + 3 a b^2: d_a d_a phi = 6a, d_b d_b phi = 6a, d_a d_b phi = 6b
    phi = tri({(3, 0, 0): 1, (1, 2, 0): 3})
    assert graded_basis(phi, 1).monomials == ((1, 0, 0), (0, 1, 0))
    h = higher_hessian(phi, 1, {"a": 2, "b": Fraction(1, 3), "c": 5})
    assert h.rows == ((12, 2), (2, 12))
    assert hilbert_function(phi).dims == (1, 2, 2, 1)


@pytest.mark.parametrize(
    "g,r",
    [
        (g, r)
        for g in (complete_graph(4), complete_graph(5), complete_bipartite_graph(2, 3), complete_bipartite_graph(3, 3))
        for r in range(1, g.vertex_count)
    ],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_graded_bases_of_truncations_match_the_fraction_reference(g, r):
    phi = truncated_polynomial(g, r)
    for k in range(r + 1):
        assert graded_basis(phi, k).monomials == reference_basis(phi, k)


def test_catalecticant_keeps_only_nonzero_rows_and_columns():
    phi = truncated_polynomial(complete_graph(4), 3)
    for k in range(4):
        m = catalecticant_matrix(phi, k)
        assert all(any(row) for row in m.rows)
        assert all(any(col) for col in m.transpose().rows)
        assert exact_rank(m) == len(reference_basis(phi, k))
    assert catalecticant_matrix(tri({(1, 1, 0): 1}), 1).rows == ((0, 1), (1, 0))


# -- integer evaluation against the Fraction route -------------------------


@pytest.mark.parametrize("call", [slp_check, lambda phi, point: higher_hessian(phi, 1, point)],
                         ids=["slp_check", "higher_hessian"])
def test_point_missing_a_variable_is_a_value_error(call):
    phi = tri({(1, 1, 0): 1, (0, 1, 1): 1})
    with pytest.raises(ValueError, match="point misses 1 variable"):
        call(phi, {"a": 1, "b": 2})


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("graph", [complete_graph(5), complete_bipartite_graph(3, 3)], ids=["K5", "K33"])
def test_seeded_point_determinants_match_fraction_route(graph, seed):
    # the benchmark's seeded slp instances: r = 4, points from its own drawer
    phi = truncated_polynomial(graph, 4)
    drawn = load_perfbench("workloads")._seeded_point(random.Random(seed), len(phi.variables))
    point = dict(zip(phi.variables, map(Fraction, drawn.split(","))))
    dets = [c.determinant for c in slp_check(phi, point).checks]
    assert dets == [exact_determinant(reference_hessian(phi, k, point)) for k in range(3)]
    assert all(dets)


def test_rational_form_at_mixed_point_matches_fraction_route():
    # coefficient denominators 2, 3, 4 and a point with denominators 3, 5, 7,
    # a zero and negative coordinates: every scale factor is exercised
    phi = Polynomial(
        ("a", "b", "c", "d"),
        {
            (2, 1, 1, 0): Fraction(1, 2),
            (1, 1, 1, 1): Fraction(-3, 4),
            (0, 2, 0, 2): Fraction(5, 3),
            (1, 0, 3, 0): 2,
            (0, 0, 2, 2): Fraction(-7, 2),
        },
    )
    point = {"a": Fraction(-2, 3), "b": Fraction(4, 5), "c": 0, "d": Fraction(-9, 7)}
    report = slp_check(phi, point)
    assert report.point == (Fraction(-2, 3), Fraction(4, 5), 0, Fraction(-9, 7))
    for check in report.checks:
        h = reference_hessian(phi, check.degree, point)
        assert higher_hessian(phi, check.degree, point) == h
        assert check.determinant == exact_determinant(h) != 0


def test_results_do_not_depend_on_call_order():
    def fresh():
        return truncated_polynomial(complete_bipartite_graph(2, 3), 4)

    point = {v: Fraction(i + 2, 3) for i, v in enumerate(fresh().variables)}

    def everything(phi):
        return (
            hilbert_function(phi),
            [graded_basis(phi, k) for k in range(5)],
            [catalecticant_matrix(phi, k) for k in range(5)],
            [higher_hessian(phi, k, point) for k in range(3)],
        )

    expected = everything(fresh())
    phi = fresh()
    assert higher_hessian(phi, 2, point) == expected[3][2]
    phi = fresh()
    assert graded_basis(phi, 3) == expected[1][3]
    assert everything(phi) == expected
    phi = fresh()
    with pytest.raises(ValueError):
        catalecticant_matrix(phi, 5)
    assert everything(phi) == expected


# -- the slp command's mask route against the public tuple route ----------

ROUTE_CASES = (
    [(complete_graph(n), r) for n in (4, 5, 6) for r in range(2, n)]
    + [(complete_graph(7), r) for r in (2, 3, 4)]
    + [
        (complete_bipartite_graph(m, n), r)
        for m in (1, 2, 3)
        for n in (1, 2, 3, 4)
        for r in range(2, m + n)
    ]
)


@pytest.mark.parametrize("g,r", ROUTE_CASES, ids=[f"{g.name}-r{r}" for g, r in ROUTE_CASES])
def test_slp_mask_route_matches_the_tuple_route(g, r, monkeypatch):
    from forest_spectra import lefschetz

    graded, reductions = [], []
    build, reduce = lefschetz._mask_graded, lefschetz._independent_rows

    def recorded(forests, s):
        forests = list(forests)
        graded.append((forests, build(forests, s)))
        return graded[-1][1]

    def counted(rows):
        reductions.append(None)
        return reduce(rows)

    monkeypatch.setattr(lefschetz, "_mask_graded", recorded)
    monkeypatch.setattr(lefschetz, "_independent_rows", counted)
    phi = forest_generating_polynomial(g, g.vertex_count - r)
    # one reduction per pair of degrees k, r - k, on either route
    hilbert_function(phi)
    assert len(reductions) == r // 2 + 1
    # all-ones, and a seeded rational point with one zero coordinate
    width = range(g.edge_count)
    rng = random.Random(f"{g.name} {r}")
    drawn = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in width]
    drawn[rng.randrange(g.edge_count)] = Fraction(0)
    # the degree-one Hessian at all-ones, at either point, read off the search
    hessian = tilde_hessian(g, g.vertex_count - r)
    for values in ([Fraction(1)] * g.edge_count, drawn):
        reductions.clear()
        count, profile, report, degree_one = lefschetz._slp_on_masks(g, r, values)
        assert len(reductions) == r // 2 + 1
        assert (count, profile) == (phi.term_count(), hilbert_function(phi))
        assert report == slp_check(phi, dict(zip(phi.variables, values)))
        assert degree_one == hessian
    forests, (maps, bases) = graded[0]
    # every forest reaches each of its 2^r submasks once: the guard's count
    assert sum(len(rests) for m in maps for rests in m.values()) == len(forests) << r
    decoded = [tuple(tuple(b >> i & 1 for i in width) for b in basis) for basis in bases]
    assert decoded == [graded_basis(phi, k).monomials for k in range(r + 1)]
    # the upper half, read off the lower half's lead columns, is what a
    # reduction of its own catalecticant picks
    for k in range(r // 2 + 1, r + 1):
        ops = list(maps[k])
        rows = lefschetz._mask_catalecticant(maps[k], maps[r - k])
        assert bases[k] == tuple(ops[i] for i in reduce(rows))


# -- Lorentzian signature away from the all-ones point ---------------------

LORENTZIAN_CASES = (
    [(complete_graph(4), r) for r in (2, 3)]
    + [(complete_graph(5), r) for r in (2, 3, 4)]
    + [(complete_bipartite_graph(2, 3), r) for r in (2, 3, 4)]
    + [(complete_bipartite_graph(3, 3), r) for r in (2, 3, 4, 5)]
)


@lru_cache(maxsize=None)
def lorentzian_form(i):
    return truncated_polynomial(*LORENTZIAN_CASES[i])


def positive_eigenvalue_count(matrix):
    """Sign changes of the characteristic polynomial's coefficients.  By
    Descartes' rule they bound the positive roots, with equality when every
    root is real, as for a symmetric matrix."""
    charpoly = sympy.Matrix([[sympy.Rational(x) for x in row] for row in matrix.rows]).charpoly()
    signs = [c > 0 for c in charpoly.all_coeffs() if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def kernel_inertia(matrix):
    """(n+, n0, n-) of a symmetric ExactMatrix from the symmetric kernel, on
    its integer rows over their positive common denominator."""
    return _symmetric_bareiss([list(row[i:]) for i, row in enumerate(matrix._num)])[1]


@settings(max_examples=60)
@given(st.integers(0, len(LORENTZIAN_CASES) - 1), st.data())
def test_degree_one_hessian_has_one_positive_eigenvalue_at_positive_points(i, data):
    # basis polynomials of matroids are Lorentzian (Branden-Huh 2020), so the
    # Hessian at any positive point has exactly one positive eigenvalue
    phi = lorentzian_form(i)
    point = {v: data.draw(positive_rationals) for v in phi.variables}
    h = higher_hessian(phi, 1, point)
    assert h.symmetric and h.nrows == len(phi.variables)
    assert kernel_inertia(h)[0] == 1
    if h.nrows <= 6:  # K_4 and K_{2,3}: sympy's characteristic polynomial agrees
        assert positive_eigenvalue_count(h) == 1


@st.composite
def graphic_truncations(draw):
    """A connected networkx graph on 3..6 vertices with at most 10 edges (a
    random tree plus extra edges), a truncation rank 2..V-1 and a positive
    rational point on the edges."""
    nv = draw(st.integers(3, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    others = [e for e in combinations(range(nv), 2) if e not in tree]
    extra = draw(st.lists(st.sampled_from(others), max_size=10 - len(tree), unique=True))
    graph = networkx.Graph(tree + extra)
    r = draw(st.integers(2, nv - 1))
    point = {tuple(sorted(e)): draw(positive_rationals) for e in graph.edges}
    return graph, r, point


@settings(max_examples=60, deadline=None)
@given(graphic_truncations())
def test_truncated_graphic_matroids_are_lorentzian_off_complete_graphs(case):
    # Branden-Huh: every matroid's basis polynomial is Lorentzian, so the
    # Hessian at a positive point has exactly one positive eigenvalue on any
    # graph, not only on K_n and K_{m,n}; a counterexample is a bug
    graph, r, point = case
    trees = [
        frozenset(map(tuple, map(sorted, t.edges))) for t in networkx.SpanningTreeIterator(graph)
    ]
    phi = basis_generating_polynomial(truncate(Matroid(tuple(point), trees), r))
    assert phi.homogeneous_degree() == r
    h = hessian_matrix(phi, point)
    assert h.symmetric and h.nrows == graph.number_of_edges()
    assert kernel_inertia(h)[0] == 1
