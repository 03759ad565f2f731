from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from forest_spectra import (
    BipartiteParams,
    CompleteParams,
    ExactMatrix,
    PairCounts,
    Spectrum,
    all_ones_point,
    closed_form_spectrum,
    complete_bipartite_graph,
    complete_graph,
    edge_name,
    edge_pair_counts,
    exact_determinant,
    forest_generating_polynomial,
    hessian_matrix,
    pq_decomposition,
    predicted_signs,
    sign_profile,
    spectrum_determinant,
    structured_params,
    theorem_range,
    tilde_hessian,
    tilde_hessian_by_counting,
    verify_spectrum,
)
from forest_spectra.errors import StructureViolation, VerificationFailure
from forest_spectra.forests import _forests_by_size
from forest_spectra.linalg import _symmetric_bareiss
from forest_spectra.spectra import _certificate_failure

from conftest import (
    brute_forests,
    cofactor_determinant,
    first_disagreement,
    load_perfbench,
    product_form_certificate,
)


def spectrum_of(pairs):
    return Spectrum(tuple((Fraction(v), m) for v, m in pairs))


K4_K1_ROWS = [
    [0, 3, 3, 3, 3, 4],
    [3, 0, 3, 3, 4, 3],
    [3, 3, 0, 4, 3, 3],
    [3, 3, 4, 0, 3, 3],
    [3, 4, 3, 3, 0, 3],
    [4, 3, 3, 3, 3, 0],
]


def test_tilde_hessian_k4_k2_all_ones_off_diagonal():
    h = tilde_hessian(complete_graph(4), 2)
    assert h == ExactMatrix.from_rows(
        [[0 if i == j else 1 for j in range(6)] for i in range(6)]
    )


def test_tilde_hessian_k4_k1_pattern():
    h = tilde_hessian(complete_graph(4), 1)
    assert h == ExactMatrix.from_rows(K4_K1_ROWS)


def test_tilde_hessian_k22():
    h = tilde_hessian(complete_bipartite_graph(2, 2), 1)
    assert h == ExactMatrix.from_rows(
        [[0 if i == j else 2 for j in range(4)] for i in range(4)]
    )


ORACLE_GRAPHS = [complete_graph(n) for n in range(3, 8)] + [
    complete_bipartite_graph(m, n) for m in range(2, 5) for n in range(m, 5)
]


@pytest.mark.parametrize(
    "g, k",
    [(g, k) for g in ORACLE_GRAPHS for k in range(1, g.vertex_count + 1)],
    ids=lambda x: x.name if hasattr(x, "name") else f"k{x}",
)
def test_tilde_hessian_matches_differentiation_oracle(g, k):
    # every k, theorem range or not: the co-occurrence counts are the
    # second partials of the forest polynomial at all-ones
    phi = forest_generating_polynomial(g, k)
    assert tilde_hessian(g, k) == hessian_matrix(phi, all_ones_point(phi))


def test_tilde_hessian_rejects_component_count_out_of_range():
    for k in (0, 5):
        with pytest.raises(ValueError):
            tilde_hessian(complete_graph(4), k)


def test_tilde_hessian_linear_polynomial_is_zero():
    assert tilde_hessian(complete_graph(4), 3).is_zero()
    assert tilde_hessian(complete_bipartite_graph(2, 3), 4).is_zero()


def test_both_routes_agree_with_cross_check():
    # the pair-lane frontier walk against one frontier count per entry, on
    # every desk instance, at every k, theorem range or not
    graphs = [complete_graph(n) for n in (4, 5, 6, 7)]
    graphs += [complete_bipartite_graph(m, n) for m in range(1, 5) for n in range(m, 5)]
    for g in graphs:
        for k in range(1, g.vertex_count + 1):
            assert tilde_hessian(g, k) == tilde_hessian_by_counting(g, k), (g.name, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_k8_hessian_matches_pair_counts_and_forest_totals(k):
    # K_8 and K_9 lie beyond the differentiation oracle's graphs: the pair
    # walk's matrix is checked against the counting kernel and the forest
    # recursion, at every k of each theorem range (k = 6 is K_9's alone)
    for n in (8, 9):
        if not k < n - 2:
            continue
        g = complete_graph(n)
        h = tilde_hessian(g, k)
        params = structured_params(h, g)  # raises unless uniform per pair class
        counts = edge_pair_counts(g, k)
        assert (params.alpha, params.beta, params.gamma) == (0, counts.p, counts.q)
        # each forest has n - k edges, so C(n - k, 2) pairs above the diagonal
        upper = sum(h[i, j] for i in range(h.nrows) for j in range(i + 1, h.ncols))
        assert upper == comb(n - k, 2) * _forests_by_size(n, k)


@pytest.mark.parametrize(
    "g",
    [complete_bipartite_graph(1, n) for n in range(1, 7)]
    + [complete_bipartite_graph(2, n) for n in range(2, 6)],
    ids=lambda g: g.name,
)
def test_pair_counts_survive_carrying_partial_lanes(g):
    # stars and K_{2,n} take need = V - k > m/2 edges at small k, so the
    # partial paths through an edge at c ~ m/2 edges outnumber the forests
    # through a pair, and the lanes sized for the latter carry on the way
    index = g.edge_index
    for k in range(1, g.vertex_count + 1):
        expected = [[0] * g.edge_count for _ in range(g.edge_count)]
        for forest in brute_forests(g, k):
            for e, f in combinations(forest, 2):
                expected[index[e]][index[f]] += 1
                expected[index[f]][index[e]] += 1
        assert tilde_hessian(g, k) == ExactMatrix.from_rows(expected), (g.name, k)


def test_structured_params_complete():
    g = complete_graph(4)
    params = structured_params(tilde_hessian(g, 1), g)
    assert params == CompleteParams(Fraction(0), Fraction(3), Fraction(4), 4)


def test_structured_params_bipartite():
    g = complete_bipartite_graph(2, 2)
    params = structured_params(tilde_hessian(g, 1), g)
    assert params == BipartiteParams(
        Fraction(0), Fraction(2), Fraction(2), Fraction(2), 2, 2
    )


def test_structured_params_identity_matrix():
    g = complete_graph(4)
    params = structured_params(ExactMatrix.identity(6), g)
    assert params == CompleteParams(Fraction(1), Fraction(0), Fraction(0), 4)


def test_structured_params_rejects_nonuniform():
    g = complete_graph(4)
    rows = [list(r) for r in K4_K1_ROWS]
    rows[0][5] = 99
    rows[5][0] = 99
    with pytest.raises(StructureViolation):
        structured_params(ExactMatrix.from_rows(rows), g)


def _perturbed(g, k, i, j, delta):
    """The Hessian of ``g`` at ``k`` with its entry (i, j) alone moved by delta."""
    rows = [list(row) for row in tilde_hessian(g, k)._num]
    rows[i][j] += delta
    return ExactMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "g,k,i,j,delta,message",
    [
        # the first disjoint entry, at (1-2, 3-4), sets the class value, so
        # the next one is named
        (complete_graph(5), 2, 0, 7, 1, "entries for disjoint disagree: 9 vs 8 at (1-2, 3-5)"),
        (complete_graph(5), 2, 4, 9, 1, "entries for disjoint disagree: 8 vs 9 at (2-3, 4-5)"),
        (
            complete_bipartite_graph(3, 4), 2, 1, 5, -2,
            "entries for share-right disagree: 90 vs 88 at (1-2', 2-2')",
        ),
        (
            complete_bipartite_graph(3, 4), 2, 6, 10, 1,
            "entries for share-right disagree: 90 vs 91 at (2-3', 3-3')",
        ),
    ],
)
def test_structured_params_names_the_first_disagreeing_entry(g, k, i, j, delta, message):
    # one upper-triangle entry moved: the message names the first entry, in
    # upper-triangle row order, that differs from its class's first value
    with pytest.raises(StructureViolation) as err:
        structured_params(_perturbed(g, k, i, j, delta), g)
    assert str(err.value) == message


@pytest.mark.parametrize("g", [complete_graph(5), complete_bipartite_graph(3, 4)], ids=lambda g: g.name)
def test_structured_params_reads_only_the_upper_triangle(g):
    # a lower-triangle entry that breaks its class is never read
    true = structured_params(tilde_hessian(g, 2), g)
    assert structured_params(_perturbed(g, 2, 9, 2, 5), g) == true


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(4, 8)]
    + [complete_bipartite_graph(m, n) for m in range(2, 5) for n in range(2, 5)],
    ids=lambda g: g.name,
)
def test_structured_params_names_what_a_scan_of_the_upper_triangle_names(g):
    # every entry moved by +-1 alone, in either triangle: the error text is
    # the naive scan's, and a lower-triangle move is never read
    h = tilde_hessian(g, 2)
    true = structured_params(h, g)
    assert first_disagreement(h.rows, g) is None
    for i, j in product(range(g.edge_count), repeat=2):
        for delta in (1, -1):
            rows = [list(row) for row in h._num]
            rows[i][j] += delta
            message = first_disagreement(rows, g)
            assert (message is None) == (j < i), (i, j, delta)
            if message is None:
                assert structured_params(ExactMatrix._from_ints(rows), g) == true
            else:
                with pytest.raises(StructureViolation) as err:
                    structured_params(ExactMatrix._from_ints(rows), g)
                assert str(err.value) == message, (i, j, delta)


def test_structured_params_dimension_mismatch():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        structured_params(ExactMatrix.identity(5), g)


def test_closed_form_spectrum_k4_k1():
    spectrum = closed_form_spectrum(CompleteParams(Fraction(0), Fraction(3), Fraction(4), 4))
    assert spectrum.pairs == ((16, 1), (-2, 2), (-4, 3))


def test_closed_form_spectrum_merges_coincident():
    spectrum = closed_form_spectrum(CompleteParams(Fraction(0), Fraction(1), Fraction(1), 4))
    assert spectrum.pairs == ((5, 1), (-1, 5))


def test_closed_form_spectrum_bipartite():
    spectrum = closed_form_spectrum(
        BipartiteParams(Fraction(0), Fraction(2), Fraction(2), Fraction(2), 2, 2)
    )
    assert spectrum.pairs == ((6, 1), (-2, 3))


def test_closed_form_spectrum_size_guards():
    with pytest.raises(ValueError):
        closed_form_spectrum(CompleteParams(Fraction(0), Fraction(1), Fraction(1), 2))
    with pytest.raises(ValueError):
        closed_form_spectrum(
            BipartiteParams(Fraction(0), Fraction(1), Fraction(1), Fraction(1), 1, 3)
        )


def test_verify_spectrum_accepts_true_claims():
    g = complete_graph(4)
    assert verify_spectrum(tilde_hessian(g, 1), spectrum_of([(16, 1), (-2, 2), (-4, 3)]))
    assert verify_spectrum(tilde_hessian(g, 2), spectrum_of([(5, 1), (-1, 5)]))


def test_verify_spectrum_rejects_wrong_multiplicities():
    g = complete_graph(4)
    h = tilde_hessian(g, 2)
    assert not verify_spectrum(h, spectrum_of([(5, 1), (-1, 4), (0, 1)]))


def test_verify_spectrum_rejects_wrong_values():
    g = complete_graph(4)
    h = tilde_hessian(g, 1)
    assert not verify_spectrum(h, spectrum_of([(15, 1), (-2, 2), (-4, 3)]))


def test_verify_spectrum_dimension_guard():
    h = tilde_hessian(complete_graph(4), 1)
    with pytest.raises(ValueError):
        verify_spectrum(h, spectrum_of([(16, 1)]))


def test_verify_spectrum_zero_matrix():
    assert verify_spectrum(ExactMatrix.zero(3, 3), spectrum_of([(0, 3)]))


def test_verify_spectrum_refuses_an_asymmetric_matrix():
    # diagonalisable with eigenvalues 1 and 3, but the powers form needs symmetry
    m = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 3]])
    with pytest.raises(ValueError, match=r"symmetric matrix; entry \(1, 2\) is not"):
        verify_spectrum(m, spectrum_of([(1, 2), (3, 1)]))
    with pytest.raises(ValueError, match="square"):
        verify_spectrum(ExactMatrix.from_rows([[1, 2]]), spectrum_of([(1, 1)]))


def test_certificate_failure_names_the_failed_check():
    g = complete_graph(4)
    h, names = tilde_hessian(g, 1), [edge_name(e) for e in g.edges]
    assert _certificate_failure(h, spectrum_of([(16, 1), (-2, 2), (-4, 3)]), names) is None
    assert _certificate_failure(h, spectrum_of([(17, 1), (-2, 2), (-4, 3)])) == "j=1: trace 0, claimed 1"
    assert _certificate_failure(h, spectrum_of([(16, 1), (-2, 3), (-4, 2)])) == "j=1: trace 0, claimed 2"
    # the first power sum holds, the second does not
    assert _certificate_failure(h, spectrum_of([(10, 1), (-2, 5)])) == "j=2: trace 312, claimed 120"
    # every trace of the zero claim holds, and p(h) = h is nonzero at (1-2, 1-3)
    zero = spectrum_of([(0, 6)])
    assert _certificate_failure(h, zero, names) == "annihilator entry (1-2, 1-3) is 3, not 0"
    assert _certificate_failure(h, zero) == "annihilator entry (0, 1) is 3, not 0"
    # the values are read in the matrix's own scale
    third = h.scale(Fraction(1, 3))
    assert _certificate_failure(third, zero) == "annihilator entry (0, 1) is 1, not 0"
    shifted = Spectrum(((Fraction(17, 3), 1), (Fraction(-2, 3), 2), (Fraction(-4, 3), 3)))
    assert _certificate_failure(third, shifted) == "j=1: trace 0, claimed 1/3"


@pytest.mark.parametrize("c", [1, -3, 2**100 + 1, -(2**100)])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_lanes_hold_powers_at_their_bound(c, n):
    # every entry of c J_n is c, so M = |c| and R = n|c|, and every entry of
    # A^2 is c^2 n = M R: the top power's lanes are as full as the bound lets
    # them be, and the decoded traces must still be exact
    mat = ExactMatrix.from_rows([[c] * n] * n)
    true = spectrum_of([(c * n, 1)] + ([(0, n - 1)] if n > 1 else []))
    claims = [(true, True), (spectrum_of([(c * n + 1, 1)] + ([(0, n - 1)] if n > 1 else [])), False)]
    if n > 2:
        # the first power sum holds, the second is decoded from A^2's lanes
        wrong = spectrum_of([(c * n + 1, 1), (-1, 1), (0, n - 2)])
        expected = f"j=2: trace {c * c * n * n}, claimed {(c * n + 1) ** 2 + 1}"
        assert _certificate_failure(mat, wrong) == expected
        claims.append((wrong, False))
    for claim, holds in claims:
        assert verify_spectrum(mat, claim) is holds
        assert product_form_certificate(mat, claim) is holds


@pytest.mark.parametrize("c", [3, -(2**100) - 1])
def test_lanes_hold_a_power_past_the_claimed_coefficients(c):
    # c times a swap has trace 0 and A^2 = c^2 I, while the claim {1, -1}
    # has coefficients of size 1: only the M R^(j-1) term of the bound makes
    # the lanes wide enough to decode tr(A^2) = 2c^2
    mat = ExactMatrix.from_rows([[0, c], [c, 0]])
    assert _certificate_failure(mat, spectrum_of([(1, 1), (-1, 1)])) == f"j=2: trace {2 * c * c}, claimed 2"
    assert verify_spectrum(mat, spectrum_of([(c, 1), (-c, 1)]))


def _householder(v):
    """I - 2 v v^T / (v . v): rational, symmetric and its own inverse."""
    vv = sum(x * x for x in v)
    return ExactMatrix.from_rows(
        [[int(i == j) - Fraction(2 * x * y, vv) for j, y in enumerate(v)] for i, x in enumerate(v)]
    )


_values = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**110), 2**110),
    st.fractions(-20, 20, max_denominator=12),
)


@st.composite
def _symmetric_claims(draw):
    """A symmetric rational or integer matrix of size 0..8 and a claimed
    spectrum: H D H' for H, H' Householder reflections, whose spectrum is
    D's diagonal, or an arbitrary symmetric matrix, whose claim is a guess."""
    n = draw(st.integers(0, 8))
    diag = draw(st.lists(_values, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        diag = [diag[0]] * n  # a scalar matrix, one distinct eigenvalue
    true = draw(st.booleans())
    if true:
        mat = ExactMatrix.from_rows([[x if i == j else 0 for j in range(n)] for i, x in enumerate(diag)])
        for _ in range(2):
            v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            if any(v):
                h = _householder(v)
                mat = h @ mat @ h
    else:
        rows = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n + 1), 2):
            rows[i][j - 1] = rows[j - 1][i] = draw(_values)
        mat = ExactMatrix.from_rows(rows)
    if draw(st.booleans()):
        # the integer form, its spectrum scaled with it
        scale = mat._den
        mat, diag = mat.scale(scale), [x * scale for x in diag]
    return mat, Counter(map(Fraction, diag)), true


def _spectrum(counts):
    return Spectrum(tuple((v, m) for v, m in counts.items() if m))


@settings(max_examples=200, deadline=None)
@given(_symmetric_claims(), st.sampled_from([1, -1, Fraction(1, 2), 2**100]))
def test_packed_certificate_agrees_with_the_product_form(case, shift):
    mat, counts, true = case
    claims = [_spectrum(counts)]
    if counts:
        (v0, m0), *rest = counts.items()
        shifted = counts.copy()
        shifted[v0] -= m0
        shifted[v0 + shift] += m0
        claims.append(_spectrum(shifted))
        if rest:
            moved = counts.copy()
            moved[v0] += 1
            moved[rest[0][0]] -= 1
            claims.append(_spectrum(moved))
    for claim in claims:
        holds = product_form_certificate(mat, claim)
        assert verify_spectrum(mat, claim) is holds
    assert not true or verify_spectrum(mat, claims[0])


DESK_GRAPHS = [complete_graph(n) for n in range(4, 9)] + [
    complete_bipartite_graph(m, n) for m in range(2, 6) for n in range(2, 6)
]


@pytest.mark.parametrize("g", DESK_GRAPHS, ids=lambda g: g.name)
def test_powers_certificate_agrees_with_the_product_form(g):
    for k in range(1, g.vertex_count + 1):
        h = tilde_hessian(g, k)
        true = closed_form_spectrum(structured_params(h, g))
        (v0, m0), *rest = true.pairs
        claims = [(true, True)]
        # a half shift cannot land on another (integer) eigenvalue; it also
        # puts a denominator into the claim
        claims += [(Spectrum(((v0 + shift, m0), *rest)), False) for shift in (Fraction(1, 2), -7)]
        # every Hessian has trace 0, so the zero claim passes the trace
        # check and only the off-diagonal entries of p(h) = h refute it
        claims.append((Spectrum(((Fraction(0), h.nrows),)), h.is_zero()))
        if rest:
            (v1, m1), *others = rest
            moved = ((v0, m0 + 1), *([(v1, m1 - 1)] if m1 > 1 else []), *others)
            claims.append((Spectrum(moved), False))
        for claim, holds in claims:
            assert verify_spectrum(h, claim) is holds, (g.name, k, claim)
            assert product_form_certificate(h, claim) is holds, (g.name, k, claim)


def test_sign_profile():
    assert sign_profile(spectrum_of([(16, 1), (-2, 2), (-4, 3)])) == (1, 0, 5)
    assert sign_profile(spectrum_of([(6, 1), (-2, 3)])) == (1, 0, 3)
    assert sign_profile(spectrum_of([(0, 4)])) == (0, 4, 0)


def test_predicted_signs_complete():
    preds = predicted_signs(PairCounts(3, 4), 4)
    values = {q.label: q.value for q in preds.quantities}
    assert values["-2p+q"] == -2
    assert values["(n-4)p-(n-3)q"] == -4
    assert preds.all_satisfied


def test_predicted_signs_complete_k5():
    preds = predicted_signs(PairCounts(7, 8), 5)
    values = {q.label: q.value for q in preds.quantities}
    assert values["-2p+q"] == -6
    assert values["(n-4)p-(n-3)q"] == -9


def test_predicted_signs_hold_on_k5_to_k150():
    # the K_n theorem at every k of its range, decided exactly from the
    # closed-form p and q where no Hessian is built: the top eigenvalue is
    # positive and the two others negative, so one positive eigenvalue and
    # a nonzero determinant
    checked = 0
    for n in range(5, 151):
        for k in range(1, n - 2):
            d = pq_decomposition(n, k)
            assert predicted_signs(PairCounts(3 * d.t + d.f, 4 * d.t + d.f), n).all_satisfied
            checked += 1
    assert checked == 10877


def test_predicted_signs_bipartite():
    preds = predicted_signs(PairCounts(2, 2, 2), (2, 2))
    values = {q.label: q.value for q in preds.quantities}
    assert values["-p-q+r"] == -2
    assert values["p-r"] == 0  # weak comparison at the smallest size
    assert preds.all_satisfied


def test_predicted_signs_raises_on_violation():
    with pytest.raises(VerificationFailure):
        predicted_signs(PairCounts(1, 10), 5)  # -2p+q = 8 > 0: impossible counts


def test_predicted_signs_size_validation():
    with pytest.raises(ValueError):
        predicted_signs(PairCounts(3, 4), (4, 4))
    with pytest.raises(ValueError):
        predicted_signs(PairCounts(2, 2, 2), 4)
    with pytest.raises(ValueError):
        predicted_signs(PairCounts(3, 4), 3)


def test_exact_determinants_of_k4_hessians():
    g = complete_graph(4)
    assert exact_determinant(tilde_hessian(g, 2)) == -5
    assert exact_determinant(tilde_hessian(g, 1)) == -4096
    assert exact_determinant(ExactMatrix.zero(4, 4)) == 0


def test_determinant_equals_cofactor_oracle_on_hessian():
    h = tilde_hessian(complete_graph(4), 1)
    assert exact_determinant(h) == cofactor_determinant([list(r) for r in h.rows])


def test_determinant_equals_eigenvalue_product():
    for g, k in [(complete_graph(5), 1), (complete_graph(5), 2), (complete_bipartite_graph(2, 3), 2)]:
        h = tilde_hessian(g, k)
        spectrum = closed_form_spectrum(structured_params(h, g))
        assert verify_spectrum(h, spectrum)
        assert exact_determinant(h) == spectrum_determinant(spectrum)


def _ladder_graph(argv):
    if argv[1] == "--complete":
        return complete_graph(int(argv[2])), int(argv[4])
    return complete_bipartite_graph(int(argv[2]), int(argv[3])), int(argv[5])


SPECTRUM_LADDER = load_perfbench("workloads").instances("spectrum-ladder", 0)


@pytest.mark.parametrize("inst", SPECTRUM_LADDER, ids=lambda inst: inst.key)
def test_inertia_decides_the_sign_profile_on_the_ladder(inst):
    # the pivot signs of the symmetric kernel against the closed form's
    # sign profile: the one-positive-eigenvalue claim by a second route
    g, k = _ladder_graph(inst.argv)
    h = tilde_hessian(g, k)
    inertia = _symmetric_bareiss([list(row[i:]) for i, row in enumerate(h._num)])[1]
    assert inertia == tuple(sign_profile(closed_form_spectrum(structured_params(h, g))))
    if theorem_range(g, k):
        assert inertia == (1, 0, h.nrows - 1)


def test_full_pipeline_small_range():
    # the nonvanishing statement on a small slice of the theorem range
    for n in (4, 5, 6):
        g = complete_graph(n)
        for k in range(1, n - 2):
            h = tilde_hessian(g, k)
            params = structured_params(h, g)
            counts = edge_pair_counts(g, k)
            assert (params.alpha, params.beta, params.gamma) == (0, counts.p, counts.q)
            spectrum = closed_form_spectrum(params)
            assert verify_spectrum(h, spectrum)
            assert sign_profile(spectrum) == (1, 0, h.nrows - 1)
            assert exact_determinant(h) != 0
            assert theorem_range(g, k)


def test_boundary_quadratic_case_reported_not_asserted():
    # k = n-2 is computable but outside the theorem hypotheses
    g = complete_graph(4)
    assert not theorem_range(g, 2)
    h = tilde_hessian(g, 2)
    spectrum = closed_form_spectrum(structured_params(h, g))
    assert verify_spectrum(h, spectrum)
