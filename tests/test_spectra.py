from fractions import Fraction

import pytest

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
    edge_pair_counts,
    exact_determinant,
    forest_generating_polynomial,
    hessian_matrix,
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

from conftest import cofactor_determinant


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
    g = complete_graph(5)
    assert tilde_hessian(g, 2, cross_check=True) == tilde_hessian_by_counting(g, 2)


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
