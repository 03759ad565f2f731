import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from forest_spectra import (
    ExactMatrix,
    Spectrum,
    closed_form_spectrum,
    complete_graph,
    exact_determinant,
    exact_rank,
    structured_params,
    tilde_hessian,
    verify_spectrum,
)
from forest_spectra.linalg import RowEchelon

from conftest import cofactor_determinant


def test_identity_and_trace():
    m = ExactMatrix.identity(4)
    assert exact_determinant(m) == 1
    assert m.trace() == 4
    assert m.symmetric


def test_matmul_against_hand_value():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).rows == ((2, 1), (4, 3))


def test_determinant_singular():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert exact_determinant(m) == 0


def test_determinant_rational_entries():
    m = ExactMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    )
    assert exact_determinant(m) == Fraction(1, 14) - Fraction(1, 15)


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(20240811)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        assert exact_determinant(ExactMatrix.from_rows(rows)) == cofactor_determinant(rows)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        exact_determinant(ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_rank_rectangular():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert exact_rank(m) == 2
    wide = ExactMatrix.from_rows([[1, 0, 0, 5], [0, 0, 1, 1]])
    assert exact_rank(wide) == 2
    assert exact_rank(ExactMatrix.zero(3, 4)) == 0


def test_rank_matches_determinant_nonsingularity():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix.from_rows(rows)
        det = exact_determinant(m)
        if det != 0:
            assert exact_rank(m) == n
        else:
            assert exact_rank(m) < n


def test_row_echelon_incremental():
    ech = RowEchelon(3)
    assert ech.add([1, 0, 1])
    assert ech.add([0, 1, 0])
    assert not ech.add([1, 1, 1])
    assert ech.add([0, 0, 5])
    assert ech.rank == 3


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    a = ExactMatrix.from_rows([[1, 2]])
    b = ExactMatrix.from_rows([[1], [2]])
    with pytest.raises(ValueError):
        a + b
    assert (a @ b).rows == ((5,),)


# -- integer kernel against independent oracles ------------------------------

small_ints = st.integers(-4, 4)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def square_rows(draw, entries, max_n=5):
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # force singularity: one row becomes a multiple of another
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(entries)
        rows[i] = [c * x for x in rows[j]]
    return rows


@st.composite
def rect_rows(draw, entries):
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))


def _sympy_rank(m: ExactMatrix) -> int:
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m.rows for x in row]
    return sympy.Matrix(m.nrows, m.ncols, entries).rank()


@given(st.one_of(square_rows(small_ints), square_rows(small_fractions)))
def test_integer_and_rational_determinants_match_cofactor_oracle(rows):
    det = exact_determinant(ExactMatrix.from_rows(rows))
    assert type(det) is Fraction  # never a float: guards the exact // in Bareiss
    assert det == cofactor_determinant(rows)


@given(st.one_of(rect_rows(small_ints), rect_rows(small_fractions), square_rows(small_ints)))
def test_rank_matches_sympy(rows):
    m = ExactMatrix.from_rows(rows)
    rank = exact_rank(m)
    assert type(rank) is int
    assert rank == _sympy_rank(m)


def _k5_hessian_and_spectrum():
    g = complete_graph(5)
    h = tilde_hessian(g, 1)
    return h, closed_form_spectrum(structured_params(h, g))


def test_verify_spectrum_certifies_rational_scaling():
    h, spectrum = _k5_hessian_and_spectrum()
    third = Fraction(1, 3)
    scaled = Spectrum(tuple((v * third, m) for v, m in spectrum.pairs))
    assert any(v.denominator == 3 for v in scaled.eigenvalues())
    assert verify_spectrum(h.scale(third), scaled)


def test_verify_spectrum_refuses_wrong_multiplicity_after_scaling():
    h, spectrum = _k5_hessian_and_spectrum()
    third = Fraction(1, 3)
    (v0, m0), (v1, m1), *rest = spectrum.pairs
    rest = [(v * third, m) for v, m in rest]
    wrong = Spectrum(((v0 * third, m0 + 1), (v1 * third, m1 - 1), *rest))
    assert wrong.dimension == h.nrows
    assert not verify_spectrum(h.scale(third), wrong)


def test_verify_spectrum_refuses_shifted_eigenvalue_after_scaling():
    h, spectrum = _k5_hessian_and_spectrum()
    third = Fraction(1, 3)
    pairs = [(v * third, m) for v, m in spectrum.pairs]
    for shift in (Fraction(1, 3), Fraction(1, 7)):
        shifted = Spectrum(((pairs[0][0] + shift, pairs[0][1]), *pairs[1:]))
        assert not verify_spectrum(h.scale(third), shifted)


@given(st.lists(small_fractions, min_size=1, max_size=5))
def test_verify_spectrum_on_rational_diagonal(diagonal):
    n = len(diagonal)
    mat = ExactMatrix.from_rows(
        [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
    counts = Counter(diagonal)
    assert verify_spectrum(mat, Spectrum(tuple(counts.items())))
    if len(counts) > 1:
        # move one multiplicity from the second eigenvalue to the first
        (v0, m0), (v1, m1), *rest = counts.items()
        moved = [(v0, m0 + 1)] + ([(v1, m1 - 1)] if m1 > 1 else []) + rest
        assert not verify_spectrum(mat, Spectrum(tuple(moved)))
