import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

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
from forest_spectra.linalg import RowEchelon, _bareiss, _independent_rows, _symmetric_bareiss

from conftest import cofactor_determinant, ldl_inertia


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
    # the middle column has no pivot once the first is eliminated
    m = ExactMatrix.from_rows([[1, 0, 2], [3, 0, 1], [5, 0, 7]])
    assert exact_determinant(m) == 0
    assert exact_determinant(ExactMatrix.from_rows([])) == 1


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


@st.composite
def dependent_rect_rows(draw, entries):
    rows = draw(rect_rows(entries))
    for _ in range(draw(st.integers(0, 3)) if len(rows) >= 2 else 0):
        # a row becomes a multiple (possibly zero) of another row
        i, j = draw(st.permutations(range(len(rows))))[:2]
        c = draw(entries)
        rows[i] = [c * x for x in rows[j]]
    return rows


def _sympy_rank(m: ExactMatrix) -> int:
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m.rows for x in row]
    return sympy.Matrix(m.nrows, m.ncols, entries).rank()


# the integer form of a matrix is its numerator rows over a common
# denominator; ``extra`` leaves that denominator unreduced on purpose
extra_factors = st.integers(1, 6)


def _from_integer_form(rows, extra: int) -> ExactMatrix:
    den = extra * lcm(*(Fraction(x).denominator for row in rows for x in row))
    return ExactMatrix._from_ints([[int(x * den) for x in row] for row in rows], den)


@given(st.one_of(square_rows(small_ints), square_rows(small_fractions)), extra_factors)
def test_integer_and_rational_determinants_match_cofactor_oracle(rows, extra):
    expected = cofactor_determinant(rows)
    for m in (ExactMatrix.from_rows(rows), _from_integer_form(rows, extra)):
        det = exact_determinant(m)
        assert type(det) is Fraction  # never a float: guards the exact // in Bareiss
        assert det == expected


@given(
    st.one_of(
        rect_rows(small_ints),
        rect_rows(small_fractions),
        square_rows(small_ints),
        dependent_rect_rows(small_fractions),
    ),
    extra_factors,
)
def test_rank_matches_sympy(rows, extra):
    m = ExactMatrix.from_rows(rows)
    from_ints = _from_integer_form(rows, extra)
    # equal matrices have one canonical integer form, whatever they were built from
    assert from_ints == m and hash(from_ints) == hash(m)
    fractions = tuple(tuple(map(Fraction, row)) for row in rows)
    for mat in (m, from_ints):
        assert mat.rows == fractions and ExactMatrix(mat.rows) == mat
        assert all(type(x) is Fraction for row in mat.rows for x in row)
        assert all(mat[i, j] == x for i, row in enumerate(fractions) for j, x in enumerate(row))
        rank = exact_rank(mat)
        assert type(rank) is int
        assert rank == _sympy_rank(m)


@st.composite
def greedy_rows(draw):
    """Integer rows, up to twice as many as columns, mixing fresh rows, zero
    rows, signed repeats of earlier rows and combinations of a few
    generators (which keep the matrix rank-deficient)."""
    width = draw(st.integers(1, 5))
    row = st.lists(small_ints, min_size=width, max_size=width)
    gens = draw(st.lists(row, min_size=1, max_size=max(1, width - 1)))
    rows = []
    for _ in range(draw(st.integers(0, 2 * width))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "span"]))
        if kind == "fresh":
            rows.append(draw(row))
        elif kind == "zero":
            rows.append([0] * width)
        elif kind == "repeat" and rows:
            c = draw(st.sampled_from([1, -1, 2, -3]))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            cs = draw(st.lists(small_ints, min_size=len(gens), max_size=len(gens)))
            rows.append([sum(c * g[j] for c, g in zip(cs, gens)) for j in range(width)])
    return rows


@settings(max_examples=300)
@given(greedy_rows())
def test_independent_rows_match_greedy_echelon(rows):
    before = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    echelon = RowEchelon(width)
    expected = [i for i, row in enumerate(rows) if echelon.add(row)]
    assert list(_independent_rows(rows)) == expected
    assert rows == before  # the input rows are left as they were


@settings(max_examples=300)
@given(greedy_rows())
# each reaches full rank before its last row, which is then never read
@example([[0, 1, 2], [0, 0, 0], [3, 1, 1], [1, 1, 0], [4, 4, 4]])
@example([[0, 2], [1, 1], [3, 5]])
def test_lead_columns_are_the_greedy_independent_columns(rows):
    # the columns independent of the columns before them are the greedy
    # independent rows of the transpose
    width = len(rows[0]) if rows else 0
    echelon = RowEchelon(len(rows))
    expected = [j for j in range(width) if echelon.add([row[j] for row in rows])]
    leads = _independent_rows(rows)
    assert sorted(leads.values()) == expected
    assert len(set(leads.values())) == len(leads)


def test_independent_rows_stop_once_every_column_has_a_pivot():
    # nothing past the second row is read: it would raise if it were
    assert _independent_rows([[2, -4], [0, 3], None]) == {0: 0, 1: 1}
    assert _independent_rows(iter([[0, 1], [1, 1], None])) == {0: 1, 1: 0}
    assert _independent_rows([[0, 0], [1, 2], [-2, -4], [3, 1], [1, 1]]) == {1: 0, 3: 1}
    assert _independent_rows([]) == {}


@st.composite
def symmetric_rows(draw):
    """Symmetric integer matrices of size 0..6: plain, with a zero diagonal
    (as the Hessians of square-free forms have), or M S M^T for an n x r M
    with r < n, which is singular; dense, or mostly zero."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["plain", "zero diagonal", "low rank"]))
    entries = draw(st.sampled_from([small_ints, st.sampled_from([0, 0, 0, 1, -1, 2])]))
    size = draw(st.integers(0, max(n - 1, 0))) if kind == "low rank" else n
    upper = [draw(st.lists(entries, min_size=size - i, max_size=size - i)) for i in range(size)]
    if kind == "zero diagonal":
        for row in upper:
            row[0] = 0
    s = [[upper[min(i, j)][abs(i - j)] for j in range(size)] for i in range(size)]
    if kind != "low rank":
        return s
    m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=size, max_size=size), min_size=n, max_size=n))
    return [[sum(mi[p] * s[p][q] * mj[q] for p in range(size) for q in range(size)) for mj in m] for mi in m]


@settings(max_examples=300)
@given(symmetric_rows())
@example([])
@example([[0]])
# an all-zero diagonal: the first pivot is a congruence
@example([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
# the congruence's j = 2 lies past a zero a_01, which gains a_21
@example([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
@example([[2, 0, 1], [0, 0, 0], [1, 0, 3]])  # a zero row
# singular, and the first pivot needs the congruence
@example([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
# the trailing block is zero after one pivot, and after two
@example([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
@example([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
def test_symmetric_kernel_matches_bareiss_and_ldl(rows):
    det, inertia = _symmetric_bareiss([row[i:] for i, row in enumerate(rows)])
    expected_det, expected_inertia = ldl_inertia(rows)
    assert det == _bareiss([list(row) for row in rows]) == expected_det
    assert inertia == expected_inertia
    assert sum(inertia) == len(rows)
    assert exact_determinant(ExactMatrix.from_rows(rows)) == det


def test_only_an_asymmetric_determinant_reaches_the_full_square_kernel(monkeypatch):
    import forest_spectra.linalg as linalg

    def never(a):
        raise AssertionError("a symmetric matrix reached the full-square kernel")

    monkeypatch.setattr(linalg, "_bareiss", never)
    m = ExactMatrix.from_rows([[0, Fraction(1, 2), 3], [Fraction(1, 2), 0, -1], [3, -1, 0]])
    assert exact_determinant(m) == cofactor_determinant(m.rows)
    with pytest.raises(AssertionError):
        exact_determinant(ExactMatrix.from_rows([[0, 1], [2, 0]]))


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
