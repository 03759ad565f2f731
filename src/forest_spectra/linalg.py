"""Exact matrices over the rationals, and the integer kernels under them.

``ExactMatrix`` holds integer numerator rows over one positive common
denominator, kept canonical (the gcd of the denominator and every entry is
1), so equal matrices have equal integer forms.  The public surface stays
rational: ``rows`` and ``m[i, j]`` read ``Fraction``s, the row view built
only when something reads it, and the callers that produce integers build
matrices through ``_from_ints`` with no ``Fraction`` at all.  A
determinant is a Bareiss (1968) fraction-free elimination (exact ``//``)
divided by den^n at the end: of the upper triangle alone for a symmetric
matrix (``_symmetric_bareiss``, which also gives the exact inertia), of
the full square otherwise (``_bareiss``).  A rank, and each pair of graded
bases of ``lefschetz`` (kept rows, lead columns), is the greedy
left-looking row reduction ``_independent_rows``.  No floating point; the
theorems downstream are about exact nonvanishing and exact signs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

__all__ = ["ExactMatrix", "exact_determinant", "exact_rank"]

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class ExactMatrix:
    """Immutable matrix of exact rationals; rectangular allowed.

    ``ExactMatrix(rows)`` takes rows of rationals; the matrix is held as
    integer rows ``_num`` over the denominator ``_den`` and compares and
    hashes by that canonical form.
    """

    __slots__ = ("_num", "_den", "_rows")

    def __init__(self, rows: Iterable[Sequence[Rational]]) -> None:
        rows = [tuple(map(_frac, row)) for row in rows]
        # over the lcm of reduced denominators the form is already canonical
        den = lcm(*(x.denominator for row in rows for x in row))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)
        self._set(num, den)

    @classmethod
    def _from_ints(cls, rows: Iterable[Sequence[int]], den: int = 1) -> "ExactMatrix":
        """The matrix ``rows / den`` for integer rows and ``den > 0``."""
        num = tuple(map(tuple, rows))
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        mat = object.__new__(cls)
        mat._set(num, den)
        return mat

    def _set(self, num: tuple[tuple[int, ...], ...], den: int) -> None:
        if len(set(map(len, num))) > 1:
            raise ValueError("ragged rows")
        self._num = num
        self._den = den
        self._rows: tuple[tuple[Fraction, ...], ...] | None = None

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Rational]]) -> "ExactMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._from_ints([int(i == j) for j in range(n)] for i in range(n))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls._from_ints([0] * ncols for _ in range(nrows))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction``s, built on first read."""
        if self._rows is None:
            den = self._den
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in self._num)
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._num)

    @property
    def ncols(self) -> int:
        return len(self._num[0]) if self._num else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def symmetric(self) -> bool:
        return self.is_square and self._num == tuple(zip(*self._num))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"ExactMatrix(rows={self.rows!r})"

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._from_ints(zip(*self._num), self._den) if self._num else self

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, sub)

    def scale(self, c: Rational) -> "ExactMatrix":
        p, q = _frac(c).as_integer_ratio()
        return ExactMatrix._from_ints(([p * x for x in row] for row in self._num), self._den * q)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        cols = list(zip(*other._num))
        return ExactMatrix._from_ints(
            ([sum(map(mul, row, col)) for col in cols] for row in self._num),
            self._den * other._den,
        )

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._num)), self._den)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def _combine(self, other: "ExactMatrix", op) -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return ExactMatrix._from_ints(
            ([op(a * x, b * y) for x, y in zip(ra, rb)] for ra, rb in zip(self._num, other._num)),
            den,
        )


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss (1968) fraction-free
    elimination, in place, with row swaps.

    Every division is exact, so ``//`` keeps all intermediates integral.
    Returns 0 at the first column with no pivot; otherwise the last pivot
    times the sign of the row swaps.
    """
    n = len(a)
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        ptail = a[col][col + 1 :]
        pivot = a[col][col]
        for r in range(col + 1, n):
            arow = a[r]
            factor = arow[col]
            arow[col + 1 :] = [
                (x * pivot - factor * y) // prev for x, y in zip(arow[col + 1 :], ptail)
            ]
        prev = pivot
    return sign * prev


def _symmetric_bareiss(upper: list[list[int]]) -> tuple[int, tuple[int, int, int]]:
    """Determinant and inertia (n+, n0, n-) of a symmetric integer matrix,
    given as its upper triangle: ``upper[i]`` is a_ii, ..., a_i(n-1).  The
    rows are consumed.

    Bareiss (1968) elimination on the triangle: with the pivot a_00 and
    ``prev`` the pivot before it, row i becomes
    (a_00 a_ij - a_0i a_0j) // prev for j >= i, and row 0 is dropped, so
    the leading row is always the next pivot row; when the next pivot is
    nonzero as well, the two steps are taken in one pass over the rows.
    Each entry is a minor, so every division is exact, and the pivots are
    the leading principal minors D_1, D_2, ... of the matrix as pivoting
    left it.  A zero pivot is replaced, in O(n) on the triangle, by a
    symmetric swap with a later nonzero diagonal; when every diagonal is
    zero, by the congruence "row and column 0 += row and column j" for the
    first a_0j != 0, which makes the pivot 2 a_0j.  Neither changes the
    determinant, and by Sylvester's law neither changes the inertia, which
    is read off the signs of D_k / D_(k-1).  A zero row left is a zero
    eigenvalue: it is dropped and counted in n0, and the determinant is 0.
    """
    n, neg, zero, prev = len(upper), 0, 0, 1
    while upper:
        row = upper[0]
        if not row[0]:
            p = next((i for i, r in enumerate(upper) if r[0]), None)
            if p is not None:
                # swap indices 0 and p: a_0j trades with a_jp for 0 < j < p,
                # and with a_pj for j > p
                rp = upper[p]
                row[0], rp[0] = rp[0], row[0]
                for j in range(1, p):
                    rj = upper[j]
                    row[j], rj[p - j] = rj[p - j], row[j]
                row[p + 1 :], rp[1:] = rp[1:], row[p + 1 :]
            else:
                j = next((j for j, x in enumerate(row) if x), None)
                if j is None:
                    del upper[0]
                    zero += 1
                    continue
                # a_00 = a_jj = 0, so a_00 becomes 2 a_0j and a_0j stays
                row[0] = 2 * row[j]
                for i in range(1, j):
                    row[i] += upper[i][j - i]
                row[j + 1 :] = map(add, row[j + 1 :], upper[j][1:])
        pivot = row[0]
        neg += (pivot > 0) != (prev > 0)
        if len(upper) > 1:
            c = row[1]
            nxt = [(pivot * x - c * y) // prev for x, y in zip(upper[1], row[1:])]
            m = nxt[0]
            if m:
                # row 1 pivots next as it stands: both steps in one pass
                # (Bareiss's two-step form), a_ij becoming
                # (m a_ij - a_1i nxt_j + a_0i q_j) // prev, where q_j is the
                # 2x2 minor (a_01 a_1j - a_0j a_11) over prev
                row1 = upper[1]
                a01, a11 = row[1], row1[0]
                q = [(a01 * y - x * a11) // prev for x, y in zip(row[2:], row1[1:])]
                for i in range(2, len(upper)):
                    c0, c1 = row[i], row1[i - 1]
                    upper[i] = [
                        (m * x - c1 * y + c0 * z) // prev
                        for x, y, z in zip(upper[i], nxt[i - 1 :], q[i - 2 :])
                    ]
                neg += (m > 0) != (pivot > 0)
                prev = m
                del upper[:2]
                continue
            upper[1] = nxt
        for i in range(2, len(upper)):
            c = row[i]
            upper[i] = [(pivot * x - c * y) // prev for x, y in zip(upper[i], row[i:])]
        prev = pivot
        del upper[0]
    return (0 if zero else prev), (n - zero - neg, zero, neg)


def _independent_rows(rows: Iterable[Sequence[int]]) -> dict[int, int]:
    """Each integer row independent of the rows above it, by index, mapped
    to its lead column, in row order.

    Left-looking: each row is reduced against the rows kept so far, in the
    order they were kept, and touched by a kept row only where its entry in
    that row's pivot column is nonzero.  A kept row has zeros in the pivot
    columns of the rows kept before it, so one pass clears every pivot
    column; a row left nonzero is independent, is divided by its content
    and pivots on its first nonzero column, its lead.  Being distinct leads
    of vectors in the row space, the leads are the columns independent of
    the columns before them.  Stops once the kept rows span every column,
    without reading the rows after that.
    """
    kept: dict[int, int] = {}
    pivots: list[tuple[int, Sequence[int]]] = []
    for i, row in enumerate(rows):
        for col, prow in pivots:
            c = row[col]
            if c:
                p = prow[col]
                g = gcd(p, c)
                p, c = p // g, c // g
                row = [p * x - c * y for x, y in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        content = gcd(*row)
        if content != 1:
            row = [x // content for x in row]
        pivots.append((lead, row))
        kept[i] = lead
        if len(kept) == len(row):
            break
    return kept


def exact_determinant(mat: ExactMatrix) -> Fraction:
    """Determinant by integer Bareiss elimination of the numerator rows,
    divided by den^n at the end: of their upper triangle when the matrix is
    symmetric."""
    if not mat.is_square:
        raise ValueError("determinant needs a square matrix")
    if mat.symmetric:
        det = _symmetric_bareiss([list(row[i:]) for i, row in enumerate(mat._num)])[0]
    else:
        det = _bareiss(list(map(list, mat._num)))
    return Fraction(det, mat._den**mat.nrows)


def exact_rank(mat: ExactMatrix) -> int:
    """Rank by the greedy-rows reduction of the numerator rows."""
    return len(_independent_rows(mat._num))


class RowEchelon:
    """Incremental rational row reduction; the test oracle for
    ``_independent_rows``, ``exact_rank`` and ``lefschetz.graded_basis``."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.pivots: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Sequence[Rational]) -> bool:
        """Insert a row; True if it was independent of the rows so far."""
        work = [_frac(x) for x in row]
        for col, base in self.pivots.items():
            c = work[col]
            if c:
                for j in range(col, self.width):
                    work[j] -= c * base[j]
        lead = next((j for j, x in enumerate(work) if x != 0), None)
        if lead is None:
            return False
        pivot = work[lead]
        self.pivots[lead] = [x / pivot for x in work]
        return True
