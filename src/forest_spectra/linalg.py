"""Exact matrices over the rationals, and the integer kernel under them.

``ExactMatrix`` holds ``Fraction`` entries and keeps the public surface
rational.  Determinants and ranks are decided on integers: each row is
cleared of its denominators and a single Bareiss (1968) fraction-free
elimination runs on Python ``int``s with exact ``//``.  No floating point
anywhere; the theorems downstream are about exact nonvanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable matrix of exact rationals; rectangular allowed."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Rational]]) -> "ExactMatrix":
        return cls(tuple(tuple(_frac(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "ExactMatrix":
        z = Fraction(0)
        return cls(tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def symmetric(self) -> bool:
        if not self.is_square:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.nrows)
        )

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.rows[i][j]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.rows))) if self.rows else self

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def scale(self, c: Rational) -> "ExactMatrix":
        cf = _frac(c)
        return ExactMatrix(tuple(tuple(cf * a for a in row) for row in self.rows))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        cols = other.transpose().rows
        return ExactMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")


def _integer_rows(mat: ExactMatrix) -> tuple[list[list[int]], int]:
    """Clear denominators row by row.

    Returns the rows of ``mat``, each multiplied by the lcm of its own
    denominators, and the product of those multipliers.
    """
    rows = []
    scale = 1
    for row in mat.rows:
        mult = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return rows, scale


def _bareiss(a: list[list[int]], ncols: int) -> tuple[int, int]:
    """Bareiss (1968) fraction-free elimination of an integer matrix, in
    place, with column scanning.

    Every division is exact, so ``//`` keeps all intermediates integral.
    Returns the rank and the last pivot times the sign of the row swaps;
    for a nonsingular square matrix the latter is the determinant.
    """
    nrows = len(a)
    sign = 1
    prev = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            sign = -sign
        ptail = a[row][col + 1 :]
        pivot = a[row][col]
        for r in range(row + 1, nrows):
            arow = a[r]
            factor = arow[col]
            arow[col + 1 :] = [
                (x * pivot - factor * y) // prev for x, y in zip(arow[col + 1 :], ptail)
            ]
        prev = pivot
        row += 1
    return row, sign * prev


def exact_determinant(mat: ExactMatrix) -> Fraction:
    """Determinant by integer Bareiss elimination after clearing each
    row's denominators; the cleared factors are divided out at the end."""
    if not mat.is_square:
        raise ValueError("determinant needs a square matrix")
    a, scale = _integer_rows(mat)
    rank, det = _bareiss(a, mat.ncols)
    return Fraction(det if rank == mat.nrows else 0, scale)


def exact_rank(mat: ExactMatrix) -> int:
    """Rank by integer Bareiss elimination; scaling a row by its
    denominators and dropping zero rows leave the rank unchanged."""
    a, _scale = _integer_rows(mat)
    return _bareiss([row for row in a if any(row)], mat.ncols)[0]


class RowEchelon:
    """Incremental rational row reduction for independence testing."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.pivots: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Sequence[Rational]) -> list[Fraction]:
        work = [_frac(x) for x in row]
        for col, base in self.pivots.items():
            c = work[col]
            if c:
                for j in range(col, self.width):
                    work[j] -= c * base[j]
        return work

    def add(self, row: Sequence[Rational]) -> bool:
        """Insert a row; True if it was independent of the rows so far."""
        work = self.reduce(row)
        lead = next((j for j, x in enumerate(work) if x != 0), None)
        if lead is None:
            return False
        pivot = work[lead]
        self.pivots[lead] = [x / pivot for x in work]
        return True
