"""Hessians of forest generating functions at the all-ones point.

The Hessian of a k-forest generating function, evaluated at all-ones, is a
structured matrix: its entries depend only on how the two indexing edges
intersect.  That structure pins down the full spectrum in closed form, and
the spectrum is certified exactly: the annihilating product over the
distinct eigenvalues must vanish, and the trace power sums must match the
claimed multiplicities.  For a symmetric (hence diagonalizable) matrix the
two conditions together are a proof, not a heuristic; no numerical
eigensolver is involved anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import lcm
from operator import mul
from typing import NamedTuple, Union

from .errors import StructureViolation, VerificationFailure
from .forests import PairCounts, _forest_index_tuples, count_forests_constrained
from .graphs import COMPLETE, Graph, PairClass, classify_edge_pair, edge_name
from .linalg import ExactMatrix


@dataclass(frozen=True)
class CompleteParams:
    """Entry pattern of an edge-pair matrix on a complete graph: alpha on
    the diagonal, beta for edges sharing a vertex, gamma for disjoint."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    n: int


@dataclass(frozen=True)
class BipartiteParams:
    """Entry pattern on a complete bipartite graph: alpha diagonal, beta for
    a shared left vertex, gamma shared right, delta disjoint."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    m: int
    n: int


StructuredParams = Union[CompleteParams, BipartiteParams]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, exact and in a fixed order."""

    pairs: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        values = [v for v, _m in self.pairs]
        if len(set(values)) != len(values):
            raise ValueError("eigenvalues must be distinct; merge multiplicities first")
        if any(m < 1 for _v, m in self.pairs):
            raise ValueError("multiplicities are positive")

    @property
    def dimension(self) -> int:
        return sum(m for _v, m in self.pairs)

    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _m in self.pairs)

    def as_list(self) -> tuple[Fraction, ...]:
        """Eigenvalues repeated by multiplicity."""
        out: list[Fraction] = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return tuple(out)


class SignProfile(NamedTuple):
    positive: int
    zero: int
    negative: int


@dataclass(frozen=True)
class SignedQuantity:
    """One exact quantity together with the sign it is required to have."""

    label: str
    value: Fraction
    requirement: str  # ">0", "<0" or "<=0"

    @property
    def satisfied(self) -> bool:
        if self.requirement == ">0":
            return self.value > 0
        if self.requirement == "<0":
            return self.value < 0
        return self.value <= 0


@dataclass(frozen=True)
class SignPredictions:
    quantities: tuple[SignedQuantity, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(q.satisfied for q in self.quantities)


def _merge(pairs: list[tuple[Fraction, int]]) -> Spectrum:
    order: list[Fraction] = []
    mult: dict[Fraction, int] = {}
    for value, m in pairs:
        if m <= 0:
            continue
        if value not in mult:
            order.append(value)
            mult[value] = 0
        mult[value] += m
    return Spectrum(tuple((v, mult[v]) for v in order))


def tilde_hessian(g: Graph, k: int, cross_check: bool = False) -> ExactMatrix:
    """Hessian of the k-forest generating function at all-ones.

    The generating function is square free with unit coefficients, so entry
    (e, e') of its Hessian at all-ones is the number of k-forests containing
    both edges, and the diagonal is zero.  The entries are integer
    co-occurrence counts taken straight from the enumerated forests, with
    no polynomial built.  With ``cross_check`` the independent counting
    route is computed as well and any disagreement raises.
    """
    m = g.edge_count
    pairs = Counter(chain.from_iterable(map(combinations, _forest_index_tuples(g, k), repeat(2))))
    rows = [[0] * m for _ in range(m)]
    for (i, j), count in pairs.items():
        rows[i][j] = rows[j][i] = count
    h = ExactMatrix.from_rows(rows)
    if cross_check:
        other = tilde_hessian_by_counting(g, k)
        if h != other:
            raise VerificationFailure(
                f"co-occurrence and counting Hessians disagree on {g.name}, k={k}"
            )
    return h


def tilde_hessian_by_counting(g: Graph, k: int) -> ExactMatrix:
    """The same matrix assembled entry by entry from constrained forest
    counts: entry (e, e') is the number of k-forests through both edges.

    Diagonal entries are zero because the generating function is square
    free.  This route never touches the polynomial.
    """
    if not 1 <= k <= g.vertex_count:
        raise ValueError(f"component count k={k} out of range 1..{g.vertex_count}")
    m = g.edge_count
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = Fraction(count_forests_constrained(g, k, required=(g.edges[i], g.edges[j])))
            rows[i][j] = c
            rows[j][i] = c
    return ExactMatrix.from_rows(rows)


def structured_params(mat: ExactMatrix, g: Graph) -> StructuredParams:
    """Extract the entry pattern of ``mat`` and verify it is uniform within
    each edge-pair class; a non-uniform entry raises StructureViolation."""
    if mat.nrows != g.edge_count or mat.ncols != g.edge_count:
        raise ValueError(
            f"matrix is {mat.nrows}x{mat.ncols} but {g.name} has {g.edge_count} edges"
        )
    seen: dict[PairClass, Fraction] = {}
    for i, e in enumerate(g.edges):
        for j, e2 in enumerate(g.edges):
            if j < i:
                continue
            cls = classify_edge_pair(g, e, e2)
            value = mat[i, j]
            if cls not in seen:
                seen[cls] = value
            elif seen[cls] != value:
                raise StructureViolation(
                    f"entries for {cls.value} disagree: {seen[cls]} vs {value} "
                    f"at ({edge_name(e)}, {edge_name(e2)})"
                )
    zero = Fraction(0)
    alpha = seen.get(PairClass.EQUAL, zero)
    if g.kind == COMPLETE:
        return CompleteParams(
            alpha=alpha,
            beta=seen.get(PairClass.SHARE_VERTEX, zero),
            gamma=seen.get(PairClass.DISJOINT, zero),
            n=g.left_size,
        )
    return BipartiteParams(
        alpha=alpha,
        beta=seen.get(PairClass.SHARE_LEFT, zero),
        gamma=seen.get(PairClass.SHARE_RIGHT, zero),
        delta=seen.get(PairClass.DISJOINT, zero),
        m=g.left_size,
        n=g.right_size,
    )


def closed_form_spectrum(params: StructuredParams) -> Spectrum:
    """The exact spectrum of a structured edge-pair matrix.

    Coincident eigenvalues are merged with summed multiplicities, and
    multiplicity-zero entries (possible at the smallest sizes) are dropped.
    """
    if isinstance(params, CompleteParams):
        n = params.n
        if n < 3:
            raise ValueError(f"closed form needs n >= 3, got n={n}")
        a, b, c = params.alpha, params.beta, params.gamma
        return _merge(
            [
                (a + (2 * n - 4) * b + Fraction((n - 2) * (n - 3), 2) * c, 1),
                (a - 2 * b + c, n * (n - 1) // 2 - n),
                (a + (n - 4) * b - (n - 3) * c, n - 1),
            ]
        )
    m, n = params.m, params.n
    if m < 2 or n < 2:
        raise ValueError(f"closed form needs m, n >= 2, got ({m}, {n})")
    a, b, c, d = params.alpha, params.beta, params.gamma, params.delta
    return _merge(
        [
            (a + (n - 1) * b + (m - 1) * c + (m - 1) * (n - 1) * d, 1),
            (a + (n - 1) * b - c - (n - 1) * d, m - 1),
            (a - b + (m - 1) * c - (m - 1) * d, n - 1),
            (a - b - c + d, (m - 1) * (n - 1)),
        ]
    )


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def verify_spectrum(mat: ExactMatrix, spectrum: Spectrum) -> bool:
    """Exact certification of a claimed spectrum of a symmetric matrix.

    Checks (a) the product of (mat - lambda I) over the distinct claimed
    eigenvalues annihilates, and (b) trace(mat^j) equals the claimed power
    sums for j = 1..#distinct.  For a diagonalizable matrix, (a) confines
    the eigenvalues to the claimed set and (b) pins the multiplicities via
    an invertible Vandermonde system.

    Both checks run on integers: with L the lcm of every denominator among
    the entries and the claimed eigenvalues, L*mat has eigenvalues
    L*lambda, its annihilating product is L^d times the original one, and
    its j-th trace power sum is L^j times the original one.
    """
    if not mat.is_square:
        raise ValueError("spectrum verification needs a square matrix")
    if spectrum.dimension != mat.nrows:
        raise ValueError(
            f"multiplicities sum to {spectrum.dimension}, matrix has dimension {mat.nrows}"
        )
    n = mat.nrows
    scale = lcm(
        *(x.denominator for row in mat.rows for x in row),
        *(v.denominator for v in spectrum.eigenvalues()),
    )
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in mat.rows]
    pairs = [(v.numerator * (scale // v.denominator), m) for v, m in spectrum.pairs]
    product: list[list[int]] = []
    for value, _m in pairs:
        shifted = [
            [x - value if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)
        ]
        product = _matmul(product, shifted) if product else shifted
    if any(map(any, product)):
        return False
    power = a
    for j in range(1, len(pairs) + 1):
        if sum(power[i][i] for i in range(n)) != sum(m * value**j for value, m in pairs):
            return False
        if j < len(pairs):
            power = _matmul(power, a)
    return True


def sign_profile(spectrum: Spectrum) -> SignProfile:
    """Multiplicity-weighted counts of positive, zero and negative eigenvalues."""
    pos = sum(m for v, m in spectrum.pairs if v > 0)
    zero = sum(m for v, m in spectrum.pairs if v == 0)
    neg = sum(m for v, m in spectrum.pairs if v < 0)
    return SignProfile(pos, zero, neg)


def spectrum_determinant(spectrum: Spectrum) -> Fraction:
    """Product of the eigenvalues with multiplicity."""
    out = Fraction(1)
    for value, m in spectrum.pairs:
        out *= value**m
    return out


def predicted_signs(counts: PairCounts, sizes: int | tuple[int, int]) -> SignPredictions:
    """The sign assertions behind the one-positive-eigenvalue theorems.

    Complete case (sizes = n): the top eigenvalue is positive and the two
    others, -2p+q and (n-4)p-(n-3)q, are negative.  Bipartite case
    (sizes = (m, n)): p-r and q-r are nonpositive, -p-q+r is strictly
    negative, and therefore the non-top eigenvalues
    (p-r)n + (-p-q+r) and (q-r)m + (-p-q+r) are negative.  Strictness of
    p < r and q < r fails at small sizes (see the family inequality
    report); the weak form is what the spectrum argument consumes.

    All quantities are returned exactly; a violated sign raises
    VerificationFailure since each is guaranteed in the valid range.
    """
    f = Fraction
    if counts.r is None:
        if not isinstance(sizes, int):
            raise ValueError("complete-case counts need a single size n")
        n = sizes
        if n < 4:
            raise ValueError(f"need n >= 4, got {n}")
        p, q = f(counts.p), f(counts.q)
        quantities = (
            SignedQuantity("p", p, ">0"),
            SignedQuantity("q", q, ">0"),
            SignedQuantity(
                "(2n-4)p + (n-2)(n-3)/2 q",
                (2 * n - 4) * p + f((n - 2) * (n - 3), 2) * q,
                ">0",
            ),
            SignedQuantity("-2p+q", -2 * p + q, "<0"),
            SignedQuantity("(n-4)p-(n-3)q", (n - 4) * p - (n - 3) * q, "<0"),
        )
    else:
        if isinstance(sizes, int):
            raise ValueError("bipartite-case counts need sizes (m, n)")
        m, n = sizes
        if m < 2 or n < 2:
            raise ValueError(f"need m, n >= 2, got ({m}, {n})")
        p, q, r = f(counts.p), f(counts.q), f(counts.r)
        quantities = (
            SignedQuantity("p", p, ">0"),
            SignedQuantity("q", q, ">0"),
            SignedQuantity("r", r, ">0"),
            SignedQuantity(
                "(n-1)p+(m-1)q+(m-1)(n-1)r",
                (n - 1) * p + (m - 1) * q + (m - 1) * (n - 1) * r,
                ">0",
            ),
            SignedQuantity("p-r", p - r, "<=0"),
            SignedQuantity("q-r", q - r, "<=0"),
            SignedQuantity("-p-q+r", -p - q + r, "<0"),
            SignedQuantity("(n-1)p-q-(n-1)r", (p - r) * n + (-p - q + r), "<0"),
            SignedQuantity("-p+(m-1)q-(m-1)r", (q - r) * m + (-p - q + r), "<0"),
        )
    predictions = SignPredictions(quantities)
    if not predictions.all_satisfied:
        bad = [q.label for q in quantities if not q.satisfied]
        raise VerificationFailure(f"sign predictions violated: {', '.join(bad)}")
    return predictions


__all__ = [
    "BipartiteParams",
    "CompleteParams",
    "ExactMatrix",
    "SignPredictions",
    "SignProfile",
    "SignedQuantity",
    "Spectrum",
    "StructuredParams",
    "closed_form_spectrum",
    "predicted_signs",
    "sign_profile",
    "spectrum_determinant",
    "structured_params",
    "tilde_hessian",
    "tilde_hessian_by_counting",
    "verify_spectrum",
]
