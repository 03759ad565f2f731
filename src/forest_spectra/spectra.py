"""Hessians of forest generating functions at the all-ones point.

The Hessian of a k-forest generating function, evaluated at all-ones, is a
structured matrix: its entries depend only on how the two indexing edges
intersect.  That structure pins down the full spectrum in closed form, and
the spectrum is certified exactly on the integer form of the matrix: with
d distinct claimed eigenvalues, the powers A^2..A^d are formed once, the
claimed minimal polynomial evaluated at A from them must vanish, and the
traces of the same powers must match the claimed power sums.  The two
conditions together are a proof, not a heuristic; no numerical
eigensolver is involved anywhere.  The Hessians are built, checked and
certified on Python ints with no ``Fraction`` in between, the last two by
one routine, :func:`_degree_one_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import lcm
from operator import add, mul
from typing import NamedTuple, Sequence, Union

from .errors import StructureViolation, VerificationFailure
from .forests import PairCounts, _pair_counts_by_frontier, _require_k, count_forests_constrained
from .graphs import COMPLETE, Graph, PairClass, _pair_class, edge_name
from .linalg import ExactMatrix, exact_determinant


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


def tilde_hessian(g: Graph, k: int) -> ExactMatrix:
    """Hessian of the k-forest generating function at all-ones.

    The generating function is square free with unit coefficients, so entry
    (e, e') of its Hessian at all-ones is the number of k-forests containing
    both edges, and the diagonal is zero.  The entries are integer pair
    counts from one frontier walk that packs them into bit lanes, with no
    forest and no polynomial built; an input too large for that walk
    raises ValueError before it starts.
    """
    _require_k(g.vertex_count, k)
    # a k-forest has n - k edges; the walk fills the lower triangle with its
    # pair counts, and adding the transpose mirrors it
    lower = _pair_counts_by_frontier(g.edge_ends, g.vertex_count - k)
    return ExactMatrix._from_ints(map(add, row, col) for row, col in zip(lower, zip(*lower)))


def tilde_hessian_by_counting(g: Graph, k: int) -> ExactMatrix:
    """The same matrix assembled entry by entry from constrained forest
    counts: entry (e, e') is the number of k-forests through both edges.

    Diagonal entries are zero because the generating function is square
    free.  This route never touches the polynomial.
    """
    _require_k(g.vertex_count, k)
    m = g.edge_count
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = count_forests_constrained(g, k, required=(g.edges[i], g.edges[j]))
            rows[i][j] = c
            rows[j][i] = c
    return ExactMatrix._from_ints(rows)


def structured_params(mat: ExactMatrix, g: Graph) -> StructuredParams:
    """Extract the entry pattern of ``mat`` and verify it is uniform within
    each edge-pair class; a non-uniform entry raises StructureViolation.
    Reads the upper triangle's integer numerators."""
    if mat.nrows != g.edge_count or mat.ncols != g.edge_count:
        raise ValueError(
            f"matrix is {mat.nrows}x{mat.ncols} but {g.name} has {g.edge_count} edges"
        )
    den, ends = mat._den, g.edge_ends
    seen: dict[PairClass, int] = {}
    for i, (e, row) in enumerate(zip(ends, mat._num)):
        for j, e2 in enumerate(ends[i:], i):
            cls, value = _pair_class(g, e, e2), row[j]
            first = seen.setdefault(cls, value)
            if first != value:
                raise StructureViolation(
                    f"entries for {cls.value} disagree: {Fraction(first, den)} vs "
                    f"{Fraction(value, den)} at ({edge_name(g.edges[i])}, {edge_name(g.edges[j])})"
                )

    def entry(cls: PairClass) -> Fraction:
        return Fraction(seen.get(cls, 0), den)

    alpha = entry(PairClass.EQUAL)
    if g.kind == COMPLETE:
        return CompleteParams(
            alpha=alpha,
            beta=entry(PairClass.SHARE_VERTEX),
            gamma=entry(PairClass.DISJOINT),
            n=g.left_size,
        )
    return BipartiteParams(
        alpha=alpha,
        beta=entry(PairClass.SHARE_LEFT),
        gamma=entry(PairClass.SHARE_RIGHT),
        delta=entry(PairClass.DISJOINT),
        m=g.left_size,
        n=g.right_size,
    )


def _closed_form_need(sizes: tuple[int, ...]) -> str | None:
    """The size condition of the closed-form spectrum that ``sizes`` (n of
    K_n, or m and n of K_{m,n}) fails, or None when it holds."""
    if len(sizes) == 1:
        return "n >= 3" if sizes[0] < 3 else None
    return "m, n >= 2" if min(sizes) < 2 else None


def _require_closed_form(g: Graph, who: str) -> None:
    """Refuse a graph with no closed-form degree-one spectrum: K_n with
    n < 3, or K_{m,n} with a part of one vertex."""
    sizes = (g.left_size,) if g.kind == COMPLETE else (g.left_size, g.right_size)
    need = _closed_form_need(sizes)
    if need:
        raise ValueError(f"{who} on {g.name}: the degree-one spectrum needs {need}")


def _eigenvalues(params: StructuredParams) -> list[tuple[Fraction, int]]:
    """The closed-form eigenvalues of a structured edge-pair matrix with
    their multiplicities, unmerged, the top eigenvalue first: the one list
    of the formulas, which ``predicted_signs`` evaluates at the counts."""
    if isinstance(params, CompleteParams):
        n = params.n
        need = _closed_form_need((n,))
        if need:
            raise ValueError(f"closed form needs {need}, got n={n}")
        a, b, c = params.alpha, params.beta, params.gamma
        return [
            (a + (2 * n - 4) * b + Fraction((n - 2) * (n - 3), 2) * c, 1),
            (a - 2 * b + c, n * (n - 1) // 2 - n),
            (a + (n - 4) * b - (n - 3) * c, n - 1),
        ]
    m, n = params.m, params.n
    need = _closed_form_need((m, n))
    if need:
        raise ValueError(f"closed form needs {need}, got ({m}, {n})")
    a, b, c, d = params.alpha, params.beta, params.gamma, params.delta
    return [
        (a + (n - 1) * b + (m - 1) * c + (m - 1) * (n - 1) * d, 1),
        (a + (n - 1) * b - c - (n - 1) * d, m - 1),
        (a - b + (m - 1) * c - (m - 1) * d, n - 1),
        (a - b - c + d, (m - 1) * (n - 1)),
    ]


def closed_form_spectrum(params: StructuredParams) -> Spectrum:
    """The exact spectrum of a structured edge-pair matrix.

    Coincident eigenvalues are merged with summed multiplicities, and
    multiplicity-zero entries (possible at the smallest sizes) are dropped.
    """
    mult: dict[Fraction, int] = {}
    for value, m in _eigenvalues(params):
        if m > 0:
            mult[value] = mult.get(value, 0) + m
    return Spectrum(tuple(mult.items()))


def _times(power: Sequence[Sequence[int]], a: Sequence[Sequence[int]]) -> list[list[int]]:
    """power @ a for symmetric commuting factors, such as two powers of one
    symmetric matrix: the product is symmetric, so only its upper triangle
    is multiplied out and the lower one is mirrored."""
    out: list[list[int]] = []
    for i, row in enumerate(power):
        out.append([out[j][i] for j in range(i)] + [sum(map(mul, row, col)) for col in a[i:]])
    return out


def verify_spectrum(mat: ExactMatrix, spectrum: Spectrum) -> bool:
    """Exact certification of a claimed spectrum of a symmetric matrix.

    With lambda_1..lambda_d the distinct claimed eigenvalues, checks that
    (a) p(mat) = 0 for p(x) = prod (x - lambda_i), and (b) trace(mat^j)
    equals the claimed power sum for j = 1..d.  A matrix annihilated by a
    polynomial with distinct rational roots is diagonalisable with its
    eigenvalues among those roots, so (a) confines the spectrum to the
    claimed set and (b), with the dimension, pins the multiplicities via an
    invertible Vandermonde system.

    The powers mat^2..mat^d are formed once and serve both checks, p(mat)
    being the sum of the powers weighted by p's coefficients.  Symmetry is
    needed only to multiply out half of each power, so a square matrix
    that is not symmetric raises ValueError naming its first asymmetric
    entry.  Everything runs on integers: with L the lcm of the matrix
    denominator and the eigenvalue denominators, L*mat has eigenvalues
    L*lambda, p's coefficients scale by powers of L, and the j-th trace
    power sum is L^j times the original one.
    """
    if not mat.is_square:
        raise ValueError("spectrum verification needs a square matrix")
    num, den = mat._num, mat._den
    upper = combinations(range(mat.nrows), 2)
    bad = next(((i, j) for i, j in upper if num[i][j] != num[j][i]), None)
    if bad is not None:
        raise ValueError(f"spectrum verification needs a symmetric matrix; entry {bad} is not")
    if spectrum.dimension != mat.nrows:
        raise ValueError(
            f"multiplicities sum to {spectrum.dimension}, matrix has dimension {mat.nrows}"
        )
    scale = lcm(den, *(v.denominator for v in spectrum.eigenvalues()))
    a = num if scale == den else [[scale // den * x for x in row] for row in num]
    pairs = [(v.numerator * (scale // v.denominator), m) for v, m in spectrum.pairs]
    # coefficients of prod (x - value), constant term first
    coeffs = [1]
    for value, _m in pairs:
        coeffs = [lo - value * hi for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
    powers = [a]
    while len(powers) < len(pairs):
        powers.append(_times(powers[-1], a))
    for j, power in enumerate(powers, 1):
        if sum(row[i] for i, row in enumerate(power)) != sum(m * value**j for value, m in pairs):
            return False
    for i, rows in enumerate(zip(*powers)):
        # row i of p(mat) from the diagonal on (the lower part is its
        # mirror); p is monic, so its top power enters unscaled
        tail = rows[-1][i:]
        for c, row in zip(coeffs[1:-1], rows):
            tail = list(map(add, tail, map(mul, repeat(c), row[i:])))
        if tail[0] + coeffs[0] or any(tail[1:]):
            return False
    return True


def _degree_one_certificate(
    h: ExactMatrix, g: Graph
) -> tuple[StructuredParams, Spectrum, bool, Fraction]:
    """The degree-one certificate of ``h``, a forest Hessian of ``g`` at all-ones:
    entry pattern, closed-form spectrum, whether ``h`` certifies it, determinant."""
    params = structured_params(h, g)
    spectrum = closed_form_spectrum(params)
    return params, spectrum, verify_spectrum(h, spectrum), exact_determinant(h)


def _zero_certificate(g: Graph) -> tuple[StructuredParams, Spectrum, bool, Fraction]:
    """``_degree_one_certificate`` of the zero Hessian of ``g``, from its
    sizes: an all-zero pattern, eigenvalue 0 of multiplicity m, which the
    zero matrix certifies (x annihilates it, and its traces are 0), and
    determinant 0."""
    zero = Fraction(0)
    if g.kind == COMPLETE:
        params: StructuredParams = CompleteParams(zero, zero, zero, g.left_size)
    else:
        params = BipartiteParams(zero, zero, zero, zero, g.left_size, g.right_size)
    return params, Spectrum(((zero, g.edge_count),)), True, zero


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
    report); the weak form is what the spectrum argument consumes.  The
    eigenvalues are read off ``_eigenvalues``, the formulas of
    ``closed_form_spectrum``, at alpha = 0, beta = p, gamma = q, delta = r.

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
        top, wedge, star = (v for v, _m in _eigenvalues(CompleteParams(f(0), p, q, n)))
        quantities = (
            SignedQuantity("p", p, ">0"),
            SignedQuantity("q", q, ">0"),
            SignedQuantity("(2n-4)p + (n-2)(n-3)/2 q", top, ">0"),
            SignedQuantity("-2p+q", wedge, "<0"),
            SignedQuantity("(n-4)p-(n-3)q", star, "<0"),
        )
    else:
        if isinstance(sizes, int):
            raise ValueError("bipartite-case counts need sizes (m, n)")
        m, n = sizes
        p, q, r = f(counts.p), f(counts.q), f(counts.r)
        top, left, right, rest = (v for v, _m in _eigenvalues(BipartiteParams(f(0), p, q, r, m, n)))
        quantities = (
            SignedQuantity("p", p, ">0"),
            SignedQuantity("q", q, ">0"),
            SignedQuantity("r", r, ">0"),
            SignedQuantity("(n-1)p+(m-1)q+(m-1)(n-1)r", top, ">0"),
            SignedQuantity("p-r", p - r, "<=0"),
            SignedQuantity("q-r", q - r, "<=0"),
            SignedQuantity("-p-q+r", rest, "<0"),
            SignedQuantity("(n-1)p-q-(n-1)r", left, "<0"),
            SignedQuantity("-p+(m-1)q-(m-1)r", right, "<0"),
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
