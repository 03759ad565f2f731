"""Hessians of forest generating functions at the all-ones point.

The Hessian of a k-forest generating function, evaluated at all-ones, is a
structured matrix: its entries depend only on how the two indexing edges
intersect, which one pass over the rows checks against the pattern read
off row 0.  That structure pins down the full spectrum in closed form,
and the spectrum is certified exactly on the integer form of the matrix:
with d distinct claimed eigenvalues, each row of A..A^d is packed into one
int of exact lanes, the claimed minimal polynomial evaluated at A from
those rows must vanish, and the traces of the same powers must match the
claimed power sums.  The two conditions together are a proof, not a
heuristic; no numerical eigensolver is involved anywhere.  The Hessians
are built, checked and certified on Python ints with no ``Fraction`` in
between, the last two by one routine, :func:`_degree_one_certificate`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, repeat
from math import lcm, prod
from operator import add, lshift, mul
from typing import NamedTuple, Sequence, Union

from .errors import StructureViolation, VerificationFailure
from .forests import PairCounts, _pair_counts_by_frontier, _require_k, count_forests_constrained
from .graphs import COMPLETE, Graph, PairClass, _pair_class, edge_name
from .linalg import ExactMatrix, exact_determinant
from .records import Record


class CompleteParams(Record):
    """Entry pattern of an edge-pair matrix on a complete graph: alpha on
    the diagonal, beta for edges sharing a vertex, gamma for disjoint."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    n: int


class BipartiteParams(Record):
    """Entry pattern on a complete bipartite graph: alpha diagonal, beta for
    a shared left vertex, gamma shared right, delta disjoint."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    m: int
    n: int


StructuredParams = Union[CompleteParams, BipartiteParams]


class Spectrum(Record):
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
        return tuple(chain.from_iterable(repeat(v, m) for v, m in self.pairs))


class SignProfile(NamedTuple):
    positive: int
    zero: int
    negative: int


class SignedQuantity(Record):
    """One exact quantity together with the sign it is required to have."""

    label: str
    value: Fraction
    requirement: str  # ">0", "<0" or "<=0"

    @property
    def satisfied(self) -> bool:
        v, req = self.value, self.requirement
        return v > 0 if req == ">0" else v < 0 if req == "<0" else v <= 0


class SignPredictions(Record):
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
    for i, j in combinations(range(m), 2):
        rows[i][j] = rows[j][i] = count_forests_constrained(g, k, required=(g.edges[i], g.edges[j]))
    return ExactMatrix._from_ints(rows)


def structured_params(mat: ExactMatrix, g: Graph) -> StructuredParams:
    """Extract the entry pattern of ``mat`` and verify it is uniform within
    each edge-pair class; a non-uniform entry raises StructureViolation.
    Reads the upper triangle's integer numerators in one pass: every
    nonempty class meets it first in row 0, which gives each class its
    value (an empty class reads 0), and row i must equal the row that
    pattern gives edge i, whose ends' incidence lists mark the entries that
    share a vertex; the first entry of the first row that differs is named."""
    if mat.nrows != g.edge_count or mat.ncols != g.edge_count:
        raise ValueError(f"matrix is {mat.nrows}x{mat.ncols} but {g.name} has {g.edge_count} edges")
    den, ends, num = mat._den, g.edge_ends, mat._num
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for j, e in enumerate(ends):
        for v in e:
            incident[v].append(j)
    first: dict[PairClass, int] = {}
    for e, value in zip(ends, num[0] if num else ()):
        first.setdefault(_pair_class(g, ends[0], e), value)
    values = [first.get(cls, 0) for cls in PairClass]
    alpha, share, left, right, disjoint = values
    shares = (share, share) if g.kind == COMPLETE else (left, right)  # K_{m,n}: left end first
    for i, (e, row) in enumerate(zip(ends, num)):
        pattern = [disjoint] * len(ends)
        for value, v in zip(shares, e):
            for j in incident[v]:
                pattern[j] = value
        pattern[i] = alpha
        if row[i:] != tuple(pattern[i:]):
            j = next(j for j in range(i, len(row)) if row[j] != pattern[j])
            raise StructureViolation(
                f"entries for {_pair_class(g, e, ends[j]).value} disagree: {Fraction(pattern[j], den)} "
                f"vs {Fraction(row[j], den)} at ({edge_name(g.edges[i])}, {edge_name(g.edges[j])})"
            )
    # one value per class, in PairClass order
    alpha, share, left, right, disjoint = (Fraction(x, den) for x in values)
    if g.kind == COMPLETE:
        return CompleteParams(alpha, share, disjoint, g.left_size)
    return BipartiteParams(alpha, left, right, disjoint, g.left_size, g.right_size)


def _closed_form_need(sizes: tuple[int, ...]) -> str | None:
    """The size condition of the closed-form spectrum that ``sizes`` (n of
    K_n, or m and n of K_{m,n}) fails, or None when it holds."""
    if len(sizes) == 1:
        return "n >= 3" if sizes[0] < 3 else None
    return "m, n >= 2" if min(sizes) < 2 else None


def _require_closed_form(g: Graph) -> None:
    """Refuse a graph with no closed-form degree-one spectrum: K_n with
    n < 3, or K_{m,n} with a part of one vertex."""
    sizes = (g.left_size,) if g.kind == COMPLETE else (g.left_size, g.right_size)
    need = _closed_form_need(sizes)
    if need:
        raise ValueError(f"{g.name} has no closed-form degree-one spectrum: it needs {need}")


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


def verify_spectrum(mat: ExactMatrix, spectrum: Spectrum) -> bool:
    """Exact certification of a claimed spectrum of a symmetric matrix.

    With lambda_1..lambda_d the distinct claimed eigenvalues, checks that
    (a) p(mat) = 0 for p(x) = prod (x - lambda_i), and (b) trace(mat^j)
    equals the claimed power sum for j = 1..d.  A matrix annihilated by a
    polynomial with distinct rational roots is diagonalisable with its
    eigenvalues among those roots, so (a) confines the spectrum to the
    claimed set and (b), with the dimension, pins the multiplicities via an
    invertible Vandermonde system.

    All on integers: for L the lcm of every denominator, A = L*mat has
    eigenvalues L*lambda.  Each row of A^j is one int of signed w-bit lanes,
    row i of A^(j+1) being sum_l A_il row_l(A^j).  For M the largest |entry|
    and R the largest absolute row sum of A, |(A^j)_il| <= M R^(j-1) and
    |p(A)_il| <= |c_0| + sum |c_j| M R^(j-1) for p's coefficients c_j, and
    2^(w-1) exceeds both: the traces decode from the diagonal lanes, and
    row i of p(A), sum_j c_j row_i(A^j), is 0 only if each entry of it is.
    A square matrix that is not symmetric raises ValueError naming its
    first asymmetric entry; ``_certificate_failure`` names a failed check.
    """
    return _certificate_failure(mat, spectrum) is None


def _certificate_failure(
    mat: ExactMatrix, spectrum: Spectrum, names: Sequence[str] = ()
) -> str | None:
    """The first check of ``verify_spectrum`` that fails, or None: a power
    sum ("j=2: trace T, claimed S"), else the first nonzero entry of p(mat)
    in row order, named by ``names`` (by index without them)."""
    if not mat.is_square:
        raise ValueError("spectrum verification needs a square matrix")
    num, den, size = mat._num, mat._den, mat.nrows
    if not mat.symmetric:
        bad = next((i, j) for i, j in combinations(range(size), 2) if num[i][j] != num[j][i])
        raise ValueError(f"spectrum verification needs a symmetric matrix; entry {bad} is not")
    if spectrum.dimension != size:
        raise ValueError(f"multiplicities sum to {spectrum.dimension}, matrix has dimension {size}")
    scale = lcm(den, *(v.denominator for v in spectrum.eigenvalues()))
    a = num if scale == den else [[scale // den * x for x in row] for row in num]
    pairs = [(v.numerator * (scale // v.denominator), m) for v, m in spectrum.pairs]
    # coefficients of prod (x - value), constant term first
    coeffs = [1]
    for value, _m in pairs:
        coeffs = [lo - value * hi for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
    top = max(map(abs, chain.from_iterable(a)), default=0)
    reach = max((sum(map(abs, row)) for row in a), default=0)
    bound = abs(coeffs[0]) + sum(abs(c) * top * reach**j for j, c in enumerate(coeffs[1:]))
    width = bound.bit_length() + 1
    shifts = range(0, width * size, width)
    # powers[j][i] is row i of A^j, its entry l in the lane at bit width * l
    powers = [[1 << s for s in shifts], [sum(map(lshift, row, shifts)) for row in a]]
    for _pair in pairs[1:]:
        powers.append([sum(map(mul, row, powers[-1])) for row in a])
    half, bias = 1 << width - 1, sum(powers[0]) << width - 1

    def lane(row: int, col: int) -> int:
        return ((row + bias) >> shifts[col] & (1 << width) - 1) - half

    for j, power in enumerate(powers[1:], 1):
        trace, claimed = sum(map(lane, power, range(size))), sum(m * v**j for v, m in pairs)
        if trace != claimed:
            return f"j={j}: trace {Fraction(trace, scale**j)}, claimed {Fraction(claimed, scale**j)}"
    for i, rows in enumerate(zip(*powers)):
        row = sum(map(mul, coeffs, rows))
        if row:
            col = next(col for col in range(size) if lane(row, col))
            at = f"{names[i]}, {names[col]}" if names else f"{i}, {col}"
            return f"annihilator entry ({at}) is {Fraction(lane(row, col), scale ** len(pairs))}, not 0"
    return None


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
    return prod((value**m for value, m in spectrum.pairs), start=Fraction(1))


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
