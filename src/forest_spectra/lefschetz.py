"""Strong Lefschetz checks for the algebra cut out by a homogeneous form.

Everything rests on one cache per form phi of degree s, built on first use
and kept on the immutable ``phi``, all of it on Python ``int``s.  With M
the lcm of phi's coefficient denominators, a single pass over the terms of
M phi yields every nonzero d^u (M phi) of every degree k = 0..s (the term
c x^b reaches d^u exactly when x^u divides x^b).  One greedy integer row
reduction of each degree's catalecticant (``linalg._independent_rows``)
then picks the graded basis: the operators whose catalecticant rows are
independent of the rows above them, in the canonical monomial order
(descending lexicographic on exponent vectors).  The basis sizes are the
Hilbert function, so ranks and bases come from the same reduction, and
each degree's derivative map is built once.  The k-th Hessian reads entry
(i, j) off the degree-2k map at b_i + b_j, evaluated on integers at the
point with its denominators cleared.

Multiplication by L^(s-2k) from degree k to s-k is bijective exactly when
that Hessian's determinant at L's coefficient vector is nonzero, so the
strong Lefschetz property at a point is a finite list of exact determinants.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, perm, prod
from operator import add
from typing import Hashable, Iterator, Mapping

from .errors import VerificationFailure
from .graphs import (
    COMPLETE,
    Graph,
    complete_bipartite_graph,
    complete_graph,
)
from .forests import _forest_masks, theorem_range
from .linalg import ExactMatrix, Rational, _independent_rows, exact_determinant
from .matroids import Matroid, _require_a_valid_rank
from .polynomials import ExponentVector, Polynomial, _point_values
from .spectra import (
    Spectrum,
    closed_form_spectrum,
    structured_params,
    tilde_hessian,
    verify_spectrum,
)


@dataclass(frozen=True)
class HilbertProfile:
    """Dimensions of the graded pieces; symmetric for these algebras."""

    dims: tuple[int, ...]

    @property
    def socle_degree(self) -> int:
        return len(self.dims) - 1

    @property
    def symmetric(self) -> bool:
        return self.dims == tuple(reversed(self.dims))


@dataclass(frozen=True)
class GradedBasis:
    """Monomial basis of one graded piece, as exponent vectors."""

    degree: int
    variables: tuple[Hashable, ...]
    monomials: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class GradedHessianCheck:
    degree: int
    dimension: int
    determinant: Fraction

    @property
    def bijective(self) -> bool:
        return self.determinant != 0


@dataclass(frozen=True)
class SlpReport:
    """Per-degree Hessian determinants at a point and the overall verdict."""

    socle_degree: int
    point: tuple[Fraction, ...]
    checks: tuple[GradedHessianCheck, ...]

    @property
    def holds(self) -> bool:
        return all(c.bijective for c in self.checks)


@dataclass(frozen=True)
class DegreeOneLefschetzReport:
    """Bijectivity of multiplication by L^(r-2) from degree 1 to r-1,
    decided through the certified spectrum of the degree-one Hessian."""

    graph: Graph
    rank: int
    forest_components: int
    determinant: Fraction
    spectrum: Spectrum
    spectrum_certified: bool
    in_theorem_range: bool
    in_stated_range: bool

    @property
    def bijective(self) -> bool:
        return self.determinant != 0


def _socle_degree(phi: Polynomial) -> int:
    if phi.is_zero():
        raise ValueError("the zero polynomial has no algebra")
    if not phi.is_homogeneous():
        raise ValueError("need a homogeneous polynomial")
    return phi.homogeneous_degree()


DerivativeMap = dict[ExponentVector, dict[ExponentVector, int]]


@dataclass(frozen=True)
class _Graded:
    """Everything the public functions read about one form phi of degree s.

    ``derivatives[k]`` maps each u with |u| = k and d^u phi != 0, in the
    canonical order, to the terms of d^u (M phi), where M is ``scale``, the
    lcm of phi's coefficient denominators; ``bases[k]`` is the degree-k
    graded basis.
    """

    socle: int
    scale: int
    derivatives: tuple[DerivativeMap, ...]
    bases: tuple[tuple[ExponentVector, ...], ...]

    def check_degree(self, k: int) -> None:
        if not 0 <= k <= self.socle:
            raise ValueError(f"degree {k} out of range 0..{self.socle}")


def _graded(phi: Polynomial) -> _Graded:
    """The per-form cache, built on first use and stored on ``phi``.

    The term c x^b of M phi adds c b!/(b-u)! x^(b-u) to d^u (M phi) for
    each u dividing x^b; no other u has a nonzero derivative, and distinct
    b give distinct b - u, so nothing cancels and the rule is exact for
    repeated exponents too.  A variable with exponent e offers the choices
    u_i = 0..e, b_i - u_i = e..0 and the factors e!/(e - u_i)!, tabulated
    once per e, so three parallel products over b's tables walk the triples
    (u, b - u, factors) in step.
    """
    cached = phi.__dict__.get("_graded")
    if cached is None:
        s = _socle_degree(phi)
        scale = lcm(*(c.denominator for c in phi.terms.values()))
        ups = [tuple(range(e + 1)) for e in range(s + 1)]
        downs = [up[::-1] for up in ups]
        falling = [tuple(perm(e, u) for u in up) for e, up in enumerate(ups)]
        by_u: defaultdict[ExponentVector, dict[ExponentVector, int]] = defaultdict(dict)
        for b, c in phi.terms.items():
            c = c.numerator * (scale // c.denominator)
            triples = zip(*(product(*map(t.__getitem__, b)) for t in (ups, downs, falling)))
            for u, rest, f in triples:
                by_u[u][rest] = c * prod(f)
        maps: list[DerivativeMap] = [{} for _ in range(s + 1)]
        for u in sorted(by_u, reverse=True):
            maps[sum(u)][u] = by_u[u]
        cached = _Graded(s, scale, tuple(maps), tuple(map(_basis, maps)))
        object.__setattr__(phi, "_graded", cached)
    return cached


def _catalecticant(derivs: DerivativeMap) -> Iterator[list[int]]:
    """Row u, column w: the coefficient of x^w in d^u (M phi), over the
    nonzero rows and columns, each in canonical order; each row is built
    when it is read."""
    cols = sorted({w for terms in derivs.values() for w in terms}, reverse=True)
    index = {w: j for j, w in enumerate(cols)}
    for terms in derivs.values():
        row = [0] * len(cols)
        for w, c in terms.items():
            row[index[w]] = c
        yield row


def _basis(derivs: DerivativeMap) -> tuple[ExponentVector, ...]:
    """The operators whose catalecticant rows are independent of the rows
    above them."""
    ops = tuple(derivs)
    return tuple(ops[i] for i in _independent_rows(_catalecticant(derivs)))


def catalecticant_matrix(phi: Polynomial, k: int) -> ExactMatrix:
    """Pairing between degree-k operators and phi's degree-(s-k) content.

    Row u, column w: the coefficient of x^w in (d^u phi).  Only nonzero rows
    and columns are kept, each in canonical order.  The rank is the
    dimension of the degree-k graded piece, and a degree-k form supported on
    the rows annihilates phi exactly when it lies in the left kernel.  Read
    off the cached integer map of M phi and divided by M.
    """
    g = _graded(phi)
    g.check_degree(k)
    return ExactMatrix._from_ints(_catalecticant(g.derivatives[k]), g.scale)


def hilbert_function(phi: Polynomial) -> HilbertProfile:
    """Graded dimensions h_k, the sizes of the cached graded bases: each is
    the rank of the degree-k catalecticant, from the same reduction that
    picked the basis."""
    dims = tuple(map(len, _graded(phi).bases))
    profile = HilbertProfile(dims)
    if not profile.symmetric:
        raise VerificationFailure(f"Hilbert function {dims} is not symmetric")
    return profile


def graded_basis(phi: Polynomial, k: int) -> GradedBasis:
    """Deterministic monomial basis of the degree-k piece, from the cache.

    Greedy: in canonical order, keep the monomials whose catalecticant rows
    are independent of the rows kept so far, by one integer row reduction
    of the catalecticant.  Degree 0 always yields the single constant
    monomial.
    """
    g = _graded(phi)
    g.check_degree(k)
    return GradedBasis(k, phi.variables, g.bases[k])


def higher_hessian(
    phi: Polynomial, k: int, point: Mapping[Hashable, Rational]
) -> ExactMatrix:
    """Matrix of (e_i e_j)(d) phi over the degree-k graded basis, at a point.

    Evaluated on integers: with D the lcm of the point's denominators and
    X = D x, each cached degree-2k derivative of M phi takes an integer
    value at X, and the entry is that value over M D^(s-2k).
    """
    g = _graded(phi)
    s = g.socle
    if k < 0 or 2 * k > s:
        raise ValueError(f"the criterion consumes degrees k <= s/2; got k={k}, s={s}")
    values = _point_values(phi, point)
    d = lcm(*(x.denominator for x in values))
    xs = [x.numerator * (d // x.denominator) for x in values]
    at_point = {
        u: sum(c * prod(map(pow, xs, w)) for w, c in terms.items())
        for u, terms in g.derivatives[2 * k].items()
    }
    basis = g.bases[k]
    return ExactMatrix._from_ints(
        ([at_point.get(tuple(map(add, bi, bj)), 0) for bj in basis] for bi in basis),
        g.scale * d ** (s - 2 * k),
    )


def slp_check(phi: Polynomial, coeffs: Mapping[Hashable, Rational]) -> SlpReport:
    """Strong Lefschetz verdict for L = sum coeffs[v] x_v.

    Evaluates every Hessian determinant for k = 0..floor(s/2) at the
    coefficient vector; the linear form is strong Lefschetz exactly when
    all are nonzero.  Degenerate determinants are verdicts, not errors.
    """
    s = _socle_degree(phi)
    point = tuple(_point_values(phi, coeffs))
    checks = []
    for k in range(s // 2 + 1):
        h = higher_hessian(phi, k, coeffs)
        checks.append(GradedHessianCheck(k, h.nrows, exact_determinant(h)))
    return SlpReport(s, point, tuple(checks))


def _reconstruct_graph(m: Matroid) -> Graph:
    not_a_graph = "ground set is not the edge set of K_n or K_{m,n}"
    try:
        verts = sorted({v for e in m.ground for v in e})
        parts = {part for part, _ in verts}
    except (TypeError, ValueError):
        # elements that are not vertex pairs, or vertices that are not (part, index)
        raise ValueError(not_a_graph) from None
    left = sorted(i for part, i in verts if part == 0)
    right = sorted(i for part, i in verts if part == 1)
    if parts <= {0} and left == list(range(1, len(left) + 1)):
        g = complete_graph(len(left))
    elif (
        parts == {0, 1}
        and left == list(range(1, len(left) + 1))
        and right == list(range(1, len(right) + 1))
    ):
        g = complete_bipartite_graph(len(left), len(right))
    else:
        raise ValueError(not_a_graph)
    if tuple(m.ground) != g.edges:
        raise ValueError("ground set is not in canonical edge order")
    return g


def _require_degree_one_rank(g: Graph, r: int, who: str) -> None:
    """Refuse a rank outside 2..V-1, the ranks the degree-one check takes."""
    _require_a_valid_rank(g, who, 2)
    if not 2 <= r < g.vertex_count:
        raise ValueError(f"rank {r} out of range 2..{g.vertex_count - 1}")


def _degree_one(g: Graph, r: int) -> DegreeOneLefschetzReport:
    """The degree-one certificate for the rank-r truncation of the graphic
    matroid of ``g``, whose bases are the r-edge forests; r is in range."""
    k = g.vertex_count - r
    h = tilde_hessian(g, k)
    spectrum = closed_form_spectrum(structured_params(h, g))
    certified = verify_spectrum(h, spectrum)
    det = exact_determinant(h)
    if g.kind == COMPLETE:
        stated = 2 < r < g.left_size
    else:
        # the bipartite statement is written with the right part size where
        # the natural bound is m + n; report both readings
        stated = 2 < r < g.right_size
    return DegreeOneLefschetzReport(
        graph=g,
        rank=r,
        forest_components=k,
        determinant=det,
        spectrum=spectrum,
        spectrum_certified=certified,
        in_theorem_range=theorem_range(g, k),
        in_stated_range=stated,
    )


def check_degree_one_lefschetz(m: Matroid) -> DegreeOneLefschetzReport:
    """Degree-one Lefschetz check for a truncated graphic matroid.

    Validates that the matroid really is a rank-r truncation of the graphic
    matroid of K_n or K_{m,n} (its bases must be exactly the r-edge
    forests), then certifies the spectrum of the degree-one Hessian at
    all-ones and reads off bijectivity of multiplication by
    (x_1 + ... + x_N)^(r-2).  Out-of-range instances are reported, with the
    computation still performed.
    """
    g = _reconstruct_graph(m)
    r = m.rank
    _require_degree_one_rank(g, r, "the degree-one check")
    if set(m._masks) != set(_forest_masks(g, g.vertex_count - r)):  # m.ground == g.edges
        raise ValueError(
            f"bases are not the {r}-edge forests of {g.name}; not a truncation"
        )
    return _degree_one(g, r)
