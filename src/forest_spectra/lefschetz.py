"""Strong Lefschetz checks for the algebra cut out by a homogeneous form.

Everything rests on one cache per form phi of degree s, built on first use
and kept on the immutable ``phi``, all of it on Python ``int``s.  With M
the lcm of phi's coefficient denominators, a single pass over the terms of
M phi yields every nonzero d^u (M phi) of every degree k = 0..s (the term
c x^b reaches d^u exactly when x^u divides x^b).  The degree-k basis is
the operators whose catalecticant rows are independent of the rows above
them, in the canonical order (descending lexicographic on exponent
vectors).  The degree-(s-k) catalecticant is the degree-k one transposed,
up to nonzero factors, so one greedy integer row reduction
(``linalg._independent_rows``) per k <= s/2 picks both bases: the kept
rows, and their lead columns for degree s-k (:func:`_bases`).  The basis
sizes are the Hilbert function, symmetric by construction, and each
degree's derivative map is built once.  The k-th Hessian reads entry
(i, j) off the degree-2k map at b_i + b_j, evaluated on integers at the
point with its denominators cleared.

Multiplication by L^(s-2k) from degree k to s-k is bijective exactly when
that Hessian's determinant at L's coefficient vector is nonzero, so the
strong Lefschetz property at a point is a finite list of exact determinants.

The ``slp`` command's form, the r-edge forest polynomial, is square-free
with every coefficient 1, so it takes a second route, on the forest
search's edge masks (:func:`_slp_on_masks`): d^u phi is the list of F ^ u
over the forests F containing u, the canonical order within a degree is
ascending on the masks' edge index lists, and the same :func:`_bases` and
symmetric Bareiss determinants run on them, with no ``Polynomial`` and no
exponent tuple; the degree-2 map also gives the degree-one Hessian that
:func:`_degree_one` certifies.  The tuple route above stays the public API,
for any form, and is the oracle the mask route is tested against.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import lcm, perm, prod
from operator import add
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .graphs import (
    COMPLETE,
    Graph,
    complete_bipartite_graph,
    complete_graph,
)
from .forests import _forest_masks, _forests_of, _mask_bits, _refuse_past, theorem_range
from .linalg import ExactMatrix, Rational, _independent_rows, _symmetric_bareiss, exact_determinant
from .matroids import Matroid, _require_a_valid_rank
from .polynomials import ExponentVector, Polynomial, _point_values
from .records import Record
from .spectra import Spectrum, _degree_one_certificate, _require_closed_form, tilde_hessian


class HilbertProfile(Record):
    """Dimensions of the graded pieces; symmetric for these algebras."""

    dims: tuple[int, ...]

    @property
    def socle_degree(self) -> int:
        return len(self.dims) - 1

    @property
    def symmetric(self) -> bool:
        return self.dims == tuple(reversed(self.dims))


class GradedBasis(Record):
    """Monomial basis of one graded piece, as exponent vectors."""

    degree: int
    variables: tuple[Hashable, ...]
    monomials: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


class GradedHessianCheck(Record):
    degree: int
    dimension: int
    determinant: Fraction

    @property
    def bijective(self) -> bool:
        return self.determinant != 0


class SlpReport(Record):
    """Per-degree Hessian determinants at a point and the overall verdict."""

    socle_degree: int
    point: tuple[Fraction, ...]
    checks: tuple[GradedHessianCheck, ...]

    @property
    def holds(self) -> bool:
        return all(c.bijective for c in self.checks)


class DegreeOneLefschetzReport(Record):
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


class _Graded(Record):
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
        cached = _Graded(s, scale, tuple(maps), _bases(maps, _catalecticant))
        object.__setattr__(phi, "_graded", cached)
    return cached


def _catalecticant(rows: DerivativeMap, cols: Iterable[ExponentVector]) -> Iterator[list[int]]:
    """Row u, column w: the coefficient of x^w in d^u (M phi); each row is
    built when it is read."""
    index = {w: j for j, w in enumerate(cols)}
    for terms in rows.values():
        row = [0] * len(index)
        for w, c in terms.items():
            row[index[w]] = c
        yield row


def _bases(maps: Sequence[Mapping], catalecticant: Callable) -> tuple[tuple, ...]:
    """The graded bases from the derivative maps of degrees 0..s, where
    ``catalecticant(rows, cols)`` yields the operators' rows on ``cols``.

    Degree k keeps the operators whose rows are independent of the rows
    above them.  Entry (u, w), c b!/w! for the term c x^b with b = u + w,
    is entry (w, u) of the degree-(s-k) catalecticant times u!/w! != 0, so
    degree s-k keeps the lead columns, the columns independent of the
    columns before them, in column order.
    """
    s = len(maps) - 1
    bases: list[tuple] = [()] * (s + 1)
    for k in range(s // 2 + 1):
        ops, cols = list(maps[k]), list(maps[s - k])
        leads = _independent_rows(catalecticant(maps[k], cols))
        bases[k] = tuple(ops[i] for i in leads)
        if 2 * k < s:
            bases[s - k] = tuple(cols[j] for j in sorted(leads.values()))
    return tuple(bases)


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
    maps = g.derivatives
    return ExactMatrix._from_ints(_catalecticant(maps[k], maps[g.socle - k]), g.scale)


def hilbert_function(phi: Polynomial) -> HilbertProfile:
    """Graded dimensions h_k = h_(s-k), the sizes of the cached graded bases:
    the catalecticants' ranks, from the reductions that picked the bases."""
    return HilbertProfile(tuple(map(len, _graded(phi).bases)))


def graded_basis(phi: Polynomial, k: int) -> GradedBasis:
    """Deterministic monomial basis of the degree-k piece, from the cache.

    Greedy: in canonical order, keep the monomials whose catalecticant rows
    are independent of the rows kept so far, by one integer row reduction
    of the catalecticant (above s/2, as the lead columns of the degree-(s-k)
    one).  Degree 0 always yields the single constant monomial.
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


# ---------------------------------------------------------------------------
# the slp command's route: the r-edge forest polynomial on edge masks


def _mask_graded(forests: Iterable[int], s: int) -> tuple[list[dict[int, list[int]]], tuple]:
    """The derivative maps and graded bases of the square-free form phi
    with one term x^F of coefficient 1 per s-edge mask F, on masks: what
    :func:`_graded` gives for phi with M = 1.

    ``maps[k]`` maps each k-edge u below some F, in the canonical order, to
    the list of the F ^ u: d^u phi is the sum of their monomials.  Within a
    degree, descending exponent vectors are ascending edge index lists
    (``_mask_bits``).  Row u, column w of the degree-k catalecticant is 1
    exactly when w is one of u's rests.
    """
    by_u: defaultdict[int, list[int]] = defaultdict(list)
    for f in forests:
        u = f
        while u:
            by_u[u].append(f ^ u)
            u = (u - 1) & f
        by_u[0].append(f)
    maps: list[dict[int, list[int]]] = [{} for _ in range(s + 1)]
    for u in sorted(by_u, key=_mask_bits):
        maps[u.bit_count()][u] = by_u[u]
    return maps, _bases(maps, _mask_catalecticant)


def _mask_catalecticant(rows: dict[int, list[int]], cols: Iterable[int]) -> Iterator[list[int]]:
    """Row u, column w: 1 when w is one of u's rests, else 0; each row is
    built when it is read."""
    index = {w: j for j, w in enumerate(cols)}
    for rests in rows.values():
        row = [0] * len(index)
        for w in rests:
            row[index[w]] = 1
        yield row


def _slp_on_masks(
    g: Graph, r: int, values: Sequence[Fraction]
) -> tuple[int, HilbertProfile, SlpReport, ExactMatrix]:
    """The number of r-edge forests of ``g``, the Hilbert function and the
    Hessian determinants at ``values`` (one per edge of ``g.edges``) of
    their generating polynomial, read off the forest search's masks: what
    :func:`hilbert_function` and :func:`slp_check` give on
    ``forest_generating_polynomial(g, V - r)``, and its Hessian at all-ones
    over every edge, ``tilde_hessian(g, V - r)``; r is in range.

    The maps hold (#r-forests) 2^r entries, counted by the closed forms
    (``forests._forests_of``), and at 25 operations an entry
    :func:`forests._refuse_past` refuses them before the search runs.
    Entry (i, j) of the k-th Hessian is the degree-2k derivative at
    b_i | b_j, which has none where b_i and b_j share an edge, evaluated on
    integers once per mask: the number of its rests at all-ones, else the
    sum of their monomials at the point with its denominators cleared.
    Only the upper triangle is built, for the symmetric kernel.
    """
    count = _forests_of(g, g.vertex_count - r)
    _refuse_past(25 * (count << r), f"building {count << r} derivative entries "
                                    f"({count} {r}-edge forests with 2^{r} submasks each)")
    forests = _forest_masks(g, g.vertex_count - r)
    maps, bases = _mask_graded(forests, r)
    profile = HilbertProfile(tuple(map(len, bases)))
    d = lcm(*(x.denominator for x in values))
    xs = [x.numerator * (d // x.denominator) for x in values]
    ones = all(x == 1 for x in xs)
    checks = []
    for k, basis in enumerate(bases[: r // 2 + 1]):
        top = maps[2 * k].items()
        if ones:
            at_point = {u: len(rests) for u, rests in top}
        else:
            # the rests of the degree-2k operators are the degree-(r-2k) ones
            mono = {w: prod(map(xs.__getitem__, _mask_bits(w))) for w in maps[r - 2 * k]}
            at_point = {u: sum(map(mono.__getitem__, rests)) for u, rests in top}
        upper = [[at_point.get(bi | bj, 0) for bj in basis[i:]] for i, bi in enumerate(basis)]
        det = Fraction(_symmetric_bareiss(upper)[0], d ** ((r - 2 * k) * len(basis)))
        checks.append(GradedHessianCheck(k, len(basis), det))
    edges, pairs = range(g.edge_count), maps[2]
    hessian = ExactMatrix._from_ints([len(pairs.get(1 << i | 1 << j, ())) for j in edges] for i in edges)
    return len(forests), profile, SlpReport(r, tuple(values), tuple(checks)), hessian


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
    """Refuse a rank outside 2..V-1, the ranks the degree-one check takes,
    and a K_{m,n} with a part of one vertex, which has no closed-form
    degree-one spectrum: before any count or search."""
    _require_a_valid_rank(g, who, 2)
    if not 2 <= r < g.vertex_count:
        raise ValueError(f"rank {r} out of range 2..{g.vertex_count - 1}")
    _require_closed_form(g)


def _degree_one(g: Graph, r: int, h: ExactMatrix) -> DegreeOneLefschetzReport:
    """The degree-one certificate for the rank-r truncation of the graphic
    matroid of ``g``, whose bases are the r-edge forests, from ``h``, their
    generating polynomial's Hessian at all-ones; r is in range."""
    k = g.vertex_count - r
    _params, spectrum, certified, det = _degree_one_certificate(h, g)
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
    return _degree_one(g, r, tilde_hessian(g, g.vertex_count - r))
