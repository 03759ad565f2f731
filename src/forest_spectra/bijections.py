"""The counting bijections behind the sign theorems, run as programs.

Every map here is executed element by element on explicitly enumerated
forest families, never sampled: totality, image membership and both
round-trip identities are checked for each element, and any failure comes
back as a structured counterexample report rather than a bare boolean.

Conventions for the bipartite families.  The four anchor vertices are the
first two on each side: a = 1, b = 1', c = 2, d = 2'.  The three anchored
families inside the k-forests are

    share_left : forests through 1-1' and 1-2'   (both edges at a)
    share_right: forests through 1-1' and 2-1'   (both edges at b)
    disjoint   : forests through 1-1' and 2-2'

A forest in one of these families is carved into pieces by deleting its
two anchor edges; classifying where c (or d) lands yields a partition of
the family minus its overlap with ``disjoint``.  In share_left, c lands
with a (piece 1), b (2), d (4) or none of them (3); in share_right, d lands
with a (1), b (2), c (4) or none (3); in disjoint, c with a or b gives
pieces 1 and 2, otherwise d with a or b gives 4 and 5, otherwise 3.  The
case tables ``_LEFT_CASES``, ``_RIGHT_CASES`` and ``_DISJOINT_CASES`` are
the one copy of these rules in the code.  The partition pieces are matched
by explicit edge swaps:

    pieces 1-3 of share_left  <->  pieces 1-3 of disjoint: swap 1-2' for 2-2'
    piece 4 (c in the 2'-side piece): relabel a <-> c, swap 2-1' for 1-1'
    piece 2 of share_right    <->  piece 5 of disjoint: swap 2-1' for 2-2'

The fifth disjoint piece (d in the 1'-side piece) needs a path from 1' to
2' avoiding both anchor edges, so it is empty when the left side has only
the two anchor vertices or when only one spare edge is available; this is
exactly where r exceeds p weakly instead of strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .forests import (
    Forest,
    PairCounts,
    _anchor_pairs,
    _root,
    _union_find,
    enumerate_forests_constrained,
    split_tree_at_edge,
    theorem_range,
)
from .graphs import (
    BIPARTITE,
    COMPLETE,
    Edge,
    Graph,
    complete_bipartite_graph,
    complete_graph_on,
)

(_AB, _AD), (_, _CB), (_, _CD) = _anchor_pairs(complete_bipartite_graph(2, 2))
(_A, _B), (_C, _D) = _AB, _CD

# The piece rules, one table per family: (cut edges, probes).  Delete the cut
# edges; the first probe (piece, (u, v)) whose u and v share a component names
# the piece, and piece 3 is the default.
_LEFT_CASES = ((_AB, _AD), ((1, (_C, _A)), (2, (_C, _B)), (4, (_C, _D))))
_RIGHT_CASES = ((_AB, _CB), ((1, (_D, _A)), (2, (_D, _B)), (4, (_D, _C))))
_DISJOINT_CASES = ((_AB, _CD), ((1, (_C, _A)), (2, (_C, _B)), (4, (_D, _A)), (5, (_D, _B))))


@dataclass(frozen=True)
class BijectionFailure:
    kind: str
    element: Forest
    detail: str


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of one exhaustive bijection check."""

    name: str
    domain_size: int
    codomain_size: int
    failures: tuple[BijectionFailure, ...]

    @property
    def verified(self) -> bool:
        return not self.failures and self.domain_size == self.codomain_size


def _verify_bijection(
    name: str,
    domain: Sequence[Forest],
    codomain: Sequence[Forest],
    forward: Callable[[Forest], Forest],
    backward: Callable[[Forest], Forest],
) -> BijectionReport:
    failures: list[BijectionFailure] = []
    domain_set = set(domain)
    codomain_set = set(codomain)
    hit: set[Forest] = set()
    for x in domain:
        try:
            y = forward(x)
        except ValueError as err:
            failures.append(BijectionFailure("forward-undefined", x, str(err)))
            continue
        if y not in codomain_set:
            failures.append(BijectionFailure("image-outside-codomain", x, str(y)))
            continue
        if y in hit:
            failures.append(BijectionFailure("not-injective", x, str(y)))
            continue
        hit.add(y)
        try:
            back = backward(y)
        except ValueError as err:
            failures.append(BijectionFailure("backward-undefined", y, str(err)))
            continue
        if back != x:
            failures.append(BijectionFailure("round-trip", x, f"came back as {back}"))
    for y in codomain:
        try:
            x = backward(y)
        except ValueError as err:
            failures.append(BijectionFailure("backward-undefined", y, str(err)))
            continue
        if x not in domain_set:
            failures.append(BijectionFailure("preimage-outside-domain", y, str(x)))
            continue
        try:
            again = forward(x)
        except ValueError as err:
            failures.append(BijectionFailure("forward-undefined", x, str(err)))
            continue
        if again != y:
            failures.append(BijectionFailure("round-trip", y, f"came back as {again}"))
    if len(domain) != len(codomain):
        failures.append(
            BijectionFailure(
                "size-mismatch",
                domain[0] if domain else codomain[0],
                f"domain {len(domain)} vs codomain {len(codomain)}",
            )
        )
    return BijectionReport(name, len(domain), len(codomain), tuple(failures))


# ---------------------------------------------------------------------------
# complete-graph families


@dataclass(frozen=True)
class SplitFamilies:
    """Per vertex-subset ingredients of the pair-count decomposition.

    On the complete graph over ``labels`` (which contains 1,2,3,4):
    spanning trees through the wedge 1-2, 2-3, spanning trees through the
    matching 1-2, 3-4, and the two-component variants where either vertex 4
    or the edge 3-4 sits in the second component.
    """

    labels: tuple[int, ...]
    graph: Graph
    trees_wedge: tuple[Forest, ...]
    trees_matching: tuple[Forest, ...]
    split_wedge: tuple[Forest, ...]
    split_matching: tuple[Forest, ...]


@dataclass(frozen=True)
class CompleteForestFamilies:
    graph: Graph
    k: int
    with_wedge: tuple[Forest, ...]  # k-forests through 1-2 and 2-3
    with_matching: tuple[Forest, ...]  # k-forests through 1-2 and 3-4
    per_subset: tuple[SplitFamilies, ...]

    def pair_counts(self) -> PairCounts:
        return PairCounts(len(self.with_wedge), len(self.with_matching))


@dataclass(frozen=True)
class BipartiteForestFamilies:
    graph: Graph
    k: int
    share_left: tuple[Forest, ...]
    share_right: tuple[Forest, ...]
    disjoint: tuple[Forest, ...]
    core: tuple[Forest, ...]  # share_left and disjoint at once
    core_right: tuple[Forest, ...]  # share_right and disjoint at once
    share_left_parts: tuple[tuple[Forest, ...], ...]  # 4 pieces
    share_right_parts: tuple[tuple[Forest, ...], ...]  # 4 pieces
    disjoint_parts: tuple[tuple[Forest, ...], ...]  # 5 pieces, rel. core
    disjoint_parts_right: tuple[tuple[Forest, ...], ...]  # 5 pieces, rel. core_right

    @property
    def share_left_rest(self) -> tuple[Forest, ...]:
        return tuple(f for part in self.share_left_parts for f in part)

    @property
    def share_right_rest(self) -> tuple[Forest, ...]:
        return tuple(f for part in self.share_right_parts for f in part)

    @property
    def disjoint_rest(self) -> tuple[Forest, ...]:
        return tuple(f for part in self.disjoint_parts for f in part)

    @property
    def disjoint_rest_right(self) -> tuple[Forest, ...]:
        return tuple(f for part in self.disjoint_parts_right for f in part)

    def pair_counts(self) -> PairCounts:
        return PairCounts(len(self.share_left), len(self.share_right), len(self.disjoint))

    def sizes(self) -> dict[str, object]:
        return {
            "p": len(self.share_left),
            "q": len(self.share_right),
            "r": len(self.disjoint),
            "core": len(self.core),
            "core_right": len(self.core_right),
            "share_left_parts": [len(part) for part in self.share_left_parts],
            "share_right_parts": [len(part) for part in self.share_right_parts],
            "disjoint_parts": [len(part) for part in self.disjoint_parts],
            "disjoint_parts_right": [len(part) for part in self.disjoint_parts_right],
        }


def _build_split_families(labels: Iterable[int]) -> SplitFamilies:
    labels = tuple(sorted(set(labels)))
    if not {1, 2, 3, 4} <= set(labels):
        raise ValueError("vertex subset must contain 1, 2, 3 and 4")
    g = complete_graph_on(labels)
    wedge, matching = _anchor_pairs(g)
    (v1, _), (v3, v4) = matching
    trees_wedge = enumerate_forests_constrained(g, 1, required=wedge)
    trees_matching = enumerate_forests_constrained(g, 1, required=matching)
    split_wedge = tuple(
        f
        for f in enumerate_forests_constrained(g, 2, required=wedge)
        if not f.same_component(v1, v4)
    )
    split_matching = tuple(
        f
        for f in enumerate_forests_constrained(g, 2, required=matching)
        if not f.same_component(v1, v3)
    )
    return SplitFamilies(labels, g, trees_wedge, trees_matching, split_wedge, split_matching)


def _build_complete(g: Graph, k: int) -> CompleteForestFamilies:
    n = g.left_size
    if n < 4:
        raise ValueError(f"anchor vertices 1..4 need n >= 4, got n={n}")
    with_wedge, with_matching = (
        enumerate_forests_constrained(g, k, required=pair) for pair in _anchor_pairs(g)
    )
    spare = [v[1] for v in g.vertices[4:]]
    subsets = []
    for size in range(len(spare) + 1):
        for extra in combinations(spare, size):
            subsets.append(_build_split_families((1, 2, 3, 4) + extra))
    return CompleteForestFamilies(g, k, with_wedge, with_matching, tuple(subsets))


def _piece_case(f: Forest, cases) -> int:
    cut, probes = cases
    parent = _union_find(f.vertices, f.edges.difference(cut))
    for piece, (u, v) in probes:
        if _root(parent, u) == _root(parent, v):
            return piece
    return 3


def _build_bipartite(g: Graph, k: int) -> BipartiteForestFamilies:
    if g.left_size < 2 or g.right_size < 2:
        raise ValueError(
            f"anchor vertices need m, n >= 2, got ({g.left_size}, {g.right_size})"
        )
    share_left, share_right, disjoint = (
        enumerate_forests_constrained(g, k, required=pair) for pair in _anchor_pairs(g)
    )
    core = tuple(f for f in share_left if _CD in f.edges)
    core_right = tuple(f for f in share_right if _CD in f.edges)
    left_rest = [f for f in share_left if _CD not in f.edges]
    right_rest = [f for f in share_right if _CD not in f.edges]
    disjoint_rest = [f for f in disjoint if _AD not in f.edges]
    disjoint_rest_right = [f for f in disjoint if _CB not in f.edges]

    def split(family, cases, count):
        parts: list[list[Forest]] = [[] for _ in range(count)]
        for f in family:
            parts[_piece_case(f, cases) - 1].append(f)
        return tuple(tuple(part) for part in parts)

    return BipartiteForestFamilies(
        graph=g,
        k=k,
        share_left=share_left,
        share_right=share_right,
        disjoint=disjoint,
        core=core,
        core_right=core_right,
        share_left_parts=split(left_rest, _LEFT_CASES, 4),
        share_right_parts=split(right_rest, _RIGHT_CASES, 4),
        disjoint_parts=split(disjoint_rest, _DISJOINT_CASES, 5),
        disjoint_parts_right=split(disjoint_rest_right, _DISJOINT_CASES, 5),
    )


def build_families(g: Graph, k: int) -> CompleteForestFamilies | BipartiteForestFamilies:
    """Materialize every anchored family by filtered enumeration."""
    if g.kind == COMPLETE:
        return _build_complete(g, k)
    if g.kind == BIPARTITE:
        return _build_bipartite(g, k)
    raise ValueError(f"unsupported graph kind {g.kind!r}")


# ---------------------------------------------------------------------------
# the bijections


def bijection_forestbij(
    w_labels: Iterable[int],
    families: SplitFamilies | None = None,
) -> BijectionReport:
    """Two-component families on the complete graph over a vertex subset.

    Domain: forests whose one tree carries the wedge 1-2, 2-3 while vertex 4
    sits in the other tree.  Codomain: forests with 1-2 and 3-4 in different
    trees.  Forward: split the wedge tree at 2-3 and reattach the 3-side to
    the 4-tree along 3-4.  Backward: split at 3-4 and reattach along 2-3.
    ``families`` reuses split families already built for the same labels.
    """
    labels = tuple(sorted(set(w_labels)))
    fam = families if families is not None else _build_split_families(labels)
    if fam.labels != labels:
        raise ValueError(f"split families on {fam.labels} passed for labels {labels}")
    g = fam.graph
    (e12, e23), (_, e34) = _anchor_pairs(g)
    (v1, _), (v3, v4) = e12, e34

    def forward(f: Forest) -> Forest:
        wedge_tree = f.component_containing(v1)
        other = f.component_containing(v4)
        side2, side3 = split_tree_at_edge(wedge_tree, e23)
        return Forest(g, f.vertices, side2.edges | side3.edges | other.edges | {e34})

    def backward(f: Forest) -> Forest:
        tree12 = f.component_containing(v1)
        tree34 = f.component_containing(v3)
        side3, side4 = split_tree_at_edge(tree34, e34)
        return Forest(g, f.vertices, tree12.edges | side3.edges | side4.edges | {e23})

    name = f"wedge/matching split forests on {{{','.join(map(str, fam.labels))}}}"
    return _verify_bijection(name, fam.split_wedge, fam.split_matching, forward, backward)


def _swap(old: Edge, new: Edge) -> Callable[[Forest], Forest]:
    """The map replacing edge ``old`` by ``new``; it raises ValueError where
    ``old`` is absent or ``new`` closes a cycle."""
    return lambda f: f.replace_edges(remove=(old,), add=(new,))


def _require_bipartite(g: Graph) -> None:
    if g.kind != BIPARTITE:
        raise ValueError("this bijection lives on complete bipartite graphs")


def bijections_pr123(
    g: Graph,
    k: int,
    i: int,
    families: BipartiteForestFamilies | None = None,
) -> BijectionReport:
    """Piece i in 1..3: swap the anchor edge 1-2' for 2-2' and back."""
    _require_bipartite(g)
    if i not in (1, 2, 3):
        raise ValueError(f"piece index must be 1, 2 or 3, got {i}")
    fam = families if families is not None else _build_bipartite(g, k)
    return _verify_bijection(
        f"share-left piece {i} <-> disjoint piece {i} on {g.name}, k={k}",
        fam.share_left_parts[i - 1],
        fam.disjoint_parts[i - 1],
        _swap(_AD, _CD),
        _swap(_CD, _AD),
    )


def bijection_pr4(
    g: Graph,
    k: int,
    families: BipartiteForestFamilies | None = None,
) -> BijectionReport:
    """Piece 4: transpose the two left anchor vertices, then swap 2-1' for 1-1'.

    The same construction is its own inverse.
    """
    _require_bipartite(g)
    fam = families if families is not None else _build_bipartite(g, k)
    swap = {_A: _C, _C: _A}

    def either_way(f: Forest) -> Forest:
        return f.relabel(swap).replace_edges(remove=(_CB,), add=(_AB,))

    return _verify_bijection(
        f"share-left piece 4 <-> disjoint piece 4 on {g.name}, k={k}",
        fam.share_left_parts[3],
        fam.disjoint_parts[3],
        either_way,
        either_way,
    )


def bijection_q2r5(
    g: Graph,
    k: int,
    families: BipartiteForestFamilies | None = None,
) -> BijectionReport:
    """Share-right piece 2 <-> disjoint piece 5: swap 2-1' for 2-2'."""
    _require_bipartite(g)
    fam = families if families is not None else _build_bipartite(g, k)
    return _verify_bijection(
        f"share-right piece 2 <-> disjoint piece 5 on {g.name}, k={k}",
        fam.share_right_parts[1],
        fam.disjoint_parts[4],
        _swap(_CB, _CD),
        _swap(_CD, _CB),
    )


# ---------------------------------------------------------------------------
# count inequalities


@dataclass(frozen=True)
class CountInequalityReport:
    """Exact differences behind p <= r, q <= r and r < p + q.

    ``r - p`` equals the size of the fifth disjoint piece and ``r - q`` the
    size of the first right-relative piece, so strictness is decidable: the
    left comparison is strict exactly when m >= 3 and k <= m+n-4, the right
    one when n >= 3 and k <= m+n-4.  Outside those subranges equality is
    expected and reported, not treated as a failure.
    """

    m: int
    n: int
    k: int
    p: int
    q: int
    r: int
    r_minus_p: int
    r_minus_q: int
    p_plus_q_minus_r: int

    @property
    def left_strict_expected(self) -> bool:
        return self.m >= 3 and self.k <= self.m + self.n - 4

    @property
    def right_strict_expected(self) -> bool:
        return self.n >= 3 and self.k <= self.m + self.n - 4

    @property
    def satisfied(self) -> bool:
        weak = self.r_minus_p >= 0 and self.r_minus_q >= 0 and self.p_plus_q_minus_r > 0
        left = self.r_minus_p > 0 if self.left_strict_expected else True
        right = self.r_minus_q > 0 if self.right_strict_expected else True
        return weak and left and right

    @property
    def boundary_notes(self) -> tuple[str, ...]:
        notes = []
        if self.r_minus_p == 0:
            notes.append("p = r: the fifth disjoint piece is empty at this size")
        if self.r_minus_q == 0:
            notes.append("q = r: the first right-relative piece is empty at this size")
        return tuple(notes)


def verify_count_inequalities(fam: BipartiteForestFamilies) -> CountInequalityReport:
    """Exact inequality report for a bipartite family in theorem range."""
    g, k = fam.graph, fam.k
    if not theorem_range(g, k):
        raise ValueError(
            f"inequalities are only claimed for 0 < k < m+n-2; got {g.name}, k={k}"
        )
    p, q, r = len(fam.share_left), len(fam.share_right), len(fam.disjoint)
    return CountInequalityReport(
        m=g.left_size,
        n=g.right_size,
        k=k,
        p=p,
        q=q,
        r=r,
        r_minus_p=r - p,
        r_minus_q=r - q,
        p_plus_q_minus_r=p + q - r,
    )
