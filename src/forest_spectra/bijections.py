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

Representation.  Inside, a forest is an ``int`` edge mask (bit i set iff
edge i of the graph's canonical edge list is in it), straight from the
edge-inclusion search: the families are filtered, split into pieces and
mapped on masks, with one integer union-find (``forests._mask_union_find``,
or in ``_trees`` one whose roots carry their trees' masks) answering every
connectivity question.  ``_build_bipartite``'s ``split`` compiles a case
table to a cut mask and probes on vertex positions and applies it to each
member, each disjoint member once for both splits (none holds both 1-2' and
2-1').  On K_n the split families are built once per subset size, whose K_W
share one edge list by position.  One verifier, ``_verify_on``, runs every
check: it reads both families as masks once.  Every family member is a
forest (the search proved it acyclic, or it came in as a validated
``Forest``), so an image in the family it must land in stands as it is; any
other goes through the union-find, and the map is undefined there if the
image closes a cycle, otherwise the image lies outside its family.
:class:`Forest` objects appear only at the boundary: the families expose
their pieces as :class:`~forest_spectra.forests.MaskedForests`, tuple-like
views that build a ``Forest`` when one is read; the bijection entry points
accept families holding plain ``Forest`` tuples too and convert them to
masks; and a failure report names its element as a ``Forest``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Sequence

from .forests import (
    Forest,
    MaskedForests,
    PairCounts,
    _CYCLE_MESSAGE,
    _anchor_pairs,
    _collect_from,
    _find,
    _forest_masks,
    _mask_bits,
    _mask_union_find,
    _setup,
    theorem_range,
)
from .graphs import (
    BIPARTITE,
    COMPLETE,
    Edge,
    Graph,
    complete_bipartite_graph,
    complete_graph_on,
    edge,
    edge_name,
)
from .records import Record

__all__ = [
    "BijectionReport",
    "BipartiteForestFamilies",
    "CompleteForestFamilies",
    "CountInequalityReport",
    "SplitFamilies",
    "bijection_forestbij",
    "bijection_pr4",
    "bijection_q2r5",
    "bijections_pr123",
    "build_families",
    "verify_count_inequalities",
]

(_AB, _AD), (_, _CB), (_, _CD) = _anchor_pairs(complete_bipartite_graph(2, 2))
(_A, _B), (_C, _D) = _AB, _CD

# The piece rules, one table per family: (cut edges, probes).  Delete the cut
# edges; the first probe (piece, (u, v)) whose u and v share a component names
# the piece, and piece 3 is the default.
_LEFT_CASES = ((_AB, _AD), ((1, (_C, _A)), (2, (_C, _B)), (4, (_C, _D))))
_RIGHT_CASES = ((_AB, _CB), ((1, (_D, _A)), (2, (_D, _B)), (4, (_D, _C))))
_DISJOINT_CASES = ((_AB, _CD), ((1, (_C, _A)), (2, (_C, _B)), (4, (_D, _A)), (5, (_D, _B))))


class BijectionFailure(Record):
    kind: str
    element: Forest
    detail: str


class BijectionReport(Record):
    """Outcome of one exhaustive bijection check."""

    name: str
    domain_size: int
    codomain_size: int
    failures: tuple[BijectionFailure, ...]

    @property
    def verified(self) -> bool:
        return not self.failures and self.domain_size == self.codomain_size


# ---------------------------------------------------------------------------
# complete-graph families


class SplitFamilies(Record):
    """Per vertex-subset ingredients of the pair-count decomposition.

    On the complete graph over ``labels`` (which contains 1,2,3,4):
    spanning trees through the wedge 1-2, 2-3, spanning trees through the
    matching 1-2, 3-4, and the two-component variants where either vertex 4
    or the edge 3-4 sits in the second component.
    """

    labels: tuple[int, ...]
    graph: Graph
    trees_wedge: Sequence[Forest]
    trees_matching: Sequence[Forest]
    split_wedge: Sequence[Forest]
    split_matching: Sequence[Forest]


class CompleteForestFamilies(Record):
    graph: Graph
    k: int
    with_wedge: Sequence[Forest]  # k-forests through 1-2 and 2-3
    with_matching: Sequence[Forest]  # k-forests through 1-2 and 3-4
    per_subset: tuple[SplitFamilies, ...]

    def pair_counts(self) -> PairCounts:
        return PairCounts(len(self.with_wedge), len(self.with_matching))


class BipartiteForestFamilies(Record):
    graph: Graph
    k: int
    share_left: Sequence[Forest]
    share_right: Sequence[Forest]
    disjoint: Sequence[Forest]
    core: Sequence[Forest]  # share_left and disjoint at once
    core_right: Sequence[Forest]  # share_right and disjoint at once
    share_left_parts: tuple[Sequence[Forest], ...]  # 4 pieces
    share_right_parts: tuple[Sequence[Forest], ...]  # 4 pieces
    disjoint_parts: tuple[Sequence[Forest], ...]  # 5 pieces, rel. core
    disjoint_parts_right: tuple[Sequence[Forest], ...]  # 5 pieces, rel. core_right

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

    def apart(pair: tuple[Edge, Edge], u, v) -> MaskedForests:
        """The 2-forests through ``pair`` with u and v in different trees:
        those that stay acyclic with u and v merged, searched as such."""
        out: list[int] = []
        state = _setup(g, 2, pair, ())
        if state is not None:
            parent, comps, free, req = state
            ru, rv = (_find(parent, g.vertices.index(w)) for w in (u, v))
            parent[ru] = rv  # neither anchored pair joins u and v
            _collect_from(parent, comps - 1, free, 0, 1, req, out)
        return MaskedForests(g, out)

    return SplitFamilies(
        labels,
        g,
        MaskedForests(g, _forest_masks(g, 1, required=wedge)),
        MaskedForests(g, _forest_masks(g, 1, required=matching)),
        apart(wedge, v1, v4),
        apart(matching, v1, v3),
    )


def _build_complete(g: Graph, k: int) -> CompleteForestFamilies:
    n = g.left_size
    if n < 4:
        raise ValueError(f"anchor vertices 1..4 need n >= 4, got n={n}")
    with_wedge, with_matching = (
        MaskedForests(g, _forest_masks(g, k, required=pair)) for pair in _anchor_pairs(g)
    )
    spare = tuple(v[1] for v in g.vertices[4:])
    subsets = []
    for size in range(len(spare) + 1):
        # every K_W of one size has the same edge_ends, anchors 1..4 at 0..3
        built = _build_split_families((1, 2, 3, 4) + spare[:size])
        masks = [getattr(built, name).masks for name in SplitFamilies._fields[2:]]
        for extra in combinations(spare, size):
            h = complete_graph_on((1, 2, 3, 4) + extra)
            subsets.append(SplitFamilies(tuple(h.labels), h, *(MaskedForests(h, m) for m in masks)))
    return CompleteForestFamilies(g, k, with_wedge, with_matching, tuple(subsets))


def _build_bipartite(g: Graph, k: int) -> BipartiteForestFamilies:
    if g.left_size < 2 or g.right_size < 2:
        raise ValueError(
            f"anchor vertices need m, n >= 2, got ({g.left_size}, {g.right_size})"
        )
    share_left, share_right, disjoint = (
        _forest_masks(g, k, required=pair) for pair in _anchor_pairs(g)
    )
    ad, cb, cd = (1 << g.edge_index[e] for e in (_AD, _CB, _CD))
    ends, n = g.edge_ends, g.vertex_count

    def masked(masks: Iterable[int]) -> MaskedForests:
        return MaskedForests(g, masks)

    def split(family, cases, count):
        """``family`` in ``count`` pieces by a case table, compiled to a cut
        mask and probes on vertex positions."""
        cut, probes = cases
        cut = sum(1 << g.edge_index[e] for e in cut)
        probes = [(piece, g.vertices.index(u), g.vertices.index(v)) for piece, (u, v) in probes]
        parts: list[list[int]] = [[] for _ in range(count)]
        for x in family:
            parent = _mask_union_find(ends, n, x & ~cut)
            for piece, u, v in probes:
                # _find inlined: a root walk per probe and member
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u == v:
                    break
            else:
                piece = 3
            parts[piece - 1].append(x)
        return tuple(map(masked, parts))

    both = split(disjoint, _DISJOINT_CASES, 5)
    return BipartiteForestFamilies(
        graph=g,
        k=k,
        share_left=masked(share_left),
        share_right=masked(share_right),
        disjoint=masked(disjoint),
        core=masked(x for x in share_left if x & cd),
        core_right=masked(x for x in share_right if x & cd),
        share_left_parts=split((x for x in share_left if not x & cd), _LEFT_CASES, 4),
        share_right_parts=split((x for x in share_right if not x & cd), _RIGHT_CASES, 4),
        disjoint_parts=tuple(masked(x for x in p.masks if not x & ad) for p in both),
        disjoint_parts_right=tuple(masked(x for x in p.masks if not x & cb) for p in both),
    )


def build_families(g: Graph, k: int) -> CompleteForestFamilies | BipartiteForestFamilies:
    """Materialize every anchored family as edge masks: the anchored
    k-forests from the edge-inclusion search, cut into pieces by the case
    tables on the bipartite graph; on the complete graph each split family
    comes from one search with the two vertices to keep apart merged."""
    if g.kind == COMPLETE:
        return _build_complete(g, k)
    if g.kind == BIPARTITE:
        return _build_bipartite(g, k)
    raise ValueError(f"unsupported graph kind {g.kind!r}")


# ---------------------------------------------------------------------------
# the bijections, as maps on edge masks; each raises ValueError, with the
# message the same map on Forest objects would give, where it is undefined,
# except that _verify_on catches an image closing a cycle


def _acyclic(ends: Sequence[tuple[int, int]], n: int, mask: int) -> int:
    """``mask`` itself; ValueError if its edges close a cycle."""
    if _mask_union_find(ends, n, mask) is None:
        raise ValueError(_CYCLE_MESSAGE)
    return mask


def _verify_on(
    name: str,
    g: Graph,
    domain: Sequence[Forest],
    codomain: Sequence[Forest],
    forward: Callable[[int], int],
    backward: Callable[[int], int],
) -> BijectionReport:
    """Run ``forward`` on every domain mask and ``backward`` on every
    codomain mask, both families of ``g``, checking totality (a map raising
    ValueError is undefined there), codomain membership, injectivity and
    both round trips, then the size match.  Every family member is a
    forest, so an image in the family it must land in stands as it is; any
    other goes through :func:`_acyclic`.  The maps must be deterministic:
    the second loop skips each codomain element the first loop completed or
    found undefined, so a verified bijection runs each map once per element."""
    domain = MaskedForests.of(g, domain)
    codomain = MaskedForests.of(g, codomain)
    ends, n = g.edge_ends, g.vertex_count
    forest = domain.forest
    domain_set, codomain_set = set(domain.masks), set(codomain.masks)
    failures: list[BijectionFailure] = []

    def fail(kind: str, element: int, detail: str) -> None:
        failures.append(BijectionFailure(kind, forest(element), detail))

    def image(f: Callable[[int], int], x: int, members: set[int]) -> int:
        """``f(x)``; ValueError where ``f`` is undefined at ``x`` or the
        image, not in ``members``, closes a cycle."""
        y = f(x)
        return y if y in members else _acyclic(ends, n, y)

    hit: set[int] = set()
    settled: set[int] = set()
    for x in domain.masks:
        try:
            y = image(forward, x, codomain_set)
        except ValueError as err:
            fail("forward-undefined", x, str(err))
            continue
        if y not in codomain_set:
            fail("image-outside-codomain", x, str(forest(y)))
            continue
        if y in hit:
            fail("not-injective", x, str(forest(y)))
            continue
        hit.add(y)
        try:
            back = image(backward, y, domain_set)
        except ValueError as err:
            fail("backward-undefined", y, str(err))
            settled.add(y)
            continue
        if back != x:
            fail("round-trip", x, f"came back as {forest(back)}")
        else:
            settled.add(y)
    for y in codomain.masks:
        if y in settled:
            continue
        try:
            x = image(backward, y, domain_set)
        except ValueError as err:
            fail("backward-undefined", y, str(err))
            continue
        if x not in domain_set:
            fail("preimage-outside-domain", y, str(forest(x)))
            continue
        try:
            again = image(forward, x, codomain_set)
        except ValueError as err:
            fail("forward-undefined", x, str(err))
            continue
        if again != y:
            fail("round-trip", y, f"came back as {forest(again)}")
    if len(domain) != len(codomain):
        first = (domain.masks or codomain.masks)[0]
        fail("size-mismatch", first, f"domain {len(domain)} vs codomain {len(codomain)}")
    return BijectionReport(name, len(domain), len(codomain), tuple(failures))


def _trees(ends: Sequence[tuple[int, int]], nverts: int, x: int, u: int, v: int) -> tuple[int, int]:
    """The edge masks of the trees of forest ``x`` through positions u and v."""
    parent, tree = list(range(nverts)), [0] * nverts
    while x:
        low = x & -x
        a, b = ends[low.bit_length() - 1]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[a] = b
        tree[b] |= tree[a] | low
        x ^= low
    return tree[_find(parent, u)], tree[_find(parent, v)]


def bijection_forestbij(
    w_labels: Iterable[int],
    families: SplitFamilies | None = None,
) -> BijectionReport:
    """Two-component families on the complete graph over a vertex subset.

    Domain: forests whose one tree carries the wedge 1-2, 2-3 while vertex 4
    sits in the other tree.  Codomain: forests with 1-2 and 3-4 in different
    trees.  Forward: split the wedge tree at 2-3 and reattach the 3-side to
    the 4-tree along 3-4.  Backward: split at 3-4 and reattach along 2-3.
    On a domain element both are the swap 2-3 <-> 3-4; elsewhere they keep
    only the two trees named.  ``families`` reuses split families already
    built for the same labels.
    """
    labels = tuple(sorted(set(w_labels)))
    fam = families if families is not None else _build_split_families(labels)
    if fam.labels != labels:
        raise ValueError(f"split families on {fam.labels} passed for labels {labels}")
    g = fam.graph
    (e12, e23), (_, e34) = _anchor_pairs(g)
    p1, p3, p4 = (g.vertices.index(v) for v in (e12[0], e34[0], e34[1]))
    bit23, bit34 = 1 << g.edge_index[e23], 1 << g.edge_index[e34]
    ends, n = g.edge_ends, g.vertex_count

    def forward(x: int) -> int:
        wedge_tree, other = _trees(ends, n, x, p1, p4)
        if not wedge_tree & bit23:
            raise ValueError(f"edge {edge_name(e23)} is not in the tree")
        return wedge_tree & ~bit23 | other | bit34

    def backward(x: int) -> int:
        tree12, tree34 = _trees(ends, n, x, p1, p3)
        if not tree34 & bit34:
            raise ValueError(f"edge {edge_name(e34)} is not in the tree")
        return tree12 | tree34 & ~bit34 | bit23

    name = f"wedge/matching split forests on {{{','.join(map(str, fam.labels))}}}"
    return _verify_on(name, g, fam.split_wedge, fam.split_matching, forward, backward)


def _swap(g: Graph, old: Edge, new: Edge) -> Callable[[int], int]:
    """The mask map replacing edge ``old`` by ``new``; like
    ``Forest.replace_edges`` it raises ValueError where ``old`` is absent;
    where ``new`` closes a cycle, :func:`_verify_on` raises instead."""
    bit_old, bit_new = 1 << g.edge_index[old], 1 << g.edge_index[new]
    absent = f"cannot remove absent edges: {edge_name(old)}"

    def swap(x: int) -> int:
        if not x & bit_old:
            raise ValueError(absent)
        return x & ~bit_old | bit_new

    return swap


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
    return _verify_on(
        f"share-left piece {i} <-> disjoint piece {i} on {g.name}, k={k}",
        g,
        fam.share_left_parts[i - 1],
        fam.disjoint_parts[i - 1],
        _swap(g, _AD, _CD),
        _swap(g, _CD, _AD),
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
    moved = {_A: _C, _C: _A}
    # bit of the image of edge i under the transposition, an automorphism, so
    # it never closes a cycle
    image = [1 << g.edge_index[edge(moved.get(a, a), moved.get(b, b))] for a, b in g.edges]
    swap = _swap(g, _CB, _AB)

    def either_way(x: int) -> int:
        relabelled = 0
        for i in _mask_bits(x):
            relabelled |= image[i]
        return swap(relabelled)

    return _verify_on(
        f"share-left piece 4 <-> disjoint piece 4 on {g.name}, k={k}",
        g,
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
    return _verify_on(
        f"share-right piece 2 <-> disjoint piece 5 on {g.name}, k={k}",
        g,
        fam.share_right_parts[1],
        fam.disjoint_parts[4],
        _swap(g, _CB, _CD),
        _swap(g, _CD, _CB),
    )


# ---------------------------------------------------------------------------
# count inequalities


class CountInequalityReport(Record):
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
