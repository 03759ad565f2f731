"""Enumeration and counting of k-component spanning forests.

A spanning forest here always covers the full vertex set of its host graph
(isolated vertices count as components), so a forest with e edges on v
vertices has exactly v - e components.

Counting is a frontier DP (frontier-based search, as in Sekine, Imai and
Tani for Tutte polynomials): one pass over the edges, memoised over the
connectivity states of the vertices still in play, with no forest ever
built and an input refused up front when its estimated work is too large.
Forest counts contract the required edges first; the edge-pair counts of
the Hessians ride the same walk, with a lane of bits per edge and per edge
pair packed into each state's integers.  The k-forests of K_n itself,
and those through a fixed tree, are counted with no walk by Renyi's
closed formula (:func:`_forests_through`), those of K_{m,n} by its
bipartite analogue (:func:`_bipartite_through`), each refused up front the
same way, and so are the anchored pair counts of both, the disjoint pairs
by double counting.  Enumeration is the
search: recursive edge inclusion with union-find cycle rejection, pruned
by remaining-edge feasibility.  The search lists forests as ``int`` edge
masks (bit i for edge i of ``g.edges``), and the layers above keep them so;
:class:`Forest` objects are built only at the boundary, by the public
enumerators and by :class:`MaskedForests` when one of its items is read,
without re-validating what the search proved.  Counts are plain Python
integers, which are arbitrary precision; w^(w-4) and forest counts overflow
fixed-width types quickly.
"""

from __future__ import annotations

import sys
from collections import abc
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import comb
from operator import add, mul
from typing import Iterable, Sequence

from .errors import InsufficientVertices, TooLarge
from .graphs import (
    COMPLETE,
    Edge,
    Graph,
    Vertex,
    complete_graph,
    edge,
    edge_name,
    vertex,
)
from .polynomials import Polynomial
from .records import Record


_CYCLE_MESSAGE = "edge set contains a cycle"


class Forest(Record):
    """An acyclic edge subset spanning a fixed vertex subset of a graph.

    ``vertices`` is usually the full vertex set of ``graph``; restricted
    vertex sets appear when trees are split or families live on K_W.

    Construction validates everything, cheaply: edge membership and the
    endpoints are one subset test each, against the graph's edge index and
    the vertex set, and acyclicity one pass of the mask union-find.  Only
    when one fails does a per-edge scan run, to name the first defect with
    the same message as an edge-by-edge check.  The component map is built
    lazily, on the first component query, from the same parent list.
    """

    graph: Graph
    vertices: frozenset[Vertex]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a forest needs at least one vertex")
        if not self.vertices <= set(self.graph.vertices):
            raise ValueError("forest vertices must belong to the graph")
        if (
            self.edges <= self.graph.edge_index.keys()
            and self.vertices.issuperset(chain.from_iterable(self.edges))
            and self._parent() is not None
        ):
            return
        for e in self.edges:
            self.graph.require_edge(e)
            if not (e[0] in self.vertices and e[1] in self.vertices):
                raise ValueError(f"edge {edge_name(e)} leaves the vertex set")
        raise ValueError(_CYCLE_MESSAGE)

    @classmethod
    def _trusted(cls, graph: Graph, vertices: frozenset[Vertex], edges: frozenset[Edge]) -> "Forest":
        """A forest the search has already proved acyclic, spanning
        ``vertices``, built without re-validating it."""
        f = cls.__new__(cls)
        f.__dict__.update(graph=graph, vertices=vertices, edges=edges)
        return f

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    @property
    def component_count(self) -> int:
        return len(self.vertices) - len(self.edges)

    def _parent(self) -> list[int] | None:
        """The mask union-find of the edges over the graph's vertex
        positions, or None on a cycle; needs edges of the graph."""
        index = self.graph.edge_index
        mask = sum(1 << index[e] for e in self.edges)
        return _mask_union_find(self.graph.edge_ends, self.graph.vertex_count, mask)

    def _component_map(self) -> tuple[dict[Vertex, int], list[Vertex]]:
        """Component id of each vertex and each component's smallest vertex;
        ids count up in sorted vertex order."""
        cached = self.__dict__.get("_comps")
        if cached is None:
            parent = self._parent()
            pos = {v: i for i, v in enumerate(self.graph.vertices)}
            ids: dict[int, int] = {}
            comp: dict[Vertex, int] = {}
            reps: list[Vertex] = []
            for v in sorted(self.vertices):
                cid = comp[v] = ids.setdefault(_find(parent, pos[v]), len(ids))
                if cid == len(reps):
                    reps.append(v)
            cached = (comp, reps)
            object.__setattr__(self, "_comps", cached)
        return cached

    def _require_vertex(self, v: Vertex) -> None:
        if v not in self.vertices:
            raise ValueError(f"vertex {v} is not in this forest")

    def component_containing(self, v: Vertex) -> "Forest":
        self._require_vertex(v)
        comp, _ = self._component_map()
        cid = comp[v]
        verts = frozenset(u for u in self.vertices if comp[u] == cid)
        edges = frozenset(e for e in self.edges if comp[e[0]] == cid)
        return Forest(self.graph, verts, edges)

    def components(self) -> tuple["Forest", ...]:
        """Component trees, ordered by their smallest vertex."""
        _comp, reps = self._component_map()
        return tuple(self.component_containing(rep) for rep in reps)

    def same_component(self, u: Vertex, v: Vertex) -> bool:
        self._require_vertex(u)
        self._require_vertex(v)
        comp, _ = self._component_map()
        return comp[u] == comp[v]

    def replace_edges(self, remove: Iterable[Edge] = (), add: Iterable[Edge] = ()) -> "Forest":
        """New forest with edges swapped; raises if the result has a cycle."""
        removed = set(remove)
        missing = removed - self.edges
        if missing:
            names = ", ".join(sorted(edge_name(e) for e in missing))
            raise ValueError(f"cannot remove absent edges: {names}")
        return Forest(self.graph, self.vertices, (self.edges - removed) | set(add))

    def relabel(self, mapping: dict[Vertex, Vertex]) -> "Forest":
        """Apply a vertex permutation (vertices outside ``mapping`` are fixed)."""
        verts = frozenset(mapping.get(v, v) for v in self.vertices)
        edges = frozenset(edge(mapping.get(a, a), mapping.get(b, b)) for a, b in self.edges)
        return Forest(self.graph, verts, edges)

    def edge_names(self) -> tuple[str, ...]:
        return tuple(edge_name(e) for e in sorted(self.edges))

    def __str__(self) -> str:
        inner = ",".join(self.edge_names()) or "no edges"
        return f"Forest({inner})"


class PairCounts(Record):
    """Numbers of k-forests through the anchored edge pairs.

    Complete graphs have two counts (shared vertex, disjoint); bipartite
    graphs a third, split by which part carries the shared vertex.
    """

    p: int
    q: int
    r: int | None = None

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0 or (self.r is not None and self.r < 0):
            raise ValueError("pair counts are nonnegative")


class Decomposition(Record):
    """The two-term split of the shared-vertex/disjoint pair counts.

    For complete graphs: p = 3t + f and q = 4t + f.
    """

    t: int
    f: int


def spanning_forest(graph: Graph, edges: Iterable[Edge]) -> Forest:
    """Forest on the full vertex set of ``graph``."""
    return Forest(graph, frozenset(graph.vertices), frozenset(edges))


# ---------------------------------------------------------------------------
# forests as int edge masks: bit i stands for edge i of ``g.edges``


def _mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask`` as ascending edge indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_union_find(ends: Sequence[tuple[int, int]], nverts: int, mask: int) -> list[int] | None:
    """Union-find over the vertex positions 0..nverts-1 joined by the edges
    of ``mask``, edge i joining ``ends[i]``: the parent list, or None if
    those edges close a cycle.  Two positions share a component iff
    :func:`_find` gives them one root; to ask that of a forest with some
    edges deleted, pass its mask without them."""
    parent = list(range(nverts))
    while mask:
        low = mask & -mask
        u, v = ends[low.bit_length() - 1]
        # _find inlined: this loop is the mask kernels' hot spot
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return None
        parent[u] = v
        mask ^= low
    return parent


class MaskedForests(abc.Sequence):
    """Spanning forests of ``graph`` held as edge masks: a read-only sequence
    of :class:`Forest` objects, each built only when it is read; slices are
    tuples.  Taking the length or handing ``masks`` to the mask kernels
    builds none.  Two views are equal when their graphs and masks are.

    The masks must be forests already, from the search or from validated
    ``Forest`` objects (:meth:`of`), so an item is built with
    :meth:`Forest._trusted` and not validated again.
    """

    __slots__ = ("graph", "masks", "_vertices")

    def __init__(self, graph: Graph, masks: Iterable[int]) -> None:
        self.graph = graph
        self.masks = tuple(masks)
        self._vertices = frozenset(graph.vertices)

    @classmethod
    def of(cls, graph: Graph, forests: Sequence[Forest]) -> "MaskedForests":
        """``forests`` as masks over ``graph``; each must span ``graph``."""
        if isinstance(forests, cls) and forests.graph == graph:
            return forests
        verts = frozenset(graph.vertices)
        index = graph.edge_index
        masks = []
        for f in forests:
            if f.graph != graph or f.vertices != verts:
                raise ValueError(f"{f} is not a spanning forest of {graph.name}")
            masks.append(sum(1 << index[e] for e in f.edges))
        return cls(graph, masks)

    def forest(self, mask: int) -> Forest:
        edges = self.graph.edges
        return Forest._trusted(self.graph, self._vertices, frozenset(edges[i] for i in _mask_bits(mask)))

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.forest, self.masks[i]))
        return self.forest(self.masks[i])

    def __iter__(self):
        return map(self.forest, self.masks)

    def __eq__(self, other) -> bool:
        if isinstance(other, MaskedForests):
            return self.graph == other.graph and self.masks == other.masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"MaskedForests({self.graph.name}, {len(self.masks)} forests)"


# ---------------------------------------------------------------------------
# core kernels: the frontier count, and the recursion over the next included
# edge (union-find with undo) that lists forests or counts their edge pairs


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


# every up-front estimate, of a frontier walk, a closed form or a command's
# own kernels, is refused by _refuse_past when it passes this many integer
# operations of at most 2^16 bits each; at about 0.1 us apiece (2-vCPU host,
# CPython 3.11) that is some ten seconds
MAX_FRONTIER_WORK = 10**8


def _refuse_past(work: int, what: str) -> None:
    """Raise TooLarge when ``work``, the estimated operations of ``what``,
    passes MAX_FRONTIER_WORK.  The message names ``what`` and the estimate,
    written as a float while one holds it and by the largest float past
    that; ``cli.run`` adds the command and graph it is for."""
    if work > MAX_FRONTIER_WORK:
        cap = sys.float_info.max
        amount = f"{work:.2e}" if work <= cap else f"more than {cap:.2e}"
        raise TooLarge(
            f"{what} is estimated at {amount} integer operations, "
            f"over the limit of {MAX_FRONTIER_WORK:.0e}"
        )


@lru_cache(maxsize=None)
def _bell(n: int) -> int:
    """The number of partitions of an n-set: B_n = sum_j C(n-1, j) B_j."""
    return sum(comb(n - 1, j) * _bell(j) for j in range(n)) if n else 1


def _frontier_schedule(
    ends: Sequence[tuple[int, int]], ints: int, bits: int
) -> list[tuple[int, int, int, int, list[int] | None]]:
    """Per arc of a walk over ``ends`` in order: how many of its ends enter
    the frontier, its width with them, their positions in it, and the
    positions kept after the arc (None if all are).  A vertex enters at its
    first arc and leaves after its last.

    The walk's work is estimated as it goes, for states of ``ints``
    integers of up to ``bits`` bits (0: machine-sized): at arc i at most
    min(B_width, 2^(i+1)) states, one per block labelling or per subset of
    the arcs so far, each touching its integers 1 + bits // 2^16 times.
    Past MAX_FRONTIER_WORK, :func:`_refuse_past` refuses the walk at that
    arc, before any state is built.
    """
    last = {}
    for i, (u, v) in enumerate(ends):
        last[u] = last[v] = i
    per_state = ints * (1 + (bits >> 16))
    work = 0
    frontier: list[int] = []
    steps = []
    for i, (u, v) in enumerate(ends):
        entering = [w for w in (u, v) if w not in frontier]
        frontier += entering
        width = len(frontier)
        work += per_state * min(1 << i + 1, _bell(width))
        if work > MAX_FRONTIER_WORK:  # the estimate stops at the first arc past the limit
            size = f" of up to {bits} bits" if bits else ""
            _refuse_past(work, f"a frontier walk over {len(ends)} arcs (frontier width "
                               f"{width} by arc {i + 1}, {ints} integers{size} per state)")
        keep = None
        if i in (last[u], last[v]):  # only the arc's own ends can leave after it
            keep = [p for p, w in enumerate(frontier) if last[w] != i]
        steps.append((len(entering), width, frontier.index(u), frontier.index(v), keep))
        if keep is not None:
            frontier = [frontier[p] for p in keep]
    return steps


def _frontier_walk(
    ends: Sequence[tuple[int, int]], start: list[int], take, ints: int, bits: int = 0
) -> None:
    """Walk the arcs ``ends`` in order, keeping one state per canonical block
    labelling of the frontier, the vertices already met that still have
    arcs to come.  The labelling is canonical by first appearance: each
    frontier vertex carries the position of the first frontier vertex of
    its block, one byte per vertex (the work estimate refuses any frontier
    near 256 wide: B_width and 2^(i+1) >= 2^(width/2) pass the limit long
    before).  Each state holds a list of integers, ``start`` at first;
    states that come to share a labelling add their lists entrywise.

    Skipping an arc keeps every state; ``take(i, pu, pv, states, nxt)``
    adds to ``nxt``, which holds the skipping branches, those that take arc
    i, whose ends sit at frontier positions pu and pv.  A vertex leaves the
    frontier after its last arc, so the state count is bounded by Bell
    numbers of the frontier width, not by the number of forests.
    The work estimate of :func:`_frontier_schedule` charges each state
    ``ints`` integers of up to ``bits`` bits, as the caller counts them.
    """
    states: dict[bytes, list[int]] = {b"": start}
    for i, (entering, width, pu, pv, keep) in enumerate(_frontier_schedule(ends, ints, bits)):
        if entering:
            tail = bytes(range(width - entering, width))
            states = {key + tail: vals for key, vals in states.items()}
        nxt = dict(states)
        take(i, pu, pv, states, nxt)
        if keep is None:
            states = nxt
            continue
        states = {}
        places = range(len(keep))
        for key, vals in nxt.items():
            # each kept vertex takes the first new position of its block
            out = bytes(map({}.setdefault, map(key.__getitem__, keep), places))
            old = states.get(out)
            states[out] = vals if old is None else list(map(add, old, vals))


def _count_by_frontier(arcs: dict[tuple[int, int], int], need: int) -> int:
    """Number of ``need``-edge acyclic subsets of a multigraph whose ``arcs``
    map each joined vertex pair to its number of parallel edges, by
    :func:`_frontier_walk`.

    Each state holds its number of paths per count of edges taken below
    ``need``.  Taking one of an arc's edges merges two blocks, and a path
    where both ends share a block would close a cycle, so it has no taking
    branch.  A path that reaches ``need`` edges is a forest whatever the
    rest of the walk skips, so it is counted at once and leaves the walk.
    """
    if need <= 1:
        return sum(arcs.values()) if need else 1  # any one edge is a forest
    ways = list(arcs.values())
    done = 0

    def take(i, pu, pv, states, nxt):
        nonlocal done
        w = ways[i]
        for key, counts in states.items():
            a, b = key[pu], key[pv]
            if a == b:
                continue
            done += w * counts[-1]
            if any(counts[:-1]):
                if a > b:
                    a, b = b, a
                out = key.replace(bytes((b,)), bytes((a,)))
                vec = [0] + [w * c for c in counts[:-1]]
                old = nxt.get(out)
                nxt[out] = vec if old is None else list(map(add, old, vec))

    _frontier_walk(list(arcs), [1] + [0] * (need - 1), take, need)
    return done


def _pair_counts_by_frontier(ends: Sequence[tuple[int, int]], need: int) -> list[list[int]]:
    """Entry (x, y) with y < x is the number of ``need``-edge acyclic
    subsets of the simple graph with edges ``ends`` that hold edges x and
    y; the diagonal and upper triangle are zero.

    The walk of :func:`_frontier_walk`, one arc per edge, with two integers
    per state and count c < ``need`` of edges taken: N_c, the number of
    paths, and V_c = A_c + P_c 2^o.  A_c holds how many paths hold each
    edge y, in w-bit lane y; P_c how many hold each pair y' < y, in lane
    y(y-1)/2 + y'.  The edges taken come before x, so taking edge x adds
    N_c to lane x of A and A_c, shifted to lanes x(x-1)/2 + y, to P.  A
    path that reaches ``need`` edges adds its P to the total and leaves
    the walk.

    Every step adds or shifts nonnegative integers, so no lane borrows,
    and the total is the sum of T_xy 2^(w(x(x-1)/2 + y)) however far
    partial lanes carried on the way (on a star C(m-1, c-1) partial paths
    run through each edge, far past 2^w).  Only A must stay below 2^o, so
    as not to reach P: each path is a distinct edge subset, fewer than
    2^m of them, and adds less than 2^(wm) to A, so A_c, and its sum over
    all states at an arc, stay below 2^(wm + m) < 2^o with o = wm + m + 1.
    Only the total is unpacked, and each T_xy counts need-edge subsets
    through a fixed pair: at most C(m-2, need-2) < 2^w.  The work estimate
    still charges 3 ``need`` integers of up to w m(m-1)/2 bits, the N, A
    and P of each count.
    """
    m = len(ends)
    if not 2 <= need <= m:
        return [[0] * m for _ in range(m)]
    w = comb(m - 2, need - 2).bit_length()
    o = w * m + m + 1
    low = (1 << o) - 1
    tri = [w * (x * (x - 1) // 2) for x in range(m)]
    total = 0

    def take(x, pu, pv, states, nxt):
        nonlocal total
        lane = w * x
        shift = o + tri[x]
        top = 0  # V at need - 1 edges, unpacked once below
        for key, vals in states.items():
            a, b = key[pu], key[pv]
            if a == b:
                continue
            top += vals[-1]
            ns = vals[: need - 1]
            if any(ns):
                if a > b:
                    a, b = b, a
                out = key.replace(bytes((b,)), bytes((a,)))
                vec = [0, *ns, 0, *[v + (n << lane) + ((v & low) << shift)
                                    for n, v in zip(ns, vals[need:-1])]]
                old = nxt.get(out)
                nxt[out] = vec if old is None else list(map(add, old, vec))
        total += (top >> o) + ((top & low) << tri[x])

    _frontier_walk(ends, [1] + [0] * (2 * need - 1), take, 3 * need, w * m * (m - 1) // 2)
    rows = [[0] * m for _ in range(m)]
    mask = (1 << w) - 1
    for x in range(1, m):
        row = rows[x]
        for y in range(x):
            row[y] = total & mask
            total >>= w
    return rows


def _collect_from(
    parent: list[int],
    comps: int,
    free: Sequence[tuple[int, int, int]],
    i: int,
    k: int,
    mask: int,
    out: list[int],
) -> None:
    need = comps - k
    if need == 0:
        out.append(mask)
        return
    m = len(free)
    while i <= m - need:
        u, v, x = free[i]
        # _find inlined: this loop is the mask kernels' hot spot
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            if need == 1:
                out.append(mask | 1 << x)  # every edge that joins two trees ends one forest
            else:
                parent[u] = v
                _collect_from(parent, comps - 1, free, i + 1, k, mask | 1 << x, out)
                parent[u] = u
        i += 1


def _require_k(vertices: int, k: int) -> None:
    if not isinstance(k, int) or not 1 <= k <= vertices:
        raise ValueError(f"component count k={k} out of range 1..{vertices}")


def _setup(g: Graph, k: int, required: Iterable[Edge], forbidden: Iterable[Edge]):
    """Validate a constrained search and start it: the union-find parent
    list over vertex indices with the required edges merged, the number of
    components left, the other allowed edges as (u, v, edge index) triples
    in canonical order, and the edge mask of the required edges.  None when
    no forest qualifies: the required edges close a cycle or leave fewer
    than k components."""
    _require_k(g.vertex_count, k)
    req = list(dict.fromkeys(required))
    forb = set(forbidden)
    overlap = set(req) & forb
    if overlap:
        names = ", ".join(sorted(edge_name(e) for e in overlap))
        raise ValueError(f"required and forbidden edges overlap: {names}")
    for e in req:
        g.require_edge(e)
    for e in forb:
        g.require_edge(e)
    ends = g.edge_ends
    index = g.edge_index
    req_mask = sum(1 << index[e] for e in req)
    parent = _mask_union_find(ends, g.vertex_count, req_mask)
    comps = g.vertex_count - len(req)
    if parent is None or comps < k:
        return None
    skip = set(req) | forb
    free = [(a, b, x) for x, (a, b) in enumerate(ends) if g.edges[x] not in skip]
    return parent, comps, free, req_mask


def count_forests_constrained(
    g: Graph, k: int, required: Iterable[Edge] = (), forbidden: Iterable[Edge] = ()
) -> int:
    """Number of k-component spanning forests containing every required
    edge and avoiding every forbidden edge, by :func:`_count_by_frontier`."""
    state = _setup(g, k, required, forbidden)
    if state is None:
        return 0
    parent, comps, free, _req = state
    # the required edges are contracted: arcs join their union-find roots,
    # parallel free edges become one arc, and a free edge inside one root's
    # block could only close a cycle
    arcs: dict[tuple[int, int], int] = {}
    for u, v, _x in free:
        ru = _find(parent, u)
        rv = _find(parent, v)
        if ru != rv:
            pair = (ru, rv) if ru < rv else (rv, ru)
            arcs[pair] = arcs.get(pair, 0) + 1
    return _count_by_frontier(arcs, comps - k)


def _forest_masks(
    g: Graph, k: int, required: Iterable[Edge] = (), forbidden: Iterable[Edge] = ()
) -> list[int]:
    """The k-forests as edge masks (bit i set iff edge i of ``g.edges`` is
    in the forest), in the search's order: lexicographic in the ascending
    sequence of edge indices."""
    state = _setup(g, k, required, forbidden)
    if state is None:
        return []
    parent, comps, free, req = state
    out: list[int] = []
    _collect_from(parent, comps, free, 0, k, req, out)
    return out


def enumerate_forests(g: Graph, k: int) -> tuple[Forest, ...]:
    """All spanning forests of ``g`` with exactly k components.

    Deterministic order: lexicographic in the sequence of edge indices.
    """
    return enumerate_forests_constrained(g, k)


def enumerate_forests_constrained(
    g: Graph, k: int, required: Iterable[Edge] = (), forbidden: Iterable[Edge] = ()
) -> tuple[Forest, ...]:
    """Constrained variant of :func:`enumerate_forests`, same order."""
    return tuple(MaskedForests(g, _forest_masks(g, k, required, forbidden)))


def _square_free(variables: Sequence, masks: Iterable[int]) -> Polynomial:
    """One square-free monomial with coefficient one per mask, bit i
    standing for ``variables[i]``."""
    n = len(variables)
    terms = {}
    for mask in masks:
        exps = [0] * n
        for i in _mask_bits(mask):
            exps[i] = 1
        terms[tuple(exps)] = 1
    return Polynomial(variables, terms)


def forest_generating_polynomial(g: Graph, k: int) -> Polynomial:
    """Generating function of the k-component forests: one square-free
    monomial x_e1 ... x_er per forest, variables in canonical edge order."""
    return _square_free(g.edges, _forest_masks(g, k))


# ---------------------------------------------------------------------------
# anchored pair counts and their decomposition


def _anchor_pairs(g: Graph) -> tuple[tuple[Edge, Edge], ...]:
    """The anchored edge pairs of ``g``, in :class:`PairCounts` order.

    Complete graphs (on any labels containing 1..4): the wedge 1-2, 2-3 and
    the matching 1-2, 3-4.  Bipartite graphs, with anchor vertices
    a, b, c, d = 1, 1', 2, 2': a-b with a-d (shared left vertex), with c-b
    (shared right vertex) and with c-d (disjoint).
    """
    if g.kind == COMPLETE:
        v1, v2, v3, v4 = (vertex(i) for i in range(1, 5))
        e12 = edge(v1, v2)
        return (e12, edge(v2, v3)), (e12, edge(v3, v4))
    a, b, c, d = vertex(1), vertex(1, right=True), vertex(2), vertex(2, right=True)
    ab = edge(a, b)
    return (ab, edge(a, d)), (ab, edge(c, b)), (ab, edge(c, d))


def theorem_range(g: Graph, k: int) -> bool:
    """Whether (g, k) satisfies the hypotheses of the nonvanishing theorems."""
    if g.kind == COMPLETE:
        return 0 < k < g.left_size - 2
    return g.left_size >= 2 and g.right_size >= 2 and 0 < k < g.vertex_count - 2


def edge_pair_counts(g: Graph, k: int) -> PairCounts:
    """Counts of k-forests through the anchored edge pairs.

    By edge-transitivity of the automorphism group, these counts do not
    depend on the chosen pair within each class; the uniformity is asserted
    separately by the matrix route.  On K_n (or a K_W holding 1..4) no
    vertex or edge is built: p, through the wedge 1-2-3, is
    ``_forests_through(n, k, 3)``, and q follows by double counting, as
    each of the F(n, k) forests holds C(n-k, 2) edge pairs and K_n has
    n C(n-1, 2) adjacent pairs and 3 C(n, 4) disjoint ones.  On K_{m,n}
    likewise: p and q are ``_bipartite_through`` at the wedges' one left
    and two right, and two left and one right, vertices, and r follows
    from the C(m+n-k, 2) edge pairs of each forest, over m C(n, 2) left
    wedges, n C(m, 2) right ones and 2 C(m, 2) C(n, 2) disjoint pairs.
    """
    if g.kind == COMPLETE:
        n = g.left_size
        if n < 4:
            raise InsufficientVertices(f"need n >= 4 for anchor edges, got n={n}")
        if not theorem_range(g, k):
            raise ValueError(f"k={k} outside the range 0 < k < n-2 = {n - 2}")
        for e in dict.fromkeys(chain.from_iterable(_anchor_pairs(g))):
            if not all(index in g.labels for _part, index in e):
                raise ValueError(f"{edge_name(e)} is not an edge of {g.name}")
        p = _forests_through(n, k, 3)
        q = (comb(n - k, 2) * _forests_of(g, k) - n * comb(n - 1, 2) * p) // (3 * comb(n, 4))
        return PairCounts(p, q)
    m, n = g.left_size, g.right_size
    if m < 2 or n < 2:
        raise InsufficientVertices(f"need m, n >= 2 for anchor edges, got ({m}, {n})")
    if not theorem_range(g, k):
        raise ValueError(f"k={k} outside the range 0 < k < m+n-2 = {m + n - 2}")
    p, q = _bipartite_through(m, n, k, 1, 2), _bipartite_through(m, n, k, 2, 1)
    pairs = comb(m + n - k, 2) * _forests_of(g, k)
    r = (pairs - m * comb(n, 2) * p - n * comb(m, 2) * q) // (2 * comb(m, 2) * comb(n, 2))
    return PairCounts(p, q, r)


def _bipartite_through(m: int, n: int, k: int, s: int, t: int) -> int:
    """Spanning forests of K_{m,n} with k trees that contain a fixed tree
    on s left and t right vertices, s + t >= 1: Renyi's formula for K_{m,n}.
    Trees rooted at a left or a right vertex have the exponential
    generating functions A = u e^B and B = v e^A, unrooted trees A + B - AB,
    and the tree holding the fixed one hangs a set of trees off each of its
    vertices, (A/u)^s (B/v)^t.  Good's Lagrange inversion in two variables
    (Good 1960), whose Jacobian factor is 1 - xy here, makes the count
    a! b! / K! [x^a y^b] (x + y - xy)^K e^(nx + my) (1 - xy) for a = m - s,
    b = n - t and K = k - 1; with j = K - i + l that is

        G = sum_{0 <= l <= i <= a, j <= b} (-1)^l l! C(a, i) C(i, l) C(b, j) C(j, l)
                                           n^(a-i-1) m^(b-j-1) (mn - (a - i)(b - j)),

    summed in exact integers over the denominator mn, with the powers of
    n and m that every term shares taken out and the binomials of each
    term updated from the last; 0 for k outside 1..a+b+1.

    i runs over lo..i0 = max(0, K - b)..min(a, K) and l up to L = i0 +
    min(b, K) - K; a term's binomials C(a, i) and C(b, j) have at most a
    and b bits, its powers at most i0 - lo and L factors, and l! C(i, l)
    C(j, l) at most 2 L log2 K bits, and the powers taken out add their
    own bits to the last product.  Past MAX_FRONTIER_WORK, at 20 plus one
    per 2^7 bits a term, (bits / 2^10)^2 for each i's product and for the
    last one, and (bits / 2^6)^2 for the binomials ``math.comb`` gives,
    TooLarge refuses the formula before it computes.
    """
    a, b, K = m - s, n - t, k - 1
    if K < 0 or K > a + b:
        return 0
    lo, i0, j0 = max(0, K - b), min(a, K), min(b, K)
    top = i0 + j0 - K
    bits = max(m, n).bit_length()
    term = min(a, i0 * bits) + min(b, j0 * bits) + (i0 - lo + 3 * top) * bits
    work = (
        (i0 - lo + 1) * (top + lo + j0 - K + 2) // 2 * (20 + (term >> 7))
        + (i0 - lo + 1) * (term >> 10) ** 2
        + (min(a + b, K * bits) >> 6) ** 2
        + ((term + (a - i0) * n.bit_length() + (b - j0) * m.bit_length()) >> 10) ** 2
    )
    _refuse_past(work, f"the closed form for the {k}-component forests of K_{{{m},{n}}} "
                       f"through a fixed tree on {s} left and {t} right vertices")
    mn = m * n
    pn = list(accumulate(repeat(n, i0 - lo), mul, initial=1))
    pm = list(accumulate(repeat(m, top), mul, initial=1))
    ca, cb = comb(a, lo), comb(b, K - lo)  # C(a, i) and C(b, K - i)
    acc = 0
    for i in range(lo, i0 + 1):
        x = a - i
        row = 0
        u = cb  # l! C(i, l) C(b, j) C(j, l)
        for l in range(i + j0 - K + 1):
            j = K - i + l
            c = u * pm[j0 - j] * (mn - x * (b - j))
            row += -c if l & 1 else c
            u = u * (i - l) * (b - j) // (l + 1)
        acc += ca * pn[i0 - i] * row
        ca = ca * (a - i) // (i + 1)
        cb = cb * (K - i) // (b - K + i + 1)
    return acc * n ** (a - i0) * m ** (b - j0) // mn


def moon_tree_counts(w: int) -> tuple[int, int]:
    """Closed-form counts of spanning trees of K_w through the anchored
    pairs: (3 w^(w-4), 4 w^(w-4))."""
    if w < 4:
        raise ValueError(f"need w >= 4, got {w}")
    scale = w ** (w - 4)
    return 3 * scale, 4 * scale


def _forests_through(n: int, k: int, a: int) -> int:
    """Spanning forests of K_n with k trees that contain a fixed tree on
    a >= 1 vertices, by Renyi's formula (Renyi 1959) with that tree
    contracted to one vertex of weight a, whose trees with j more vertices
    number a (a + j)^(j-1) (Moon, *Counting Labelled Trees*, 1970).  With
    N = n - a, K = k - 1, t = min(K, N - K) and (d)_j the falling factorial,

        G = C(N, K) sum_{j<=t} (-1)^j C(K, j) (K + a + j) (N - K)_j n^(N-K-1-j) / 2^j,

    summed by Horner in 2n over the common denominator n 2^t, so every
    step is exact; 0 for k outside 1..N+1.

    The t Horner steps act on a sum of about t (2 log2 n + 1) bits, and
    the product has about (N - K) log2 n bits more; past MAX_FRONTIER_WORK,
    at 20 plus one per 2^9 bits a step and (bits / 2^10)^2 for the
    product, TooLarge refuses the formula before it computes.
    """
    N, K = n - a, k - 1
    if not 0 <= K <= N:
        return 0
    t = min(K, N - K)
    b = n.bit_length()
    horner = t * (2 * b + 1)
    work = t * (20 + (horner >> 9)) + ((horner + (N - K) * b) >> 10) ** 2
    through = f" through a fixed {a}-vertex tree" if a > 1 else ""
    _refuse_past(work, f"the closed form for the {k}-component forests of K_{n}{through}")
    acc = 0
    term = 1  # (-1)^j C(K, j) (N - K)_j
    for j in range(t + 1):
        acc = acc * 2 * n + term * (K + a + j)
        term = -term * (K - j) * (N - K - j) // (j + 1)
    return comb(N, K) * acc * n ** (N - K - t) // (n << t)


def _forests_by_size(n: int, k: int) -> int:
    """F(n, k), the spanning forests of K_n with k components: those through
    one vertex.  1 for the empty vertex set with k = 0, 0 for k outside 1..n."""
    return _forests_through(n, k, 1) if n else int(k == 0)


def _forests_of(g: Graph, k: int) -> int:
    """The k-component spanning forests of ``g``, K_n (on any labels) or
    K_{m,n}, by the closed forms, with no vertex or edge built: those
    through one vertex."""
    if g.kind == COMPLETE:
        return _forests_by_size(g.left_size, k)
    return _bipartite_through(g.left_size, g.right_size, k, 1, 0)


def pq_decomposition(n: int, k: int) -> Decomposition:
    """The exact (t, f) split of :func:`edge_pair_counts` on K_n, p = 3t + f
    and q = 4t + f: 3t and 4t count the k-forests through the wedge 1-2-3
    and the matching 1-2, 3-4 with all four anchors in one tree, f those
    through the wedge with 4 in another tree (as many as through the
    matching in two trees)."""
    counts = edge_pair_counts(complete_graph(n), k)
    return Decomposition(counts.q - counts.p, 4 * counts.p - 3 * counts.q)


def split_tree_at_edge(t: Forest, e: Edge) -> tuple[Forest, Forest]:
    """Delete ``e`` from a single tree; the two pieces come back ordered by
    which endpoint of ``e`` they contain (smaller endpoint first)."""
    if t.component_count != 1:
        raise ValueError("split_tree_at_edge needs a connected forest (one tree)")
    if e not in t.edges:
        raise ValueError(f"edge {edge_name(e)} is not in the tree")
    cut = Forest(t.graph, t.vertices, t.edges - {e})
    return cut.component_containing(e[0]), cut.component_containing(e[1])
