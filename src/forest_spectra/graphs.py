"""Labeled complete and complete bipartite graphs with a canonical edge order.

Vertices are ``(part, index)`` pairs: part 0 is the left side (or the whole
vertex set of a complete graph), part 1 is the right side of a bipartite
graph.  Edges are sorted vertex pairs.  The edge list of every graph is
lexicographic in the endpoint labels, so any matrix indexed by edges is
reproducible bit for bit.  A graph is held as its sizes: its vertices and
edges are built when first read, so a check that needs only the sizes
costs O(1) however large the graph.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .records import Record

__all__ = [
    "BIPARTITE",
    "COMPLETE",
    "Edge",
    "Graph",
    "PairClass",
    "Vertex",
    "classify_edge_pair",
    "complete_bipartite_graph",
    "complete_graph",
    "complete_graph_on",
    "edge",
    "edge_name",
    "vertex",
    "vertex_name",
]

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]

COMPLETE = "complete"
BIPARTITE = "bipartite"


def vertex(index: int, right: bool = False) -> Vertex:
    """Vertex with a positive integer label; ``right=True`` tags the right part."""
    if index < 1:
        raise ValueError(f"vertex labels are positive integers, got {index}")
    return (1 if right else 0, index)


def edge(u: Vertex, v: Vertex) -> Edge:
    """Canonical (sorted) edge between two distinct vertices."""
    if u == v:
        raise ValueError(f"edge endpoints must be distinct, got {u} twice")
    return (u, v) if u < v else (v, u)


def vertex_name(v: Vertex) -> str:
    part, index = v
    return f"{index}'" if part == 1 else str(index)


def edge_name(e: Edge) -> str:
    return f"{vertex_name(e[0])}-{vertex_name(e[1])}"


class PairClass(Enum):
    """How two edges of one graph sit relative to each other."""

    EQUAL = "equal"
    SHARE_VERTEX = "share-vertex"
    SHARE_LEFT = "share-left"
    SHARE_RIGHT = "share-right"
    DISJOINT = "disjoint"


class Graph(Record):
    """Immutable complete or complete bipartite graph, held as its sizes.

    ``left_size`` is n for a complete graph; for bipartite graphs the two
    part sizes are ``left_size`` and ``right_size`` (0 marks a complete
    graph).  ``labels`` are the left part's labels, ascending: a ``range``
    from 1 unless the graph is a K_W on a vertex subset W.  Vertex and edge
    counts come from the sizes; ``vertices``, ``edges``, ``edge_index`` and
    ``edge_ends`` are built on first read and held by the graph, so a guard
    that reads only sizes costs O(1).  All operations on graphs are pure.
    """

    kind: str
    left_size: int
    right_size: int
    labels: Sequence[int]

    @property
    def vertex_count(self) -> int:
        return self.left_size + self.right_size

    @property
    def edge_count(self) -> int:
        n = self.left_size
        return n * self.right_size if self.right_size else n * (n - 1) // 2

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        right = [(1, j) for j in range(1, self.right_size + 1)]
        return tuple([(0, i) for i in self.labels] + right)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Sorted vertex pairs in lexicographic order: ``combinations`` of
        the sorted vertices on K_n, left-major on K_{m,n}."""
        if self.kind == COMPLETE:
            return tuple(combinations(self.vertices, 2))
        left, right = self.vertices[: self.left_size], self.vertices[self.left_size :]
        return tuple((u, v) for u in left for v in right)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def edge_ends(self) -> tuple[tuple[int, int], ...]:
        """Each edge's endpoints as positions in ``vertices``."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        return tuple((pos[a], pos[b]) for a, b in self.edges)

    def has_edge(self, e: Edge) -> bool:
        return e in self.edge_index

    def require_edge(self, e: Edge) -> None:
        if not self.has_edge(e):
            raise ValueError(f"{edge_name(e)} is not an edge of {self.name}")

    @property
    def name(self) -> str:
        """K_n, or K_{m,n} for parts of m and n vertices."""
        m, n = self.left_size, self.right_size
        return f"K_{{{m},{n}}}" if n else f"K_{m}"


def complete_graph(n: int) -> Graph:
    """Complete graph on vertices 1..n with C(n,2) lexicographic edges."""
    if n < 1:
        raise ValueError(f"complete graph needs at least one vertex, got n={n}")
    return Graph(COMPLETE, n, 0, range(1, n + 1))


def complete_graph_on(labels: Iterable[int]) -> Graph:
    """Complete graph on an arbitrary set of positive integer labels; on
    1..n it is ``complete_graph(n)``.

    Used for the vertex-subset families, where forests live on K_W for a
    subset W of the ambient vertex labels.
    """
    labels = sorted(set(labels))
    if not labels:
        raise ValueError("complete graph needs at least one vertex")
    vertex(labels[0])  # refuses a label below 1
    if labels[-1] == len(labels):
        return complete_graph(len(labels))
    return Graph(COMPLETE, len(labels), 0, tuple(labels))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """Complete bipartite graph with left part 1..m and right part 1'..n'."""
    if m < 1 or n < 1:
        raise ValueError(f"both parts need at least one vertex, got m={m}, n={n}")
    return Graph(BIPARTITE, m, n, range(1, m + 1))


def _pair_class(g: Graph, ends: tuple[int, int], ends2: tuple[int, int]) -> PairClass:
    """The class of two edges of ``g`` given by their endpoint positions."""
    if ends == ends2:
        return PairClass.EQUAL
    shared = set(ends) & set(ends2)
    if not shared:
        return PairClass.DISJOINT
    if g.kind == COMPLETE:
        return PairClass.SHARE_VERTEX
    # a bipartite graph lists its left part first
    (position,) = shared
    return PairClass.SHARE_LEFT if position < g.left_size else PairClass.SHARE_RIGHT


def classify_edge_pair(g: Graph, e: Edge, e2: Edge) -> PairClass:
    """Classify an edge pair of ``g``; symmetric in the two edges.

    Complete graphs distinguish equal / one shared vertex / disjoint; on
    bipartite graphs a shared vertex is reported by the part it lies in.
    """
    g.require_edge(e)
    g.require_edge(e2)
    ends, index = g.edge_ends, g.edge_index
    return _pair_class(g, ends[index[e]], ends[index[e2]])
