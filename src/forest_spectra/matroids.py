"""Matroids stored extensionally: explicit ground set and basis list.

Desk-scale targets make implicit oracles unnecessary; storing every basis
keeps the exchange-axiom check exhaustive.  Graphic matroids take spanning
trees as bases; truncation to rank r keeps all r-subsets of bases, which
for complete and complete bipartite graphs is exactly the set of r-edge
forests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Hashable

from .graphs import Graph
from .forests import _forest_edge_sets
from .polynomials import Polynomial


@dataclass(frozen=True)
class Matroid:
    """Ground set plus basis collection.

    Construction checks only that the collection is nonempty and lives on
    the ground set; equicardinality and the exchange axiom are the job of
    :func:`verify_exchange_axiom`, so that defective inputs can be examined
    rather than rejected.
    """

    ground: tuple[Hashable, ...]
    bases: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set has repeated elements")
        if not self.bases:
            raise ValueError("a matroid has at least one basis")
        universe = set(self.ground)
        for b in self.bases:
            if not b <= universe:
                raise ValueError("basis element outside the ground set")
        # canonical order: by sorted ground-set indices
        index = {x: i for i, x in enumerate(self.ground)}
        canon = sorted({frozenset(b) for b in self.bases}, key=lambda b: sorted(index[x] for x in b))
        object.__setattr__(self, "bases", tuple(canon))

    def __hash__(self) -> int:
        return hash((self.ground, self.bases))

    @property
    def rank(self) -> int:
        return len(self.bases[0])

    @property
    def basis_count(self) -> int:
        return len(self.bases)


def graphic_matroid(g: Graph) -> Matroid:
    """Matroid on the edges of ``g`` whose bases are the spanning trees."""
    return Matroid(g.edges, tuple(_forest_edge_sets(g, 1)))


def _require_a_valid_rank(g: Graph, who: str, lowest: int) -> None:
    """Refuse a graph whose graphic matroid has a rank, V - 1, below the
    lowest rank ``who`` takes, so that no rank is valid for it."""
    if g.vertex_count - 1 < lowest:
        raise ValueError(
            f"{g.name} admits no valid rank: {who} needs r >= {lowest} "
            f"and its graphic matroid has rank {g.vertex_count - 1}"
        )


def truncate(m: Matroid, r: int) -> Matroid:
    """Truncated matroid of rank r: all r-subsets of bases.

    The subsets are collected as ascending ground-index tuples, which hash
    faster than frozensets, and become one frozenset per distinct subset;
    the ``Matroid`` constructor puts them in canonical order.
    """
    if not 1 <= r <= m.rank:
        raise ValueError(f"target rank {r} out of range 1..{m.rank}")
    if r == m.rank:
        return m
    index = {x: i for i, x in enumerate(m.ground)}.__getitem__
    subsets = set(chain.from_iterable(combinations(sorted(map(index, b)), r) for b in m.bases))
    ground = m.ground
    return Matroid(ground, tuple(frozenset([ground[i] for i in c]) for c in subsets))


def verify_exchange_axiom(m: Matroid) -> bool:
    """Exhaustive basis-exchange check from a basis-incidence bitset.

    True iff all bases are equicardinal and for every ordered basis pair
    (B1, B2) and every x in B1 \\ B2 some y in B2 \\ B1 has B1 - x + y a
    basis.  ``meets[e]`` is an int whose bit j is set iff basis j contains
    e.  The valid partners P of (B1, x) lie outside B1, so some y in
    B2 \\ B1 works iff B2 meets P, and B2 is exempt iff it contains x: the
    axiom holds at (B1, x) iff ``meets[x] | OR_{y in P} meets[y]`` has every
    basis bit set.  P + x is the set of completions of B1 - x to a basis,
    so the test depends only on that (r-1)-set and runs once per set.  The
    quantifiers are those of the pairwise statement; memory is O(|E| * B)
    bits.
    """
    sizes = {len(b) for b in m.bases}
    if len(sizes) > 1:
        return False
    index = {x: i for i, x in enumerate(m.ground)}
    meets = [0] * len(m.ground)
    # completions[S]: bitmask of the elements e with S + e a basis
    completions: dict[int, int] = {}
    for j, b in enumerate(m.bases):
        bit = 1 << j
        mask = 0
        for x in b:
            meets[index[x]] |= bit
            mask |= 1 << index[x]
        rest = mask
        while rest:
            xbit = rest & -rest
            rest ^= xbit
            rest_of_b = mask ^ xbit
            completions[rest_of_b] = completions.get(rest_of_b, 0) | xbit
    every = (1 << len(m.bases)) - 1
    for ends in completions.values():
        covered = 0
        while ends:
            ybit = ends & -ends
            ends ^= ybit
            covered |= meets[ybit.bit_length() - 1]
        if covered != every:
            return False
    return True


def basis_generating_polynomial(m: Matroid) -> Polynomial:
    """Sum over bases of the product of their variables.

    Homogeneous of degree rank, square-free, all coefficients one, variables
    keyed by the canonical ground-set order.
    """
    n = len(m.ground)
    index = {x: i for i, x in enumerate(m.ground)}
    terms = {}
    for b in m.bases:
        exps = [0] * n
        for x in b:
            exps[index[x]] = 1
        terms[tuple(exps)] = 1
    return Polynomial(m.ground, terms)
