"""Matroids stored extensionally: explicit ground set and basis list.

Desk-scale targets make implicit oracles unnecessary; storing every basis
keeps the exchange-axiom check exhaustive.  Graphic matroids take spanning
trees as bases; truncation to rank r keeps all r-subsets of bases, which
for complete and complete bipartite graphs is exactly the set of r-edge
forests.

Inside, a basis is an ``int`` mask, bit i for ``ground[i]`` as in the forest
search, encoded once when a :class:`Matroid` is built; every kernel reads
masks, and ``Matroid`` objects appear only at the public boundary.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Hashable, Iterable

from .graphs import Graph
from .forests import _forest_masks, _mask_bits, _square_free
from .polynomials import Polynomial
from .records import Record


class Matroid(Record):
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
        index = {x: i for i, x in enumerate(self.ground)}
        by_mask: dict[int, frozenset] = {}
        for b in map(frozenset, self.bases):
            if not b <= index.keys():
                raise ValueError("basis element outside the ground set")
            by_mask[sum(1 << index[x] for x in b)] = b
        # canonical order: by sorted ground-set indices, the search's order
        object.__setattr__(self, "_masks", tuple(sorted(by_mask, key=_mask_bits)))
        object.__setattr__(self, "bases", tuple(map(by_mask.__getitem__, self._masks)))

    @property
    def rank(self) -> int:
        return len(self.bases[0])

    @property
    def basis_count(self) -> int:
        return len(self.bases)


def _from_masks(ground: tuple[Hashable, ...], masks: Iterable[int]) -> Matroid:
    """The matroid on ``ground`` whose bases are ``masks``, bit i for ground[i]."""
    return Matroid(ground, tuple(frozenset([ground[i] for i in _mask_bits(b)]) for b in masks))


def graphic_matroid(g: Graph) -> Matroid:
    """Matroid on the edges of ``g`` whose bases are the spanning trees."""
    return _from_masks(g.edges, _forest_masks(g, 1))


def _require_a_valid_rank(g: Graph, who: str, lowest: int) -> None:
    """Refuse ``g`` when its graphic matroid has a rank, V - 1, below the
    lowest rank ``who`` takes, so that no rank is valid for it."""
    if g.vertex_count - 1 < lowest:
        raise ValueError(
            f"{g.name} admits no valid rank: {who} needs r >= {lowest} "
            f"and its graphic matroid has rank {g.vertex_count - 1}"
        )


def _require_truncation_rank(r: int, rank: int) -> None:
    if not 1 <= r <= rank:
        raise ValueError(f"target rank {r} out of range 1..{rank}")


def _truncated(masks: Iterable[int], r: int) -> set[int]:
    """The r-subsets of the bases ``masks``, as masks."""
    out: set[int] = set()
    for mask in masks:
        out.update(map(sum, combinations([1 << i for i in _mask_bits(mask)], r)))
    return out


def truncate(m: Matroid, r: int) -> Matroid:
    """Truncated matroid of rank r: all r-subsets of bases."""
    _require_truncation_rank(r, m.rank)
    if r == m.rank:
        return m
    return _from_masks(m.ground, _truncated(m._masks, r))


def _exchange_holds(masks: Collection[int], nground: int) -> bool:
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
    if len({mask.bit_count() for mask in masks}) > 1:
        return False
    meets = [0] * nground
    # completions[S]: bitmask of the elements e with S + e a basis
    completions: dict[int, int] = {}
    for j, mask in enumerate(masks):
        bit = 1 << j
        rest = mask
        while rest:
            xbit = rest & -rest
            rest ^= xbit
            meets[xbit.bit_length() - 1] |= bit
            rest_of_b = mask ^ xbit
            completions[rest_of_b] = completions.get(rest_of_b, 0) | xbit
    every = (1 << len(masks)) - 1
    for ends in completions.values():
        covered = 0
        while ends:
            ybit = ends & -ends
            ends ^= ybit
            covered |= meets[ybit.bit_length() - 1]
        if covered != every:
            return False
    return True


def verify_exchange_axiom(m: Matroid) -> bool:
    """Exhaustive basis-exchange check; see :func:`_exchange_holds`."""
    return _exchange_holds(m._masks, len(m.ground))


def basis_generating_polynomial(m: Matroid) -> Polynomial:
    """Sum over bases of the product of their variables.

    Homogeneous of degree rank, square-free, all coefficients one, variables
    keyed by the canonical ground-set order.
    """
    return _square_free(m.ground, m._masks)
