"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive and independent of the package's
algorithms: subsets come from itertools.combinations, connectivity from a
BFS over an adjacency dict (no union-find), determinants from cofactor
expansion, determinants and inertias of symmetric matrices from an LDL^T
on ``Fraction``s, spectrum certificates from the product of the shifted
matrices, the basis-exchange axiom from its pairwise definition, the
forest counts of K_n from the recurrence over the tree through vertex 1,
the (t, f) split of K_n's pair counts from the paper's subset sums.  Tests
freeze values computed by these oracles and compare the package against
them.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
from pathlib import Path

from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def bfs_component_count(vertices, edge_subset) -> int:
    adj = {v: [] for v in vertices}
    for a, b in edge_subset:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = 0
    for v in vertices:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return comps


def bfs_partition(vertices, edge_subset) -> list[frozenset]:
    """Vertex sets of the components, ordered by their smallest vertex."""
    adj = {v: set() for v in vertices}
    for a, b in edge_subset:
        adj[a].add(b)
        adj[b].add(a)
    parts: list[frozenset] = []
    seen: set = set()
    for v in sorted(vertices):
        if v in seen:
            continue
        part, stack = {v}, [v]
        while stack:
            for y in adj[stack.pop()] - part:
                part.add(y)
                stack.append(y)
        seen |= part
        parts.append(frozenset(part))
    return parts


def is_acyclic(vertices, edge_subset) -> bool:
    return bfs_component_count(vertices, edge_subset) == len(vertices) - len(edge_subset)


def brute_forests(graph, k, required=(), forbidden=()):
    """All k-component spanning forests as frozensets of edges."""
    vertices = list(graph.vertices)
    req = frozenset(required)
    forb = frozenset(forbidden)
    nedges = len(vertices) - k
    out = []
    for sub in itertools.combinations(graph.edges, nedges):
        s = frozenset(sub)
        if not req <= s or s & forb:
            continue
        if bfs_component_count(vertices, sub) == k and is_acyclic(vertices, sub):
            out.append(s)
    return out


def brute_count(graph, k, required=(), forbidden=()):
    return len(brute_forests(graph, k, required, forbidden))


def brute_acyclic_subset_count(graph) -> int:
    """Number of acyclic edge subsets of any size (use only when #E <= 16)."""
    vertices = list(graph.vertices)
    total = 0
    edges = list(graph.edges)
    for size in range(len(edges) + 1):
        for sub in itertools.combinations(edges, size):
            if is_acyclic(vertices, sub):
                total += 1
    return total


@lru_cache(maxsize=None)
def recurrence_forest_count(n: int, k: int) -> int:
    """k-component spanning forests of K_n by the size s of the tree through
    vertex 1: C(n-1, s-1) vertex sets, Cayley's s^(s-2) trees on them, and
    the (k-1)-forests of the other n - s vertices."""
    if n == 0 or k == 0:
        return int(n == k)
    return sum(
        comb(n - 1, s - 1) * s ** max(s - 2, 0) * recurrence_forest_count(n - s, k - 1)
        for s in range(1, n + 1)
    )


def bipartite_tree_counts(x: int, y: int) -> tuple[int, int, int, int]:
    """Spanning trees of K_{x,y}, x, y >= 1, through a fixed edge, a left
    wedge, a right wedge and a disjoint edge pair (0 where K_{x,y} has no
    such pair), from Scoins' x^(y-1) y^(x-1) trees: a left vertex's degree
    less one is Binomial(y-1, 1/x), and each tree holds C(x+y-1, 2) edge
    pairs, x C(y, 2) left wedges, y C(x, 2) right ones and 2 C(x, 2) C(y, 2)
    disjoint pairs."""
    trees = x ** (y - 1) * y ** (x - 1)
    edge = trees * (x + y - 1) // (x * y)
    left = trees * (x * (y - 1) + comb(y - 1, 2)) // (x * x * comb(y, 2)) if y > 1 else 0
    right = trees * (y * (x - 1) + comb(x - 1, 2)) // (y * y * comb(x, 2)) if x > 1 else 0
    pairs = comb(x + y - 1, 2) * trees - x * comb(y, 2) * left - y * comb(x, 2) * right
    disjoint = pairs // (2 * comb(x, 2) * comb(y, 2)) if x > 1 and y > 1 else 0
    return edge, left, right, disjoint


@lru_cache(maxsize=None)
def recurrence_bipartite_forests(a: int, b: int, j: int) -> int:
    """j-component spanning forests of K_{a,b} by the x left and y right
    vertices of the tree through left vertex 1: C(a-1, x-1) C(b, y) vertex
    sets, Scoins' trees on them (one for vertex 1 alone), and the
    (j-1)-forests of the rest; the right vertices of K_{0,b} are b trees."""
    if a == 0:
        return int(j == b)
    if j == 0:
        return 0
    alone = recurrence_bipartite_forests(a - 1, b, j - 1)
    return alone + sum(
        comb(a - 1, x - 1) * comb(b, y) * x ** (y - 1) * y ** (x - 1)
        * recurrence_bipartite_forests(a - x, b - y, j - 1)
        for x in range(1, a + 1)
        for y in range(1, b + 1)
    )


def recurrence_bipartite_pair_counts(m: int, n: int, k: int) -> tuple[int, int, int]:
    """(p, q, r) of K_{m,n} by the same recurrence, with the tree through
    left vertex 1 holding the anchored pair (1-1' with 1-2', with 2-1',
    with 2-2'), counted by ``bipartite_tree_counts``; r adds the forests
    whose tree through 1 holds 1-1' but neither 2 nor 2', with the rest
    through 2-2'."""
    forests = recurrence_bipartite_forests

    def tree_sum(a, b, j, lefts, rights, count, rest=forests, spare=0):
        # on K_{a,b}, the tree through left vertex 1 holds ``lefts`` and
        # ``rights`` anchors and keeps ``spare`` more anchors of each part out
        return sum(
            comb(a - lefts - spare, x - lefts) * comb(b - rights - spare, y - rights)
            * bipartite_tree_counts(x, y)[count] * rest(a - x, b - y, j - 1)
            for x in range(lefts, a - spare + 1)
            for y in range(rights, b - spare + 1)
        )

    def through_edge(a, b, j):
        return tree_sum(a, b, j, 1, 1, 0) if a and b else 0

    p = tree_sum(m, n, k, 1, 2, 1)
    q = tree_sum(m, n, k, 2, 1, 2)
    r = tree_sum(m, n, k, 2, 2, 3) + tree_sum(m, n, k, 1, 1, 0, through_edge, 1)
    return p, q, r


@lru_cache(maxsize=None)
def split_family_size(w: int) -> int:
    """Two-component forests of K_w whose tree through 1, 2, 3 holds the
    wedge 1-2-3 while vertex 4 sits in the other tree, by the size s of the
    first: C(w-4, s-3) vertex sets, Moon's 3 s^(s-4) wedge trees (one for
    s = 3) and Cayley's (w-s)^(w-s-2) trees on the rest."""
    return sum(
        comb(w - 4, s - 3) * (3 * s ** (s - 4) if s > 3 else 1) * (w - s) ** max(w - s - 2, 0)
        for s in range(3, w)
    )


def subset_sum_decomposition(n: int, k: int, forests=recurrence_forest_count) -> tuple[int, int]:
    """The paper's (t, f) split of K_n's pair counts, summed over the vertex
    set W of the tree through the four anchors: C(n-4, w-4) sets of each
    size w, Moon's w^(w-4) trees on W for t and the split_family_size(w)
    two-tree forests for f, times the (k-1)- or (k-2)-forests of the other
    n - w vertices, counted by ``forests``."""
    t = f = 0
    for w in range(4, n + 1):
        ways = comb(n - 4, w - 4)
        t += ways * w ** (w - 4) * forests(n - w, k - 1)
        f += ways * split_family_size(w) * forests(n - w, k - 2)
    return t, f


def cofactor_determinant(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(a) * cofactor_determinant(minor)
    return total


def ldl_inertia(rows) -> tuple[Fraction, tuple[int, int, int]]:
    """Determinant and inertia (n+, n0, n-) of a symmetric rational matrix
    by an LDL^T on ``Fraction``s with symmetric pivoting, in the manner of
    Bunch and Kaufman: a 1x1 pivot on the first nonzero diagonal entry left,
    else a 2x2 pivot on the first nonzero entry b = a_ij left, whose block
    [[0, b], [b, 0]] has determinant -b^2 and one eigenvalue of each sign.
    What is left when every entry is zero counts as zero eigenvalues."""
    a = [[Fraction(x) for x in row] for row in rows]
    left = list(range(len(a)))
    det, pos, neg = Fraction(1), 0, 0
    while left:
        d = next((i for i in left if a[i][i]), None)
        if d is not None:
            left.remove(d)
            piv = a[d][d]
            for x in left:
                if a[x][d]:
                    f = a[x][d] / piv
                    for y in left:
                        a[x][y] -= f * a[d][y]
            det *= piv
            pos, neg = (pos + 1, neg) if piv > 0 else (pos, neg + 1)
            continue
        pair = next(((i, j) for i in left for j in left if i < j and a[i][j]), None)
        if pair is None:
            return Fraction(0), (pos, len(left), neg)
        i, j = pair
        b = a[i][j]
        left.remove(i)
        left.remove(j)
        # the inverse of [[0, b], [b, 0]] is [[0, 1/b], [1/b, 0]]
        for x in left:
            fi, fj = a[x][i] / b, a[x][j] / b
            for y in left:
                a[x][y] -= fi * a[j][y] + fj * a[i][y]
        det *= -b * b
        pos, neg = pos + 1, neg + 1
    return det, (pos, 0, neg)


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def product_form_certificate(mat, spectrum) -> bool:
    """A claimed spectrum of a diagonalisable matrix, certified by (a) the
    product of (mat - lambda I) over the distinct claimed eigenvalues
    vanishing and (b) trace(mat^j) matching the claimed power sums for
    j = 1..d: 2(d - 1) full products on the matrix's ``Fraction`` rows,
    scaled by the lcm L of every denominator to integers (L*mat has
    eigenvalues L*lambda)."""
    rows = mat.rows
    n = len(rows)
    assert spectrum.dimension == n
    scale = lcm(
        *(x.denominator for row in rows for x in row),
        *(v.denominator for v in spectrum.eigenvalues()),
    )
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    pairs = [(v.numerator * (scale // v.denominator), m) for v, m in spectrum.pairs]
    product = None
    for value, _m in pairs:
        shifted = [
            [x - value if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)
        ]
        product = shifted if product is None else _matmul(product, shifted)
    if product is not None and any(map(any, product)):
        return False
    power = a
    for j in range(1, len(pairs) + 1):
        if sum(power[i][i] for i in range(n)) != sum(m * value**j for value, m in pairs):
            return False
        power = _matmul(power, a)
    return True


def pairwise_exchange_axiom(m) -> bool:
    """Basis exchange by the definition: every ordered basis pair (B1, B2)
    and every x in B1 \\ B2 need some y in B2 \\ B1 with B1 - x + y a basis.
    Bases are bitmasks; the partners of each (B1, x) are precomputed."""
    if len({len(b) for b in m.bases}) > 1:
        return False
    index = {x: i for i, x in enumerate(m.ground)}
    masks = []
    for b in m.bases:
        mask = 0
        for x in b:
            mask |= 1 << index[x]
        masks.append(mask)
    basis_set = set(masks)
    swap_targets: dict[tuple[int, int], int] = {}
    full = (1 << len(m.ground)) - 1
    for bm in masks:
        rest = bm
        while rest:
            xbit = rest & -rest
            rest ^= xbit
            base = bm ^ xbit
            partners = 0
            cand = full & ~bm
            while cand:
                ybit = cand & -cand
                cand ^= ybit
                if (base | ybit) in basis_set:
                    partners |= ybit
            swap_targets[(bm, xbit)] = partners
    for b1 in masks:
        for b2 in masks:
            diff1 = b1 & ~b2
            if not diff1:
                continue
            diff2 = b2 & ~b1
            rest = diff1
            while rest:
                xbit = rest & -rest
                rest ^= xbit
                if not swap_targets[(b1, xbit)] & diff2:
                    return False
    return True


def load_perfbench(name: str):
    """The benchmark module ``perfbench/<name>.py``, loaded by path: the
    benchmark's files are scripts, not a package, and the tests only read
    them.  The module is registered under ``perfbench_<name>`` first, as
    ``dataclasses`` looks a class's module up there."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def patch_everywhere(monkeypatch, module, name, replacement):
    """Replace ``module.name`` at every forest_spectra module that binds it:
    a ``from .x import name`` binding escapes a patch of ``module`` alone."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "forest_spectra" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, replacement)
