"""The benchmark's workloads: fixed ladders of CLI invocations.

Each instance is one argument list for ``forest_spectra.cli.run``.  Its
``key`` names it in the golden file; seeded instances carry a ``--point``
drawn from the benchmark seed, so their key leaves the point out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WHY = {
    "spectrum-ladder": (
        "Hessian pipeline: forest polynomial build, hessian_matrix, matmuls in "
        "verify_spectrum and Bareiss; boundary k values also cover the out-of-range path"
    ),
    "slp-ladder": (
        "catalecticant ranks, graded bases and higher-Hessian determinants; seeded "
        "--point instances bypass the all-ones shortcuts"
    ),
    "families-ladder": (
        "the forests layer through materialised Forest objects, per-element bijection "
        "checks, large JSON listings and pure counting instead of index tuples"
    ),
}


@dataclass(frozen=True)
class Instance:
    key: str
    argv: tuple[str, ...]
    seeded: bool = False


def _fixed(*argv) -> Instance:
    argv = tuple(str(a) for a in argv)
    return Instance(" ".join(argv), argv)


def _complete(command: str, n: int, flag: str, value: int, *extra) -> Instance:
    return _fixed(command, "--complete", n, flag, value, *extra)


def _bipartite(command: str, m: int, n: int, flag: str, value: int) -> Instance:
    return _fixed(command, "--bipartite", m, n, flag, value)


def _spectrum_ladder(_rng: random.Random) -> list[Instance]:
    out = [_complete("spectrum", n, "--k", k) for n in (5, 6, 7) for k in range(1, n - 1)]
    out += [_complete("spectrum", 8, "--k", k) for k in (3, 4, 5)]
    out += [
        _bipartite("spectrum", m, n, "--k", k)
        for m in range(2, 5)
        for n in range(m, 5)
        for k in range(1, m + n - 1)
    ]
    return out


def _seeded_point(rng: random.Random, nvars: int) -> str:
    """Positive rationals with numerator and denominator in 1..9."""
    return ",".join(str(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(nvars))


def _slp_ladder(rng: random.Random) -> list[Instance]:
    out = [_complete("slp", 4, "--r", 3)]
    out += [_complete("slp", 5, "--r", r) for r in (3, 4)]
    out += [_complete("slp", 6, "--r", 3)]
    out += [_bipartite("slp", 2, n, "--r", 4) for n in (3, 4)]
    out += [_bipartite("slp", 3, 3, "--r", r) for r in (3, 4, 5)]
    # the polynomial's variables are the graph's edges: 10 for K_5, 9 for K_{3,3}
    for graph, nvars in ((("--complete", "5"), 10), (("--bipartite", "3", "3"), 9)):
        head = ("slp",) + graph + ("--r", "4")
        out.append(
            Instance(" ".join(head + ("--point", "SEEDED")), head + ("--point", _seeded_point(rng, nvars)), True)
        )
    return out


def _families_ladder(_rng: random.Random) -> list[Instance]:
    out = [_bipartite("bijections", 3, 4, "--k", k) for k in range(1, 6)]
    out += [_bipartite("bijections", 4, 4, "--k", k) for k in range(1, 7)]
    out += [_complete("bijections", 6, "--k", k) for k in range(1, 4)]
    out += [_complete("bijections", 7, "--k", k) for k in range(1, 5)]
    out += [_complete("matroid", n, "--r", r, "--verify-axioms") for n, r in ((5, 3), (5, 4), (6, 4))]
    out += [_complete("enumerate", n, "--k", k) for n, k in ((6, 1), (6, 2), (7, 3))]
    out += [_complete("enumerate", 8, "--k", k, "--count-only") for k in range(1, 6)]
    return out


_LADDERS = {
    "spectrum-ladder": _spectrum_ladder,
    "slp-ladder": _slp_ladder,
    "families-ladder": _families_ladder,
}


def instances(workload: str, seed: int) -> list[Instance]:
    """The workload's instances, in the order a pass runs them."""
    return _LADDERS[workload](random.Random(seed))
