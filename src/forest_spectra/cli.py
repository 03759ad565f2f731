"""Command line interface: structured JSON reports on stdout.

Exit codes: 0 for verified/computed runs, 1 when a theorem check fails,
2 for invalid input (including unknown flags, which argparse reports on
stderr with usage text).  Reports are deterministic: rationals are
rendered exactly, orderings are canonical everywhere, and the only
wall-clock content is the timing field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Sequence

from .bijections import (
    bijection_forestbij,
    bijection_pr4,
    bijection_q2r5,
    bijections_pr123,
    build_families,
    verify_count_inequalities,
)
from .errors import VerificationFailure
from .forests import (
    count_forests_constrained,
    edge_pair_counts,
    enumerate_forests,
    theorem_range,
)
from .graphs import COMPLETE, Graph, complete_bipartite_graph, complete_graph
from .lefschetz import check_degree_one_lefschetz, hilbert_function, slp_check
from .linalg import exact_determinant
from .matroids import (
    basis_generating_polynomial,
    graphic_matroid,
    truncate,
    verify_exchange_axiom,
)
from .spectra import (
    closed_form_spectrum,
    predicted_signs,
    sign_profile,
    spectrum_determinant,
    structured_params,
    tilde_hessian,
    verify_spectrum,
)

THREADS_ENV = "FOREST_SPECTRA_THREADS"


def _rat(x) -> str:
    return str(Fraction(x))


def thread_cap() -> int | None:
    """Upper bound on internal worker parallelism, from the environment.

    The library's computations are sequential at desk scale, so any valid
    cap is honored trivially; an invalid value is still rejected.
    """
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forest-spectra",
        description=(
            "Hessian spectra of k-component forest generating functions, "
            "their counting bijections, and strong Lefschetz checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_flags(p: argparse.ArgumentParser, bipartite: bool = True) -> None:
        p.add_argument("--complete", type=int, metavar="N", help="complete graph K_N")
        if bipartite:
            p.add_argument(
                "--bipartite",
                nargs=2,
                type=int,
                metavar=("M", "N"),
                help="complete bipartite graph K_{M,N}",
            )

    p = sub.add_parser("spectrum", help="Hessian matrix, certified spectrum, signs")
    add_graph_flags(p)
    p.add_argument("--k", type=int, required=True, help="number of forest components")
    p.add_argument("--matrix", action="store_true", help="include the matrix entries")

    p = sub.add_parser("bijections", help="run the counting bijections exhaustively")
    add_graph_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, metavar="SIZE", help="subset size for the split bijection (complete case)")

    p = sub.add_parser("slp", help="strong Lefschetz check for a truncated graphic matroid")
    add_graph_flags(p)
    p.add_argument("--r", type=int, required=True, help="truncation rank")
    p.add_argument("--point", type=str, help="comma-separated rational coefficients of L")

    p = sub.add_parser("matroid", help="build a truncated graphic matroid and verify axioms")
    add_graph_flags(p, bipartite=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--verify-axioms", action="store_true")

    p = sub.add_parser("enumerate", help="list or count k-component forests")
    add_graph_flags(p, bipartite=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    return parser


def _graph_from(args: argparse.Namespace) -> Graph:
    has_bip = getattr(args, "bipartite", None) is not None
    if (args.complete is not None) == has_bip:
        raise ValueError("choose exactly one of --complete N or --bipartite M N")
    if args.complete is not None:
        return complete_graph(args.complete)
    m, n = args.bipartite
    return complete_bipartite_graph(m, n)


def _sizes(g: Graph) -> int | tuple[int, int]:
    return g.left_size if g.kind == COMPLETE else (g.left_size, g.right_size)


def _params_dict(params) -> dict:
    out = {"alpha": _rat(params.alpha), "beta": _rat(params.beta), "gamma": _rat(params.gamma)}
    if hasattr(params, "delta"):
        out["delta"] = _rat(params.delta)
    return out


def _record_dict(record) -> dict:
    return {
        "name": record.name,
        "domain_size": record.domain_size,
        "codomain_size": record.codomain_size,
        "verified": record.verified,
        "failures": [
            {"kind": f.kind, "element": list(f.element.edge_names()), "detail": f.detail}
            for f in record.failures
        ],
    }


def _cmd_spectrum(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    k = args.k
    h = tilde_hessian(g, k)
    params = structured_params(h, g)
    spectrum = closed_form_spectrum(params)
    certified = verify_spectrum(h, spectrum)
    profile = sign_profile(spectrum)
    det = exact_determinant(h)
    in_range = theorem_range(g, k)
    result: dict = {
        "dimension": h.nrows,
        "entry_pattern": _params_dict(params),
        "eigenvalues": [{"value": _rat(v), "multiplicity": m} for v, m in spectrum.pairs],
        "sign_profile": {
            "positive": profile.positive,
            "zero": profile.zero,
            "negative": profile.negative,
        },
        "determinant": _rat(det),
        "eigenvalue_product": _rat(spectrum_determinant(spectrum)),
        "spectrum_certified": certified,
        "theorem_range": in_range,
    }
    if args.matrix:
        result["matrix"] = [[_rat(x) for x in row] for row in h.rows]
    checks = [certified, det == spectrum_determinant(spectrum)]
    if in_range:
        counts = edge_pair_counts(g, k)
        pc = {"p": counts.p, "q": counts.q}
        if counts.r is not None:
            pc["r"] = counts.r
        result["pair_counts"] = pc
        expected = params.beta == counts.p and params.gamma == counts.q and params.alpha == 0
        if counts.r is not None:
            expected = expected and params.delta == counts.r
        result["pattern_matches_counts"] = expected
        checks.append(expected)
        try:
            preds = predicted_signs(counts, _sizes(g))
            result["sign_predictions"] = [
                {
                    "label": q.label,
                    "value": _rat(q.value),
                    "requirement": q.requirement,
                    "satisfied": q.satisfied,
                }
                for q in preds.quantities
            ]
            checks.append(True)
        except VerificationFailure as err:
            result["sign_predictions_error"] = str(err)
            checks.append(False)
        checks.append(tuple(profile) == (1, 0, h.nrows - 1))
        checks.append(det != 0)
    else:
        result["note"] = "outside the nonvanishing theorem range; computed, not asserted"
    if all(checks):
        verdict = "verified" if in_range else "computed"
    else:
        verdict = "failed"
    input_ = {"graph": g.name, "k": k}
    return verdict, input_, result


def _cmd_bijections(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    k = args.k
    input_: dict = {"graph": g.name, "k": k}
    if g.kind == COMPLETE:
        n = g.left_size
        w = args.w if args.w is not None else n
        if not 4 <= w <= n:
            raise ValueError(f"--w must be between 4 and {n}, got {w}")
        input_["w"] = w
        fam = build_families(g, k)
        record = bijection_forestbij(range(1, w + 1))
        subset_checks = [
            {
                "labels": list(sf.labels),
                "trees_wedge": len(sf.trees_wedge),
                "trees_matching": len(sf.trees_matching),
                "split_wedge": len(sf.split_wedge),
                "split_matching": len(sf.split_matching),
                "split_sizes_equal": len(sf.split_wedge) == len(sf.split_matching),
            }
            for sf in fam.per_subset
        ]
        ok = record.verified and all(c["split_sizes_equal"] for c in subset_checks)
        counts = fam.pair_counts()
        result = {
            "pair_counts": {"p": counts.p, "q": counts.q},
            "split_bijection": _record_dict(record),
            "subsets": subset_checks,
        }
        return ("verified" if ok else "failed"), input_, result
    fam = build_families(g, k)
    records = [bijections_pr123(g, k, i, families=fam) for i in (1, 2, 3)]
    records.append(bijection_pr4(g, k, families=fam))
    records.append(bijection_q2r5(g, k, families=fam))
    result = {
        "family_sizes": fam.sizes(),
        "bijections": [_record_dict(rec) for rec in records],
    }
    checks = [rec.verified for rec in records]
    if theorem_range(g, k):
        counts = edge_pair_counts(g, k)
        agree = fam.pair_counts() == counts
        result["counts_agree_with_enumeration"] = agree
        checks.append(agree)
        ineq = verify_count_inequalities(fam)
        result["inequalities"] = {
            "p": ineq.p,
            "q": ineq.q,
            "r": ineq.r,
            "r_minus_p": ineq.r_minus_p,
            "r_minus_q": ineq.r_minus_q,
            "p_plus_q_minus_r": ineq.p_plus_q_minus_r,
            "left_strict_expected": ineq.left_strict_expected,
            "right_strict_expected": ineq.right_strict_expected,
            "satisfied": ineq.satisfied,
            "boundary_notes": list(ineq.boundary_notes),
        }
        checks.append(ineq.satisfied)
    else:
        result["note"] = "outside the theorem range; bijections still checked"
    return ("verified" if all(checks) else "failed"), input_, result


def _parse_point(raw: str, variables) -> dict:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != len(variables):
        raise ValueError(f"--point needs {len(variables)} coefficients, got {len(parts)}")
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational in --point: {err}")
    return dict(zip(variables, values))


def _cmd_slp(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    r = args.r
    matroid = truncate(graphic_matroid(g), r)
    phi = basis_generating_polynomial(matroid)
    all_ones = args.point is None
    point = (
        {v: Fraction(1) for v in phi.variables}
        if all_ones
        else _parse_point(args.point, phi.variables)
    )
    profile = hilbert_function(phi)
    report = slp_check(phi, point)
    degree_one = check_degree_one_lefschetz(matroid)
    result = {
        "basis_count": matroid.basis_count,
        "hilbert_function": list(profile.dims),
        "hilbert_symmetric": profile.symmetric,
        "point": [_rat(x) for x in report.point],
        "hessians": [
            {
                "degree": c.degree,
                "dimension": c.dimension,
                "determinant": _rat(c.determinant),
                "bijective": c.bijective,
            }
            for c in report.checks
        ],
        "slp_holds": report.holds,
        "degree_one": {
            "bijective": degree_one.bijective,
            "determinant": _rat(degree_one.determinant),
            "spectrum_certified": degree_one.spectrum_certified,
            "in_theorem_range": degree_one.in_theorem_range,
            "in_stated_range": degree_one.in_stated_range,
        },
    }
    input_ = {"graph": g.name, "r": r, "all_ones": all_ones}
    if not all_ones:
        verdict = "computed"
    elif report.holds and degree_one.spectrum_certified:
        verdict = "verified" if degree_one.in_theorem_range else "computed"
    elif degree_one.in_theorem_range:
        verdict = "failed"
    else:
        verdict = "computed"
    return verdict, input_, result


def _cmd_matroid(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    r = args.r
    matroid = truncate(graphic_matroid(g), r)
    k = g.vertex_count - r
    forests = enumerate_forests(g, k)
    bases_match = set(matroid.bases) == {f.edges for f in forests}
    result = {
        "ground_size": len(matroid.ground),
        "rank": matroid.rank,
        "basis_count": matroid.basis_count,
        "bases_are_r_edge_forests": bases_match,
    }
    checks = [bases_match]
    if args.verify_axioms:
        axioms = verify_exchange_axiom(matroid)
        result["exchange_axiom"] = axioms
        checks.append(axioms)
    input_ = {"graph": g.name, "r": r, "verify_axioms": bool(args.verify_axioms)}
    return ("verified" if all(checks) else "failed"), input_, result


def _cmd_enumerate(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    k = args.k
    input_ = {"graph": g.name, "k": k, "count_only": bool(args.count_only)}
    if args.count_only:
        result = {"count": count_forests_constrained(g, k)}
    else:
        forests = enumerate_forests(g, k)
        result = {
            "count": len(forests),
            "forests": [list(f.edge_names()) for f in forests],
        }
    return "computed", input_, result


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "bijections": _cmd_bijections,
    "slp": _cmd_slp,
    "matroid": _cmd_matroid,
    "enumerate": _cmd_enumerate,
}


def run(argv: Sequence[str]) -> int:
    """Parse arguments, execute, print the JSON report; returns the exit code."""
    start = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        cap = thread_cap()
        verdict, input_, result = _HANDLERS[args.command](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except VerificationFailure as err:
        report = {
            "command": args.command,
            "input": {},
            "result": {"error": str(err)},
            "verdict": "failed",
            "timing_ms": int(round((time.perf_counter() - start) * 1000)),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1
    if cap is not None:
        input_["thread_cap"] = cap
    report = {
        "command": args.command,
        "input": input_,
        "result": result,
        "verdict": verdict,
        "timing_ms": int(round((time.perf_counter() - start) * 1000)),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if verdict in ("verified", "computed") else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
