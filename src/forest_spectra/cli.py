"""Command line interface: structured JSON reports on stdout.

Exit codes: 0 for verified/computed runs, 1 when a theorem check fails,
2 for invalid input (including unknown flags, which argparse reports on
stderr with usage text) and for an input too large to answer.  One parser
is built per process and every ``run`` parses with it.  Reports are
deterministic: orderings are canonical everywhere, and the only
wall-clock content is the timing field.  Every command starts from one
``Graph`` of its sizes (``_graph_from``), and every refusal that reads
only sizes comes before any vertex or edge is built.  Each such refusal
costs its work against the one limit, ``forests.MAX_FRONTIER_WORK``,
through ``forests._refuse_past``, and ``run`` writes every one as
``error: <command> on <graph>: <what> is estimated at ...``.  The fields
of a result object are read off it by ``_pick``, and the report's text
comes from ``reports._dumps``: one string, or for a listing, which
``enumerate`` hands over as the search's edge masks, blocks of rows
written as they are rendered.  A reader that closes stdout early, as
``| head`` does, gets the report's prefix, and the exit code is the
verdict's.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction
from functools import cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .bijections import (
    bijection_forestbij,
    bijection_pr4,
    bijection_q2r5,
    bijections_pr123,
    build_families,
    verify_count_inequalities,
)
from .errors import StructureViolation, TooLarge, VerificationFailure
from .forests import (
    MAX_FRONTIER_WORK,
    _forest_masks,
    _forests_of,
    _refuse_past,
    _require_k,
    edge_pair_counts,
    theorem_range,
)
from .graphs import COMPLETE, Graph, complete_bipartite_graph, complete_graph, edge_name
from .lefschetz import _degree_one, _require_degree_one_rank, _slp_on_masks
from .matroids import _exchange_holds, _require_a_valid_rank, _require_truncation_rank, _truncated
from .reports import _dumps, _Listing, _Matrix
from .spectra import (
    BipartiteParams,
    _certificate_failure,
    _degree_one_certificate,
    _require_closed_form,
    _zero_certificate,
    predicted_signs,
    sign_profile,
    spectrum_determinant,
    tilde_hessian,
)


def _pick(obj, *names: str) -> dict:
    """``{name: value}`` for the named attributes of ``obj``, leaving out a
    ``None``; a name ``obj`` lacks raises AttributeError."""
    return {name: value for name in names if (value := getattr(obj, name)) is not None}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``forest-spectra`` parser, built on the first call and shared by
    every later call in the process: parse with it, but add nothing to it."""
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
    p.add_argument(
        "--point",
        type=str,
        help="comma-separated rational coefficients of L; write a point that starts "
        "with '-' as --point=-2,...",
    )

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
    """The chosen graph, as its sizes: O(1), with no vertex or edge built."""
    has_bip = getattr(args, "bipartite", None) is not None
    if (args.complete is not None) == has_bip:
        raise ValueError("choose exactly one of --complete N or --bipartite M N")
    if args.complete is not None:
        return complete_graph(args.complete)
    m, n = args.bipartite
    return complete_bipartite_graph(m, n)


def _sizes(g: Graph) -> int | tuple[int, int]:
    return g.left_size if g.kind == COMPLETE else (g.left_size, g.right_size)


def _record_dict(record) -> dict:
    return {
        **_pick(record, "name", "domain_size", "codomain_size", "verified"),
        "failures": [
            {**_pick(f, "kind", "detail"), "element": f.element.edge_names()}
            for f in record.failures
        ],
    }


def _require_hessian_room(g: Graph) -> None:
    """Refuse, from the edge count alone, the m x m degree-one Hessian that
    ``spectrum`` certifies, at 10 integer operations for each of its m^2
    entries.  The zero Hessians of k >= V - 1 are read off the sizes, so
    ``spectrum`` applies the rule to them only when ``--matrix`` writes
    their m^2 entries, about 0.1 us each: K_60 at k = 60 (3.1e6 entries)
    takes 0.30-0.34 s and K_70 at k = 70 (5.8e6) 0.56-0.64 s, best of 3
    in-process runs to ``os.devnull``, +0.2 MB peak RSS (+78 and +145 MB
    into a StringIO); 2-vCPU Xeon, CPython 3.11."""
    m = g.edge_count
    _refuse_past(10 * m * m, f"its {m}x{m} Hessian")


def _cmd_spectrum(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    k = args.k
    _require_k(g.vertex_count, k)
    _require_closed_form(g)
    dim = g.edge_count
    # past k = V - 2 no forest holds two edges, so the Hessian is zero: read
    # off the sizes, and written only for --matrix
    zero = k >= g.vertex_count - 1
    if args.matrix or not zero:
        _require_hessian_room(g)
    if zero:
        params, spectrum, certified, det = _zero_certificate(g)
    else:
        h = tilde_hessian(g, k)
        params, spectrum, certified, det = _degree_one_certificate(h, g)
    profile, product = sign_profile(spectrum), spectrum_determinant(spectrum)
    in_range = theorem_range(g, k)
    delta = ("delta",) if isinstance(params, BipartiteParams) else ()
    result: dict = {
        "dimension": dim,
        "entry_pattern": _pick(params, "alpha", "beta", "gamma", *delta),
        "eigenvalues": [{"value": v, "multiplicity": m} for v, m in spectrum.pairs],
        "sign_profile": _pick(profile, *profile._fields),
        "determinant": det,
        "eigenvalue_product": product,
        "spectrum_certified": certified,
        "theorem_range": in_range,
    }
    if args.matrix:
        result["matrix"] = _Matrix((("0",) * dim,) * dim if zero else h.rows)
    if not certified:
        result["certificate_error"] = _certificate_failure(h, spectrum, list(map(edge_name, g.edges)))
    checks = [certified, det == product]
    if in_range:
        counts = edge_pair_counts(g, k)
        result["pair_counts"] = _pick(counts, "p", "q", "r")
        expected = params.beta == counts.p and params.gamma == counts.q and params.alpha == 0
        if counts.r is not None:
            expected = expected and params.delta == counts.r
        result["pattern_matches_counts"] = expected
        checks.append(expected)
        try:
            preds = predicted_signs(counts, _sizes(g))
            result["sign_predictions"] = [
                _pick(q, "label", "value", "requirement", "satisfied") for q in preds.quantities
            ]
            checks.append(True)
        except VerificationFailure as err:
            result["sign_predictions_error"] = str(err)
            checks.append(False)
        checks.append(tuple(profile) == (1, 0, dim - 1))
        checks.append(det != 0)
    else:
        result["note"] = "outside the nonvanishing theorem range; computed, not asserted"
    verdict = ("verified" if in_range else "computed") if all(checks) else "failed"
    return verdict, {"graph": g.name, "k": k}, result


def _complete_family_members(n: int, k: int) -> Iterator[int]:
    """The members of ``build_families`` on K_n (n >= 4), in parts: for
    each size w the C(n-4, w-4) per-subset families, which do not depend
    on k (Moon's 3 w^(w-4) + 4 w^(w-4) anchored trees and twice 4 w^(w-5)
    split forests), then ``edge_pair_counts``'s p + q in the theorem range;
    outside it the anchored families hold a forest at most and are left out."""
    for w in range(4, n + 1):
        yield comb(n - 4, w - 4) * ((7 * w + 8) * w ** (w - 4) // w)
    g = complete_graph(n)
    if theorem_range(g, k):
        counts = edge_pair_counts(g, k)
        yield counts.p + counts.q


def _require_family_room(g: Graph, members: Iterable[int]) -> None:
    """Refuse, before ``build_families``, families whose members, summed
    from ``members`` until the sum passes the limit, cost one operation per
    member and edge (each member is an edge mask the checks walk)."""
    total = 0
    for part in members:
        total += part
        if total * g.edge_count > MAX_FRONTIER_WORK:
            break
    _refuse_past(total * g.edge_count, f"building family members of {g.edge_count} edges each")


def _cmd_bijections(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    if g.kind != COMPLETE and args.w is not None:
        raise ValueError("--w applies only to --complete")
    k = args.k
    input_: dict = {"graph": g.name, "k": k}
    if g.kind == COMPLETE:
        n = g.left_size
        w = args.w if args.w is not None else n
        input_["w"] = w
        # below n = 4, build_families refuses the graph itself
        if n >= 4:
            if not 4 <= w <= n:
                raise ValueError(f"--w must be between 4 and {n}, got {w}")
            _require_k(g.vertex_count, k)
            _require_family_room(g, _complete_family_members(n, k))
        fam = build_families(g, k)
        labels = tuple(range(1, w + 1))
        split = next(sf for sf in fam.per_subset if sf.labels == labels)
        record = bijection_forestbij(labels, families=split)
        sizes = ("trees_wedge", "trees_matching", "split_wedge", "split_matching")
        subset_checks = [
            {
                **_pick(sf, "labels"),
                **{name: len(getattr(sf, name)) for name in sizes},
                "split_sizes_equal": len(sf.split_wedge) == len(sf.split_matching),
            }
            for sf in fam.per_subset
        ]
        ok = record.verified and all(c["split_sizes_equal"] for c in subset_checks)
        result = {
            "pair_counts": _pick(fam.pair_counts(), "p", "q"),
            "split_bijection": _record_dict(record),
            "subsets": subset_checks,
        }
        return ("verified" if ok else "failed"), input_, result
    # outside the theorem range each anchored family holds at most one forest
    counts = edge_pair_counts(g, k) if theorem_range(g, k) else None
    if counts is not None:
        _require_family_room(g, [counts.p + counts.q + counts.r])
    fam = build_families(g, k)
    records = [bijections_pr123(g, k, i, families=fam) for i in (1, 2, 3)]
    records.append(bijection_pr4(g, k, families=fam))
    records.append(bijection_q2r5(g, k, families=fam))
    result = {
        "family_sizes": fam.sizes(),
        "bijections": [_record_dict(rec) for rec in records],
    }
    checks = [rec.verified for rec in records]
    if counts is not None:
        agree = fam.pair_counts() == counts
        result["counts_agree_with_enumeration"] = agree
        checks.append(agree)
        ineq = verify_count_inequalities(fam)
        result["inequalities"] = _pick(
            ineq, "p", "q", "r", "r_minus_p", "r_minus_q", "p_plus_q_minus_r",
            "left_strict_expected", "right_strict_expected", "satisfied", "boundary_notes",
        )
        checks.append(ineq.satisfied)
    else:
        result["note"] = "outside the theorem range; bijections still checked"
    return ("verified" if all(checks) else "failed"), input_, result


_EXPONENT_LITERAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*")


def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing a numerator or denominator of more digits
    than Python allows in a decimal integer literal.

    ``Fraction`` builds 10^e for a decimal exponent e before anything else
    can look at the value, so an exponent that settles the question is
    refused from the literal.  With n significant mantissa digits and e
    counted from the last of them, |value| >= 10^(n+e-1) and a reduced
    denominator exceeds 10^(-e-n); a zero mantissa is refused on the
    exponent alone.  What passes builds cheaply and is measured exactly.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:  # 0 lifts Python's limit
        return Fraction(text)
    too_long = f"{text!r} would have more than {limit} digits in its numerator or denominator"
    m = _EXPONENT_LITERAL.fullmatch(text)
    if m:
        whole, frac = m[1].replace("_", ""), (m[2] or "").replace("_", "")
        n = len((whole + frac).lstrip("0"))
        e = int(m[3]) - len(frac)
        if n + e > limit or -e - n >= limit:
            raise ValueError(too_long)
    value = Fraction(text)
    if not _printable(max(abs(value.numerator), value.denominator)):
        raise ValueError(too_long)
    return value


def _printable(count: int) -> bool:
    """Whether Python writes the integer ``count`` >= 0 in decimal: not past
    ``sys.get_int_max_str_digits()`` digits, unless that is 0."""
    limit = sys.get_int_max_str_digits()
    return not limit or count < 10**limit


def _parse_point(raw: str, count: int) -> list[Fraction]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != count:
        raise ValueError(f"--point needs {count} coefficients, got {len(parts)}")
    try:
        return [_parse_rational(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational in --point: {err}")


def _cmd_slp(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    r = args.r
    _require_degree_one_rank(g, r, "slp")
    # the degree-one stage reduces m x m matrices, the catalecticant and the
    # Hessian at the point, by elimination: m^3 operations.  K_30 at r = 2
    # (435 edges) takes 10.8 s and K_{232,2} (464) 9.8 s, one in-process
    # run each; 2-vCPU Xeon, CPython 3.11
    m = g.edge_count
    _refuse_past(m**3, f"reducing its {m}x{m} degree-one matrices")
    all_ones = args.point is None
    # L's coefficients, one per edge: the form's variables are g.edges
    values = [Fraction(1)] * g.edge_count if all_ones else _parse_point(args.point, g.edge_count)
    # the bases of the rank-r truncation are the r-edge forests
    basis_count, profile, report, hessian = _slp_on_masks(g, r, values)
    degree_one = _degree_one(g, r, hessian)
    result = {
        "basis_count": basis_count,
        "hilbert_function": profile.dims,
        "hilbert_symmetric": profile.symmetric,
        "point": report.point,
        "hessians": [
            _pick(c, "degree", "dimension", "determinant", "bijective") for c in report.checks
        ],
        "slp_holds": report.holds,
        "degree_one": _pick(
            degree_one, "bijective", "determinant", "spectrum_certified",
            "in_theorem_range", "in_stated_range",
        ),
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


def _forest_count(g: Graph, k: int) -> int | None:
    """F(n, k), the k-component forests of ``g`` = K_n, or None when Python
    would not write it in decimal.  Among them are the (n-k+1)^(n-k-1)
    spanning trees of K_{n-k+1} with every other vertex alone; when those
    alone reach 2^(4 L) > 10^L, for L = sys.get_int_max_str_digits() > 0,
    None comes from n and k before the closed form runs (seconds of work
    there)."""
    limit = sys.get_int_max_str_digits()
    s = g.left_size - k + 1
    if limit and (s - 2) * (s.bit_length() - 1) >= 4 * limit:
        return None
    count = _forests_of(g, k)
    return count if _printable(count) else None


def _require_listable(g: Graph, k: int) -> None:
    """Refuse, before an edge of K_n is read, to list its k-component
    forests when they cost more than MAX_FRONTIER_WORK: 100 operations a
    forest, which lets through the 10^6 forests of short masks a listing
    held at most before, and its edge mask of C(n,2) bits, ceil(C(n,2)/30)
    CPython digits.  A count Python does not write, at least 10^L for
    L = sys.get_int_max_str_digits(), is estimated from that bound."""
    count = _forest_count(g, k)
    many = "" if count is None else f"{count} "
    least = 10 ** sys.get_int_max_str_digits() if count is None else count
    _refuse_past(least * (100 + -(-g.edge_count // 30)),
                 f"listing its {many}{k}-component forests as {g.edge_count}-bit masks")


def _cmd_matroid(args) -> tuple[str, dict, dict]:
    g = _graph_from(args)
    r = args.r
    _require_a_valid_rank(g, "matroid", 1)
    _require_truncation_rank(r, g.vertex_count - 1)
    _require_listable(g, 1)  # the truncation reads every spanning tree
    # the spanning trees' r-subsets against an independent r-edge forest search
    bases = _truncated(_forest_masks(g, 1), r)
    bases_match = bases == set(_forest_masks(g, g.vertex_count - r))
    result = {
        "ground_size": g.edge_count,
        "rank": r,
        "basis_count": len(bases),
        "bases_are_r_edge_forests": bases_match,
    }
    checks = [bases_match]
    if args.verify_axioms:
        axioms = _exchange_holds(bases, g.edge_count)
        result["exchange_axiom"] = axioms
        checks.append(axioms)
    input_ = {"graph": g.name, "r": r, "verify_axioms": bool(args.verify_axioms)}
    return ("verified" if all(checks) else "failed"), input_, result


def _cmd_enumerate(args) -> tuple[str, dict, dict]:
    # enumerate takes only --complete, so the closed form gives every count,
    # and the checks before an edge is read need only n and k
    g = _graph_from(args)
    n, k = g.left_size, args.k
    input_ = {"graph": g.name, "k": k, "count_only": bool(args.count_only)}
    _require_k(n, k)
    if args.count_only:
        count = _forest_count(g, k)
        if count is None:
            raise TooLarge(
                f"the count of its {k}-component forests has more digits than the "
                f"{sys.get_int_max_str_digits()} Python writes (sys.get_int_max_str_digits())"
            )
        return "computed", input_, {"count": count}
    if k == n:  # the one forest with no edge, with no edge read
        return "computed", input_, {"count": 1, "forests": [[]]}
    _require_listable(g, k)
    masks = _forest_masks(g, k)
    # g.edges is sorted, so ascending edge indices list a forest's edge
    # names in the order Forest.edge_names gives
    names = [edge_name(e) for e in g.edges]
    return "computed", input_, {"count": len(masks), "forests": _Listing(names, masks)}


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
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        verdict, input_, result = _HANDLERS[args.command](args)
    # a StructureViolation is a ValueError, but a failed check, not bad input
    except (StructureViolation, VerificationFailure) as err:
        verdict, input_, result = "failed", {}, {"error": str(err)}
    # a refusal names what it estimated, not the command or graph it is for
    except TooLarge as err:
        print(f"error: {args.command} on {_graph_from(args).name}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "input": input_,
        "result": result,
        "verdict": verdict,
        "timing_ms": int(round((time.perf_counter() - start) * 1000)),
    }
    text = _dumps(report)
    try:
        sys.stdout.writelines([text] if type(text) is str else text)
        print(flush=True)
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): point it at devnull, so
        # that the flush at shutdown neither fails nor prints a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if verdict in ("verified", "computed") else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
