import hashlib
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from forest_spectra.cli import _parse_rational, run
from forest_spectra.reports import _dumps

from conftest import load_perfbench, patch_everywhere


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_spectrum_k4(capsys):
    code, report = capture(capsys, ["spectrum", "--complete", "4", "--k", "1"])
    assert code == 0
    assert report["verdict"] == "verified"
    assert report["result"]["eigenvalues"] == [
        {"multiplicity": 1, "value": "16"},
        {"multiplicity": 2, "value": "-2"},
        {"multiplicity": 3, "value": "-4"},
    ]
    assert report["result"]["sign_profile"] == {"positive": 1, "zero": 0, "negative": 5}
    assert report["result"]["determinant"] == "-4096"


def test_spectrum_boundary_bipartite(capsys):
    code, report = capture(capsys, ["spectrum", "--bipartite", "2", "2", "--k", "2"])
    assert code == 0
    assert report["verdict"] == "computed"  # outside the theorem hypotheses
    assert report["result"]["eigenvalues"] == [
        {"multiplicity": 1, "value": "3"},
        {"multiplicity": 3, "value": "-1"},
    ]


def test_spectrum_matrix_flag(capsys):
    code, report = capture(capsys, ["spectrum", "--complete", "4", "--k", "2", "--matrix"])
    assert code == 0
    assert report["result"]["matrix"][0] == ["0", "1", "1", "1", "1", "1"]


# SHA-256 of the whole report without timing_ms, as the golden check takes
# it; no benchmark instance passes --matrix
MATRIX_REPORTS = {
    "spectrum --complete 5 --k 2 --matrix":
        "56d667eaf07edef21c0dd9edab8c87b2242a04ded39743f77429d45c448364ab",
    "spectrum --bipartite 2 3 --k 1 --matrix":
        "313906f21d915d9a7318df6e473e476c565cdb539f065122f4e90c8a220c8356",
}


@pytest.mark.parametrize("argv", sorted(MATRIX_REPORTS))
def test_spectrum_matrix_reports_are_pinned(argv, capsys):
    code = run(argv.split())
    facts = load_perfbench("one_pass")._facts(capsys.readouterr().out, code, False)
    assert (facts["exit_code"], facts["verdict"]) == (0, "verified")
    assert facts["digest"] == MATRIX_REPORTS[argv]


def test_spectrum_requires_exactly_one_graph(capsys):
    code = run(["spectrum", "--complete", "4", "--bipartite", "2", "2", "--k", "1"])
    assert code == 2
    code = run(["spectrum", "--k", "1"])
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    assert run(["spectrum", "--complete", "4", "--k", "1", "--bogus"]) == 2


def test_out_of_range_k_exits_2(capsys):
    assert run(["spectrum", "--complete", "4", "--k", "9"]) == 2


def test_bijections_bipartite(capsys):
    code, report = capture(capsys, ["bijections", "--bipartite", "2", "3", "--k", "1"])
    assert code == 0
    assert report["verdict"] == "verified"
    assert all(rec["verified"] for rec in report["result"]["bijections"])
    ineq = report["result"]["inequalities"]
    assert ineq["satisfied"]
    assert ineq["r_minus_p"] == 0 and not ineq["left_strict_expected"]


def test_bijections_complete(capsys):
    code, report = capture(capsys, ["bijections", "--complete", "5", "--k", "1", "--w", "5"])
    assert code == 0
    assert report["verdict"] == "verified"
    assert report["result"]["split_bijection"]["verified"]
    assert all(s["split_sizes_equal"] for s in report["result"]["subsets"])


def test_bijections_bipartite_rejects_w(capsys):
    assert run(["bijections", "--bipartite", "2", "3", "--k", "1", "--w", "4"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == "error: --w applies only to --complete"


@pytest.mark.parametrize(
    "argv",
    [
        ["bijections", "--complete", "3", "--k", "1"],
        ["bijections", "--complete", "3", "--k", "1", "--w", "4"],
    ],
    ids=" ".join,
)
def test_bijections_below_four_vertices_names_the_graph(capsys, argv):
    # no --w range exists below n = 4, so the graph is refused, not the flag
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == "error: anchor vertices 1..4 need n >= 4, got n=3"


def test_slp_k4(capsys):
    code, report = capture(capsys, ["slp", "--complete", "4", "--r", "3"])
    assert code == 0
    assert report["verdict"] == "verified"
    assert report["result"]["slp_holds"] is True
    assert report["result"]["hilbert_function"] == [1, 6, 6, 1]
    assert report["result"]["hessians"][-1]["determinant"] == "-4096"


DEGREE_ONE_GRID = (
    [(["--complete", str(n)], r) for n in (3, 4, 5, 6) for r in range(2, n)]
    + [(["--complete", "7"], r) for r in (2, 3, 4)]
    + [
        (["--bipartite", str(m), str(n)], r)
        for m in (2, 3, 4)
        for n in range(m, 5)
        for r in range(2, m + n)
        if (m, n) != (4, 4) or r < 5
    ]
)


@pytest.mark.parametrize(
    "graph,r", DEGREE_ONE_GRID, ids=[f"{' '.join(g)} r{r}" for g, r in DEGREE_ONE_GRID]
)
def test_degree_one_is_the_first_hessian_check_at_all_ones(capsys, graph, r):
    # slp reads its degree-one Hessian off the search that gives the k = 1
    # check: at all-ones the two are one matrix over every edge
    code, report = capture(capsys, ["slp", *graph, "--r", str(r)])
    assert code == 0
    sizes = [int(x) for x in graph[1:]]
    edges = sizes[0] * (sizes[0] - 1) // 2 if len(sizes) == 1 else sizes[0] * sizes[1]
    first = report["result"]["hessians"][1]
    assert first["degree"] == 1 and first["dimension"] == edges
    assert first["determinant"] == report["result"]["degree_one"]["determinant"]


def test_slp_custom_point(capsys):
    code, report = capture(
        capsys, ["slp", "--complete", "4", "--r", "3", "--point", "1,1,1,1,1,1"]
    )
    assert code == 0
    assert report["verdict"] == "computed"
    assert report["input"]["all_ones"] is False


def test_slp_bad_point_exits_2(capsys):
    assert run(["slp", "--complete", "4", "--r", "3", "--point", "1,2"]) == 2
    assert run(["slp", "--complete", "4", "--r", "3", "--point", "1,1,1,1,1,x"]) == 2


def test_slp_point_with_a_huge_exponent_exits_2(capsys):
    # Fraction would build 10^5000 first; the literal is refused unbuilt
    for literal in ("1e5000", "-2.5E-5000"):
        assert run(["slp", "--complete", "4", "--r", "3", "--point", f"1,1,{literal},1,1,1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad rational in --point: ")


def test_slp_point_accepts_exponents_decimals_and_ratios(capsys):
    code, report = capture(
        capsys, ["slp", "--complete", "4", "--r", "3", "--point", "1e400,0.5,2/3,-1,1_0,7e-3"]
    )
    assert code == 0
    assert report["result"]["point"] == [str(10**400), "1/2", "2/3", "-1", "10", "7/1000"]


def test_slp_point_starting_with_a_minus_is_written_with_equals(capsys):
    # argparse reads a spaced "-2,..." as an option, so the help and the
    # README give the --point=... form
    point = "-2,0,1/3,5,7/2,1"
    code, report = capture(capsys, ["slp", "--complete", "4", "--r", "3", f"--point={point}"])
    assert code == 0
    assert report["result"]["point"] == point.split(",")


def test_point_literal_digits_follow_python_limit():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
        assert _parse_rational("1e639") == 10**639
        assert _parse_rational("5e-640") == Fraction(1, 2 * 10**639)
        assert _parse_rational("0e640") == 0
        for literal in ("1e640", "1e-640", "0.1e-639", "0e641", "1" * 330 + "." + "1" * 330):
            with pytest.raises(ValueError, match="more than 640 digits"):
                _parse_rational(literal)
        sys.set_int_max_str_digits(0)  # no limit
        assert _parse_rational("1e5000") == 10**5000
    finally:
        sys.set_int_max_str_digits(old)


def test_matroid_verify(capsys):
    code, report = capture(capsys, ["matroid", "--complete", "4", "--r", "2", "--verify-axioms"])
    assert code == 0
    assert report["verdict"] == "verified"
    assert report["result"]["exchange_axiom"] is True
    assert report["result"]["bases_are_r_edge_forests"] is True
    assert report["result"]["basis_count"] == 15


def test_enumerate_count_only(capsys):
    code, report = capture(capsys, ["enumerate", "--complete", "4", "--k", "3", "--count-only"])
    assert code == 0
    assert report["result"] == {"count": 6}


def test_enumerate_lists_forests(capsys):
    code, report = capture(capsys, ["enumerate", "--complete", "4", "--k", "1"])
    assert code == 0
    assert report["result"]["count"] == 16
    assert report["result"]["forests"][0] == ["1-2", "1-3", "1-4"]


def test_enumerate_refuses_an_oversized_listing(capsys, monkeypatch):
    # the listing must be refused from the closed-form count, before any
    # forest is built: building them here would mean 61,917,364,224 forests
    import forest_spectra.cli as cli

    def never(*args):
        raise AssertionError("the oversized listing reached the enumeration")

    monkeypatch.setattr(cli, "_forest_masks", never)
    start = time.perf_counter()
    code = run(["enumerate", "--complete", "12", "--k", "1"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert elapsed < 1.0
    assert "61917364224" in err and "--count-only" in err
    assert 61917364224 > cli.MAX_LISTED_FORESTS


@pytest.mark.parametrize("n,trees", [(9, 4782969), (10, 100000000)])
def test_matroid_refuses_more_spanning_trees_than_the_listing_cap(capsys, monkeypatch, n, trees):
    # the spanning trees are counted in closed form and refused before the
    # search that would list them all
    import forest_spectra.cli as cli
    from forest_spectra import forests

    def never(*args):
        raise AssertionError("the oversized matroid reached the forest search")

    patch_everywhere(monkeypatch, forests, "_forest_masks", never)
    start = time.perf_counter()
    code = run(["matroid", "--complete", str(n), "--r", "4"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert elapsed < 1.0
    assert captured.err.strip() == (
        f"error: K_{n} has {trees} 1-component forests, more than the "
        f"{cli.MAX_LISTED_FORESTS} matroid may list: it truncates every spanning tree"
    )


def test_matroid_cap_refuses_no_ladder_graph():
    # every ladder matroid is on some K_n with n <= 6, and K_8, with 8^6
    # spanning trees, is the largest K_n the cap lets through
    import forest_spectra.cli as cli
    from forest_spectra.forests import _forests_by_size

    ladder = [inst.argv for inst in load_perfbench("workloads").instances("families-ladder", 0)]
    sizes = {int(argv[2]) for argv in ladder if argv[0] == "matroid"}
    assert sizes and max(sizes) <= 6
    assert _forests_by_size(8, 1) == 262144 <= cli.MAX_LISTED_FORESTS < _forests_by_size(9, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--complete", "13", "--k", "1"],
        ["spectrum", "--bipartite", "9", "9", "--k", "1"],
    ],
    ids=["spectrum K_13", "spectrum K_9,9"],
)
def test_frontier_walks_refuse_an_oversized_input(capsys, monkeypatch, argv):
    # the walk's own guard runs, but a walk that passed it would fail here
    # instead of running for hours
    from forest_spectra import forests

    def guard_only(ends, start, take, bits=0):
        forests._frontier_schedule(ends, len(start), bits)
        raise AssertionError("the oversized walk passed its guard")

    monkeypatch.setattr(forests, "_frontier_walk", guard_only)
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert elapsed < 1.0
    assert "is estimated at more than" in captured.err and "integer operations" in captured.err
    assert f"over the limit of {forests.MAX_FRONTIER_WORK:.0e}" in captured.err


def test_a_refused_walk_names_the_command_and_the_graph(capsys):
    # the Hessian's pair walk over K_{9,9}'s 81 edges refuses itself; the
    # command and the graph come from the CLI
    assert run(["spectrum", "--bipartite", "9", "9", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        "error: spectrum on K_{9,9}: a frontier walk over 81 arcs (frontier width 10 by "
        "arc 21, 51 integers of up to 171720 bits per state) is estimated at more than "
        "1.09e+08 integer operations, over the limit of 1e+08\n"
    )


def _never_build_a_graph(monkeypatch):
    # a Graph is its sizes until its vertices or edges are read
    from forest_spectra import graphs

    def never(*args):
        raise AssertionError("the input built its graph")

    for name in ("vertices", "edges"):
        monkeypatch.setattr(graphs.Graph, name, property(never))


def test_count_only_needs_no_frontier_walk_and_no_graph(capsys, monkeypatch):
    # K_n's forests are counted by the closed form: every ladder
    # count keeps its golden report, and K_30 has Cayley's 30^28 spanning
    # trees, past what a frontier walk can count
    from forest_spectra import forests

    def never(*args):
        raise AssertionError("count-only reached the frontier count")

    monkeypatch.setattr(forests, "_count_by_frontier", never)
    _never_build_a_graph(monkeypatch)
    one_pass = load_perfbench("one_pass")
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
    workloads = load_perfbench("workloads")
    ladder = [inst for inst in workloads.instances("families-ladder", 0) if "--count-only" in inst.argv]
    assert len(ladder) == 5
    for inst in ladder:
        code = run(list(inst.argv))
        facts = one_pass._facts(capsys.readouterr().out, code, False)
        expected = golden["families-ladder"][inst.key]
        assert (facts["exit_code"], facts["digest"]) == (0, expected["digest"]), inst.key
    code, report = capture(capsys, ["enumerate", "--complete", "30", "--k", "1", "--count-only"])
    assert code == 0
    assert report["input"] == {"graph": "K_30", "k": 1, "count_only": True}
    assert report["result"] == {"count": 30**28}


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            "enumerate --complete 1100 --k 1050",
            "K_1100 has 38371552682050213457241502065759840621265087885210078217043192986310"
            "187272811082925637622452006185898931023002858329833921770701473645056583470421"
            "393949198729597166454021908024310683819833255380138418151604417080710156250000"
            "0 1050-component forests, more than the 1000000 "
            "enumerate may list; use --count-only to count them",
        ),
        (
            "enumerate --complete 2000 --k 1",
            "K_2000 has more 1-component forests than the MAX_LISTED_FORESTS = 1000000 "
            "enumerate may list; use --count-only to count them",
        ),
        (
            "matroid --complete 2000 --r 4",
            "K_2000 has more 1-component forests than the MAX_LISTED_FORESTS = 1000000 "
            "matroid may list: it truncates every spanning tree",
        ),
        (
            "enumerate --complete 2000 --k 1 --count-only",
            "enumerate on K_2000: the count of its 1-component forests has more digits "
            "than the 4300 Python writes (sys.get_int_max_str_digits())",
        ),
        (
            "enumerate --complete 100000 --k 3 --count-only",
            "enumerate on K_100000: the count of its 3-component forests has more digits "
            "than the 4300 Python writes (sys.get_int_max_str_digits())",
        ),
        ("enumerate --complete 4 --k 9 --count-only", "component count k=9 out of range 1..4"),
        (
            "enumerate --complete 700 --k 699",
            "the 244650 699-component forests of K_700, as masks of 244650 bits, are "
            "estimated at 1995120750 digit operations, more than the 100000000 "
            "enumerate may list; use --count-only to count them",
        ),
    ],
    ids=[
        "list K_1100 k=1050", "list K_2000", "matroid K_2000",
        "count digits K_2000", "count digits K_100000", "count k out of range",
        "list K_700 masks",
    ],
)
def test_refusals_decide_from_n_and_k_before_any_graph(capsys, monkeypatch, argv, message):
    # K_1100's 1050-forests, a 225-digit count, are named; K_2000's
    # 2000^1998 trees, and K_100000's 3-forests with K_99998's 99998^99996
    # trees among them, have more digits than Python writes, so the cap or
    # the digit limit is named in place of the count
    _never_build_a_graph(monkeypatch)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    start = time.perf_counter()
    code = run(argv.split())
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert elapsed < 1.0
    assert captured.err == f"error: {message}\n"


def test_count_only_past_the_formula_estimate_is_refused(capsys, monkeypatch):
    # with no digit limit the count is not refused for its digits, so the
    # closed form's own estimate refuses K_1,000,000's 20-million-bit
    # (10^6)^(10^6-2) spanning trees before the power is taken
    _never_build_a_graph(monkeypatch)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    start = time.perf_counter()
    code = run(["enumerate", "--complete", "1000000", "--k", "1", "--count-only"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == (
        "error: enumerate on K_1000000: the closed form for the 1-component forests of "
        "K_1000000 is estimated at 3.81e+08 integer operations, over the limit of 1e+08\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            "enumerate --complete 70000 --k 35000 --count-only",
            "enumerate on K_70000: the count of its 35000-component forests has more "
            "digits than the 4300 Python writes (sys.get_int_max_str_digits())",
        ),
        (
            "enumerate --complete 500000 --k 1",
            "K_500000 has more 1-component forests than the MAX_LISTED_FORESTS = 1000000 "
            "enumerate may list; use --count-only to count them",
        ),
        (
            "matroid --complete 500000 --r 3",
            "K_500000 has more 1-component forests than the MAX_LISTED_FORESTS = 1000000 "
            "matroid may list: it truncates every spanning tree",
        ),
    ],
    ids=["count K_70000 k=35000", "list K_500000", "matroid K_500000"],
)
def test_an_unwritable_count_is_refused_before_the_formula_runs(
    capsys, monkeypatch, argv, message
):
    # K_35001's 35001^34999 trees, and K_500000's own, have more digits than
    # Python writes, so the formula, seconds of work here, is never run
    import forest_spectra.cli as cli

    def never(*args):
        raise AssertionError("the formula ran")

    monkeypatch.setattr(cli, "_forests_by_size", never)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    start = time.perf_counter()
    code = run(argv.split())
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("n", [256, 322, 400, 1000])
def test_the_tree_bound_never_refuses_a_writable_count(monkeypatch, n):
    # at Python's smallest digit limit, 640, the bound from K_{n-k+1}'s
    # trees turns at n - k + 1 = 322; around it, a count it refuses has
    # more than 640 digits, and one it passes is the formula's (K_256's
    # 256^254 trees, 612 digits, are written)
    import forest_spectra.cli as cli
    from forest_spectra.forests import _forests_by_size

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
    for k in range(max(1, n - 340), n - 150):
        count = cli._forest_count(n, k)
        if count is None:
            assert _forests_by_size(n, k) >= 10**640, (n, k)
        else:
            assert count == _forests_by_size(n, k)


def test_count_only_answers_k2000_at_k1900_at_once(capsys):
    # t = 100 Horner steps give the 473-digit count; its SHA-256 was
    # recorded from the recurrence table that counted K_n before the formula
    start = time.perf_counter()
    code, report = capture(capsys, ["enumerate", "--complete", "2000", "--k", "1900", "--count-only"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    digits = str(report["result"]["count"]).encode()
    assert hashlib.sha256(digits).hexdigest() == (
        "de6c6f943237b767acb0c27a1cb9c4b0b3243da53a9e721d484df860bcff23ba"
    )


def test_listing_mask_limit_sits_between_k300_and_k500():
    # each of K_n's forests is a C(n,2)-bit mask: K_300's 44,850 single
    # edges are 44,850 * 1,495 = 6.7e7 digits and pass, K_500's 124,750 are
    # 124,750 * 4,159 = 5.2e8 and do not; decided from the estimate, with
    # no forest listed
    from forest_spectra.cli import _require_listable
    from forest_spectra.graphs import complete_graph

    _require_listable(complete_graph(300), 299, "enumerate may list")
    with pytest.raises(ValueError, match="are estimated at 518835250 digit operations"):
        _require_listable(complete_graph(500), 499, "enumerate may list")


def test_enumerate_lists_the_edgeless_forest_from_n_alone(capsys, monkeypatch):
    # k = n leaves one forest, the one with no edge, whatever n is: K_5000
    # (12,497,500 edges) is never built
    _never_build_a_graph(monkeypatch)
    start = time.perf_counter()
    code, report = capture(capsys, ["enumerate", "--complete", "5000", "--k", "5000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["input"] == {"graph": "K_5000", "k": 5000, "count_only": False}
    assert report["result"] == {"count": 1, "forests": [[]]}


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            "spectrum --complete 100000 --k 1",
            "spectrum on K_100000: its 4999950000x4999950000 Hessian is estimated at "
            "249995000025000000000 integer operations, over the limit of 100000000",
        ),
        (
            "spectrum --bipartite 1000 1000 --k 1",
            "spectrum on K_{1000,1000}: its 1000000x1000000 Hessian is estimated at "
            "10000000000000 integer operations, over the limit of 100000000",
        ),
        (
            "bijections --complete 100000 --k 3",
            "bijections on K_100000 would build at least 9 family members on 4999950000 "
            "edges each, 4.50e+10 member-edges, over the limit of 1e+08",
        ),
        (
            "bijections --bipartite 30 30 --k 1",
            "bijections on K_{30,30} would build at least 50939169614663092288781788044"
            "0000000000000000000000000000000000000000000000000000000 family members on 900 "
            "edges each, 4.58e+86 member-edges, over the limit of 1e+08",
        ),
        (
            "bijections --bipartite 100 100 --k 1",
            "bijections on K_{100,100} would build family members on 10000 edges each, "
            "more than 1.80e+308 member-edges, over the limit of 1e+08",
        ),
        (
            "bijections --bipartite 1000 1000 --k 1",
            "bijections on K_{1000,1000} would build family members on 1000000 edges each, "
            "more than 1.80e+308 member-edges, over the limit of 1e+08",
        ),
        (
            "slp --complete 100000 --r 2",
            "slp on K_100000: its 4999950000x4999950000 Hessian is estimated at "
            "249995000025000000000 integer operations, over the limit of 100000000",
        ),
        (
            "slp --bipartite 1000 1000 --r 3",
            "slp on K_{1000,1000}: its 1000000x1000000 Hessian is estimated at "
            "10000000000000 integer operations, over the limit of 100000000",
        ),
    ],
    ids=[
        "spectrum K_100000", "spectrum K_1000,1000", "bijections K_100000", "bijections K_30,30",
        "bijections K_100,100", "bijections K_1000,1000", "slp K_100000", "slp K_1000,1000",
    ],
)
def test_size_guards_refuse_before_any_edge(capsys, monkeypatch, argv, message):
    # K_100000 has 4,999,950,000 edges, which would exhaust memory as tuples;
    # every guard here reads the graph's sizes only.  K_{m,n}'s family
    # members are its anchored pair counts from the closed form, past what
    # a float holds from K_{100,100} on, where the count goes unnamed
    _never_build_a_graph(monkeypatch)
    start = time.perf_counter()
    code = run(argv.split())
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert elapsed < 1.0
    assert captured.err == f"error: {message}\n"


def test_slp_hessian_limit_sits_between_3162_and_3164_edges(capsys, monkeypatch):
    # K_{1581,2}'s 3,162 edges pass the Hessian-size rule and are refused by
    # the derivative-entry count; K_{1582,2}'s 3,164 are refused before it
    assert run(["slp", "--bipartite", "1581", "2", "--r", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: slp on K_{1581,2} at rank 2 needs 19990164 derivative entries "
        "(4997541 2-edge forests with 2^2 submasks each), over the limit of 4e+06\n"
    )
    _never_build_a_graph(monkeypatch)
    assert run(["slp", "--bipartite", "1582", "2", "--r", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: slp on K_{1582,2}: its 3164x3164 Hessian is estimated at 100108960 "
        "integer operations, over the limit of 100000000\n"
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_edgeless_forest_report_bytes_are_pinned(capsys, n):
    # the bytes the listing route wrote for the edgeless forest, before
    # k = n stopped building K_n
    assert run(["enumerate", "--complete", str(n), "--k", str(n)]) == 0
    out = capsys.readouterr().out
    timing = json.loads(out)["timing_ms"]
    report = {
        "command": "enumerate",
        "input": {"count_only": False, "graph": f"K_{n}", "k": n},
        "result": {"count": 1, "forests": [[]]},
        "timing_ms": timing,
        "verdict": "computed",
    }
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_enumerate_lists_up_to_the_cap(capsys, monkeypatch):
    import forest_spectra.cli as cli

    monkeypatch.setattr(cli, "MAX_LISTED_FORESTS", 16)
    code, report = capture(capsys, ["enumerate", "--complete", "4", "--k", "1"])
    assert code == 0 and report["result"]["count"] == 16
    monkeypatch.setattr(cli, "MAX_LISTED_FORESTS", 15)
    assert run(["enumerate", "--complete", "4", "--k", "1"]) == 2
    assert "16 1-component forests" in capsys.readouterr().err


def _listing_the_old_way(n, k, out):
    """The enumerate report of K_n at k as ``json.dumps(indent=2,
    sort_keys=True)`` writes it, with each row a list of edge names built
    from ``_mask_bits``, at the timing ``out`` reports."""
    from forest_spectra import complete_graph, edge_name
    from forest_spectra.forests import _forest_masks, _mask_bits

    g = complete_graph(n)
    names = [edge_name(e) for e in g.edges]
    masks = _forest_masks(g, k) if k < n else [0]
    report = {
        "command": "enumerate",
        "input": {"count_only": False, "graph": f"K_{n}", "k": k},
        "result": {"count": len(masks), "forests": [[names[i] for i in _mask_bits(x)] for x in masks]},
        "timing_ms": json.loads(out)["timing_ms"],
        "verdict": "computed",
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "n,k",
    # k = n - 1 lists single edges, k = n the edgeless forest; K_12's masks
    # are 66 bits, and K_100's single edges are 4,950-bit masks
    [(n, k) for n in range(1, 8) for k in range(1, n + 1)] + [(12, 10), (100, 99)],
    ids=lambda v: str(v),
)
def test_enumerate_writes_the_listing_json_dumps_writes(capsys, n, k):
    assert run(["enumerate", "--complete", str(n), "--k", str(k)]) == 0
    out = capsys.readouterr().out
    assert out == _listing_the_old_way(n, k, out)


@pytest.mark.parametrize("block", [1, 7, 109, 110, 111])
def test_enumerate_listing_blocks_join_seamlessly(capsys, monkeypatch, block):
    # K_5 has 110 two-component forests: blocks of one row, a few rows,
    # and around the whole listing
    from forest_spectra import reports

    monkeypatch.setattr(reports, "LISTING_BLOCK", block)
    assert run(["enumerate", "--complete", "5", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out == _listing_the_old_way(5, 2, out)


def test_enumerate_writes_the_listing_block_by_block(monkeypatch):
    # K_7's 16,807 spanning trees span five blocks; each is written as it
    # is rendered, so no write holds the whole listing
    import io

    from forest_spectra import reports

    class Writes(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return super().write(text)

    stdout = Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["enumerate", "--complete", "7", "--k", "1"]) == 0
    out = stdout.getvalue()
    assert 16807 > 4 * reports.LISTING_BLOCK
    assert out == _listing_the_old_way(7, 1, out)
    assert max(stdout.sizes) < len(out) / 4


@pytest.mark.parametrize(
    "argv,parts", [("spectrum --complete 20 --k 20 --matrix", 4), ("spectrum --bipartite 9 9 --k 16 --matrix", 1.5)]
)
def test_spectrum_writes_the_matrix_block_by_block(monkeypatch, argv, parts):
    # K_20's zero Hessian (190 x 190) spans nine blocks of 22 rows, and
    # K_{9,9}'s at k = 16 (81 x 81) two of 51 and 30; whole rows are written
    # as they are rendered, so no write holds the whole matrix, and the
    # report is json's
    import io

    from forest_spectra import reports

    class Writes(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return super().write(text)

    stdout = Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(argv.split()) == 0
    out = stdout.getvalue()
    report = json.loads(out)
    dim = report["result"]["dimension"]
    assert dim * dim > reports.LISTING_BLOCK
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert max(stdout.sizes) < len(out) / parts


def test_dumps_writes_a_matrix_as_json_writes_its_rows():
    from forest_spectra.reports import LISTING_BLOCK, _Matrix

    for dim in (1, 2, 3, 63, 64, 65, 66, 100):
        # rows of rationals and of strings that need escaping, on both
        # sides of a block's edge
        rows = [[Fraction(i - j, 1 + i % 3) for j in range(dim)] for i in range(dim)]
        text = [[f"{x}\u00e9\"" for x in row] for row in rows]
        for matrix, strings in ((rows, [[*map(str, row)] for row in rows]), (text, text)):
            value = {"a": 1, "matrix": _Matrix(matrix), "z": [2]}
            expected = json.dumps({**value, "matrix": strings}, indent=2, sort_keys=True)
            blocks = list(_dumps(value))
            assert "".join(blocks) == expected, dim
            assert len(blocks) >= dim * dim // LISTING_BLOCK


def test_dumps_writes_a_listing_in_a_dict_as_json_writes_its_rows():
    from itertools import combinations

    from forest_spectra.reports import _Listing

    def rows_of(names, masks):
        return [[names[i] for i in range(len(names)) if x >> i & 1] for x in masks]

    for m, edges in product((1, 2, 5, 40, 90, 91, 200), (1, 2, 3)):
        # names that need escaping, masks narrow and wide, and rows of one
        # edge and of several
        names = [f"{i}-\u00e9\"{'x' * (i % 3)}" for i in range(m)]
        masks = [sum(1 << i for i in c) for c in combinations(range(m), edges)][:500]
        if not masks:  # a listing holds at least one forest
            continue
        value = {"a": [1, "b"], "forests": _Listing(names, masks), "z": {"y": None}}
        expected = json.dumps({**value, "forests": rows_of(names, masks)}, indent=2, sort_keys=True)
        assert "".join(_dumps(value)) == expected, (m, edges)


def test_reports_are_deterministic(capsys):
    _, first = capture(capsys, ["spectrum", "--complete", "5", "--k", "2"])
    _, second = capture(capsys, ["spectrum", "--complete", "5", "--k", "2"])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_verification_failure_exits_1(capsys, monkeypatch):
    # a theorem-check mismatch surfaces as a failed report with exit code 1
    from forest_spectra.cli import _HANDLERS
    from forest_spectra.errors import VerificationFailure

    def boom(args):
        raise VerificationFailure("synthetic mismatch")

    monkeypatch.setitem(_HANDLERS, "enumerate", boom)
    code, report = capture(capsys, ["enumerate", "--complete", "4", "--k", "1"])
    assert code == 1
    assert type(report.pop("timing_ms")) is int
    assert report == {
        "command": "enumerate",
        "input": {},
        "result": {"error": "synthetic mismatch"},
        "verdict": "failed",
    }


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--complete", "5", "--k", "2"], ["slp", "--complete", "5", "--r", "3"]],
    ids=" ".join,
)
def test_structure_violation_is_a_failed_report(argv, capsys, monkeypatch):
    # a Hessian that breaks its entry pattern fails the theorem check (exit
    # 1, the entry named), though StructureViolation is a ValueError; both
    # commands hand their Hessian to the one degree-one certificate
    from forest_spectra import ExactMatrix, edge_name, spectra

    honest = spectra._degree_one_certificate

    def bent(h, g):
        rows = [list(row) for row in h.rows]
        j = [edge_name(e) for e in g.edges].index("2-4")
        rows[0][j] = rows[j][0] = rows[0][j] + 1
        return honest(ExactMatrix(rows), g)

    patch_everywhere(monkeypatch, spectra, "_degree_one_certificate", bent)
    code, report = capture(capsys, argv)
    assert code == 1
    assert type(report.pop("timing_ms")) is int
    assert report == {
        "command": argv[0],
        "input": {},
        "result": {"error": "entries for share-vertex disagree: 7 vs 8 at (1-2, 2-4)"},
        "verdict": "failed",
    }


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "forest_spectra.cli", "spectrum", "--complete", "4", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "computed"  # k = n-2 boundary
    assert report["result"]["eigenvalues"][0]["value"] == "5"


def test_one_parser_serves_every_run_without_carrying_state(capsys, monkeypatch):
    # build_parser is cached per process: a run after --matrix, a usage
    # error, --help or a refusal writes what a fresh interpreter writes
    from forest_spectra.cli import build_parser

    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # help text is wrapped to the terminal
    matrix = ["spectrum", "--complete", "5", "--k", "1", "--matrix"]
    sequence = [
        matrix,
        matrix[:-1],
        ["spectrum", "--complete", "4", "--k", "1", "--bogus"],
        ["--help"],
        ["spectrum", "--complete", "100000", "--k", "1"],
        ["slp", "--bipartite", "3", "3", "--r", "4", "--point=2,-1,1/3,5,7/2,1,3,-4,1/5"],
        matrix,
    ]
    untimed = re.compile(r'\n  "timing_ms": \d+,')
    outcomes = []
    for argv in sequence:
        code = run(argv)
        captured = capsys.readouterr()
        outcomes.append((code, untimed.sub("", captured.out), captured.err))
        fresh = subprocess.run(
            [sys.executable, "-m", "forest_spectra.cli", *argv], capture_output=True, text=True
        )
        assert outcomes[-1] == (fresh.returncode, untimed.sub("", fresh.stdout), fresh.stderr)
    assert "matrix" in json.loads(outcomes[0][1])["result"]
    assert "matrix" not in json.loads(outcomes[1][1])["result"]
    code, out, err = outcomes[2]
    assert code == 2 and not out and err.startswith("usage: forest-spectra ") and "--bogus" in err
    assert outcomes[3][0] == 0 and outcomes[3][1].startswith("usage: forest-spectra")
    assert outcomes[4][0] == 2 and not outcomes[4][1]
    assert json.loads(outcomes[5][1])["verdict"] == "computed"
    assert outcomes[6] == outcomes[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["bijections", "--complete", "6", "--k", "2"],
        ["bijections", "--bipartite", "3", "4", "--k", "2"],
        ["enumerate", "--complete", "6", "--k", "2"],
        ["matroid", "--complete", "5", "--r", "3", "--verify-axioms"],
        ["slp", "--complete", "5", "--r", "3"],
        ["slp", "--bipartite", "3", "3", "--r", "4"],
    ],
    ids=" ".join,
)
def test_success_paths_build_no_forest(capsys, monkeypatch, argv):
    # forests stay edge masks from the search to the report
    from forest_spectra import Forest, complete_graph, spanning_forest

    built = []
    validate = Forest.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(Forest, "__post_init__", counted)
    code, report = capture(capsys, argv)
    assert code == 0 and report["verdict"] in ("verified", "computed")
    assert built == []
    spanning_forest(complete_graph(2), [])
    assert len(built) == 1  # the count sees every construction


@pytest.mark.parametrize(
    "argv,message",
    [
        (["slp", "--complete", "2", "--r", "1"], "K_2 admits no valid rank: slp needs r >= 2 and its graphic matroid has rank 1"),
        (["matroid", "--complete", "1", "--r", "1"], "K_1 admits no valid rank: matroid needs r >= 1 and its graphic matroid has rank 0"),
        (["slp", "--complete", "1", "--r", "2"], "K_1 admits no valid rank: slp needs r >= 2 and its graphic matroid has rank 0"),
    ],
    ids=["slp K_2", "matroid K_1", "slp K_1"],
)
def test_graphs_without_a_valid_rank_exit_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == f"error: {message}"


def test_ranks_out_of_a_nonempty_range_keep_their_messages(capsys):
    assert run(["slp", "--complete", "4", "--r", "1"]) == 2
    assert capsys.readouterr().err.strip() == "error: rank 1 out of range 2..3"
    assert run(["matroid", "--complete", "4", "--r", "4"]) == 2
    assert capsys.readouterr().err.strip() == "error: target rank 4 out of range 1..3"
    assert run(["slp", "--complete", "4", "--r", "4"]) == 2
    assert capsys.readouterr().err.strip() == "error: rank 4 out of range 2..3"


@pytest.mark.parametrize("r", [0, 4])
def test_matroid_refuses_a_rank_before_any_search(capsys, monkeypatch, r):
    from forest_spectra import cli, forests

    def never(*args, **kwargs):
        raise AssertionError("the refused rank reached a forest search")

    monkeypatch.setattr(forests, "_forest_masks", never)
    monkeypatch.setattr(cli, "_forest_masks", never)
    assert run(["matroid", "--complete", "4", "--r", str(r)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == f"error: target rank {r} out of range 1..3"


@pytest.mark.parametrize("r", [-1, 0, 1, 4, 5])
def test_slp_refuses_a_rank_before_any_search(capsys, monkeypatch, r):
    from forest_spectra import forests

    def never(*args, **kwargs):
        raise AssertionError("the refused rank reached a forest search")

    monkeypatch.setattr(forests, "_forest_masks", never)
    monkeypatch.setattr(forests, "_frontier_walk", never)
    assert run(["slp", "--complete", "4", "--r", str(r)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == f"error: rank {r} out of range 2..3"


@pytest.mark.parametrize("r,entries", [(6, 12_845_056), (7, 33_554_432)])
def test_slp_refuses_derivative_maps_over_the_limit_before_any_search(capsys, monkeypatch, r, entries):
    # the frontier count gives the exact entry count: (#r-forests) 2^r
    from forest_spectra import cli, forests, lefschetz

    def never(*args, **kwargs):
        raise AssertionError("the refused instance reached a forest search")

    for module in (cli, forests, lefschetz):
        monkeypatch.setattr(module, "_forest_masks", never)
    start = time.perf_counter()
    assert run(["slp", "--complete", "8", "--r", str(r)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == (
        f"error: slp on K_8 at rank {r} needs {entries} derivative entries "
        f"({entries >> r} {r}-edge forests with 2^{r} submasks each), over the limit of 4e+06"
    )


@pytest.mark.parametrize("m,n,r", [(1, 4, 3), (3, 1, 2)])
def test_slp_refuses_a_part_of_one_vertex_before_any_count(capsys, monkeypatch, m, n, r):
    # K_{1,n} has no closed-form degree-one spectrum, so slp refuses it
    # before the frontier count and the forest search
    from forest_spectra import forests

    def never(*args, **kwargs):
        raise AssertionError("the refused graph reached a forest count")

    for name in ("_forest_masks", "count_forests_constrained"):
        patch_everywhere(monkeypatch, forests, name, never)
    start = time.perf_counter()
    assert run(["slp", "--bipartite", str(m), str(n), "--r", str(r)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.strip() == (
        f"error: slp on K_{{{m},{n}}}: the degree-one spectrum needs m, n >= 2"
    )


@pytest.mark.parametrize(
    "graph,k,need",
    [
        (["--complete", "1"], 1, "n >= 3"),
        (["--complete", "2"], 2, "n >= 3"),
        (["--bipartite", "1", "3"], 2, "m, n >= 2"),
        (["--bipartite", "3", "1"], 1, "m, n >= 2"),
    ],
)
def test_spectrum_refuses_a_graph_without_a_closed_form_before_any_count(
    capsys, monkeypatch, graph, k, need
):
    # K_1, K_2 and K_{1,n} have no closed-form degree-one spectrum, so
    # spectrum refuses them before the Hessian's frontier walk
    from forest_spectra import forests, spectra

    def never(*args, **kwargs):
        raise AssertionError("the refused graph reached the Hessian")

    patch_everywhere(monkeypatch, spectra, "tilde_hessian", never)
    patch_everywhere(monkeypatch, forests, "_pair_counts_by_frontier", never)
    start = time.perf_counter()
    assert run(["spectrum", *graph, "--k", str(k)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert not captured.out
    name = "K_" + (graph[1] if len(graph) == 2 else f"{{{graph[1]},{graph[2]}}}")
    assert captured.err.strip() == f"error: spectrum on {name}: the degree-one spectrum needs {need}"


@pytest.mark.parametrize("n", [150, 300])
def test_spectrum_refuses_an_oversized_hessian_before_building_it(capsys, monkeypatch, n):
    # at k = n no edge is taken, so no frontier walk runs to refuse the
    # C(n,2) x C(n,2) Hessian; --matrix would write its entries, so the
    # size rule refuses it before the zero Hessian is read off the sizes
    from forest_spectra import spectra

    def never(*args):
        raise AssertionError("the oversized Hessian was built")

    patch_everywhere(monkeypatch, spectra, "tilde_hessian", never)
    start = time.perf_counter()
    assert run(["spectrum", "--complete", str(n), "--k", str(n), "--matrix"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    m = n * (n - 1) // 2
    assert not captured.out
    assert captured.err == (
        f"error: spectrum on K_{n}: its {m}x{m} Hessian is estimated at {10 * m * m} "
        "integer operations, over the limit of 100000000\n"
    )


def test_spectrum_hessian_limit_sits_between_k80_and_k81():
    # K_80's 3160^2 entries pass; K_81's 3240^2 do not
    from forest_spectra.cli import _require_hessian_room
    from forest_spectra.graphs import complete_bipartite_graph, complete_graph

    _require_hessian_room(complete_graph(80), "spectrum")
    _require_hessian_room(complete_bipartite_graph(56, 56), "spectrum")
    for g in (complete_graph(81), complete_bipartite_graph(57, 56)):
        with pytest.raises(ValueError, match=re.escape(f"spectrum on {g.name}: its")):
            _require_hessian_room(g, "spectrum")


def _zero_hessian_graphs():
    """(graph flags, V) for K_4..K_7 and K_{2,2}..K_{3,4}."""
    return [(["--complete", str(n)], n) for n in range(4, 8)] + [
        (["--bipartite", str(m), str(n)], m + n) for m, n in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
    ]


@pytest.mark.parametrize(
    "graph,k",
    [(graph, k) for graph, v in _zero_hessian_graphs() for k in (v - 1, v)],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_spectrum_at_k_past_v_minus_2_reads_the_zero_hessian_off_the_sizes(
    capsys, monkeypatch, graph, k
):
    # no forest of at most one edge holds two edges, so every entry is zero:
    # the report, --matrix included, is the one the certificate of the
    # Hessian built by tilde_hessian gives
    import forest_spectra.cli as cli
    from forest_spectra.spectra import _degree_one_certificate, tilde_hessian

    argv = ["spectrum", *graph, "--k", str(k), "--matrix"]
    assert run(argv) == 0
    shortcut = re.sub(r'\n  "timing_ms": \d+,', "", capsys.readouterr().out)
    g = cli._graph_from(cli.build_parser().parse_args(argv))
    h = tilde_hessian(g, k)
    monkeypatch.setattr(cli, "_zero_certificate", lambda g: _degree_one_certificate(h, g))
    assert run(argv) == 0
    built = re.sub(r'\n  "timing_ms": \d+,', "", capsys.readouterr().out)
    assert shortcut == built
    assert json.loads(shortcut)["result"]["matrix"] == [list(map(str, row)) for row in h.rows]


@pytest.mark.parametrize("n", [80, 81, 300])
def test_spectrum_on_kn_at_k_n_builds_no_hessian(capsys, monkeypatch, n):
    # the Hessian-size rule guards a Hessian built or written: without
    # --matrix the zero Hessian is neither, so K_81 and K_300 answer too
    from forest_spectra import spectra

    def never(*args):
        raise AssertionError("the zero Hessian was built or certified")

    for name in ("tilde_hessian", "_degree_one_certificate"):
        patch_everywhere(monkeypatch, spectra, name, never)
    start = time.perf_counter()
    code, report = capture(capsys, ["spectrum", "--complete", str(n), "--k", str(n)])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and report["verdict"] == "computed"
    m = n * (n - 1) // 2
    assert report["result"]["dimension"] == m
    assert report["result"]["eigenvalues"] == [{"multiplicity": m, "value": "0"}]
    assert report["result"]["determinant"] == "0" and report["result"]["spectrum_certified"]


def test_spectrum_checks_the_component_count_before_the_graph(capsys):
    assert run(["spectrum", "--bipartite", "1", "3", "--k", "5"]) == 2
    assert capsys.readouterr().err.strip() == "error: component count k=5 out of range 1..4"


def _grid(command):
    """(graph flags, k or r) for every graph the grid runs ``command`` on:
    K_0..K_5, and K_{m,n} with m, n <= 3 where the command takes it, with
    every k or r from -1 to V + 1."""
    graphs = [(["--complete", str(n)], n) for n in range(6)]
    if command in ("spectrum", "bijections", "slp"):
        graphs += [
            (["--bipartite", str(m), str(n)], m + n) for m in range(4) for n in range(4)
        ]
    return [(flags, value) for flags, v in graphs for value in range(-1, v + 2)]


REPORT_KEYS = {"command", "input", "result", "verdict", "timing_ms"}


@pytest.mark.parametrize("command", ["spectrum", "bijections", "slp", "matroid", "enumerate"])
def test_every_grid_run_keeps_the_output_contract(command, capsys, monkeypatch):
    # exit 0 or 1: one JSON report and a quiet stderr; exit 2: one error
    # line and no report, and for slp and matroid no forest search; an
    # enumerate count exits as its listing does, with the listing's count
    from forest_spectra import forests

    searches = []
    search = forests._forest_masks

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    patch_everywhere(monkeypatch, forests, "_forest_masks", counted)
    flag = "--r" if command in ("slp", "matroid") else "--k"
    extras = ([], ["--count-only"]) if command == "enumerate" else ([],)
    outcomes: dict = {}
    for (graph, value), extra in product(_grid(command), extras):
        argv = [command, *graph, flag, str(value), *extra]
        searches.clear()
        code = run(argv)
        out, err = capsys.readouterr()
        count = json.loads(out)["result"]["count"] if command == "enumerate" and code == 0 else None
        outcomes.setdefault((*graph, value), []).append((code, count))
        if code == 2:
            assert not out, argv
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
            if command in ("slp", "matroid"):
                assert searches == [], argv
        else:
            assert code in (0, 1), argv
            report = json.loads(out)
            assert set(report) == REPORT_KEYS, argv
            assert (code == 0) == (report["verdict"] in ("verified", "computed")), argv
            assert not err, argv
    assert all(len(set(runs)) == 1 for runs in outcomes.values())


# SHA-256 of the whole report without timing_ms, as the golden check takes
# it, for report paths no benchmark instance reaches
PINNED_REPORTS = {
    "bijections --bipartite 3 3 --k 2":
        "4197b3d93fbebf5e9ca1cc2acea74d8949f75b0f295c3bfa28a11bda8abeb2cf",
    "spectrum --complete 5 --k 2":
        "e3d25dba0382038d3926724c68ec425bdb51a756f61e90b7b94e2f745f7978c9",
    "slp --complete 4 --r 3 --point=-2,0,1/3,5,7/2,1":
        "da75bf4f386912dff3871d7eef07d3b8b4d530996d4ea4ce1bea6da17d616b7f",
    # past the ladders' sizes: a 175-row degree-3 Hessian, and K_{3,3}'s
    # spanning-tree form at a fixed point with negative and fractional
    # coordinates
    "slp --complete 7 --r 6":
        "89357a4872084ec59abe9685d7a9b8aaae88f6994f5bd8a0be1487017fc08819",
    "slp --bipartite 3 3 --r 5 --point=2,-1,1/3,5,7/2,1,3,-4,1/5":
        "f6135dcf5b966d8c1e1ed4a1b7096911ca5f41d69117fca57aa56e5f13dde80e",
}


def _pinned(argv, capsys):
    code = run(argv.split())
    facts = load_perfbench("one_pass")._facts(capsys.readouterr().out, code, False)
    assert facts["digest"] == PINNED_REPORTS[argv]
    return facts


def test_bijection_failure_reports_are_pinned(capsys, monkeypatch):
    # the piece-5 map sends each element to itself: every domain element
    # lands outside the codomain and every codomain element fails its
    # round trip, each failure naming its element's edges
    from forest_spectra import bijections

    verify_on = bijections._verify_on

    def identity_forward(name, g, domain, codomain, forward, backward):
        if name.startswith("share-right piece 2"):
            forward = lambda x: x
        return verify_on(name, g, domain, codomain, forward, backward)

    monkeypatch.setattr(bijections, "_verify_on", identity_forward)
    facts = _pinned("bijections --bipartite 3 3 --k 2", capsys)
    assert (facts["exit_code"], facts["verdict"]) == (1, "failed")


def test_sign_prediction_error_report_is_pinned(capsys, monkeypatch):
    from forest_spectra import spectra
    from forest_spectra.errors import VerificationFailure

    def violated(counts, sizes):
        raise VerificationFailure("sign predictions violated: -2p+q")

    patch_everywhere(monkeypatch, spectra, "predicted_signs", violated)
    facts = _pinned("spectrum --complete 5 --k 2", capsys)
    assert (facts["exit_code"], facts["verdict"]) == (1, "failed")


def test_slp_point_report_is_pinned(capsys):
    # a negative, a zero and fractional coordinates, and fractional determinants
    facts = _pinned("slp --complete 4 --r 3 --point=-2,0,1/3,5,7/2,1", capsys)
    assert (facts["exit_code"], facts["verdict"]) == (0, "computed")


def test_pick_raises_on_a_missing_name():
    from forest_spectra.cli import _pick
    from forest_spectra.forests import PairCounts

    assert _pick(PairCounts(1, 2), "p", "q", "r") == {"p": 1, "q": 2}
    with pytest.raises(AttributeError):
        _pick(PairCounts(1, 2), "p", "s")


# report-shaped values: JSON scalars, strings with any character, lists,
# tuples, string-keyed dicts and listing rows (lists of lists of strings)
_report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.lists(st.lists(st.text(max_size=3), max_size=3), max_size=3),
    max_leaves=20,
)


@given(_report_values)
@example({})
@example([])
@example([[]])
@example([[], ["a"]])
@example([["a"], []])
@example(['"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2211 \U0001f332", "]", ",", "a, b]"])
@example([["1-2", "]"], ['",\n', "\ud800"]])
@example({"\u00e9\"": "\t", "]": [","]})
@example([2**64, 2**200, -(2**70), -1, 0])
@example([True, False, None, 1, 0])
@example({"rows": [{"a": [1, True, None]}, [{"b": {}}]], "x": [{}]})
def test_dumps_equals_the_json_indent_encoder(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_raises_on_what_json_cannot_encode():
    assert _dumps([Fraction(1, 2)]) == '[\n  "1/2"\n]'
    for value in ({"a": {1, 2}}, [["a"], [object()]]):
        with pytest.raises(TypeError):
            _dumps(value)


# report values as the commands build them: the same shapes, with exact
# rationals at the leaves, alone, in tuples (a point, a matrix row) and in
# tuples of tuples (a matrix)
_fractions = st.fractions(max_denominator=10**6)
_rational_report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | _fractions,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.lists(st.lists(_fractions, max_size=3).map(tuple), max_size=3).map(tuple),
    max_leaves=20,
)


@given(_rational_report_values)
@example(Fraction(-142, 3))
@example([Fraction(0), Fraction(5), Fraction(-1, 2)])
@example(((Fraction(1), Fraction(2, 3)), (Fraction(2, 3), Fraction(-7))))
@example({"point": (Fraction(1, 5),), "dims": (1, 6, 6, 1), "x": [[Fraction(1)], ["a"]]})
def test_dumps_writes_rationals_as_json_default_str(value):
    # the one place a Fraction becomes text: its exact string, as json's
    # default=str would write it
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True, default=str)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--complete", "4", "--k", "1", "--matrix"],
        ["bijections", "--bipartite", "2", "3", "--k", "2"],
        ["slp", "--complete", "4", "--r", "3"],
        ["matroid", "--complete", "4", "--r", "2", "--verify-axioms"],
        ["enumerate", "--complete", "4", "--k", "2"],
    ],
    ids=" ".join,
)
def test_reports_never_reach_the_json_indent_encoder(capsys, monkeypatch, argv):
    # any indent makes json.dumps fall back to its pure-Python encoder
    dumps = json.dumps

    def no_indent(*args, **kwargs):
        if "indent" in kwargs:
            raise AssertionError("json.dumps was called with an indent")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", no_indent)
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out == dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    ["slp --complete 7 --r 6", "slp --bipartite 3 3 --r 5 --point=2,-1,1/3,5,7/2,1,3,-4,1/5"],
    ids=["K7 r6", "K33 r5 point"],
)
def test_slp_reports_past_the_ladders_are_pinned(argv, capsys):
    facts = _pinned(argv, capsys)
    assert facts["exit_code"] == 0
    assert facts["verdict"] == ("verified" if "--point" not in argv else "computed")


@pytest.mark.parametrize("n,k", [(7, 1), (8, 3)])
def test_a_closed_stdout_ends_quietly_with_the_verdicts_exit_code(n, k):
    # `| head -c 100` reads 100 bytes and closes the pipe: the report's
    # prefix arrives, and neither a traceback nor Python's shutdown flush
    # writes to stderr, whichever of a listing's blocks the pipe closes in
    # (K_8's 76,608 three-component forests are 19 blocks)
    proc = subprocess.Popen(
        [sys.executable, "-m", "forest_spectra.cli", "enumerate", "--complete", str(n), "--k", str(k)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert head.startswith(b'{\n  "command": "enumerate",')


@pytest.mark.parametrize(
    "graph,members,edges",
    [
        (["--complete", "10", "--k", "3"], 3347133, 45),
        (["--bipartite", "6", "6", "--k", "1"], 14556672, 36),
    ],
)
def test_bijections_refuses_families_over_the_limit_before_the_build(
    capsys, monkeypatch, graph, members, edges
):
    # the members are counted in closed form on K_n and by the pair counts
    # the report makes on K_{m,n}, before any family is searched
    from forest_spectra import forests

    def never(*args, **kwargs):
        raise AssertionError("the refused families reached the forest search")

    patch_everywhere(monkeypatch, forests, "_forest_masks", never)
    start = time.perf_counter()
    assert run(["bijections", *graph]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert not captured.out
    name = "K_10" if graph[0] == "--complete" else "K_{6,6}"
    assert captured.err.strip() == (
        f"error: bijections on {name} would build at least {members} family members "
        f"on {edges} edges each, {members * edges:.2e} member-edges, over the limit of 1e+08"
    )


def _family_members(g, k):
    """The members bijections counts before building the families of (g, k)."""
    from forest_spectra import cli
    from forest_spectra.forests import edge_pair_counts, theorem_range
    from forest_spectra.graphs import COMPLETE

    if g.kind == COMPLETE:
        return sum(cli._complete_family_members(g.left_size, k))
    if not theorem_range(g, k):
        return 0
    counts = edge_pair_counts(g, k)
    return counts.p + counts.q + counts.r


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_complete_family_members_are_counted_exactly(n):
    # every per-subset family and, in the theorem range, both anchored
    # families are counted exactly; outside it the anchored families, of at
    # most one forest each, are left out
    from forest_spectra import build_families, complete_graph, theorem_range

    g = complete_graph(n)
    for k in range(1, n + 1):
        fam = build_families(g, k)
        sizes = ("trees_wedge", "trees_matching", "split_wedge", "split_matching")
        per_subset = sum(len(getattr(sf, name)) for sf in fam.per_subset for name in sizes)
        anchored = len(fam.with_wedge) + len(fam.with_matching)
        estimate = _family_members(g, k)
        if theorem_range(g, k):
            assert estimate == per_subset + anchored
        else:
            assert estimate == per_subset and anchored <= 2


def test_complete_pair_counts_build_no_graph(monkeypatch):
    # on K_n, and on a K_W whose labels hold the anchors, p and q are read
    # off the sizes; so are the (t, f) split and bijections' member count
    from forest_spectra import PairCounts, complete_graph, complete_graph_on, pq_decomposition
    from forest_spectra.forests import edge_pair_counts

    _never_build_a_graph(monkeypatch)
    assert edge_pair_counts(complete_graph(6), 2) == PairCounts(57, 68)
    assert edge_pair_counts(complete_graph_on([1, 2, 3, 4, 8, 9]), 2) == PairCounts(57, 68)
    counts = edge_pair_counts(complete_graph(2000), 1000)
    d = pq_decomposition(2000, 1000)
    assert (counts.p, counts.q) == (3 * d.t + d.f, 4 * d.t + d.f)
    assert _family_members(complete_graph(9), 1) == 1_074_168


def test_bipartite_pair_counts_build_no_graph_and_walk_nothing(monkeypatch):
    # on K_{m,n}, p, q and r are read off the sizes too, where the walks
    # listed every edge and refused K_{10,10}
    from forest_spectra import PairCounts, complete_bipartite_graph, forests
    from forest_spectra.forests import edge_pair_counts

    def never(*args, **kwargs):
        raise AssertionError("the pair counts reached a frontier walk")

    monkeypatch.setattr(forests, "_frontier_walk", never)
    _never_build_a_graph(monkeypatch)
    assert edge_pair_counts(complete_bipartite_graph(2, 2), 1) == PairCounts(2, 2, 2)
    for m, n, k in ((3, 4, 2), (10, 10, 1), (20, 20, 10), (1000, 1000, 1), (3, 1000, 500)):
        counts = edge_pair_counts(complete_bipartite_graph(m, n), k)
        assert counts.p > 0 and counts.q > 0 and counts.r > 0
    assert _family_members(complete_bipartite_graph(5, 6), 1) == 1_161_000


def test_the_largest_families_bijections_builds_pass_the_limit():
    from forest_spectra import complete_bipartite_graph, complete_graph
    from forest_spectra.forests import MAX_FRONTIER_WORK

    k9, k56 = complete_graph(9), complete_bipartite_graph(5, 6)
    assert _family_members(k9, 1) == 1_074_168
    assert _family_members(k56, 1) == 1_161_000
    assert _family_members(k9, 1) * k9.edge_count <= MAX_FRONTIER_WORK
    assert _family_members(k56, 1) * k56.edge_count <= MAX_FRONTIER_WORK


def test_no_ladder_bijections_instance_is_refused(monkeypatch):
    # every one reaches the build, which is stopped there
    from forest_spectra import cli

    class Built(Exception):
        pass

    def stop(*args):
        raise Built

    monkeypatch.setattr(cli, "build_families", stop)
    workloads = load_perfbench("workloads")
    argvs = {
        inst.argv
        for name in workloads.WHY
        for inst in workloads.instances(name, 1)
        if inst.argv[0] == "bijections"
    }
    assert argvs
    for argv in argvs:
        with pytest.raises(Built):
            run(list(argv))
