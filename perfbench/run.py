"""The forest-spectra benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed ladder of CLI invocations (see ``workloads.py``).  A
pass runs the whole ladder through ``forest_spectra.cli.run``, one instance
after another, in a fresh interpreter, so no state survives between passes.
Passes run one at a time; nothing runs in parallel.

Times are speed-adjusted wall times: on a shared host the same pass takes
up to 1.6 times as long from one minute to the next, so each pass samples
the speed of its CPU while it runs and scales its wall times to a fixed
reference speed (``one_pass.SpeedSampler``).  Raw wall times are kept in
the run record.

``--trace 0`` runs as many passes as fit in S seconds (at least one), plus a
few set-up probes, and prints the end-to-end metrics, each the median over the run:

- ``pass_s``: time of one pass, argument parsing and JSON printing included;
- ``max_instance_s``: time of the slowest instance in a pass;
- ``setup_s``: time to import ``forest_spectra.cli`` and build its parser;
- ``peak_rss_mb``: peak resident memory of the pass process.

``--trace 1`` runs a traced, an untraced and a traced pass and prints the
per-layer metrics of ``tracer.LAYERS``: self time per layer (span time
minus child spans, the median of the two traced passes), work counts
(which must repeat exactly), and the tracing overhead (traced minus
untraced ``pass_s``).

Every report is checked against ``golden.json``; an instance fails if it
raises, exits nonzero, or its verdict or report differs from the golden
copy.  ``failed`` / ``attempted`` in the last output line is the error
rate.  A run record with per-instance timings goes to
``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from statistics import median

from tracer import LAYERS, layer_metrics, self_times
from workloads import WHY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
GOLDEN = HERE / "golden.json"
BUDGET_S = 170  # every run must end within 180 s
SETUP_PROBES = 5  # extra set-up samples, so setup_s is a median of several
UNITS = {"pass_s": "s", "max_instance_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS.update((name, unit) for name, unit, *_ in LAYERS)


class Runner:
    """Starts pass processes for one workload and seed, before a deadline."""

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        # a set thread cap would add thread_cap to every report's input
        self.env.pop("FOREST_SPECTRA_THREADS", None)
        # left random, so an ordering that depends on the hash seed fails the golden check
        self.env.pop("PYTHONHASHSEED", None)

    def run(self, tag: str, *, spans: bool = False, probe: bool = False) -> dict:
        out = self.out_dir / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "one_pass.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--out", str(out),
        ]
        if spans:
            cmd += ["--spans", str(self.out_dir / f"{tag}.spans.json")]
        if probe:
            cmd.append("--probe")
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(out) as fh:
            return json.load(fh)


def pass_seconds(p: dict, key: str = "adjusted_s") -> float:
    return sum(i[key] for i in p["instances"])


def judge(inst: dict, golden: dict) -> str | None:
    """Why the instance failed, or None if it matches its golden copy."""
    if "error" in inst:
        return inst["error"]
    if inst["exit_code"] != 0:
        return f"exit code {inst['exit_code']}"
    expected = golden.get(inst["key"])
    if expected is None:
        return "no golden entry"
    wrong = [k for k, v in expected.items() if inst.get(k) != v]
    return f"differs from the golden copy in {', '.join(wrong)}" if wrong else None


def _untraced(runner: Runner, seconds: float) -> tuple[list[dict], dict, dict]:
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(runner.run(f"pass{len(passes)}"))
        now = time.monotonic()
        if now - start + (now - began) > seconds:  # the next pass would overrun
            break
    setups = passes + [runner.run(f"probe{i}", probe=True) for i in range(SETUP_PROBES)]
    metrics = {
        "pass_s": median(pass_seconds(p) for p in passes),
        "max_instance_s": median(max(i["adjusted_s"] for i in p["instances"]) for p in passes),
        "setup_s": median(p["setup_s"] for p in setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    checks = {
        "setup_s": [p["setup_s"] for p in setups],
        "setup_wall_s": [p["setup_wall_s"] for p in setups],
    }
    return passes, metrics, checks


def _traced(runner: Runner) -> tuple[list[dict], dict, dict]:
    # untraced between the traced passes, so drift in machine speed biases the overhead less
    traced = [runner.run("traced0", spans=True)]
    plain = runner.run("untraced")
    traced.append(runner.run("traced1", spans=True))
    selfs = []
    for tag, p in zip(("traced0", "traced1"), traced):
        with open(runner.out_dir / f"{tag}.spans.json") as fh:
            spans = json.load(fh)["spans"]
        selfs.append(self_times(spans, [i["adjusted_s"] / i["wall_s"] for i in p["instances"]]))
    checks = {
        "untraced_pass_s": pass_seconds(plain),
        "traced_pass_s": [pass_seconds(p) for p in traced],
        "self_time_sum_s": [sum(s.values()) for s in selfs],
        "counts_repeat": traced[0]["counts"] == traced[1]["counts"],
    }
    checks["self_sums_within_1pct"] = all(
        abs(s - t) <= 0.01 * t for s, t in zip(checks["self_time_sum_s"], checks["traced_pass_s"])
    )
    overhead = median(checks["traced_pass_s"]) - checks["untraced_pass_s"]
    names = set(selfs[0]) | set(selfs[1])
    self_s = {n: median(s.get(n, 0.0) for s in selfs) for n in names}
    metrics = layer_metrics(self_s, traced[0]["counts"], overhead)
    return [traced[0], plain, traced[1]], metrics, checks


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_DIR": str(ROOT / ".git")}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main() -> int:
    parser = argparse.ArgumentParser(description="forest-spectra benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "forest_spectra" / "cli.py").is_file():
        print(f"error: no forest_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)[args.workload]

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = RUNS / name
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, out_dir)
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    try:
        runner.run("warmup", probe=True)  # compiles bytecode, which users do not pay per run
        if args.trace:
            passes, metrics, checks = _traced(runner)
        else:
            passes, metrics, checks = _untraced(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failures = []
    for number, p in enumerate(passes):
        for inst in p["instances"]:
            inst["failure"] = judge(inst, golden)
            if inst["failure"]:
                failures.append({"pass": number, "key": inst["key"], "why": inst["failure"]})
    attempted = sum(len(p["instances"]) for p in passes)
    trace_ok = not args.trace or (checks["counts_repeat"] and checks["self_sums_within_1pct"])
    for failure in failures:
        print(f"FAILED pass {failure['pass']} {failure['key']}: {failure['why']}", file=sys.stderr)
    if not trace_ok:
        print(f"FAILED trace checks: {checks}", file=sys.stderr)

    record = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "started_utc": started,
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "checks": checks,
        "passes": [
            {
                "wall_s": pass_seconds(p, "wall_s"),
                "adjusted_s": pass_seconds(p),
                "peak_rss_mb": p["peak_rss_mb"],
                "instances": [
                    {k: i.get(k) for k in ("key", "argv", "wall_s", "adjusted_s", "verdict", "failure")}
                    for i in p["instances"]
                ],
            }
            for p in passes
        ],
    }
    if args.trace:
        record["layers"] = [dict(zip(("name", "unit", "better", "should_move", "where"), row)) for row in LAYERS]
    with open(RUNS / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not failures and trace_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
