"""One pass over a workload, in the fresh interpreter it was started in.

    python3 perfbench/one_pass.py --workload NAME --seed N --out FILE [--spans FILE | --probe]

Times the import of ``forest_spectra.cli`` plus ``build_parser`` (set-up),
then runs every instance through ``cli.run`` with stdout and stderr
captured, and writes the facts about each instance, with its wall and
speed-adjusted times, to FILE as JSON.  The golden check is made by the
caller.  With ``--spans`` the outside-in tracer is installed after set-up
and its spans are written there; ``--probe`` stops after set-up.
"""

# Only modules the interpreter has loaded at start-up (and signal) are
# imported before set-up is timed, so that set-up pays for the standard-library
# modules the CLI needs, as a user's process does.
import os
import signal
import sys
import time
from bisect import bisect_left

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_TABLE = [tuple(range(i % 16)) for i in range(4096)]


def _probe() -> int:
    """Fixed Python work: integer arithmetic, dict updates, scattered reads."""
    d: dict = {}
    x = 0
    for i in range(450):
        key = (i % 37, i % 11)
        x = (x * 31 + i) % 1000003
        d[key] = d.get(key, 0) + x
    for j in range(0, 4096, 4):
        x += len(_TABLE[j])
    return x


class SpeedSampler:
    """Samples how fast this CPU runs Python while the pass runs.

    On a shared host the same pass takes up to 1.6 times as long from one
    minute to the next, as the other hyperthread of the core gets busy or
    idle.  Every INTERVAL_S a SIGALRM handler times ``_probe``; REF_S over
    a probe's time is the speed at that moment.  An interval's adjusted
    time is its wall time minus the probes run inside it, times the mean
    speed within PAD_S of it: the time it would have taken at the speed
    where the probe takes REF_S.
    """

    INTERVAL_S = 0.01
    PAD_S = 0.1
    REF_S = 2.5e-4

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        time.sleep(self.PAD_S)

    def stop(self) -> None:
        time.sleep(self.PAD_S)
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _probe_times(self, lo: float, hi: float) -> list[float]:
        first, last = bisect_left(self.starts, lo), bisect_left(self.starts, hi)
        return [self.ends[i] - self.starts[i] for i in range(first, last)]

    def adjust(self, start: float, end: float) -> float:
        """Adjusted time of the interval [start, end]."""
        wall = end - start - sum(self._probe_times(start, end))
        around = self._probe_times(start - self.PAD_S, end + self.PAD_S)
        return wall * sum(self.REF_S / p for p in around) / len(around)


def _facts(text: str, code: int, seeded: bool) -> dict:
    """What the golden check compares: the report with timing_ms removed."""
    import hashlib
    import json
    import re

    facts: dict = {"exit_code": code}
    # sort_keys puts "verdict" after "timing_ms", so the line ends in a comma
    stripped, found = re.subn(r'\n  "timing_ms": \d+,', "", text)
    if found != 1:
        facts["error"] = "report has no single top-level timing_ms"
        return facts
    facts["digest"] = hashlib.sha256(stripped.encode()).hexdigest()
    report = json.loads(text)
    facts["verdict"] = report["verdict"]
    if seeded:
        result = report["result"]
        facts["basis_count"] = result["basis_count"]
        facts["hilbert_function"] = result["hilbert_function"]
        facts["hessian_dimensions"] = [h["dimension"] for h in result["hessians"]]
    return facts


def _run_instance(cli, inst) -> dict:
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.run(list(inst.argv))
            finally:
                end = time.perf_counter()
        facts = _facts(out.getvalue(), code, inst.seeded)
    except Exception:  # an instance that raises is a failed instance, not a failed pass
        facts = {"error": traceback.format_exc(limit=-3)}
    if err.getvalue():
        facts["stderr"] = err.getvalue()[-2000:]
    return {"key": inst.key, "argv": list(inst.argv), "start": start, "end": end, **facts}


def main() -> None:
    sampler = SpeedSampler()
    sampler.start()
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import forest_spectra.cli as cli

    cli.build_parser()
    setup = (start, time.perf_counter())
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"forest_spectra was imported from {cli.__file__}, not from {SRC}")

    import argparse
    import json
    import resource

    from workloads import instances

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans")
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    todo = [] if args.probe else instances(args.workload, args.seed)
    results = [_run_instance(cli, inst) for inst in todo]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampler.stop()
    for r in results:
        start, end = r.pop("start"), r.pop("end")
        r["wall_s"], r["adjusted_s"] = end - start, sampler.adjust(start, end)
    summary = {
        "setup_wall_s": setup[1] - setup[0],
        "setup_s": sampler.adjust(*setup),
        "peak_rss_mb": peak_rss_mb,
        "instances": results,
    }
    if tracer is not None:
        tracer.write(args.spans)
        summary["counts"] = tracer.counts
    with open(args.out, "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
