"""Record golden.json, the benchmark's correctness gate, from the current tree.

    python3 perfbench/record_golden.py

Runs two passes of every workload under different seeds and random hash
seeds, and refuses to record unless both give the same facts.  A fixed
instance is recorded by the SHA-256 of its report with timing_ms removed;
a seeded-point instance by the fields that do not depend on the point.
Re-record only when a change to the reports is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import GOLDEN, Runner
from workloads import WHY

POINT_FREE = ("verdict", "basis_count", "hilbert_function", "hessian_dimensions")


def _expected(inst: dict) -> dict:
    if "error" in inst or inst["exit_code"] != 0:
        raise SystemExit(f"{inst['key']} fails at this tree: {inst.get('error', inst['exit_code'])}")
    if "basis_count" in inst:
        return {k: inst[k] for k in POINT_FREE}
    return {"verdict": inst["verdict"], "digest": inst["digest"]}


def main() -> None:
    golden = {}
    with tempfile.TemporaryDirectory(dir=GOLDEN.parent.parent) as tmp:
        for workload in WHY:
            seen = []
            for seed in (1, 2):
                p = Runner(workload, seed, Path(tmp)).run(f"{workload}-{seed}")
                seen.append({i["key"]: _expected(i) for i in p["instances"]})
            if seen[0] != seen[1]:
                differ = [k for k in seen[0] if seen[0][k] != seen[1].get(k)]
                raise SystemExit(f"{workload}: reports differ between passes: {differ}")
            golden[workload] = seen[0]
            print(f"{workload}: {len(seen[0])} instances", file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
