"""The fixed slp-ladder instances of the benchmark reproduce their golden
reports, so a drift in ``slp`` reports fails the test suite, not only the
benchmark.

``perfbench/golden.json`` records each instance's verdict and the SHA-256
of its report without ``timing_ms``; the digest is taken by the
benchmark's own ``one_pass._facts``.  The seeded ``--point`` instances are
left out: their golden entries hold only point-free fields, and
``test_lefschetz`` checks their determinants against the ``Fraction``
route instead.  The benchmark's files are read, never written.
"""

import json
from pathlib import Path

import pytest

from forest_spectra.cli import run

from conftest import load_perfbench

ONE_PASS = load_perfbench("one_pass")
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["slp-ladder"]
FIXED = [inst for inst in load_perfbench("workloads").instances("slp-ladder", 0) if not inst.seeded]


def test_the_ladder_has_nine_fixed_instances():
    assert len(FIXED) == 9


@pytest.mark.parametrize("inst", FIXED, ids=[inst.key for inst in FIXED])
def test_slp_report_matches_golden(inst, capsys):
    code = run(list(inst.argv))
    facts = ONE_PASS._facts(capsys.readouterr().out, code, inst.seeded)
    assert facts["exit_code"] == 0
    assert (facts["digest"], facts["verdict"]) == (GOLDEN[inst.key]["digest"], GOLDEN[inst.key]["verdict"])
