"""The README's examples run as written: every ``forest-spectra`` line of
its "Command line" block exits 0, and its "Library sketch" block executes
with the values its comments state."""

import json
import re
import shlex
from pathlib import Path

import pytest

from forest_spectra.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S)[1]


COMMANDS = [
    shlex.split(line.split("#", 1)[0])[1:]
    for line in _block("Command line", "bash").splitlines()
    if line.startswith("forest-spectra ")
]


def test_the_command_line_block_has_every_command():
    assert {argv[0] for argv in COMMANDS} == {"spectrum", "bijections", "slp", "matroid", "enumerate"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(argv, capsys):
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    if argv == ["spectrum", "--complete", "4", "--k", "1"]:
        # the line's comment: eigenvalues 16, -2 x2, -4 x3
        assert report["result"]["eigenvalues"] == [
            {"multiplicity": 1, "value": "16"},
            {"multiplicity": 2, "value": "-2"},
            {"multiplicity": 3, "value": "-4"},
        ]


def test_library_sketch_runs():
    namespace: dict = {}
    exec(_block("Library sketch", "python"), namespace)
    params = namespace["params"]
    assert (params.alpha, params.beta, params.gamma) == (0, 7, 8)
    assert namespace["spectrum"].pairs == ((66, 1), (-6, 5), (-9, 4))
    dets = [c.determinant for c in namespace["report"].checks]
    assert dets == [125, -5859375000000, -49152]
