"""Every command, with every flag, over small graphs and component counts
or ranks from -1 to V + 1: a run exits 0, 1 or 2 and never escapes with a
traceback, and a run that exits 2 writes nothing to stdout.

The runs go through ``cli.run`` in-process, under a limit a hundred times
below ``MAX_FRONTIER_WORK``, so that the grid's largest instances (``slp``
on K_{4,4} at r = 7 takes seconds) take the refusal path, from their
estimates alone, and the whole test stays within seconds.
"""

import contextlib
import io
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from forest_spectra import forests
from forest_spectra.cli import run

GRAPHS = [("--complete", n) for n in range(1, 8)] + [
    ("--bipartite", m, n) for m in range(1, 5) for n in range(1, 5)
]


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(["spectrum", "bijections", "slp", "matroid", "enumerate"]))
    # matroid and enumerate take only --complete: one K_{m,n} checks that
    graph = draw(st.sampled_from(GRAPHS if command in ("spectrum", "bijections", "slp") else GRAPHS[:8]))
    vertices = sum(graph[1:])
    edges = comb(graph[1], 2) if len(graph) == 2 else graph[1] * graph[2]
    size = "--r" if command in ("slp", "matroid") else "--k"
    argv = [command, *map(str, graph), size, str(draw(st.sampled_from(range(-1, vertices + 2))))]
    flag = draw(st.booleans())
    if flag and command == "spectrum":
        argv.append("--matrix")
    elif flag and command == "bijections":
        argv += ["--w", str(draw(st.sampled_from(range(-1, vertices + 2))))]
    elif flag and command == "matroid":
        argv.append("--verify-axioms")
    elif flag and command == "enumerate":
        argv.append("--count-only")
    elif flag:
        count = draw(st.sampled_from([edges, edges, max(0, edges - 1), edges + 1]))
        point = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        argv.append("--point=" + ",".join(map(str, draw(st.lists(point, min_size=count, max_size=count)))))
    return argv


@settings(max_examples=1000)
@given(command_lines())
def test_every_small_command_line_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forests, "MAX_FRONTIER_WORK", forests.MAX_FRONTIER_WORK // 100)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not out.getvalue(), argv
        assert err.getvalue().startswith(("error: ", "usage: ")), argv
    if "over the limit" in err.getvalue():
        assert err.getvalue().startswith(f"error: {argv[0]} on K_"), argv
