"""The no-floating-point guarantee of ``src/``, checked on the syntax tree:
every value the library computes is an int or a ``Fraction``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "forest_spectra"

# the integer functions of math; the rest of it works in floats
MATH_NAMES = {"comb", "gcd", "lcm", "perm", "prod"}
FLOAT_LIBRARIES = {"numpy", "scipy"}
# the one true division: both operands are Fractions
DIVISION_ALLOWED_IN = {("linalg.py", "RowEchelon.add")}


def float_offences(source: str, filename: str) -> list[str]:
    """Each float literal, use of the name ``float``, import of numpy or
    scipy, math name outside MATH_NAMES, and true division outside
    DIVISION_ALLOWED_IN in ``source``, as "file:line: what"."""
    out: list[str] = []

    def visit(node, scope: tuple[str, ...]) -> None:
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"{where}: the name float")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FLOAT_LIBRARIES:
                    out.append(f"{where}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            top = node.module.split(".")[0]
            if top in FLOAT_LIBRARIES:
                out.append(f"{where}: from {node.module} import")
            elif node.module == "math":
                for alias in node.names:
                    if alias.name not in MATH_NAMES:
                        out.append(f"{where}: math.{alias.name}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_NAMES
        ):
            out.append(f"{where}: math.{node.attr}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if (filename, ".".join(scope)) not in DIVISION_ALLOWED_IN:
                out.append(f"{where}: true division in {'.'.join(scope) or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, filename), ())
    return out


def test_src_has_no_floating_point():
    files = sorted(SRC.glob("*.py"))
    assert files
    offences = [o for path in files for o in float_offences(path.read_text(), path.name)]
    assert offences == []


@pytest.mark.parametrize(
    "source,what",
    [
        ("x = 0.5", "float literal 0.5"),
        ("x = 1e3", "float literal 1000.0"),
        ("x = 2j", "float literal 2j"),
        ("x = float(3)", "the name float"),
        ("import numpy as np", "import numpy"),
        ("import scipy.linalg", "import scipy.linalg"),
        ("from numpy.linalg import eigvalsh", "from numpy.linalg import"),
        ("from math import comb, sqrt", "math.sqrt"),
        ("import math\nx = math.log(2)", "math.log"),
        ("x = 1 / 2", "true division in module"),
        ("def f(x):\n    x /= 2", "true division in f"),
        ("class RowEchelon:\n    def add(self, x):\n        return x / 2", None),
        (
            "class RowEchelon:\n    def rank(self, x):\n        return x / 2",
            "true division in RowEchelon.rank",
        ),
        ("from math import gcd, lcm, perm, prod\nimport math\nx = math.comb(4, 2) // 2", None),
    ],
)
def test_the_check_flags_each_floating_point_construct(source, what):
    found = [o.split(": ", 1)[1] for o in float_offences(source, "linalg.py")]
    assert found == ([what] if what else [])
