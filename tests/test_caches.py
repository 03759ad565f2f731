"""No cache in ``src/`` keeps a live object alive, checked on the syntax
tree: ``functools.cache`` and ``lru_cache`` may decorate only functions
whose parameters are all annotated ``int``, so a cache holds numbers and
never a graph, matrix or form that its caller has dropped.  What is built
from an object is held by the object (``cached_property``)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "forest_spectra"

CACHES = {"cache", "lru_cache"}


def _cache_name(node) -> str | None:
    """``cache`` or ``lru_cache`` when ``node`` names one, bare, called or
    through a module (``functools.lru_cache(maxsize=None)``)."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in CACHES else None


def _is_int(annotation) -> bool:
    if isinstance(annotation, ast.Constant):  # a quoted annotation
        return annotation.value == "int"
    return isinstance(annotation, ast.Name) and annotation.id == "int"


def cache_offences(source: str, filename: str) -> list[str]:
    """Each function in ``source`` under a cache decorator with a parameter
    not annotated ``int``, and each use of a cache other than as a
    decorator, as "file:line: what"."""
    out: list[str] = []
    tree = ast.parse(source, filename)
    decorators = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            name = _cache_name(dec)
            if name is None:
                continue
            decorators.add(id(dec.func if isinstance(dec, ast.Call) else dec))
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            for p in params:
                if not _is_int(p.annotation):
                    out.append(f"{filename}:{node.lineno}: {name} on {node.name}({p.arg})")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and _cache_name(node) and id(node) not in decorators:
            out.append(f"{filename}:{node.lineno}: {_cache_name(node)} outside a decorator")
    return out


def test_src_caches_are_keyed_by_ints():
    files = sorted(SRC.glob("*.py"))
    assert files
    offences = [o for path in files for o in cache_offences(path.read_text(), path.name)]
    assert offences == []


@pytest.mark.parametrize(
    "source,what",
    [
        ("@lru_cache(maxsize=None)\ndef f(g: Graph): pass", "lru_cache on f(g)"),
        ("@functools.lru_cache\ndef f(n: int, g): pass", "lru_cache on f(g)"),
        ("@cache\ndef f(*, g: 'Graph'): pass", "cache on f(g)"),
        ("@functools.cache\ndef f(n: int, *rest): pass", "cache on f(rest)"),
        ("@cache\ndef f(**kw: int): pass", None),
        ("@lru_cache(maxsize=None)\ndef f(n: int, k: 'int'): pass", None),
        ("@cache\ndef f(): pass", None),
        ("ends = lru_cache(maxsize=None)(edge_ends)", "lru_cache outside a decorator"),
        ("ends = functools.cache(edge_ends)", "cache outside a decorator"),
        ("@cached_property\ndef ends(self): pass", None),
    ],
)
def test_the_cache_check_fires(source, what):
    offences = cache_offences(source, "x.py")
    if what is None:
        assert offences == []
    else:
        assert len(offences) == 1 and offences[0].endswith(what), offences
