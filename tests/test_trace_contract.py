"""Every function and method the benchmark's traced pass wraps must still
exist in ``forest_spectra``: ``perfbench/tracer.py`` raises ``LookupError``
for a missing one, which would break ``perfbench/run.py --trace 1``.

The names are checked by ``getattr`` only; ``Tracer.install`` patches the
package's modules globally and must not run inside the test suite.
"""

import importlib

import pytest

from conftest import load_perfbench

TRACER = load_perfbench("tracer")
FUNCTIONS = sorted({(module, attr) for module, attr, _span, _counter in TRACER.FUNCTIONS})
METHODS = [(module, cls, attr) for module, cls, attr, _span, _counter in TRACER.METHODS]


@pytest.mark.parametrize("module,attr", FUNCTIONS, ids=[f"{m}.{a}" for m, a in FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"forest_spectra.{module}"), attr, None))


@pytest.mark.parametrize(
    "module,cls,attr", METHODS, ids=[f"{m}.{c}.{a}" for m, c, a in METHODS]
)
def test_traced_method_exists(module, cls, attr):
    klass = getattr(importlib.import_module(f"forest_spectra.{module}"), cls, None)
    assert klass is not None and attr in vars(klass)


def test_the_contract_is_not_empty():
    assert len(FUNCTIONS) > 10 and METHODS
