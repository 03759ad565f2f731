"""The package's public names: each module's ``__all__`` is its public
surface, ``forest_spectra.__all__`` is their union, and ``__init__.py``
imports them without listing any name itself."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import FunctionType

import pytest

import forest_spectra

EXPORTS = {
    "BIPARTITE", "BijectionReport", "BipartiteForestFamilies", "BipartiteParams", "COMPLETE",
    "CompleteForestFamilies", "CompleteParams", "CountInequalityReport", "Decomposition",
    "DegreeOneLefschetzReport", "Edge", "ExactMatrix", "Forest", "GradedBasis", "Graph",
    "HilbertProfile", "InsufficientVertices", "Matroid", "PairClass", "PairCounts", "Polynomial",
    "SignPredictions", "SignProfile", "SlpReport", "Spectrum", "SplitFamilies",
    "StructureViolation", "VerificationFailure", "Vertex", "all_ones_point",
    "apply_diff_operator", "apply_monomial_operator", "basis_generating_polynomial",
    "bijection_forestbij", "bijection_pr4", "bijection_q2r5", "bijections_pr123",
    "build_families", "catalecticant_matrix", "check_degree_one_lefschetz", "classify_edge_pair",
    "closed_form_spectrum", "complete_bipartite_graph", "complete_graph", "complete_graph_on",
    "count_forests_constrained", "edge", "edge_name", "edge_pair_counts", "enumerate_forests",
    "enumerate_forests_constrained", "evaluate", "exact_determinant", "exact_rank",
    "forest_generating_polynomial", "graded_basis", "graphic_matroid", "hessian_matrix",
    "higher_hessian", "hilbert_function", "moon_tree_counts", "partial_derivative",
    "pq_decomposition", "predicted_signs", "sign_profile", "slp_check", "spanning_forest",
    "spectrum_determinant", "split_tree_at_edge", "structured_params", "theorem_range",
    "tilde_hessian", "tilde_hessian_by_counting", "truncate", "verify_count_inequalities",
    "verify_exchange_axiom", "verify_spectrum", "vertex", "vertex_name",
}  # fmt: skip

MODULES = {
    info.name: importlib.import_module(f"forest_spectra.{info.name}")
    for info in pkgutil.iter_modules(forest_spectra.__path__)
}
# each public name with the one module whose __all__ lists it
OWNERS = [(name, m) for m, module in MODULES.items() for name in getattr(module, "__all__", ())]


def test_the_package_exports_the_79_names_once_each():
    assert len(EXPORTS) == 79
    assert len(forest_spectra.__all__) == len(set(forest_spectra.__all__)) == 79
    assert set(forest_spectra.__all__) == EXPORTS


def test_the_module_lists_partition_the_package_list():
    assert sorted(name for name, _ in OWNERS) == sorted(forest_spectra.__all__)


def _top_level_assignments(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text())
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("name,owner", OWNERS, ids=[f"{m}.{n}" for n, m in OWNERS])
def test_each_name_is_defined_by_its_module_and_bound_to_it(name, owner):
    module = MODULES[owner]
    obj = getattr(module, name)
    assert getattr(forest_spectra, name) is obj
    # a constant or a type alias is assigned at the module's top level; the
    # source decides, as Python 3.10 counts tuple[int, int] a type whose
    # __module__ is builtins
    if name not in _top_level_assignments(module):
        assert isinstance(obj, (type, FunctionType))
        assert obj.__module__ == module.__name__


def test_the_package_init_lists_no_name():
    # its only strings are the docstring and the version; it star-imports
    # each module and extends __all__ with that module's list
    tree = ast.parse(Path(forest_spectra.__file__).read_text())
    strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert strings == [ast.get_docstring(tree, clean=False), forest_spectra.__version__]
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module]
    assert all([a.name for a in node.names] == ["*"] for node in imports)
    assert {node.module for node in imports} == {m for _, m in OWNERS}
