"""The record contract: every result and value type is a ``records.Record``,
built by position or by name, compared, hashed and printed as the frozen
dataclasses it replaces, immutable, and rebuilt by ``_replace`` through its
checks.  The CLI starts without ``dataclasses`` and the ``inspect`` import
that comes with it, checked in a fresh interpreter and on the syntax tree."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import forest_spectra
from forest_spectra import (
    CompleteParams,
    Forest,
    PairCounts,
    Polynomial,
    Spectrum,
    basis_generating_polynomial,
    bijection_forestbij,
    build_families,
    check_degree_one_lefschetz,
    complete_bipartite_graph,
    complete_graph,
    edge_pair_counts,
    enumerate_forests,
    graded_basis,
    graphic_matroid,
    hilbert_function,
    pq_decomposition,
    predicted_signs,
    slp_check,
    truncate,
    verify_count_inequalities,
)
from forest_spectra.bijections import BijectionFailure
from forest_spectra.lefschetz import _graded
from forest_spectra.records import Record
from forest_spectra.spectra import closed_form_spectrum, structured_params, tilde_hessian

SRC = Path(__file__).resolve().parents[1] / "src"


def _samples() -> dict[str, Record]:
    """One instance of each record class, named by its class, from small inputs."""
    k5 = complete_graph(5)
    k33 = complete_bipartite_graph(3, 3)
    rank3 = truncate(graphic_matroid(k5), 3)
    phi = basis_generating_polynomial(rank3)
    params = structured_params(tilde_hessian(k5, 2), k5)
    complete_fam, bipartite_fam = build_families(k5, 2), build_families(k33, 2)
    slp = slp_check(phi, dict.fromkeys(phi.variables, 1))
    forest = enumerate_forests(k5, 2)[0]
    out = [
        k5,
        forest,
        edge_pair_counts(k5, 2),
        edge_pair_counts(k33, 2),
        pq_decomposition(5, 2),
        phi,
        rank3,
        params,
        structured_params(tilde_hessian(k33, 2), k33),
        closed_form_spectrum(params),
        predicted_signs(edge_pair_counts(k5, 2), 5),
        predicted_signs(edge_pair_counts(k5, 2), 5).quantities[0],
        BijectionFailure("image", forest, "not a forest"),
        bijection_forestbij((1, 2, 3, 4, 5)),
        complete_fam.per_subset[0],
        complete_fam,
        bipartite_fam,
        verify_count_inequalities(bipartite_fam),
        hilbert_function(phi),
        graded_basis(phi, 1),
        slp.checks[0],
        slp,
        check_degree_one_lefschetz(rank3),
        _graded(phi),
    ]
    return {type(x).__name__: x for x in out}


SAMPLES = _samples()

# the 23 record classes: each class in forest_spectra.__all__ that is one,
# the three whose instances only appear inside a report, and _Graded
RECORDS = [
    "BijectionFailure", "BijectionReport", "BipartiteForestFamilies", "BipartiteParams",
    "CompleteForestFamilies", "CompleteParams", "CountInequalityReport", "Decomposition",
    "DegreeOneLefschetzReport", "Forest", "Graph", "GradedBasis", "GradedHessianCheck",
    "HilbertProfile", "Matroid", "PairCounts", "Polynomial", "SignPredictions",
    "SignedQuantity", "SlpReport", "Spectrum", "SplitFamilies", "_Graded",
]  # fmt: skip


def _fields(x: Record) -> tuple:
    return tuple(getattr(x, f) for f in type(x)._fields)


def test_every_record_class_has_a_sample():
    classes = {n: getattr(forest_spectra, n) for n in forest_spectra.__all__}
    public = {n for n, c in classes.items() if isinstance(c, type) and issubclass(c, Record)}
    assert public | {"BijectionFailure", "GradedHessianCheck", "SignedQuantity", "_Graded"} == set(RECORDS)
    assert sorted(c.__name__ for c in Record.__subclasses__()) == sorted(RECORDS)
    assert sorted(SAMPLES) == sorted(RECORDS)


def test_fields_are_the_annotated_names_in_order():
    assert PairCounts._fields == ("p", "q", "r")
    assert CompleteParams._fields == ("alpha", "beta", "gamma", "n")
    assert Forest._fields == ("graph", "vertices", "edges")
    assert Spectrum._fields == ("pairs",)


@pytest.mark.parametrize("name", RECORDS)
def test_construction_by_position_and_by_name(name):
    x = SAMPLES[name]
    cls, values = type(x), _fields(x)
    by_position = cls(*values)
    by_name = cls(**dict(zip(cls._fields, values)))
    mixed = cls(values[0], **dict(zip(cls._fields[1:], values[1:])))
    for y in (by_position, by_name, mixed):
        assert type(y) is cls and _fields(y) == values
        if name != "Polynomial":  # compares its variables and terms only
            assert y == x


@pytest.mark.parametrize("name", RECORDS)
def test_missing_unknown_repeated_or_surplus_arguments_raise_type_error(name):
    x = SAMPLES[name]
    cls, values = type(x), _fields(x)
    first = cls._fields[0]
    with pytest.raises(TypeError):
        cls(**dict(zip(cls._fields[1:], values[1:])))  # first field missing
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        x._replace(bogus=1)


def test_a_field_with_a_class_value_is_optional():
    assert PairCounts(1, 2) == PairCounts(p=1, q=2) == PairCounts(1, 2, None)
    assert PairCounts(q=2, p=1).r is None
    with pytest.raises(TypeError):
        PairCounts(1)


def _hash_or_error(value) -> int | type:
    try:
        return hash(value)
    except TypeError as err:
        return type(err)


@pytest.mark.parametrize("name", RECORDS)
def test_hash_is_the_hash_of_the_field_tuple(name):
    x = SAMPLES[name]
    if name == "Polynomial":  # defines __eq__ alone, so it is unhashable
        with pytest.raises(TypeError):
            hash(x)
    elif name == "Forest":  # two forests of one graph hash by their sets
        assert hash(x) == hash((x.vertices, x.edges))
    else:  # _Graded's fields hold dicts: both raise TypeError then
        assert _hash_or_error(x) == _hash_or_error(_fields(x))


def test_equality_is_by_class_and_fields():
    p = PairCounts(1, 2)
    assert p == PairCounts(1, 2) and p != PairCounts(1, 3)
    assert p.__eq__((1, 2, None)) is NotImplemented
    assert p != (1, 2, None)
    assert forest_spectra.Decomposition(1, 2) != p
    assert len({PairCounts(1, 2), PairCounts(1, 2), PairCounts(2, 1)}) == 2


def test_repr_is_the_dataclass_text():
    assert repr(PairCounts(1, 2)) == "PairCounts(p=1, q=2, r=None)"
    assert repr(PairCounts(3, 4, 5)) == "PairCounts(p=3, q=4, r=5)"
    params = CompleteParams(Fraction(0), Fraction(7), Fraction(8), 6)
    assert repr(params) == (
        "CompleteParams(alpha=Fraction(0, 1), beta=Fraction(7, 1), gamma=Fraction(8, 1), n=6)"
    )
    spectrum = Spectrum(((Fraction(66), 1), (Fraction(-6), 5), (Fraction(-9), 4)))
    assert repr(spectrum) == (
        "Spectrum(pairs=((Fraction(66, 1), 1), (Fraction(-6, 1), 5), (Fraction(-9, 1), 4)))"
    )


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(name):
    x = SAMPLES[name]
    first = type(x)._fields[0]
    before = _fields(x)
    with pytest.raises(AttributeError):
        setattr(x, first, None)
    with pytest.raises(AttributeError):
        setattr(x, "not_a_field", None)
    with pytest.raises(AttributeError):
        delattr(x, first)
    assert _fields(x) == before


@pytest.mark.parametrize("name", RECORDS)
def test_replace_rebuilds_through_the_constructor(name):
    x = SAMPLES[name]
    cls, values = type(x), _fields(x)
    same = x._replace()
    assert same is not x and type(same) is cls and _fields(same) == values
    first = cls._fields[0]
    assert _fields(x._replace(**{first: values[0]})) == values


def test_replace_reruns_validation():
    assert PairCounts(1, 2)._replace(r=3) == PairCounts(1, 2, 3)
    with pytest.raises(ValueError, match="pair counts are nonnegative"):
        PairCounts(1, 2)._replace(p=-1)
    spectrum = Spectrum(((Fraction(4), 1), (Fraction(-1), 3)))
    with pytest.raises(ValueError, match="eigenvalues must be distinct"):
        spectrum._replace(pairs=((Fraction(4), 1), (Fraction(4), 3)))
    # a changed polynomial is cleaned again: zero terms drop out
    phi = Polynomial(("x",), {(1,): 2})
    assert phi._replace(terms={(1,): 0, (2,): 1}).terms == {(2,): Fraction(1)}


def test_the_cli_starts_without_dataclasses_or_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import forest_spectra.cli\n"
        "forest_spectra.cli.build_parser()\n"
        "print(forest_spectra.cli.__file__)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    where, new = proc.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(SRC.resolve())
    new = set(ast.literal_eval(new))
    assert "forest_spectra.records" in new
    assert not new & {"dataclasses", "inspect"}


def _imports(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", sorted((SRC / "forest_spectra").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    imported = _imports(ast.parse(path.read_text(), str(path)))
    assert not {name for name in imported if name.split(".")[0] == "dataclasses"}


def test_the_import_check_sees_every_spelling():
    for source in ("import dataclasses", "from dataclasses import dataclass", "import dataclasses as dc"):
        assert "dataclasses" in _imports(ast.parse(source))
