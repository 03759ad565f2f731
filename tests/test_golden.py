"""The fixed instances of every benchmark ladder reproduce their golden
reports, so a drift in a ``spectrum``, ``slp``, ``bijections``,
``matroid`` or ``enumerate`` report fails the test suite, not only the
benchmark.

``perfbench/golden.json`` records each instance's verdict and the SHA-256
of its report without ``timing_ms``; the digest is taken by the
benchmark's own ``one_pass._facts``.  The seeded ``--point`` instances
have no digest: their golden entries hold only point-free fields, which
the slp path test compares, and ``test_lefschetz`` checks their
determinants against the ``Fraction`` route.  The benchmark's files are
read, never written.
"""

import json
from pathlib import Path

import pytest

from forest_spectra.cli import run

from conftest import load_perfbench, patch_everywhere

ONE_PASS = load_perfbench("one_pass")
WORKLOADS = load_perfbench("workloads")
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
FIXED = [
    (workload, inst)
    for workload in sorted(WORKLOADS.WHY)
    for inst in WORKLOADS.instances(workload, 0)
    if not inst.seeded
]


def test_each_ladder_has_its_fixed_instances():
    counts = {w: sum(1 for workload, _ in FIXED if workload == w) for w in WORKLOADS.WHY}
    assert counts == {"spectrum-ladder": 39, "slp-ladder": 9, "families-ladder": 29}


@pytest.mark.parametrize("workload,inst", FIXED, ids=[inst.key for _, inst in FIXED])
def test_report_matches_golden(workload, inst, capsys):
    code = run(list(inst.argv))
    facts = ONE_PASS._facts(capsys.readouterr().out, code, inst.seeded)
    assert facts["exit_code"] == 0
    expected = GOLDEN[workload][inst.key]
    assert (facts["digest"], facts["verdict"]) == (expected["digest"], expected["verdict"])


SLP_LADDER = WORKLOADS.instances("slp-ladder", 0)


@pytest.mark.parametrize("inst", SLP_LADDER, ids=lambda inst: inst.key)
def test_slp_reads_its_form_from_one_forest_search(inst, capsys, monkeypatch):
    # the bases of the truncation are the r-edge forests: the report comes
    # from one search's edge masks, with no spanning trees, truncation or
    # basis polynomial, and no Polynomial or tuple-keyed graded cache at all;
    # the degree-one Hessian is read off the same search, with no pair walk,
    # and the forests are counted by the closed forms, with no frontier walk
    from forest_spectra import forests, lefschetz, matroids, polynomials, spectra

    def never(*args):
        raise AssertionError("slp left the edge masks")

    for module, name in (
        (matroids, "graphic_matroid"),
        (matroids, "truncate"),
        (matroids, "basis_generating_polynomial"),
        (forests, "forest_generating_polynomial"),
        (lefschetz, "_graded"),
        (spectra, "tilde_hessian"),
        (forests, "_pair_counts_by_frontier"),
        (forests, "_frontier_walk"),
        (forests, "count_forests_constrained"),
    ):
        patch_everywhere(monkeypatch, module, name, never)
    monkeypatch.setattr(polynomials.Polynomial, "__post_init__", never)
    searches = []
    search = forests._forest_masks

    def counted(*args):
        searches.append(args)
        return search(*args)

    patch_everywhere(monkeypatch, forests, "_forest_masks", counted)
    code = run(list(inst.argv))
    facts = ONE_PASS._facts(capsys.readouterr().out, code, inst.seeded)
    expected = GOLDEN["slp-ladder"][inst.key]
    if inst.seeded:
        # the point-free fields: the golden entry of a seeded point holds only those
        assert {key: facts[key] for key in expected} == expected
    else:
        assert (facts["digest"], facts["verdict"]) == (expected["digest"], expected["verdict"])
    assert len(searches) == 1


@pytest.mark.parametrize(
    "inst",
    [inst for workload, inst in FIXED if inst.argv[0] == "matroid"],
    ids=lambda inst: inst.key,
)
def test_matroid_stays_on_masks(inst, capsys, monkeypatch):
    # the report comes from the spanning-tree and r-edge forest searches'
    # masks alone: no Matroid object, truncation or exchange check on one
    from forest_spectra import cli, forests, matroids

    def never(*args):
        raise AssertionError("matroid built a Matroid object")

    for name in ("graphic_matroid", "truncate", "verify_exchange_axiom"):
        monkeypatch.setattr(matroids, name, never)
        monkeypatch.setattr(cli, name, never, raising=False)
    monkeypatch.setattr(matroids.Matroid, "__post_init__", never)
    searches = []
    search = forests._forest_masks

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(forests, "_forest_masks", counted)
    monkeypatch.setattr(cli, "_forest_masks", counted)
    code = run(list(inst.argv))
    facts = ONE_PASS._facts(capsys.readouterr().out, code, inst.seeded)
    expected = GOLDEN["families-ladder"][inst.key]
    assert (facts["digest"], facts["verdict"]) == (expected["digest"], expected["verdict"])
    assert len(searches) == 2


@pytest.mark.parametrize(
    "key", ["bijections --complete 6 --k 2", "bijections --bipartite 3 4 --k 2"]
)
def test_bijection_images_land_by_membership(key, capsys, monkeypatch):
    # every image of a verified bijection is a member of its target family,
    # so no success path runs a union-find on an image
    from forest_spectra import bijections

    def never(*args):
        raise AssertionError("an image was re-validated by union-find")

    monkeypatch.setattr(bijections, "_acyclic", never)
    code = run(key.split())
    facts = ONE_PASS._facts(capsys.readouterr().out, code, False)
    expected = GOLDEN["families-ladder"][key]
    assert (facts["digest"], facts["verdict"]) == (expected["digest"], expected["verdict"])
