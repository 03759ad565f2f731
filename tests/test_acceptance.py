"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s to see them;
pytest -v also gives one line per criterion).  Runtime limits are asserted
where stated.
"""

import time
from itertools import combinations

from forest_spectra import (
    ExactMatrix,
    all_ones_point,
    basis_generating_polynomial,
    bijection_forestbij,
    bijection_pr4,
    bijection_q2r5,
    bijections_pr123,
    build_families,
    closed_form_spectrum,
    complete_bipartite_graph,
    complete_graph,
    count_forests_constrained,
    edge,
    edge_pair_counts,
    enumerate_forests,
    exact_determinant,
    graphic_matroid,
    hilbert_function,
    moon_tree_counts,
    pq_decomposition,
    predicted_signs,
    sign_profile,
    slp_check,
    spectrum_determinant,
    structured_params,
    tilde_hessian,
    tilde_hessian_by_counting,
    truncate,
    verify_count_inequalities,
    verify_exchange_axiom,
    verify_spectrum,
    vertex,
)


def _spectrum_bundle(g, k):
    h = tilde_hessian(g, k)
    spectrum = closed_form_spectrum(structured_params(h, g))
    return h, spectrum


def test_criterion_01_k4_matrices_and_eigenvalues():
    start = time.perf_counter()
    g = complete_graph(4)

    h2 = tilde_hessian(g, 2)
    assert h2 == ExactMatrix.from_rows(
        [[0 if i == j else 1 for j in range(6)] for i in range(6)]
    )
    spec2 = closed_form_spectrum(structured_params(h2, g))
    assert spec2.as_list() == (5, -1, -1, -1, -1, -1)
    assert verify_spectrum(h2, spec2)

    h1 = tilde_hessian(g, 1)
    assert h1 == ExactMatrix.from_rows(
        [
            [0, 3, 3, 3, 3, 4],
            [3, 0, 3, 3, 4, 3],
            [3, 3, 0, 4, 3, 3],
            [3, 3, 4, 0, 3, 3],
            [3, 4, 3, 3, 0, 3],
            [4, 3, 3, 3, 3, 0],
        ]
    )
    spec1 = closed_form_spectrum(structured_params(h1, g))
    assert spec1.as_list() == (16, -2, -2, -4, -4, -4)
    assert verify_spectrum(h1, spec1)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS (K_4 matrices and eigenvalue lists exact, {elapsed:.3f}s)")


def test_criterion_02_k22_matrices_and_eigenvalues():
    start = time.perf_counter()
    g = complete_bipartite_graph(2, 2)

    h2 = tilde_hessian(g, 2)
    assert h2 == ExactMatrix.from_rows(
        [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    )
    spec2 = closed_form_spectrum(structured_params(h2, g))
    assert spec2.as_list() == (3, -1, -1, -1)
    assert verify_spectrum(h2, spec2)

    h1 = tilde_hessian(g, 1)
    assert h1 == ExactMatrix.from_rows(
        [[0 if i == j else 2 for j in range(4)] for i in range(4)]
    )
    spec1 = closed_form_spectrum(structured_params(h1, g))
    assert spec1.as_list() == (6, -2, -2, -2)
    assert verify_spectrum(h1, spec1)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2: PASS (K_2,2 matrices and eigenvalue lists exact, {elapsed:.3f}s)")


def test_criterion_03_complete_range_certified():
    start = time.perf_counter()
    instances = 0
    for n in range(4, 8):
        g = complete_graph(n)
        for k in range(1, n - 2):
            h, spectrum = _spectrum_bundle(g, k)
            assert verify_spectrum(h, spectrum), (n, k)
            assert sign_profile(spectrum) == (1, 0, n * (n - 1) // 2 - 1), (n, k)
            det = exact_determinant(h)
            assert det == spectrum_determinant(spectrum) and det != 0, (n, k)
            counts = edge_pair_counts(g, k)
            assert predicted_signs(counts, n).all_satisfied
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 3: PASS ({instances} complete instances certified, {elapsed:.2f}s)")


def test_criterion_03b_k8_certified():
    # the desk-scale limit moved outward: K_8 across the whole theorem range
    start = time.perf_counter()
    g = complete_graph(8)
    for k in range(1, 6):
        h, spectrum = _spectrum_bundle(g, k)
        assert verify_spectrum(h, spectrum), k
        assert sign_profile(spectrum) == (1, 0, 27), k
        det = exact_determinant(h)
        assert det == spectrum_determinant(spectrum) and det != 0, k
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 3b: PASS (K_8 certified for k=1..5, {elapsed:.2f}s)")


def test_criterion_04_bipartite_range_certified():
    start = time.perf_counter()
    instances = 0
    for m in range(2, 5):
        for n in range(2, 5):
            g = complete_bipartite_graph(m, n)
            for k in range(1, m + n - 2):
                h, spectrum = _spectrum_bundle(g, k)
                assert verify_spectrum(h, spectrum), (m, n, k)
                assert sign_profile(spectrum) == (1, 0, m * n - 1), (m, n, k)
                det = exact_determinant(h)
                assert det == spectrum_determinant(spectrum) and det != 0, (m, n, k)
                counts = edge_pair_counts(g, k)
                assert predicted_signs(counts, (m, n)).all_satisfied
                instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 4: PASS ({instances} bipartite instances certified, {elapsed:.2f}s)")


def test_criterion_05_moon_oracle_equivalence():
    start = time.perf_counter()
    e12 = edge(vertex(1), vertex(2))
    e23 = edge(vertex(2), vertex(3))
    e34 = edge(vertex(3), vertex(4))
    for w in range(4, 8):
        g = complete_graph(w)
        adjacent, disjoint = moon_tree_counts(w)
        assert count_forests_constrained(g, 1, required=(e12, e23)) == adjacent == 3 * w ** (w - 4)
        assert count_forests_constrained(g, 1, required=(e12, e34)) == disjoint == 4 * w ** (w - 4)
    elapsed = time.perf_counter() - start
    print(f"criterion 5: PASS (tree counts match 3w^(w-4), 4w^(w-4) for w=4..7, {elapsed:.2f}s)")


def test_criterion_06_decomposition_identities():
    start = time.perf_counter()
    checked = 0
    for n in range(4, 8):
        g = complete_graph(n)
        for k in range(1, n - 2):
            d = pq_decomposition(n, k)
            counts = edge_pair_counts(g, k)
            assert counts.p == 3 * d.t + d.f, (n, k)
            assert counts.q == 4 * d.t + d.f, (n, k)
            # the f-term sums over two-component split families, which need
            # a second marked component; it vanishes exactly for k = 1
            assert d.t > 0
            assert (d.f > 0) == (k >= 2), (n, k)
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 6: PASS (p=3t+f and q=4t+f on {checked} instances, {elapsed:.2f}s)")


def test_criterion_07_bijections_and_inequalities():
    start = time.perf_counter()
    # complete case: every admissible vertex subset of {1..7}
    subsets = 0
    for size in range(0, 4):
        for extra in combinations((5, 6, 7), size):
            record = bijection_forestbij((1, 2, 3, 4) + extra)
            assert record.verified, record
            subsets += 1
    # bipartite case: all sizes 2..4, theorem-range k
    bijections = 0
    for m in range(2, 5):
        for n in range(2, 5):
            g = complete_bipartite_graph(m, n)
            for k in range(1, m + n - 2):
                fam = build_families(g, k)
                assert fam.pair_counts() == edge_pair_counts(g, k)
                records = [bijections_pr123(g, k, i, families=fam) for i in (1, 2, 3)]
                records.append(bijection_pr4(g, k, families=fam))
                records.append(bijection_q2r5(g, k, families=fam))
                for rec in records:
                    assert rec.verified, (m, n, k, rec.name, rec.failures[:1])
                bijections += len(records)
                report = verify_count_inequalities(fam)
                assert report.satisfied, (m, n, k)
                assert report.r_minus_p >= 0 and report.r_minus_q >= 0
                assert report.p_plus_q_minus_r > 0
                if report.left_strict_expected:
                    assert report.r_minus_p > 0, (m, n, k)
                if report.right_strict_expected:
                    assert report.r_minus_q > 0, (m, n, k)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7: PASS ({subsets} subset bijections, {bijections} piece bijections, "
        f"inequality suite on the asserted range, {elapsed:.2f}s)"
    )


def test_criterion_08_matroid_axioms_and_truncations():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        g = complete_graph(n)
        m = graphic_matroid(g)
        assert verify_exchange_axiom(m), n
        for r in range(1, m.rank + 1):
            t = truncate(m, r)
            assert verify_exchange_axiom(t), (n, r)
            assert set(t.bases) == {f.edges for f in enumerate_forests(g, n - r)}, (n, r)
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 8: PASS (exchange axiom and forest bases on {checked} truncations, {elapsed:.2f}s)")


def test_criterion_09_slp_at_desk_scale():
    start = time.perf_counter()
    verified = []
    for n in range(4, 6):
        for r in range(3, n):
            phi = basis_generating_polynomial(truncate(graphic_matroid(complete_graph(n)), r))
            assert hilbert_function(phi).symmetric, (n, r)
            report = slp_check(phi, all_ones_point(phi))
            assert report.holds, (n, r)
            verified.append(f"K_{n} r={r}")
    for m in range(2, 4):
        for n in range(2, 4):
            for r in range(3, m + n):
                g = complete_bipartite_graph(m, n)
                phi = basis_generating_polynomial(truncate(graphic_matroid(g), r))
                assert hilbert_function(phi).symmetric, (m, n, r)
                report = slp_check(phi, all_ones_point(phi))
                assert report.holds, (m, n, r)
                verified.append(f"K_{m},{n} r={r}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 9: PASS (strong Lefschetz at all-ones on {len(verified)} algebras, {elapsed:.2f}s)")


def test_criterion_10_cross_route_agreement():
    start = time.perf_counter()
    instances = 0
    for n in range(4, 8):
        g = complete_graph(n)
        for k in range(1, n - 2):
            assert tilde_hessian(g, k) == tilde_hessian_by_counting(g, k), (n, k)
            instances += 1
    for m in range(2, 5):
        for n in range(2, 5):
            g = complete_bipartite_graph(m, n)
            for k in range(1, m + n - 2):
                assert tilde_hessian(g, k) == tilde_hessian_by_counting(g, k), (m, n, k)
                instances += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 10: PASS (co-occurrence and counting Hessians agree entrywise "
        f"on {instances} instances, {elapsed:.2f}s)"
    )
