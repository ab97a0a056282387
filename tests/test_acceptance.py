"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line on success (run with ``-s`` to see
them); tolerances and runtime budgets are pinned here and nowhere else.

Known red: criterion 9 demands a strict margin over every prior bound at
(d=4, n=11), but the even-degree prior bound is exactly sharp there -- the
quartic threshold IS 1 + sqrt(7), the same algebraic number, so no margin
exists.  The assertion is kept as stated instead of being weakened; see the
README for the factorization that proves the coincidence.
"""

import random
import time

import numpy as np
import pytest

import oracles
from eigencut import (
    articulation_points,
    build_extremal,
    char_poly,
    cheeger_check,
    construction_partition,
    cut_parameter_sweep,
    edge_expansion,
    enumerate_connected_regular,
    f1_poly,
    f2_poly,
    graph_from_edges,
    is_connected,
    is_equitable,
    is_regular,
    lambda2_value,
    monotonicity_chain,
    prior_bounds,
    quotient,
    quotient_even_degree,
    quotient_odd_degree,
    spectrum,
    threshold,
    tridiagonal_reduce,
)
from eigencut.cli import main as cli_main
from eigencut.spectra import VertexPartition

D_MAX = 15
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
QUARTIC_COUNTS = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59, 11: 265, 12: 1544}  # A006820


def valid_pairs(d_max=D_MAX):
    for d in range(3, d_max + 1):
        cs = range(2, d - 1, 2) if d % 2 == 0 else range(1, d)
        for c in cs:
            yield d, c


def test_criterion_01_extremal_construction_audit():
    start = time.time()
    checked = 0
    for d, c in valid_pairs():
        g = build_extremal(d, c)
        assert is_connected(g), (d, c)
        assert is_regular(g) == d, (d, c)
        assert g.n == (2 * d + 4 if d % 2 else 2 * d + 3), (d, c)
        wits = articulation_points(g)
        assert any(sorted(w.branch_degrees) == sorted([c, d - c]) for w in wits), (d, c)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 5.0, f"construction audit took {elapsed:.2f}s"
    print(f"\nCRITERION 1 (construction audit, {checked} graphs, {elapsed:.2f}s): PASS")


def test_criterion_02_lambda2_polynomial_agreement():
    start = time.time()
    for d, c in valid_pairs():
        lam2 = spectrum(build_extremal(d, c)).lambda2
        assert abs(lam2 - lambda2_value(d, c)) < 1e-8, (d, c)
    for d in range(4, D_MAX + 1, 2):
        for c in range(2, d - 1, 2):
            red = tridiagonal_reduce(quotient_even_degree(d, c), d)
            assert char_poly(red).coeffs == f1_poly(d, c).coeffs
    for d in range(5, D_MAX + 1, 2):
        for c in range(2, d - 1):
            red = tridiagonal_reduce(quotient_odd_degree(d, c), d)
            assert char_poly(red).coeffs == f2_poly(d, c).coeffs
    elapsed = time.time() - start
    assert elapsed < 10.0, f"agreement suite took {elapsed:.2f}s"
    print(f"\nCRITERION 2 (lambda2/polynomial agreement, {elapsed:.2f}s): PASS")


def test_criterion_03_tridiagonal_deflation_property():
    rng = random.Random(12345)
    for trial in range(200):
        k = rng.randint(2, 8)
        d = rng.uniform(3.0, 7.0)
        m = np.zeros((k, k))
        for i in range(k):
            if i + 1 < k:
                m[i, i + 1] = rng.uniform(0.05, 1.2)
            if i > 0:
                m[i, i - 1] = rng.uniform(0.05, 1.2)
            m[i, i] = d - m[i].sum()
        assert np.all(m >= 0), "generator must produce non-negative matrices"
        reduced = tridiagonal_reduce(m, d)
        before = np.sort(np.linalg.eigvals(m).real)[::-1]
        after = np.sort(np.linalg.eigvals(reduced).real)[::-1]
        assert abs(before[0] - d) < 1e-9, trial
        assert np.allclose(before[1:], after, atol=1e-9), trial
    print("\nCRITERION 3 (deflation on 200 random row-sum tridiagonals): PASS")


def test_criterion_04_interlacing_suite():
    rng = random.Random(777)
    graphs = []
    while len(graphs) < 30:
        n = rng.randint(4, 14)
        g = graph_from_edges(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45],
        )
        graphs.append(g)
    partitions_checked = 0
    i = 0
    while partitions_checked < 100:
        g = graphs[i % len(graphs)]
        i += 1
        labels = [rng.randrange(rng.randint(1, g.n)) for _ in range(g.n)]
        blocks = {}
        for v, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(v)
        part = VertexPartition(tuple(tuple(b) for b in blocks.values()))
        ev = np.array(spectrum(g).eigenvalues)
        mu = np.sort(np.linalg.eigvals(quotient(g, part)).real)[::-1]
        m, n = len(mu), g.n
        for j in range(m):
            assert ev[j] >= mu[j] - 1e-8
            assert mu[j] >= ev[n - m + j] - 1e-8
        partitions_checked += 1

    for d, c in valid_pairs():
        g = build_extremal(d, c)
        part = construction_partition(d, c)
        assert is_equitable(g, part), (d, c)
        q = quotient(g, part)
        mu = np.sort(np.linalg.eigvals(q).real)[::-1]
        ev = list(spectrum(g).eigenvalues)
        for m_val in mu:
            hit = min(range(len(ev)), key=lambda idx: abs(ev[idx] - m_val))
            assert abs(ev[hit] - m_val) < 1e-8, (d, c, m_val)
            ev.pop(hit)
    print("\nCRITERION 4 (interlacing + equitable embedding): PASS")


def test_criterion_05_monotonicity_and_sweeps():
    for d in range(3, D_MAX + 1):
        vals = [v for _, v in monotonicity_chain(d)]
        assert all(a - b > 1e-6 for a, b in zip(vals, vals[1:])), d
    total_comparisons = 0
    for d in range(3, 9):
        cs = range(2, d - 1, 2) if d % 2 == 0 else range(1, d)
        for c in cs:
            report = cut_parameter_sweep(d, c)
            assert report.passed, (d, c, report.violations)
            total_comparisons += report.comparisons
    assert total_comparisons > 1000
    print(f"\nCRITERION 5 (chains + {total_comparisons} sweep comparisons): PASS")


def test_criterion_06_theorem_exhaustive_verification():
    from eigencut import verify_theorem

    start = time.time()
    rep3, recs3 = verify_theorem(3, 14)
    assert rep3.passed, rep3.counterexamples
    assert len(rep3.equality_cases) == 1
    eq3 = [r for r in recs3 if r.threshold_cmp == "equal"]
    assert eq3[0].n == 10 and eq3[0].iso_extremal
    assert all(
        r.threshold_cmp == "above" for r in recs3 if r.witnesses and r.threshold_cmp != "equal"
    )

    rep4, recs4 = verify_theorem(4, 12)
    assert rep4.passed, rep4.counterexamples
    assert len(rep4.equality_cases) == 1
    eq4 = [r for r in recs4 if r.threshold_cmp == "equal"]
    assert eq4[0].n == 11 and eq4[0].iso_extremal
    assert all(
        r.threshold_cmp == "above" for r in recs4 if r.witnesses and r.threshold_cmp != "equal"
    )
    elapsed = time.time() - start
    assert elapsed < 600.0, f"exhaustive verification took {elapsed:.1f}s"
    cubic_at_14 = sum(1 for r in recs3 if r.n == 14)
    assert cubic_at_14 == 509
    quartic_per_order = {n: sum(1 for r in recs4 if r.n == n) for n in QUARTIC_COUNTS}
    assert quartic_per_order == QUARTIC_COUNTS
    print(
        f"\nCRITERION 6 (exhaustive d=3 n<=14 [{rep3.graphs_checked} graphs], "
        f"d=4 n<=12 [{rep4.graphs_checked} graphs], {elapsed:.1f}s): PASS"
    )


def test_criterion_07_enumeration_oracle():
    for n, expected in CUBIC_COUNTS.items():
        got = sum(1 for _ in enumerate_connected_regular(n, 3))
        assert got == expected, (n, got, expected)
    # cross-check the optimized enumerator against the independent
    # brute-force enumerator (written first) where the latter is feasible
    for n in (4, 6, 8):
        brute = oracles.brute_enumerate_connected_regular(n, 3)
        assert len(brute) == CUBIC_COUNTS[n]
    for n, d in [(5, 4), (6, 4), (7, 4), (8, 4)]:
        mine = sum(1 for _ in enumerate_connected_regular(n, d))
        brute = len(oracles.brute_enumerate_connected_regular(n, d))
        assert mine == brute, (n, d)
    print("\nCRITERION 7 (enumeration counts 1,2,5,19,85,509 + oracle cross-check): PASS")


def test_criterion_08_cheeger_sandwich():
    start = time.time()
    checked = 0
    for n in (4, 6, 8, 10):
        for g in enumerate_connected_regular(n, 3):
            res = cheeger_check(g)
            assert res.passed, (n, res)
            assert res.lower <= res.h + 1e-9 <= res.upper + 1e-9
            # independent naive subset scan agrees with the package search
            assert res.h == pytest.approx(oracles.brute_edge_expansion(g.n, g.edges()))
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    assert checked == 27
    print(f"\nCRITERION 8 (Cheeger sandwich, {checked} cubic graphs, {elapsed:.1f}s): PASS")


def test_criterion_09_prior_bound_sharpness_rows():
    failures = []
    lines = []
    for d, n in [(3, 10), (4, 11)]:
        table = prior_bounds(d, n)
        for name, value in table.bounds.items():
            margin = table.new_threshold - value
            lines.append(f"  d={d} n={n} {name}: margin={margin:.6e}")
            if not margin > 1e-3:
                failures.append((d, n, name, margin))
    print("\nCRITERION 9 margins:")
    for line in lines:
        print(line)
    if failures:
        print("CRITERION 9 (prior-bound sharpness rows): FAIL")
    else:
        print("CRITERION 9 (prior-bound sharpness rows): PASS")
    assert not failures, (
        "strict margin > 1e-3 violated: "
        + "; ".join(f"d={d} n={n} {name} margin={m:.3e}" for d, n, name, m in failures)
        + " -- the even-degree prior bound is exactly sharp at d=4 "
        "(both values are 1+sqrt(7)), so this criterion cannot pass as stated"
    )


def test_criterion_10_csv_determinism_across_runs(tmp_path, capsys):
    outputs = []
    for run in ("1", "2"):
        csv_path = tmp_path / f"exh{run}.csv"
        code = cli_main(
            ["verify", "--d", "3", "--n-max", "10", "--csv", str(csv_path)]
        )
        assert code == 0
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1]

    outputs = []
    for run in ("1", "2"):
        csv_path = tmp_path / f"rnd{run}.csv"
        code = cli_main(
            [
                "verify",
                "--d", "5", "--n-max", "18",
                "--mode", "random", "--samples", "40", "--seed", "42",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    print("\nCRITERION 10 (byte-identical CSV across repeated runs): PASS")
