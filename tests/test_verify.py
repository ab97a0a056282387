"""Threshold sweeps, witness classification, expansion and prior bounds."""

import dataclasses
import hashlib
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

import oracles
from eigencut import (
    Graph,
    VerificationError,
    build_extremal,
    cheeger_check,
    complete,
    cut_branch_values,
    cycle,
    edge_expansion,
    enumerate_connected_regular,
    graph_from_edges,
    lambda2_value,
    prior_bounds,
    records_to_csv,
    spectrum,
    threshold,
    to_graph6,
    verify_theorem,
)
from eigencut.verify import EIG_TOL, _side


class TestWitnessClassification:
    def test_extremal_witnesses(self):
        g = build_extremal(3, 1)
        pairs = cut_branch_values(g, 3)
        assert pairs and all(c == 1 for _, c in pairs)
        g = build_extremal(6, 2)
        pairs = cut_branch_values(g, 6)
        assert any(c == 2 for _, c in pairs)

    def test_two_connected_graph_has_none(self):
        assert cut_branch_values(cycle(8), 2) == ()

    def test_petersen_record(self):
        # 2-connected cubic graph: empty witnesses, lambda2 = 1 sits below
        # the threshold without contradicting anything
        from itertools import combinations

        from eigencut import graph_from_edges, spectrum

        pairs = list(combinations(range(5), 2))
        idx = {p: i for i, p in enumerate(pairs)}
        edges = [
            (idx[a], idx[b])
            for a in pairs
            for b in pairs
            if idx[a] < idx[b] and not (set(a) & set(b))
        ]
        petersen = graph_from_edges(10, edges)
        assert cut_branch_values(petersen, 3) == ()
        assert spectrum(petersen).lambda2 == pytest.approx(1.0, abs=1e-9)
        assert spectrum(petersen).lambda2 < threshold(3).value

    def test_odd_branch_degree_rejected_at_even_degree(self):
        path = graph_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(VerificationError, match="odd branch degree 1 at cut vertex 1 of an even-degree graph"):
            cut_branch_values(path, 4)

    def test_branch_degrees_normalized(self):
        g = build_extremal(8, 2)
        for _, c in cut_branch_values(g, 8):
            assert c <= 4


class TestTheoremSweep:
    def test_cubic_up_to_ten(self):
        report, records = verify_theorem(3, 10)
        assert report.passed
        assert report.graphs_checked == 1 + 2 + 5 + 19
        assert report.cut_vertex_graphs == 1
        assert len(report.equality_cases) == 1
        eq = [r for r in records if r.threshold_cmp == "equal"]
        assert len(eq) == 1 and eq[0].iso_extremal and eq[0].n == 10

    def test_quartic_up_to_nine(self):
        report, _ = verify_theorem(4, 9)
        assert report.passed
        # minimum order of a quartic cut-vertex graph is 11
        assert report.cut_vertex_graphs == 0 and not report.equality_cases

    def test_lemma_bounds_cubic(self):
        _, records = verify_theorem(3, 10)
        assert len(records) == 27
        for rec in records:
            for _, c in rec.witnesses:
                assert c == 1  # cubic cut vertices always leave a bridge side

    def test_lemma_equality_recorded(self):
        _, records = verify_theorem(4, 11)
        equalities = [
            (rec.graph6, c)
            for rec in records
            for _, c in set(rec.witnesses)
            if abs(rec.lambda2 - lambda2_value(4, c)) <= 1e-8
        ]
        assert len(equalities) == 1
        g6, c = equalities[0]
        assert c == 2 and len(g6) > 1

    def test_branch_bound_violation_is_counterexample(self, monkeypatch, capsys):
        from eigencut.cli import main

        # a branch bound of d sits above every lambda2 of a connected graph
        monkeypatch.setattr("eigencut.verify.lambda2_value", lambda d, c: float(d))
        report, records = verify_theorem(3, 10)
        assert report.passed is False
        extremal = [rec.graph6 for rec in records if rec.iso_extremal]
        assert len(extremal) == 1
        # the one cut-vertex graph, listed once
        assert report.counterexamples == tuple(extremal)
        assert main(["verify", "--d", "3", "--n-max", "10"]) == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    @pytest.mark.parametrize(
        "d, n_max, per_order, margin",
        [
            (
                3,
                14,
                {
                    10: (1, 2.7784571182583884, ("I}KGGGB?w",)),
                    # two cut-vertex graphs of order 12 share lambda2 to ~1e-15
                    12: (4, 2.81921257878428, ("K}KGGGA?_B_M", "K}KGGGA?gB?J")),
                    14: (29, 2.841830099366202, ("M}KGGGA?_B?G?L?F?",)),
                },
                (0.040755460525891074, ("K}KGGGA?_B_M", "K}KGGGA?gB?J")),
            ),
            (
                4,
                12,
                {
                    11: (1, 3.6457513110645907, ("J~wWGGB?wF_",)),
                    12: (2, 3.68057442907652, ("K~wWGGB?oD_N",)),
                },
                (0.03482311801192939, ("K~wWGGB?oD_N",)),
            ),
        ],
    )
    def test_smallest_cut_vertex_lambda2_per_order(self, d, n_max, per_order, margin):
        # theta(d, n), the smallest lambda2 of a cut-vertex graph of order n,
        # and the smallest margin over the threshold short of equality; each
        # value comes with every graph within 1e-9 of it
        def smallest(recs, key):
            low = min(key(r) for r in recs)
            return low, tuple(sorted(r.graph6 for r in recs if key(r) - low <= 1e-9))

        _, records = verify_theorem(d, n_max)
        cut = [r for r in records if r.witnesses]
        measured = {}
        for n in sorted({r.n for r in cut}):
            recs = [r for r in cut if r.n == n]
            measured[n] = (len(recs), *smallest(recs, lambda r: r.lambda2))
        assert measured.keys() == per_order.keys()
        for n, (count, lam2, graphs) in per_order.items():
            assert measured[n][0] == count and measured[n][2] == graphs, n
            assert measured[n][1] == pytest.approx(lam2, abs=1e-9), n
        value = threshold(d).value
        gap, graphs = smallest([r for r in cut if r.threshold_cmp != "equal"], lambda r: r.lambda2 - value)
        assert gap == pytest.approx(margin[0], abs=1e-9) and graphs == margin[1]

    def test_every_family_member_is_extremal(self, monkeypatch):
        # at d = 13 the threshold has two extremal graphs: cycle blocks (7) and (4, 3)
        from eigencut import extremal

        family = extremal.extremal_family(13, threshold(13).c_star)
        assert len(family) == 2
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter(family))
        report, records = verify_theorem(13, 30)
        assert report.passed and report.counterexamples == ()
        assert len(report.equality_cases) == 2 and report.cut_vertex_graphs == 2
        assert all(rec.threshold_cmp == "equal" and rec.iso_extremal for rec in records)

    def test_family_members_found_quickly(self, monkeypatch):
        # At d = 21 colour refinement cannot tell cycle blocks (11) from
        # (6, 5), and is_isomorphic backtracks for about a second on that
        # pair; the members' spectra differ by >= 0.55, so comparing spectra
        # first skips it.
        from eigencut import extremal

        family = extremal.extremal_family(21, threshold(21).c_star)
        assert len(family) == 6
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter(family))
        start = time.perf_counter()
        report, records = verify_theorem(21, 46)
        assert time.perf_counter() - start < 1.0
        assert report.passed and len(report.equality_cases) == 6
        assert all(rec.threshold_cmp == "equal" and rec.iso_extremal for rec in records)

    def test_every_branch_family_member_is_extremal(self, monkeypatch):
        # at (d, c) = (9, 2) the branch bound has two extremal graphs:
        # cycle blocks (7) and (4, 3), both above the d = 9 threshold
        from eigencut import extremal

        family = extremal.extremal_family(9, 2)
        assert len(family) == 2
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter(family))
        report, records = verify_theorem(9, 22)
        assert report.passed and report.cut_vertex_graphs == 2 and not report.equality_cases
        assert all(rec.threshold_cmp == "above" and not rec.counterexample for rec in records)

        # a graph at its branch bound that is no family member is a counterexample,
        # in either mode
        monkeypatch.setattr("eigencut.verify.extremal_family", lambda d, c: family[:1])
        report, records = verify_theorem(9, 22)
        other = build_extremal(9, 2, (4, 3))
        assert report.counterexamples == (to_graph6(other),)
        report, records = verify_theorem(9, 22, mode="random", samples=2, seed=0)
        assert not report.passed and report.counterexamples == (to_graph6(other),)
        assert [rec.counterexample for rec in records if rec.graph6 == to_graph6(other)] == [True]

    @pytest.mark.parametrize(
        "case", ["below-threshold", "equality-in-family", "branch-bound-outside-family", "above-every-bound"]
    )
    def test_one_rule_in_both_modes(self, monkeypatch, case):
        # the same graph gets the same verdict whether enumerated or sampled
        from eigencut import extremal

        d, g, cmp = 3, build_extremal(3, 1), "equal"
        if case == "below-threshold":
            thr = dataclasses.replace(threshold(3), value=spectrum(g).lambda2 + 2 * EIG_TOL)
            monkeypatch.setattr("eigencut.verify.threshold", lambda d: thr)
            cmp = "below"
        elif case == "branch-bound-outside-family":
            # at its c = 2 bound, with the family cut to the other member
            d, (first, g), cmp = 9, extremal.extremal_family(9, 2), "above"
            monkeypatch.setattr("eigencut.verify.extremal_family", lambda d, c: (first,))
        elif case == "above-every-bound":
            g = next(h for h in enumerate_connected_regular(12, 3) if cut_branch_values(h, 3))
            assert spectrum(g).lambda2 > lambda2_value(3, 1) + EIG_TOL
            cmp = "above"
        fails = case in ("below-threshold", "branch-bound-outside-family")
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter([g]))
        exhaustive, (rec,) = verify_theorem(d, g.n)
        sampled, (sample,) = verify_theorem(d, g.n, mode="random", samples=1, seed=0)
        assert rec == sample and rec.threshold_cmp == cmp
        assert rec.counterexample is sample.counterexample is fails
        assert exhaustive.counterexamples == sampled.counterexamples == ((to_graph6(g),) if fails else ())
        assert exhaustive.passed is sampled.passed is (not fails)

    def test_counterexamples_listed_once_per_record(self, monkeypatch):
        # random mode can sample one labelled graph twice; the report lists it
        # once for each of its records
        g = build_extremal(3, 1)
        thr = dataclasses.replace(threshold(3), value=spectrum(g).lambda2 + 2 * EIG_TOL)
        monkeypatch.setattr("eigencut.verify.threshold", lambda d: thr)
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter([g, g]))
        report, records = verify_theorem(3, g.n)
        assert not report.passed and report.counterexamples == (to_graph6(g),) * 2
        assert [rec.counterexample for rec in records] == [True, True]

    def test_interleaved_orders_match_one_graph_sweeps(self, monkeypatch):
        # runs of one order are stacked; a later run of an earlier order starts a new stack
        tens = list(enumerate_connected_regular(10, 3))
        graphs = tens[:9] + list(enumerate_connected_regular(12, 3)) + tens[9:]
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter(graphs))
        report, records = verify_theorem(3, 12)
        alone = []
        for g in graphs:
            monkeypatch.setattr("eigencut.verify._generate", lambda *args, g=g: iter([g]))
            alone += verify_theorem(3, 12)[1]
        assert records == sorted(alone, key=lambda r: r.graph6)
        assert report.graphs_checked == 19 + 85 and report.equality_cases

    @pytest.mark.parametrize(
        "args, order_12_stacks",
        [((3, 70, "random", 30, 3), [2]), ((3, 12), [28, 28, 28, 1])],
    )
    def test_stacks_hold_one_order_within_the_entry_cap(self, monkeypatch, args, order_12_stacks):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        _, records = verify_theorem(*args)
        for k, n, m in shapes:
            assert n == m and 1 <= k <= max(1, 4096 // (n * n))
        assert [k for k, n, _ in shapes if n == 12] == order_12_stacks
        # every swept graph is in a stack; the rest are extremal family members
        stacked = Counter(n for k, n, _ in shapes for _ in range(k))
        assert stacked >= Counter(rec.n for rec in records)
        assert stacked.total() - len(records) <= 1
        if args[2:]:
            assert [k for k, n, _ in shapes if n == 64] == [1] * 5

    @pytest.mark.parametrize(
        "args, out, err, digest",
        [
            (
                "--d 3 --n-max 14",
                '{"d": 3, "n_max": 14, "mode": "exhaustive", "pass": true, '
                '"equality_cases": ["I}KGGGB?w"], "counterexamples": [], '
                '"graphs_checked": 621, "cut_vertex_graphs": 34}\n',
                "",
                "3aa79a7af874f474a9074c38779e6a5007fc9f6e4f3a26fd8729895cea548833",
            ),
            (
                "--d 4 --n-max 11",
                '{"d": 4, "n_max": 11, "mode": "exhaustive", "pass": true, '
                '"equality_cases": ["J~wWGGB?wF_"], "counterexamples": [], '
                '"graphs_checked": 350, "cut_vertex_graphs": 1}\n',
                "",
                "008ed2c44284a6e9b00214edbfebe13a87edb379f50ba0219eb25c0f807a3bb2",
            ),
            (
                "--d 3 --n-max 30 --mode random --samples 5000 --seed 7",
                '{"d": 3, "n_max": 30, "mode": "random", "pass": true, '
                '"equality_cases": ["IGF_of_aO", "IMHK@WQ_g", "IQUA`Sc`G", "IcG_XZOS_", "IhjG?cQ?w"], '
                '"counterexamples": [], "graphs_checked": 5000, "cut_vertex_graphs": 25}\n',
                "",
                "c8f39273346f6e29a77eb7d8ddb1668b9a8ae44a7889cf12a203bd1cd605da27",
            ),
            (
                "--d 5 --n-max 18 --mode random --samples 40 --seed 42",
                '{"d": 5, "n_max": 18, "mode": "random", "pass": true, '
                '"equality_cases": [], "counterexamples": [], '
                '"graphs_checked": 40, "cut_vertex_graphs": 0}\n',
                "note: vacuous verdict, no cut vertex in any of the 40 graphs checked\n",
                "128ab7361a3b94f737c926699a97ef3454f0a7019c4cc8b111f21d95424bd13f",
            ),
        ],
        ids=["cubic-n14", "quartic-n11", "random-cubic-seed7", "random-quintic-seed42"],
    )
    def test_reference_runs_pinned(self, tmp_path, capsys, args, out, err, digest):
        # every byte of the reference runs: report, note, and the CSV with its
        # .10g lambda2 column and graph6 ids
        from eigencut.cli import main

        path = tmp_path / "out.csv"
        assert main(["verify", *args.split(), "--csv", str(path)]) == 0
        assert capsys.readouterr() == (out, err)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("offset", [-2, -0.5, 0.5, 2])
    def test_branch_bound_window_edge(self, monkeypatch, offset):
        # the cubic extremal graph alone, its c = 1 bound moved off its lambda2:
        # within EIG_TOL it meets the bound as a family member, 2 EIG_TOL above
        # it is a counterexample, 2 EIG_TOL below it clears the bound
        g = build_extremal(3, 1)
        bound = spectrum(g).lambda2 + offset * EIG_TOL
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter([g]))
        monkeypatch.setattr("eigencut.verify.lambda2_value", lambda d, c: bound)
        report, (rec,) = verify_theorem(3, 10)
        assert rec.threshold_cmp == "equal" and rec.iso_extremal
        assert rec.counterexample == (offset > 1)
        assert report.counterexamples == (() if offset < 1 else (to_graph6(g),))

    @pytest.mark.parametrize("offset, cmp", [(-2, "above"), (-0.5, "equal"), (0.5, "equal"), (2, "below")])
    def test_threshold_window_edge(self, monkeypatch, offset, cmp):
        g = build_extremal(3, 1)
        thr = dataclasses.replace(threshold(3), value=spectrum(g).lambda2 + offset * EIG_TOL)
        monkeypatch.setattr("eigencut.verify._generate", lambda *args: iter([g]))
        monkeypatch.setattr("eigencut.verify.threshold", lambda d: thr)
        report, (rec,) = verify_theorem(3, 10)
        assert rec.threshold_cmp == cmp and rec.iso_extremal == (cmp == "equal")
        assert report.equality_cases == ((to_graph6(g),) if cmp == "equal" else ())
        assert report.counterexamples == ((to_graph6(g),) if cmp == "below" else ())

    def test_random_mode_deterministic(self):
        r1, recs1 = verify_theorem(5, 16, mode="random", samples=30, seed=42)
        r2, recs2 = verify_theorem(5, 16, mode="random", samples=30, seed=42)
        assert r1.passed and records_to_csv(recs1) == records_to_csv(recs2)
        r3, _ = verify_theorem(5, 16, mode="random", samples=30, seed=43)
        assert r3.passed

    def test_random_samples_per_order(self):
        # every sample's order is drawn first, from the run's seed
        orders = range(4, 31, 2)
        _, records = verify_theorem(3, 30, mode="random", samples=300, seed=11)
        rng = random.Random(11)
        assert Counter(r.n for r in records) == Counter(rng.choice(orders) for _ in range(300))

    def test_random_quintic_large_sample(self):
        report, records = verify_theorem(5, 24, mode="random", samples=200, seed=42)
        assert report.passed and report.graphs_checked == 200
        # every sampled cut-vertex graph clears the threshold
        for rec in records:
            if rec.witnesses:
                assert rec.lambda2 >= threshold(5).value - 1e-8

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'cut'"):
            verify_theorem(3, 10, mode="cut")

    def test_random_mode_needs_seed(self):
        with pytest.raises(ValueError):
            verify_theorem(5, 16, mode="random")

    def test_report_json_fields(self):
        report, _ = verify_theorem(3, 8)
        payload = report.to_json()
        for key in ('"d"', '"n_max"', '"mode"', '"pass"', '"equality_cases"', '"counterexamples"'):
            assert key in payload

    def test_report_json_pinned(self):
        # every key, in field order, with ``passed`` written as "pass"
        report, _ = verify_theorem(3, 10)
        assert report.to_json() == (
            '{"d": 3, "n_max": 10, "mode": "exhaustive", "pass": true, '
            '"equality_cases": ["I}KGGGB?w"], "counterexamples": [], '
            '"graphs_checked": 27, "cut_vertex_graphs": 1}'
        )

    def test_csv_layout(self):
        _, records = verify_theorem(3, 10)
        lines = records_to_csv(records).splitlines()
        assert lines[0] == "graph6,n,d,witnesses,lambda2,threshold_cmp,iso_extremal"
        assert len(lines) == 28
        assert lines[1:] == sorted(lines[1:])  # graph6-lexicographic order


class TestEvenDegreeParity:
    def test_even_branch_degrees(self):
        # every cut-vertex witness of an even-degree regular graph has even
        # branch degrees; check across the quartic sweep
        for n in (5, 6, 7, 8, 9, 10, 11):
            if n * 4 % 2:
                continue
            for g in enumerate_connected_regular(n, 4):
                cut_branch_values(g, 4)  # raises on an odd branch degree


class TestCheeger:
    def test_k4(self):
        res = cheeger_check(complete(4))
        assert res.h == pytest.approx(2.0)
        assert res.lower == pytest.approx(2.0)
        assert res.upper == pytest.approx(math.sqrt(24))
        assert res.passed

    def test_c4(self):
        res = cheeger_check(cycle(4))
        assert res.h == pytest.approx(1.0)
        assert res.lower == pytest.approx(1.0)
        assert res.upper == pytest.approx(math.sqrt(8))
        assert res.passed

    def test_c6(self):
        res = cheeger_check(cycle(6))
        assert res.h == pytest.approx(2 / 3)
        assert res.passed

    def test_matches_bruteforce(self):
        for g in enumerate_connected_regular(8, 3):
            assert edge_expansion(g) == pytest.approx(
                oracles.brute_edge_expansion(g.n, g.edges())
            )

    def test_rejects_irregular_and_big(self):
        with pytest.raises(ValueError):
            cheeger_check(graph_from_edges(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError):
            edge_expansion(complete(21))


class TestPriorBounds:
    def test_cubic_row(self):
        table = prior_bounds(3, 10)
        assert table.bounds["cioaba_gu"] == pytest.approx((1 + math.sqrt(17)) / 2)
        assert table.bounds["abiad_et_al"] == pytest.approx(3 - 30 / 48)
        assert table.bounds["liu"] == pytest.approx(1.75)
        assert table.bounds["hong_et_al"] == pytest.approx(3 - 30 / 81)
        assert table.new_threshold == pytest.approx(2.7784571182583884)

    def test_quartic_row(self):
        table = prior_bounds(4, 11)
        assert table.bounds["cioaba_gu"] == pytest.approx(1 + math.sqrt(7))
        # the even-degree bound is exactly sharp at d=4: it coincides with
        # the quartic threshold (both equal 1 + sqrt 7)
        assert table.new_threshold == pytest.approx(table.bounds["cioaba_gu"], abs=1e-9)

    def test_degenerate_order(self):
        with pytest.raises(ValueError):
            prior_bounds(3, 4)
        with pytest.raises(ValueError, match=r"n\*d must be even \(degree sum parity\)"):
            prior_bounds(3, 5)

    def test_threshold_above_priors_when_strict(self):
        for d in range(3, 13):
            n = 2 * d + 4 if d % 2 else 2 * d + 3
            table = prior_bounds(d, n)
            for name, value in table.bounds.items():
                if d == 4 and name == "cioaba_gu":
                    continue  # exact coincidence, no strict margin exists
                assert table.new_threshold > value


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: edge_expansion(Graph(1, (0,))), "edge expansion needs at least two vertices"),
        (lambda: prior_bounds(2, 5), "degree must be at least 3"),
    ],
    ids=["expansion-one-vertex", "prior-bounds-d2"],
)
def test_error_paths(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.value.args == (message,)


@pytest.mark.parametrize("offset, side", [(-2, -1), (-0.5, 0), (0, 0), (0.5, 0), (2, 1)])
def test_side_window(offset, side):
    bound = threshold(3).value
    assert _side(bound + offset * EIG_TOL, bound) == side
