"""Extremal constructions, closed-form polynomials, and their agreement."""

import functools
import hashlib
import math

import numpy as np
import pytest

import oracles
from eigencut import extremal
from eigencut import (
    Polynomial,
    articulation_points,
    build_extremal,
    char_poly,
    construction_partition,
    cut_parameter_sweep,
    cut_partition_quotient,
    enumerate_connected_regular,
    f0_poly,
    f1_poly,
    f2_poly,
    is_connected,
    is_equitable,
    is_isomorphic,
    is_regular,
    lambda2_polynomial,
    lambda2_value,
    largest_root,
    monotonicity_chain,
    optimal_branch,
    quotient,
    quotient_even_degree,
    quotient_odd_degree,
    saturated_cut_reduction,
    spectrum,
    threshold,
    to_graph6,
    tridiagonal_reduce,
)


def valid_pairs(d_max):
    for d in range(3, d_max + 1):
        cs = range(2, d - 1, 2) if d % 2 == 0 else range(1, d)
        for c in cs:
            yield d, c


def partitions(total, least=3):
    """Partitions of ``total`` into parts >= ``least``, parts non-decreasing."""
    if total == 0:
        yield ()
    for k in range(least, total + 1):
        for rest in partitions(total - k, k):
            yield (k,) + rest


def all_specs(d_max):
    """Every valid (d, c, composition): each cycle partition of the odd
    branch degree of at least 3, or () when neither branch degree is one."""
    for d, c in valid_pairs(d_max):
        odd = [k for k in (c, d - c) if k % 2 and k >= 3]
        for comp in partitions(odd[0]) if odd else [()]:
            yield d, c, comp


def least_cut_vertex_order(d):
    """Least order of a connected d-regular graph with a cut vertex, from branch constraints.

    A branch B of branch degree c has a vertex with all d neighbours inside
    B, so |B| >= d+1, and its degree sum d*|B| - c is even.  The cut vertex
    has at least two branches whose branch degrees sum to d.
    """

    def branch(c):
        return min((b for b in (d + 1, d + 2) if (d * b - c) % 2 == 0), default=math.inf)

    @functools.cache
    def branches(rest, top):
        """Least total order of branches with degrees at most ``top`` summing to ``rest``."""
        if rest == 0:
            return 0
        return min(branch(c) + branches(rest - c, c) for c in range(1, min(rest, top) + 1))

    return 1 + branches(d, d - 1)


class TestPolynomials:
    def test_f0_coefficients(self):
        assert f0_poly(3).coeffs == (1.0, 0.0, -7.0, -2.0)
        assert f0_poly(5).coeffs == (1.0, -2.0, -13.0, -2.0)
        with pytest.raises(ValueError):
            f0_poly(4)

    def test_f0_positive_at_degree(self):
        for d in (3, 5, 7, 9, 11, 13, 15):
            assert f0_poly(d)(d) == pytest.approx(2 * d - 2)

    def test_f1_coefficients(self):
        assert f1_poly(4, 2).coeffs == (1.0, 0.0, -12.0, -8.0, 12.0)
        assert f1_poly(6, 2).coeffs == (1.0, -2.0, -20.0, -8.0, 24.0)
        with pytest.raises(ValueError):
            f1_poly(5, 2)
        with pytest.raises(ValueError):
            f1_poly(6, 3)

    def test_f2_coefficients(self):
        assert f2_poly(5, 2).coeffs == (1.0, 0.0, -19.0, -18.0, 24.0)
        assert f2_poly(7, 3).coeffs == (1.0, -2.0, -29.0, -18.0, 48.0)
        with pytest.raises(ValueError):
            f2_poly(6, 2)
        with pytest.raises(ValueError):
            f2_poly(7, 6)

    def test_branch_symmetry(self):
        for d in (4, 6, 8, 10, 12, 14):
            for c in range(2, d - 1, 2):
                assert f1_poly(d, c).coeffs == f1_poly(d, d - c).coeffs
        for d in (5, 7, 9, 11, 13, 15):
            for c in range(2, d - 1):
                assert f2_poly(d, c).coeffs == f2_poly(d, d - c).coeffs

    def test_selector(self):
        assert lambda2_polynomial(5, 1).coeffs == f0_poly(5).coeffs
        assert lambda2_polynomial(5, 4).coeffs == f0_poly(5).coeffs
        assert lambda2_polynomial(5, 3).coeffs == f2_poly(5, 3).coeffs
        assert lambda2_polynomial(6, 4).coeffs == f1_poly(6, 4).coeffs


class TestConstruction:
    def test_bridge_case(self):
        g = build_extremal(3, 1)
        assert g.n == 10 and is_regular(g) == 3 and is_connected(g)
        wits = articulation_points(g)
        assert any(sorted(w.branch_degrees) == [1, 2] for w in wits)
        # the central edge is a bridge: both endpoints are cut vertices
        assert len(wits) == 2

    def test_examples(self):
        g = build_extremal(5, 2, [3])
        assert g.n == 14 and is_regular(g) == 5
        g = build_extremal(4, 2)
        assert g.n == 11 and is_regular(g) == 4

    def test_structure_sweep(self):
        for d, c in valid_pairs(11):
            g = build_extremal(d, c)
            assert is_connected(g)
            assert is_regular(g) == d
            assert g.n == (2 * d + 4 if d % 2 else 2 * d + 3)
            wits = articulation_points(g)
            assert any(sorted(w.branch_degrees) == sorted([c, d - c]) for w in wits)
            # each branch has d+1 vertices at even branch degree, d+2 at odd
            for w in wits:
                for comp, k in zip(w.components, w.branch_degrees):
                    assert len(comp) == (d + 2 if k % 2 else d + 1), (d, c, k)

    def test_labelled_output_pinned(self):
        # graph6 of every construction up to d = 17, so that a change to
        # the blocks, their order or the vertex labelling shows here
        specs = list(all_specs(17))
        text = "".join(to_graph6(build_extremal(d, c, comp)) + "\n" for d, c, comp in specs)
        assert len(specs) == 232
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ddd96375f23962b1b6708d96f995862eb0a65be533904be96faac8ef8def2755"
        )

    def test_smallest_cut_vertex_order(self):
        # No connected d-regular graph with a cut vertex lies below the
        # extremal order, so the extremal graphs are the smallest ones.
        for d, c in valid_pairs(10):
            n0 = least_cut_vertex_order(d)
            assert n0 == (2 * d + 4 if d % 2 else 2 * d + 3), d
            assert build_extremal(d, c).n == n0, (d, c)

    def test_no_cut_vertex_below_smallest_order(self):
        for d, n_max in [(3, 8), (4, 10), (5, 10), (6, 11)]:
            assert n_max < least_cut_vertex_order(d)
            for n in range(d + 1, n_max + 1):
                if n * d % 2 == 0:
                    for g in enumerate_connected_regular(n, d):
                        assert not articulation_points(g), (d, n)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            build_extremal(4, 3)  # odd c for even d
        with pytest.raises(ValueError):
            build_extremal(2, 1)
        with pytest.raises(ValueError):
            build_extremal(5, 5)
        with pytest.raises(ValueError):
            build_extremal(7, 3, [4])  # composition must sum to c=3
        with pytest.raises(ValueError):
            build_extremal(9, 7, [3, 3])  # sums to 6, needs 7
        with pytest.raises(ValueError):
            build_extremal(3, 1, (3,))  # bridge case takes no composition
        with pytest.raises(ValueError):
            build_extremal(4, 2, (3,))

    def test_symmetry_isomorphism(self):
        for d, c in valid_pairs(9):
            if c > d - c:
                continue
            assert is_isomorphic(build_extremal(d, c), build_extremal(d, d - c))

    def test_composition_invariance(self):
        # lambda2 agrees across compositions of the same total
        for comp in ([7], [3, 4]):
            g = build_extremal(9, 7, comp)
            assert is_regular(g) == 9
            assert spectrum(g).lambda2 == pytest.approx(lambda2_value(9, 7), abs=1e-8)
        for comp in ([7], [3, 4]):  # odd d, even c: total is d - c
            g = build_extremal(9, 2, comp)
            assert is_regular(g) == 9
            assert spectrum(g).lambda2 == pytest.approx(lambda2_value(9, 2), abs=1e-8)
        with pytest.raises(ValueError):
            build_extremal(9, 3, [6])  # c=3 is odd: composition must sum to 3

    def test_lambda2_matches_root(self):
        for d, c in valid_pairs(9):
            lam2 = spectrum(build_extremal(d, c)).lambda2
            assert lam2 == pytest.approx(lambda2_value(d, c), abs=1e-8)


class TestQuotients:
    def test_closed_forms_match_actual_partitions(self):
        for d, c in [(4, 2), (6, 4), (8, 2)]:
            g = build_extremal(d, c)
            p = construction_partition(d, c)
            assert is_equitable(g, p)
            assert np.allclose(quotient(g, p), quotient_even_degree(d, c))
        for d, c in [(5, 3), (7, 3), (9, 5)]:
            g = build_extremal(d, c)
            p = construction_partition(d, c)
            assert is_equitable(g, p)
            assert np.allclose(quotient(g, p), quotient_odd_degree(d, c))

    def test_known_rows(self):
        b1 = quotient_even_degree(4, 2)
        assert np.allclose(b1[1], [3, 0, 1, 0, 0])
        assert np.allclose(b1[0], [2, 2, 0, 0, 0])
        b2 = quotient_odd_degree(5, 3)
        assert np.allclose(b2[1], [4, 0, 1, 0, 0])
        # full matrices, exactly; (5, 2) is the mirrored even-c form with c-3 = -1
        assert np.array_equal(
            b1,
            [[2, 2, 0, 0, 0], [3, 0, 1, 0, 0], [0, 2, 0, 2, 0], [0, 0, 1, 0, 3], [0, 0, 0, 2, 2]],
        )
        assert np.array_equal(
            quotient_odd_degree(5, 2),
            [[3, 2, 0, 0, 0], [5, -1, 1, 0, 0], [0, 2, 0, 3, 0], [0, 0, 1, 1, 3], [0, 0, 0, 3, 2]],
        )
        assert np.array_equal(
            saturated_cut_reduction(5, 3, 4, 4),
            [[-2, 1, 0, 0], [4, 1, 2, 0], [0, 3, 2, 4], [0, 0, 1, -1]],
        )

    def test_row_sums(self):
        for d, c in valid_pairs(15):
            if c in (1, d - 1):
                continue
            m = quotient_odd_degree(d, c) if d % 2 else quotient_even_degree(d, c)
            assert np.allclose(m.sum(axis=1), d)

    def test_reductions_give_f_polynomials(self):
        # exactly: the reductions have integer entries, so char_poly is exact
        for d in range(4, 16, 2):
            for c in range(2, d - 1, 2):
                red = tridiagonal_reduce(quotient_even_degree(d, c), d)
                assert char_poly(red).coeffs == f1_poly(d, c).coeffs
        for d in range(5, 16, 2):
            for c in range(2, d - 1):
                red = tridiagonal_reduce(quotient_odd_degree(d, c), d)
                assert char_poly(red).coeffs == f2_poly(d, c).coeffs

    def test_cut_partition_reduction_identities(self):
        b3 = cut_partition_quotient(4, 2, 3, 3, 6, 6)
        assert np.allclose(b3.sum(axis=1), 4)
        assert np.allclose(
            tridiagonal_reduce(b3, 4), saturated_cut_reduction(4, 2, 3, 3)
        )
        # at the minimal block orders the saturated reduction is the
        # construction-partition reduction
        assert np.allclose(
            saturated_cut_reduction(6, 2, 5, 3),
            tridiagonal_reduce(quotient_even_degree(6, 2), 6),
        )
        assert np.allclose(
            saturated_cut_reduction(5, 3, 4, 4),
            tridiagonal_reduce(quotient_odd_degree(5, 3), 5),
        )

    def test_branch_params_validation(self):
        with pytest.raises(ValueError):
            cut_partition_quotient(4, 2, 2, 3, 6, 6)  # p too small
        with pytest.raises(ValueError):
            cut_partition_quotient(4, 2, 3, 2, 6, 6)  # q too small
        with pytest.raises(ValueError):
            cut_partition_quotient(4, 2, 3, 3, 7, 6)  # r > cp
        cut_partition_quotient(4, 2, 3, 3, 6, 6)

    def test_saturated_reduction_is_cut_partition_reduction(self):
        # saturated_cut_reduction accepts exactly the block orders the
        # saturated cut partition admits, d+1-c <= p <= d-1 and c+1 <= q <= d-1
        accepted = 0
        for d in range(3, 13):
            for c in range(1, d):
                for p in range(d + 3):
                    for q in range(d + 3):
                        try:
                            want = cut_partition_quotient(d, c, p, q, c * p, (d - c) * q)
                        except ValueError as e:
                            with pytest.raises(ValueError) as info:
                                saturated_cut_reduction(d, c, p, q)
                            assert info.value.args == e.args, (d, c, p, q)
                            continue
                        got = saturated_cut_reduction(d, c, p, q)
                        assert np.array_equal(got, tridiagonal_reduce(want, d)), (d, c, p, q)
                        assert d + 1 - c <= p <= d - 1 and c + 1 <= q <= d - 1
                        accepted += 1
        assert accepted == 355


class TestThresholds:
    def test_values(self):
        t3 = threshold(3)
        assert t3.c_star == 1
        assert t3.value == pytest.approx(2.7784571182583884, abs=1e-10)
        t4 = threshold(4)
        assert t4.c_star == 2
        assert t4.value == pytest.approx(3.6457513110645907, abs=1e-10)
        t5 = threshold(5)
        assert t5.c_star == 2
        assert t5.poly.coeffs == (1.0, 0.0, -19.0, -18.0, 24.0)
        assert t5.value == pytest.approx(
            oracles.bisect_largest_root([1.0, 0.0, -19.0, -18.0, 24.0], 4, 5), abs=1e-9
        )

    def test_exact_values(self):
        # the correctly rounded largest roots, bit for bit
        assert lambda2_value(3, 1) == 2.778457118258389
        assert lambda2_value(4, 2) == 3.6457513110645907
        assert all(type(c) is int for c in lambda2_polynomial(7, 3).coeffs)

    def test_quartic_threshold_is_one_plus_sqrt7(self):
        # f1(4, 2) = (x^2 - 2x - 6)(x^2 + 2x - 2), so the quartic threshold is
        # exactly 1 + sqrt(7), the even-degree Cioaba-Gu bound at d = 4
        a, b = (1, -2, -6), (1, 2, -2)
        product = [sum(a[i] * b[k - i] for i in range(3) if 0 <= k - i < 3) for k in range(5)]
        assert f1_poly(4, 2).coeffs == tuple(product)
        assert lambda2_value(4, 2) == largest_root(Polynomial(a), 3, 4) == 3.6457513110645907

    def test_optimal_branch(self):
        assert [optimal_branch(d) for d in range(3, 16)] == [
            1, 2, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 7,
        ]

    def test_threshold_in_band(self):
        for d in range(3, 16):
            t = threshold(d)
            assert d - 1 < t.value < d
            assert is_regular(t.extremal_graph) == d

    def test_graph_built_on_first_read(self, monkeypatch):
        calls = []
        build = extremal.build_extremal

        def counted(d, c, composition=None):
            calls.append((d, c))
            return build(d, c, composition)

        monkeypatch.setattr(extremal, "build_extremal", counted)
        for d in range(3, 31):
            t = threshold(d)
            assert calls == []  # the threshold is a root; no graph is built for it
            g = t.extremal_graph
            assert calls == [(d, t.c_star)]
            assert t.extremal_graph is g  # read twice, built once
            assert g == build(d, t.c_star)
            calls.clear()

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            threshold(2)


class TestMonotonicity:
    def test_chain_shapes(self):
        assert [c for c, _ in monotonicity_chain(8)] == [2, 4]
        assert [c for c, _ in monotonicity_chain(7)] == [1, 2, 3]
        assert len(monotonicity_chain(4)) == 1
        assert len(monotonicity_chain(3)) == 1

    def test_chains_strictly_decreasing(self):
        for d in range(3, 16):
            vals = [v for _, v in monotonicity_chain(d)]
            assert all(a > b + 1e-6 for a, b in zip(vals, vals[1:]))

    def test_chain_ends_at_threshold(self):
        for d in range(3, 16):
            assert monotonicity_chain(d)[-1][1] == pytest.approx(threshold(d).value)


class TestSweeps:
    def test_fact_sweep_examples(self):
        for (d, c), comparisons in {(5, 2): 32, (6, 2): 128, (7, 3): 332, (8, 4): 1308}.items():
            rep = cut_parameter_sweep(d, c)
            assert rep.passed and rep.comparisons == comparisons, (d, c)

    def test_spot_directions(self):
        # larger cross-edge count r lowers the top eigenvalue
        from eigencut.spectra import tridiagonal_eigenvalues

        def top_after_reduce(d, c, p, q, r, t):
            m = cut_partition_quotient(d, c, p, q, r, t)
            return tridiagonal_eigenvalues(tridiagonal_reduce(m, d))[0]

        hi_r = top_after_reduce(6, 2, 5, 3, 10, 9)
        lo_r = top_after_reduce(6, 2, 5, 3, 8, 9)
        assert lo_r > hi_r
        # larger outer block order p raises the top eigenvalue of the
        # saturated reduction (a p-run the (8, 4) sweep checks)
        from eigencut.spectra import tridiagonal_eigenvalues as te

        low_p = te(saturated_cut_reduction(8, 4, 5, 5))[0]
        high_p = te(saturated_cut_reduction(8, 4, 6, 5))[0]
        assert high_p > low_p

    def test_degenerate_grid_passes(self):
        rep = cut_parameter_sweep(3, 1)
        assert rep.passed and rep.comparisons == 0

    def test_one_solve_per_grid_point(self, monkeypatch):
        calls, saturated = [], []
        solve, reduce = extremal.cut_partition_quotient, extremal.saturated_cut_reduction

        def counted(d, c, p, q, r, t):
            calls.append((p, q, r, t))
            return solve(d, c, p, q, r, t)

        def counted_saturated(d, c, p, q):
            saturated.append((p, q))
            return reduce(d, c, p, q)

        monkeypatch.setattr(extremal, "cut_partition_quotient", counted)
        monkeypatch.setattr(extremal, "saturated_cut_reduction", counted_saturated)
        assert cut_parameter_sweep(6, 2).passed
        assert len(calls) == len(set(calls)) == 81
        assert saturated == []  # the saturated points are read from the grid table

    def test_flat_eigenvalue_fails_every_comparison(self, monkeypatch):
        monkeypatch.setattr(extremal, "_top_eigenvalue", lambda tridiag: 1.0)
        rep = cut_parameter_sweep(6, 2)
        assert len(rep.violations) == rep.comparisons == 128
        assert rep.violations[0] == "r not strictly monotone at (5, 3, 9, 8): gap=0.000e+00"
        assert rep.violations[-1] == "q not strictly monotone at (5, 5): gap=0.000e+00"


class TestExtremalFamily:
    def test_single_member_below_13_and_for_even_degree(self):
        for d in list(range(3, 13)) + [14, 16, 20]:
            c = threshold(d).c_star
            family = extremal.extremal_family(d, c)
            assert len(family) == 1
            assert family[0].rows == build_extremal(d, c).rows

    def test_odd_degree_members(self):
        for d, count in [(13, 2), (15, 2), (17, 4), (19, 4), (21, 6)]:
            c = threshold(d).c_star
            family = extremal.extremal_family(d, c)
            assert len(family) == count, d
            assert family[0].rows == build_extremal(d, c).rows  # the default leads
            for g in family:
                assert is_regular(g) == d and g.n == 2 * d + 4
                assert spectrum(g).lambda2 == pytest.approx(lambda2_value(d, c), abs=1e-12)
            # distinct spectra, so pairwise non-isomorphic
            spectra = [np.array(spectrum(g).eigenvalues) for g in family]
            for i in range(count):
                for j in range(i):
                    assert np.max(np.abs(spectra[i] - spectra[j])) > 0.5, (d, i, j)
        g, h = extremal.extremal_family(13, 6)
        assert not is_isomorphic(g, h)
        assert is_isomorphic(h, build_extremal(13, 6, (3, 4)))

    def test_branch_degree_families(self):
        # the same partitions at every branch degree whose cycle block is 9
        assert len(extremal.extremal_family(17, 8)) == 4
        assert len(extremal.extremal_family(9, 2)) == 2  # d - c = 7: (7) and (4, 3)
        with pytest.raises(ValueError):
            extremal.extremal_family(4, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lambda2_polynomial(3, 0), "need 1 <= c <= d-1"),
        (lambda: build_extremal(9, 2, (2, 5)), "cycle lengths must be at least 3"),
        (lambda: cut_partition_quotient(4, 0, 5, 5, 2, 1), "need 1 <= c <= d-1"),
        (lambda: cut_partition_quotient(4, 2, 5, 5, 2, 0), "t out of range"),
        (lambda: saturated_cut_reduction(4, 0, 3, 3), "need 1 <= c <= d-1"),
        (lambda: cut_parameter_sweep(2, 1), "degree must be at least 3"),
        # no 4- or 6-regular graph has an odd branch degree
        (lambda: cut_parameter_sweep(4, 1), "c must be even for even d"),
        (lambda: cut_parameter_sweep(6, 3), "c must be even for even d"),
        (lambda: cut_partition_quotient(4, 1, 4, 2, 3, 3), "c must be even for even d"),
        (lambda: saturated_cut_reduction(4, 1, 4, 2), "c must be even for even d"),
        # block orders no saturated cut partition has
        (lambda: saturated_cut_reduction(3, 1, 0, 5), "p must be at least d+1-c"),
        (lambda: saturated_cut_reduction(4, 2, 0, 0), "p must be at least d+1-c"),
        (lambda: saturated_cut_reduction(5, 3, 5, 4), "r out of range"),  # p = d
    ],
    ids=[
        "polynomial-c0",
        "short-cycle",
        "branch-c0",
        "branch-t0",
        "saturated-c0",
        "sweep-d2",
        "sweep-odd-c-even-d",
        "sweep-odd-c-even-d6",
        "branch-odd-c-even-d",
        "saturated-odd-c-even-d",
        "saturated-p0-cubic",
        "saturated-p0-quartic",
        "saturated-p-is-d",
    ],
)
def test_error_paths(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.value.args == (message,)


def test_one_branch_degree_rule():
    # every (d, c) entry point rejects exactly as the one rule does, with its
    # message
    messages = set()
    for d in range(13):
        for c in range(-1, d + 2):
            try:
                extremal._check_branch_degree(d, c)
            except ValueError as e:
                rule = e.args
            else:
                continue
            messages.add(rule)
            for call in (
                lambda: build_extremal(d, c),
                lambda: lambda2_polynomial(d, c),
                lambda: cut_parameter_sweep(d, c),
                lambda: cut_partition_quotient(d, c, 0, 0, 0, 0),
            ):
                with pytest.raises(ValueError) as info:
                    call()
                assert info.value.args == rule, (d, c)
    assert messages == {
        ("degree must be at least 3",),
        ("need 1 <= c <= d-1",),
        ("c must be even for even d",),
    }
