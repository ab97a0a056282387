"""Eigensolver wrapper, quotients, tridiagonal deflation, and roots."""

import math
import random

import numpy as np
import pytest

import oracles
from eigencut import (
    Polynomial,
    VertexPartition,
    adjacency_matrix,
    char_poly,
    complete,
    cycle,
    cycles_union_complement,
    eigenvalues_symmetric,
    enumerate_connected_regular,
    graph_from_edges,
    is_equitable,
    largest_root,
    quotient,
    spectrum,
    tridiagonal_eigenvalues,
    tridiagonal_reduce,
)
from eigencut.spectra import spectra


def random_graph(rng, n, p=0.4):
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def random_partition(rng, n):
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    blocks = {}
    for v, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(v)
    return VertexPartition(tuple(tuple(b) for b in blocks.values()))


class TestEigenvalues:
    def test_examples(self):
        assert np.allclose(eigenvalues_symmetric([[0, 1], [1, 0]]), [1, -1])
        assert np.allclose(eigenvalues_symmetric(adjacency_matrix(complete(4))), [3, -1, -1, -1])
        assert np.allclose(eigenvalues_symmetric(adjacency_matrix(cycle(4))), [2, 0, 0, -2])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigenvalues_symmetric([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            eigenvalues_symmetric([[0, 1, 0], [1, 0, 1]])
        # spectrum() relies on Graph validation instead, so a matrix from
        # outside, even one built from a graph and then altered, is checked here
        a = adjacency_matrix(complete(4))
        a[0, 1] = 0.0
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalues_symmetric(a)
        a = adjacency_matrix(cycle(5))
        a[2, 3] += 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            eigenvalues_symmetric(a)

    def test_rejects_non_finite(self):
        # each a one-line ValueError, not an OverflowError, nan eigenvalues or a RuntimeWarning
        calls = [
            lambda: eigenvalues_symmetric([[math.nan]]),
            lambda: eigenvalues_symmetric([[0, math.inf], [math.inf, 0]]),
            lambda: char_poly([[math.inf]]),
            lambda: tridiagonal_eigenvalues([[1, math.inf], [1, 0]]),
            lambda: tridiagonal_reduce([[1, -math.inf], [1, 0]], 1.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                call()

    def test_trace_identities(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 12))
            ev = np.array(spectrum(g).eigenvalues)
            assert abs(ev.sum()) < 1e-8
            assert abs((ev**2).sum() - 2 * g.edge_count()) < 1e-8

    def test_spectrum_summary(self):
        s = spectrum(complete(4))
        assert s.lambda2 == pytest.approx(-1)
        k33 = cycles_union_complement([3, 3])
        s = spectrum(k33)
        assert np.allclose(s.eigenvalues, [3, 0, 0, 0, 0, -3], atol=1e-9)
        assert s.lambda2 == pytest.approx(0, abs=1e-9)
        assert spectrum(complete(1)).lambda2 is None

    def test_adjacency_matrix_matches_edge_oracle(self):
        # every n up to 70 crosses the byte boundaries of a packed row
        rng = random.Random(31)
        for n in range(71):
            g = random_graph(rng, n, p=rng.uniform(0.05, 0.6))
            oracle = np.zeros((n, n))
            for u, v in g.edges():
                oracle[u, v] = oracle[v, u] = 1.0
            a = adjacency_matrix(g)
            assert a.dtype == np.float64
            assert np.array_equal(a, oracle)
            assert spectrum(g).eigenvalues == tuple(eigenvalues_symmetric(a).tolist())
            if n >= 2:
                assert spectrum(g).lambda2 == float(np.linalg.eigvalsh(oracle)[-2])

    def test_stacked_spectra_match_one_graph_solves(self):
        # one eigvalsh call on the stack gives each graph's own eigenvalues, bit for bit
        for n in range(4, 13, 2):
            graphs = list(enumerate_connected_regular(n, 3))
            stacked = spectra(graphs)
            assert len(stacked) == len(graphs)
            for g, s in zip(graphs, stacked):
                assert s == spectrum(g)
                oracle = np.zeros((n, n))
                for u, v in g.edges():
                    oracle[u, v] = oracle[v, u] = 1.0
                assert s.eigenvalues == tuple(np.linalg.eigvalsh(oracle)[::-1].tolist())

    def test_stacked_spectra_need_one_order(self):
        with pytest.raises(ValueError, match="one order"):
            spectra([cycle(5), cycle(6)])
        with pytest.raises(ValueError, match="one order"):
            spectra([])

    def test_regular_top_eigenvalue(self):
        for g, d in [(complete(5), 4), (cycle(7), 2), (cycles_union_complement([3, 3]), 3)]:
            ev = spectrum(g).eigenvalues
            assert ev[0] == pytest.approx(d, abs=1e-9)
            assert ev[1] < d


class TestQuotient:
    def test_complete_bipartite(self):
        k33 = cycles_union_complement([3, 3])
        part = VertexPartition(((0, 1, 2), (3, 4, 5)))
        q = quotient(k33, part)
        assert np.allclose(q, [[0, 3], [3, 0]])
        assert is_equitable(k33, part)

    def test_single_block(self):
        g = cycle(6)
        q = quotient(g, VertexPartition((tuple(range(6)),)))
        assert np.allclose(q, [[2.0]])

    def test_path_partitions(self):
        p3 = graph_from_edges(3, [(0, 1), (1, 2)])
        part = VertexPartition(((0, 2), (1,)))
        assert is_equitable(p3, part)
        p4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert not is_equitable(p4, VertexPartition(((0, 1), (2, 3))))

    def test_partition_validation(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            quotient(g, VertexPartition(((0, 1), (1, 2, 3))))
        with pytest.raises(ValueError):
            quotient(g, VertexPartition(((0, 1),)))

    def test_interlacing_random(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 12))
            ev = np.array(spectrum(g).eigenvalues)
            part = random_partition(rng, g.n)
            mu = eigenvalues_symmetric_or_general(quotient(g, part))
            m, n = len(mu), g.n
            for i in range(m):
                assert ev[i] >= mu[i] - 1e-8
                assert mu[i] >= ev[n - m + i] - 1e-8

    def test_equitable_embeds(self):
        k33 = cycles_union_complement([3, 3])
        part = VertexPartition(((0, 1, 2), (3, 4, 5)))
        mu = eigenvalues_symmetric_or_general(quotient(k33, part))
        ev = list(spectrum(k33).eigenvalues)
        for m in mu:
            assert any(abs(m - e) < 1e-8 for e in ev)


def eigenvalues_symmetric_or_general(m):
    """Real sorted eigenvalues of a (possibly nonsymmetric) quotient matrix."""
    vals = np.linalg.eigvals(np.asarray(m, dtype=float))
    assert np.max(np.abs(vals.imag)) < 1e-9
    return np.sort(vals.real)[::-1]


class TestTridiagonalReduce:
    def test_two_by_two(self):
        m = [[1.0, 2.0], [1.5, 1.5]]
        out = tridiagonal_reduce(m, 3.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(3.0 - 2.0 - 1.5)
        ev = sorted(np.linalg.eigvals(np.array(m)).real, reverse=True)
        assert ev[0] == pytest.approx(3.0)
        assert ev[1] == pytest.approx(out[0, 0])

    def test_random_row_sum_matrices(self):
        rng = random.Random(47)
        for _ in range(200):
            k = rng.randint(2, 8)
            d = rng.uniform(3.0, 6.0)
            m = np.zeros((k, k))
            for i in range(k):
                if i + 1 < k:
                    m[i, i + 1] = rng.uniform(0.1, 1.0)
                if i > 0:
                    m[i, i - 1] = rng.uniform(0.1, 1.0)
                m[i, i] = d - m[i].sum()
            reduced = tridiagonal_reduce(m, d)
            original = sorted(np.linalg.eigvals(m).real, reverse=True)
            after = sorted(np.linalg.eigvals(reduced).real, reverse=True)
            assert original[0] == pytest.approx(d, abs=1e-9)
            assert np.allclose(original[1:], after, atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tridiagonal_reduce(np.ones((3, 3)), 3.0)  # not tridiagonal
        m = np.diag([1.0, 2.0]) + np.diag([1.0], 1) + np.diag([1.0], -1)
        with pytest.raises(ValueError):
            tridiagonal_reduce(m, 5.0)  # row sums wrong

    def test_tridiagonal_eigenvalues_match_general(self):
        rng = random.Random(53)
        for _ in range(40):
            k = rng.randint(2, 6)
            m = np.diag([rng.uniform(-2, 2) for _ in range(k)])
            for i in range(k - 1):
                m[i, i + 1] = rng.uniform(0.1, 2.0)
                m[i + 1, i] = rng.uniform(0.1, 2.0)
            mine = tridiagonal_eigenvalues(m)
            ref = sorted(np.linalg.eigvals(m).real, reverse=True)
            assert np.allclose(mine, ref, atol=1e-9)
        # an entry outside the band is rejected, not dropped
        with pytest.raises(ValueError, match="not tridiagonal"):
            tridiagonal_eigenvalues([[1, 5, 7], [1, 2, 1], [0, 1, 3]])
        with pytest.raises(ValueError, match="must be square"):
            tridiagonal_eigenvalues(np.ones((2, 3)))


class TestCharPoly:
    def test_examples(self):
        assert char_poly([[0, 1], [1, 0]]).coeffs == (1.0, 0.0, -1.0)
        assert char_poly(np.eye(3)).coeffs == (1.0, -3.0, 3.0, -1.0)

    def test_exact_coefficients(self):
        # an integer matrix gives int coefficients, exactly
        coeffs = char_poly(adjacency_matrix(cycle(30))).coeffs
        assert all(type(c) is int for c in coeffs)
        assert coeffs[:5] == (1, 0, -30, 0, 405)
        # C_30 has eigenvalue 2 (once) and -2 (once): x^2 - 4 divides its polynomial
        assert largest_root(Polynomial(coeffs), 1.5, 3) == 2.0
        # fractional coefficients are the correctly rounded floats of the exact ones
        assert char_poly([[1 / 3]]).coeffs == (1, -1 / 3)
        assert char_poly([[0.5, 1], [1, 0.25]]).coeffs == (1, -0.75, -0.875)

    def test_roots_match_eigenvalues(self):
        rng = random.Random(61)
        for _ in range(20):
            k = rng.randint(2, 6)
            a = np.array([[rng.uniform(-1, 1) for _ in range(k)] for _ in range(k)])
            a = (a + a.T) / 2
            p = char_poly(a)
            for ev in eigenvalues_symmetric(a):
                assert abs(p(ev)) < 1e-7 * max(1.0, np.abs(a).sum() ** k)

    def test_monic_enforced(self):
        with pytest.raises(ValueError):
            Polynomial((2.0, 1.0))
        with pytest.raises(ValueError):
            Polynomial((1 + 1e-12, 0))  # monic means exactly 1
        with pytest.raises(ValueError):
            Polynomial(())
        assert Polynomial((np.int64(1), np.float64(0.5))).coeffs == (1, 0.5)


class TestLargestRoot:
    def test_examples(self):
        assert largest_root(Polynomial((1.0, 0.0, -4.0)), 0, 3) == pytest.approx(2.0)
        p = Polynomial((1.0, 0.0, -7.0, -2.0))
        frozen = 2.7784571182583884  # independent bisection oracle
        assert largest_root(p, 2, 3) == pytest.approx(frozen, abs=1e-10)
        q = Polynomial((1.0, 0.0, -12.0, -8.0, 12.0))
        frozen_q = 3.6457513110645907
        assert largest_root(q, 3.5, 4) == pytest.approx(frozen_q, abs=1e-10)
        assert frozen_q == pytest.approx(1 + math.sqrt(7), abs=1e-12)

    def test_matches_oracle_on_random_cubics(self):
        rng = random.Random(67)
        for _ in range(50):
            roots = sorted(rng.uniform(-5, 5) for _ in range(3))
            if roots[2] - roots[1] < 0.1:
                continue
            a, b, c = roots
            coeffs = (
                1.0,
                -(a + b + c),
                a * b + a * c + b * c,
                -a * b * c,
            )
            lo, hi = roots[1] + 0.05, roots[2] + 1.0
            mine = largest_root(Polynomial(coeffs), lo, hi)
            ref = oracles.bisect_largest_root(list(coeffs), lo, hi)
            assert mine == pytest.approx(roots[2], abs=1e-9)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_no_bracket(self):
        with pytest.raises(ValueError):
            largest_root(Polynomial((1.0, 0.0, 4.0)), -1, 1)  # x^2 + 4 has no real root
        with pytest.raises(ValueError):
            largest_root(Polynomial((1, -3)), 0, 2)  # the root 3 lies above the interval
        with pytest.raises(ValueError):
            largest_root(Polynomial((1, -3)), 2, 2)

    def test_non_finite_bracket_rejected(self):
        p = Polynomial((1, 0, -2))
        for lo, hi in [(0, math.inf), (-math.inf, 2), (math.nan, 2), (0, math.nan)]:
            with pytest.raises(ValueError, match="^bracket ends must be finite$"):
                largest_root(p, lo, hi)

    def test_close_roots(self):
        # (x-1)(x-100)(x-101): 100 and 101 lie in one 1/64 slice of [0, 127]
        p = Polynomial((1, -202, 10301, -10100))
        assert largest_root(p, 0, 127) == 101.0
        assert largest_root(p, 0, 100.5) == 100.0
        assert largest_root(p, 0, 99) == 1.0

    def test_roots_on_the_ends(self):
        p = Polynomial((1, 0, -4))
        assert largest_root(p, 2, 3) == 2.0
        assert largest_root(p, 0, 2) == 2.0
        assert largest_root(p, -2, 1) == -2.0

    def test_repeated_roots(self):
        # (x-2)^2 (x-5): the double root has no sign change
        p = Polynomial((1, -9, 24, -20))
        assert largest_root(p, 0, 4) == 2.0
        assert largest_root(p, 1.5, 2.5) == 2.0
        assert largest_root(p, 0, 9) == 5.0
        # (x+1)^3 (x-3), the characteristic polynomial of K4
        k4 = char_poly(adjacency_matrix(complete(4)))
        assert k4.coeffs == (1, 0, -6, -8, -3)
        assert largest_root(k4, -2, 0) == -1.0

    def test_correctly_rounded(self):
        # IEEE square roots are correctly rounded, so they are the reference
        rng = random.Random(71)
        for _ in range(300):
            c = rng.uniform(0, 2) * 10 ** rng.randint(-20, 20)
            assert largest_root(Polynomial((1, 0, -c)), 0, max(2.0, c)) == math.sqrt(c)
        for c in range(1, 300):
            assert largest_root(Polynomial((1, 0, -c)), -1, c) == math.sqrt(c)

    def test_bracket_end_near_zero(self, monkeypatch):
        # An end at or near 0 must not set the bisection grid: points are
        # evaluated as integers of a few dozen bits, as on [1, 10], not on a
        # grid of den up to 2**1075.
        from eigencut import spectra

        widths = []
        value = spectra._value
        monkeypatch.setattr(spectra, "_value", lambda f, x: widths.append(abs(x).bit_length()) or value(f, x))
        p = Polynomial((1, 0, -2))
        for lo, hi, root in [(-10, 10, math.sqrt(2)), (1e-300, 10, math.sqrt(2)), (-10, -1e-300, -math.sqrt(2))]:
            widths.clear()
            assert largest_root(p, lo, hi) == root
            assert max(widths) <= 64, (lo, hi, max(widths))
        tiny = 2.0**-1000
        assert largest_root(Polynomial((1, -tiny)), -1, 1) == tiny
        assert largest_root(Polynomial((1, tiny)), -1, 1) == -tiny


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: VertexPartition(((0,), ())), "partition blocks must be nonempty"),
        (
            lambda: quotient(graph_from_edges(3, [(0, 1), (1, 2)]), VertexPartition(((0, 0, 1), (2,)))),
            "partition blocks must not repeat a vertex",
        ),
        (
            lambda: quotient(cycle(4), VertexPartition(((0, 1), (2, 3, -1)))),
            "vertex set references a negative vertex",
        ),
        (
            lambda: VertexPartition(((0, 1), (2, 5))).validate(cycle(4)),
            "partition blocks reference a vertex >= n",
        ),
        (lambda: tridiagonal_reduce([[1.0]], 1), "need at least a 2x2 matrix to reduce"),
        (lambda: tridiagonal_eigenvalues([[0, 1], [-1, 0]]), "off-diagonal products must be positive"),
        (
            lambda: largest_root(Polynomial((1, float("inf"))), -1, 1),
            "polynomial coefficients must be finite",
        ),
        (lambda: Polynomial((1.0, 0.0, float("nan"))), "polynomial coefficients must be finite"),
    ],
    ids=[
        "empty-block",
        "repeated-vertex",
        "negative-vertex",
        "vertex-out-of-range",
        "reduce-1x1",
        "negative-off-diagonal-product",
        "polynomial-infinite",
        "polynomial-nan",
    ],
)
def test_error_paths(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.value.args == (message,)
