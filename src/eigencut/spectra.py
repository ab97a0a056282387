"""Adjacency spectra, quotient matrices, and polynomial root machinery.

Eigenvalues of symmetric matrices come from LAPACK via numpy; everything on
top (quotients, equitable partitions, the constant-row-sum tridiagonal
deflation, characteristic polynomials, bracketed root finding) is
implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _mask

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-9
ROOT_INTERVAL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Adjacency spectrum sorted non-increasing, and lambda2 (None below two vertices)."""

    eigenvalues: tuple[float, ...]
    lambda2: float | None


@dataclass(frozen=True)
class VertexPartition:
    """Ordered blocks of vertices; disjointness/coverage checked against a graph."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        if any(len(b) == 0 for b in self.blocks):
            raise ValueError("partition blocks must be nonempty")

    def validate(self, g: Graph) -> None:
        seen = 0
        for block in self.blocks:
            m = _mask(block)
            if m & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= m
        if seen != (1 << g.n) - 1:
            raise ValueError("partition blocks must cover every vertex")


@dataclass(frozen=True)
class Polynomial:
    """Monic real polynomial, coefficients in descending degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if abs(self.coeffs[0] - 1.0) > 1e-9:
            raise ValueError("polynomial must be monic")
        object.__setattr__(self, "coeffs", (1.0,) + tuple(float(c) for c in self.coeffs[1:]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        v = 0.0
        for c in self.coeffs:
            v = v * x + c
        return v

    def derivative_at(self, x: float) -> float:
        v = 0.0
        deg = self.degree
        for k, c in enumerate(self.coeffs[:-1]):
            v = v * x + c * (deg - k)
        return v


def adjacency_matrix(g: Graph) -> np.ndarray:
    n = g.n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in g.rows]), np.uint8)
    bits = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")
    # np.where, not astype: nothing else in a sweep casts uint8 to float64,
    # and that cast's first call pages in another 64 KiB of numpy's code.
    return np.where(bits.view(np.bool_), 1.0, 0.0)


def _square(m, tridiagonal: bool = False) -> np.ndarray:
    """``m`` as a float array; raises unless it is square (and tridiagonal, if asked)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if tridiagonal and (np.any(np.triu(a, 2)) or np.any(np.tril(a, -2))):
        raise ValueError("matrix is not tridiagonal")
    return a


def eigenvalues_symmetric(m) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted non-increasing."""
    a = _square(m)
    if a.size and np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]


def spectrum(g: Graph) -> SpectralSummary:
    # A Graph's rows are symmetric by validation, so the check in
    # eigenvalues_symmetric would only repeat it.
    ev = np.linalg.eigvalsh(adjacency_matrix(g))[::-1].tolist()
    lam2 = ev[1] if g.n >= 2 else None
    return SpectralSummary(tuple(ev), lam2)


def quotient(g: Graph, p: VertexPartition) -> np.ndarray:
    """Mean neighbour counts between blocks; defined for any partition."""
    p.validate(g)
    m = len(p.blocks)
    entries = np.zeros((m, m))
    masks = [_mask(b) for b in p.blocks]
    for i, block in enumerate(p.blocks):
        for j in range(m):
            total = sum((g.rows[v] & masks[j]).bit_count() for v in block)
            entries[i, j] = total / len(block)
    return entries


def is_equitable(g: Graph, p: VertexPartition) -> bool:
    """True iff within each block every vertex sees each block equally often."""
    p.validate(g)
    masks = [_mask(b) for b in p.blocks]
    for block in p.blocks:
        first = [(g.rows[block[0]] & mj).bit_count() for mj in masks]
        for v in block[1:]:
            if [(g.rows[v] & mj).bit_count() for mj in masks] != first:
                return False
    return True


def tridiagonal_reduce(m, d: float) -> np.ndarray:
    """Deflate one copy of the constant row sum ``d`` out of a tridiagonal matrix.

    For an (n+1)x(n+1) tridiagonal matrix whose rows all sum to ``d``, returns
    the n x n tridiagonal matrix with the same spectrum minus one copy of
    ``d``: diagonal ``d - super[i] - sub[i+1]``, shifted off-diagonals.
    The identity is similarity-based and does not need positive entries.
    """
    a = _square(m, tridiagonal=True)
    k = a.shape[0]
    if k < 2:
        raise ValueError("need at least a 2x2 matrix to reduce")
    sums = a.sum(axis=1)
    if np.max(np.abs(sums - d)) > ROW_SUM_TOL:
        raise ValueError(f"row sums must all equal {d}")
    sup = np.diag(a, 1)
    sub = np.diag(a, -1)
    out = np.zeros((k - 1, k - 1))
    for i in range(k - 1):
        out[i, i] = d - sup[i] - sub[i]
    for i in range(k - 2):
        out[i, i + 1] = sup[i + 1]
        out[i + 1, i] = sub[i]
    return out


def tridiagonal_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a real tridiagonal matrix with positive sub*super products.

    Such a matrix is diagonally similar to a symmetric one, so the spectrum is
    real; sorted non-increasing.
    """
    a = _square(m, tridiagonal=True)
    k = a.shape[0]
    if k == 1:
        return a[0, :1].copy()
    sup = np.diag(a, 1)
    sub = np.diag(a, -1)
    prod = sup * sub
    if np.any(prod <= 0):
        raise ValueError("off-diagonal products must be positive")
    sym = np.diag(np.diag(a)) + np.diag(np.sqrt(prod), 1) + np.diag(np.sqrt(prod), -1)
    return eigenvalues_symmetric(sym)


def char_poly(m) -> Polynomial:
    """Characteristic polynomial det(xI - M) via the Faddeev-LeVerrier recurrence."""
    a = _square(m)
    n = a.shape[0]
    coeffs = [1.0]
    work = np.zeros_like(a)
    for k in range(1, n + 1):
        work = a @ work + coeffs[-1] * a
        coeffs.append(-np.trace(work) / k)
    return Polynomial(tuple(coeffs))


SCAN_STEPS = 64


def largest_root(p: Polynomial, lo: float, hi: float) -> float:
    """Largest real root of ``p`` in [lo, hi] by bracketed bisection.

    The interval is scanned in 64 steps from the right for a sign change
    (callers arrange p(hi) > 0), bisected to width 1e-12, then polished with
    a few Newton steps.  Raises ValueError when no bracket is found.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    xs = [lo + (hi - lo) * k / SCAN_STEPS for k in range(SCAN_STEPS + 1)]
    vals = [p(x) for x in xs]
    a = b = None
    for k in range(SCAN_STEPS, 0, -1):
        if vals[k] == 0.0:
            a = b = xs[k]
            break
        if vals[k] > 0.0 and vals[k - 1] <= 0.0:
            a, b = xs[k - 1], xs[k]
            break
    if a is None:
        raise ValueError("no sign change found in the bracket")
    while b - a > ROOT_INTERVAL:
        mid = 0.5 * (a + b)
        if p(mid) > 0.0:
            b = mid
        else:
            a = mid
    root = 0.5 * (a + b)
    for _ in range(3):
        dp = p.derivative_at(root)
        if dp == 0.0:
            break
        step = p(root) / dp
        nxt = root - step
        if not (lo <= nxt <= hi):
            break
        root = nxt
    return root
