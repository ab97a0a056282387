"""Adjacency spectra, quotient matrices, and exact polynomial roots.

Eigenvalues come from LAPACK via numpy: a sweep's graphs of one order are
solved as one stack (:func:`spectra`), and :func:`spectrum` is the stack of
one graph.  Characteristic polynomials (Faddeev-LeVerrier) and largest roots
(Sturm chains) are exact, in Python integers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .graphs import Graph, _mask

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-9


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
        if seen >> g.n:
            raise ValueError("partition blocks reference a vertex >= n")
        if seen != (1 << g.n) - 1:
            raise ValueError("partition blocks must cover every vertex")


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial, coefficients in descending degree order: ints, or finite floats read at their exact binary value."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(c if isinstance(c, int) else float(c) for c in self.coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("polynomial must be monic")
        if any(isinstance(c, float) and not math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x: float) -> float:
        return _value(self.coeffs, x)


def _adjacency_stack(graphs) -> np.ndarray:
    """The ``(k, n, n)`` float adjacency matrices of ``k >= 1`` graphs of one order n."""
    orders = {g.n for g in graphs}
    if len(orders) != 1:
        raise ValueError("need graphs of one order")
    (n,) = orders
    width = (n + 7) // 8
    rows = b"".join([row.to_bytes(width, "little") for g in graphs for row in g.rows])
    packed = np.frombuffer(rows, np.uint8).reshape(len(graphs), n, width)
    bits = np.unpackbits(packed, axis=2, count=n, bitorder="little")
    # np.where, not astype: nothing else in a sweep casts uint8 to float64,
    # and that cast's first call pages in another 64 KiB of numpy's code.
    return np.where(bits.view(np.bool_), 1.0, 0.0)


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _adjacency_stack([g])[0]


def _square(m, tridiagonal: bool = False) -> np.ndarray:
    """``m`` as a float array; raises unless it is square and finite (and tridiagonal, if asked)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if tridiagonal and (np.any(np.triu(a, 2)) or np.any(np.tril(a, -2))):
        raise ValueError("matrix is not tridiagonal")
    return a


def eigenvalues_symmetric(m) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted non-increasing."""
    a = _square(m)
    if a.size and np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]


def spectra(graphs) -> list[SpectralSummary]:
    """The spectra of graphs of one order, from one stacked ``eigvalsh`` call.

    numpy solves each matrix of the stack by its own LAPACK call, so every
    eigenvalue is the one a separate call on that graph would give.
    """
    # A Graph's rows are symmetric by validation, so the check in
    # eigenvalues_symmetric would only repeat it.
    stack = np.linalg.eigvalsh(_adjacency_stack(graphs))[:, ::-1].tolist()
    return [SpectralSummary(tuple(ev), ev[1] if len(ev) >= 2 else None) for ev in stack]


def spectrum(g: Graph) -> SpectralSummary:
    return spectra([g])[0]


def _block_degrees(g: Graph, p: VertexPartition) -> list[list[list[int]]]:
    """Per block, each of its vertices' neighbour counts in every block."""
    p.validate(g)
    masks = [_mask(b) for b in p.blocks]
    return [[[(g.rows[v] & m).bit_count() for m in masks] for v in block] for block in p.blocks]


def quotient(g: Graph, p: VertexPartition) -> np.ndarray:
    """Mean neighbour counts between blocks; defined for any partition."""
    means = [np.sum(rows, axis=0) / len(rows) for rows in _block_degrees(g, p)]
    return np.array(means).reshape(len(means), len(means))


def is_equitable(g: Graph, p: VertexPartition) -> bool:
    """True iff within each block every vertex sees each block equally often."""
    return all(row == rows[0] for rows in _block_degrees(g, p) for row in rows)


def tridiagonal_reduce(m, d: float) -> np.ndarray:
    """Deflate one copy of the constant row sum ``d`` out of a tridiagonal matrix.

    For an (n+1)x(n+1) tridiagonal matrix whose rows all sum to ``d``, returns
    the n x n tridiagonal matrix with the same spectrum minus one copy of
    ``d``: diagonal ``d - super[i] - sub[i+1]``, shifted off-diagonals.
    The identity is similarity-based and does not need positive entries.
    """
    a = _square(m, tridiagonal=True)
    if a.shape[0] < 2:
        raise ValueError("need at least a 2x2 matrix to reduce")
    if np.max(np.abs(a.sum(axis=1) - d)) > ROW_SUM_TOL:
        raise ValueError(f"row sums must all equal {d}")
    sup = np.diag(a, 1)
    sub = np.diag(a, -1)
    return np.diag(d - sup - sub) + np.diag(sup[1:], 1) + np.diag(sub[:-1], -1)


def tridiagonal_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a real tridiagonal matrix with positive sub*super products.

    Such a matrix is diagonally similar to a symmetric one, so the spectrum is
    real; sorted non-increasing.
    """
    a = _square(m, tridiagonal=True)
    prod = np.diag(a, 1) * np.diag(a, -1)
    if np.any(prod <= 0):
        raise ValueError("off-diagonal products must be positive")
    sym = np.diag(np.diag(a)) + np.diag(np.sqrt(prod), 1) + np.diag(np.sqrt(prod), -1)
    return eigenvalues_symmetric(sym)


def _integers(values) -> tuple[list[int], int]:
    """Numerators of ``values`` over their least common denominator, and that denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def char_poly(m) -> Polynomial:
    """Characteristic polynomial det(xI - M) via the Faddeev-LeVerrier recurrence,
    run in integers on D*M for the common denominator D of M's entries; the
    k-th coefficient over D**k is an int if whole, else correctly rounded."""
    a = _square(m)
    flat, den = _integers(a.ravel().tolist())
    a = np.array(flat, dtype=object).reshape(a.shape)
    cs, work = [1], np.zeros_like(a)
    for k in range(1, a.shape[0] + 1):
        work = a @ work + cs[-1] * a
        cs.append(-np.trace(work) // k)
    return Polynomial(tuple(c / den**k if c % den**k else c // den**k for k, c in enumerate(cs)))


def _pseudo_divide(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with L*f = q*g + r, deg r < deg g and L a power of |lead(g)|, so L > 0."""
    g = g if g[0] > 0 else [-c for c in g]
    q, r = [], f
    while len(r) >= len(g):
        top = r[0]
        q = [c * g[0] for c in q] + [top]
        r = [g[0] * x - top * y for x, y in zip_longest(r, g, fillvalue=0)][1:]
    return q, r[next((i for i, c in enumerate(r) if c), len(r)) :]  # no leading zeros


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of the square-free part of ``p``: p, p', then negated remainders."""
    chain = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:
        r = _pseudo_divide(chain[-2], chain[-1])[1]
        if not r:  # chain[-1] is gcd(p, p'), so p has repeated roots
            return _sturm_chain(_pseudo_divide(p, chain[-1])[0])
        content = math.gcd(*r)  # keeps the coefficients small
        chain.append([-c // content for c in r])
    return chain


def _value(f, x):
    v = 0
    for c in f:
        v = v * x + c
    return v


def _sign_changes(chain: list[list[int]], x: int) -> int:
    signs = [v > 0 for v in (_value(f, x) for f in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


def _ordinal(x: float) -> int:
    """``x``'s place among the floats: consecutive floats get consecutive integers, and 0.0 gets 0."""
    k = _I64.unpack(_F64.pack(abs(x)))[0]
    return -k if x < 0 else k


def _from_ordinal(k: int) -> float:
    x = _F64.unpack(_I64.pack(abs(k)))[0]
    return -x if k < 0 else x


def _scaled(chain: list[list[int]], den: int) -> list[list[int]]:
    """``chain`` with the coefficients scaled so that its value at k has the sign of the original's at k / den."""
    return [[c * den**i for i, c in enumerate(f)] for f in chain]


def _changes_at(chain: list[list[int]], x: float) -> int:
    """Sign changes of ``chain`` at the float ``x``, evaluated exactly."""
    num, den = x.as_integer_ratio()
    return _sign_changes(_scaled(chain, den), num)


def largest_root(p: Polynomial, lo: float, hi: float) -> float:
    """Largest real root of ``p`` in [lo, hi], correctly rounded; ValueError if none.

    While [lo, hi] spans more than four binades, bisection over the floats in
    their order locates the binade of the root.  Then bisection on the grid
    k / den of every float in [lo, hi] (multiples of the ulp of the one
    nearest 0) and every midpoint of two keeps it in (a, b] until a and b
    round alike or b = a + 1; then one division rounds it.  Sturm counts of
    p's square-free part q steer, and once (a, hi] holds one root, q
    against q(hi) does.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bracket ends must be finite")
    if not lo < hi:
        raise ValueError("need lo < hi")
    base = _sturm_chain(_integers(p.coeffs)[0])
    # den is set by the bracket end nearest 0: one much nearer 0 than the
    # root (den = 2**1075 when the bracket holds 0) makes every grid point a
    # long integer.  So the bracket is narrowed first, keeping the largest
    # root in (lo, hi].
    below, above = _ordinal(lo), _ordinal(hi)
    if above - below > 1 << 54 and _changes_at(base, lo) > (at_top := _changes_at(base, hi)):
        while above - below > 1 << 54:
            mid = (below + above) // 2
            if _changes_at(base, _from_ordinal(mid)) > at_top:
                below = mid
            else:
                above = mid
        lo, hi = _from_ordinal(below), _from_ordinal(above)
    den = 2 * min(1.0, math.ulp(max(lo, -hi, 0.0))).as_integer_ratio()[1]
    chain = _scaled(base, den)
    q = chain[0]
    a, b = (num * (den // d) for num, d in (lo.as_integer_ratio(), hi.as_integer_ratio()))
    top = _value(q, b)
    if top == 0:
        return hi
    at_hi = _sign_changes(chain, b)
    roots = _sign_changes(chain, a) - at_hi  # distinct roots in (a, hi]
    if not roots:
        if _value(q, a):
            raise ValueError("no root in [lo, hi]")
        return lo
    fa, fb = lo, hi  # a and b rounded to floats
    while b - a > 1 and fa != fb:
        mid = (a + b) // 2
        k = int(_value(q, mid) * top < 0) if roots == 1 else _sign_changes(chain, mid) - at_hi
        if k:
            a, fa, roots = mid, mid / den, k
        else:
            b, fb = mid, mid / den
    return (2 * a + 1 if _value(q, b) else 2 * b) / (2 * den)
