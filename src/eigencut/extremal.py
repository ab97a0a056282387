"""Extremal regular graphs with a cut vertex, and their eigenvalue thresholds.

For degree ``d`` and branch degree ``c`` (the number of edges a cut vertex
sends into one side) there is a family of connected d-regular graphs built
as a sequential join of cliques, matching complements, and cycle
complements, one member per choice of cycle lengths.  The second-largest
adjacency eigenvalue of every member is the largest root of the same small
closed-form polynomial; the minimum over admissible ``c`` is the sharp
threshold below which a d-regular graph cannot have a cut vertex.  One
graph attains the threshold for ``d <= 12`` and for every even ``d``.  For
odd ``d >= 13`` its family has several members, one per partition of the
cycle block's order into cycles (2 at ``d = 13``), and all of them attain it;
:func:`extremal_family` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graphs import (
    Graph,
    complete,
    cycles_union_complement,
    matching_complement,
    sequential_join,
)
from .spectra import (
    Polynomial,
    VertexPartition,
    largest_root,
    tridiagonal_eigenvalues,
    tridiagonal_reduce,
)


def f0_poly(d: int) -> Polynomial:
    """Cubic whose largest root is lambda2 of the bridge-case graph (odd d)."""
    if d < 3 or d % 2 == 0:
        raise ValueError("the bridge-case polynomial needs odd d >= 3")
    return Polynomial((1, -(d - 3), -(3 * d - 2), -2))


def f1_poly(d: int, c: int) -> Polynomial:
    """Quartic for even d and even branch degree 2 <= c <= d-2."""
    if d < 4 or d % 2:
        raise ValueError("f1 needs even d >= 4")
    if c % 2 or not 2 <= c <= d - 2:
        raise ValueError("f1 needs even c with 2 <= c <= d-2")
    return Polynomial(
        (1, -(d - 4), -(4 * d - 4), 2 * c * d - 2 * c * c - 4 * d, 3 * c * (d - c))
    )


def f2_poly(d: int, c: int) -> Polynomial:
    """Quartic for odd d >= 5 and branch degree 2 <= c <= d-2 (either parity)."""
    if d < 5 or d % 2 == 0:
        raise ValueError("f2 needs odd d >= 5")
    if not 2 <= c <= d - 2:
        raise ValueError("f2 needs 2 <= c <= d-2")
    return Polynomial(
        (1, -(d - 5), -(5 * d - 6), 2 * c * d - 2 * c * c - 6 * d, 4 * c * (d - c))
    )


def _check_branch_degree(d: int, c: int) -> None:
    """Raise unless some d-regular graph can have a cut vertex of branch degree c:
    the one rule of every entry point taking any such (d, c).  Even d needs
    even c, since a branch B has even degree sum d|B| - c."""
    if d < 3:
        raise ValueError("degree must be at least 3")
    if not 1 <= c <= d - 1:
        raise ValueError("need 1 <= c <= d-1")
    if d % 2 == 0 and c % 2:
        raise ValueError("c must be even for even d")


def lambda2_polynomial(d: int, c: int) -> Polynomial:
    """The polynomial whose largest root is lambda2 of the (d, c) family graph."""
    _check_branch_degree(d, c)
    if d % 2:
        if c in (1, d - 1):
            return f0_poly(d)
        return f2_poly(d, c)
    return f1_poly(d, c)


@lru_cache(maxsize=None)
def lambda2_value(d: int, c: int) -> float:
    """Largest root of :func:`lambda2_polynomial`; always in (d-1, d)."""
    return largest_root(lambda2_polynomial(d, c), d - 1.0, float(d))


def _cycle_branch(d: int, c: int) -> int:
    """The branch degree, c or d-c, that is odd and at least 3; 0 if neither is."""
    return next((k for k in (c, d - c) if k % 2 and k >= 3), 0)


def _branch(d: int, k: int, composition) -> list[Graph]:
    """Blocks of the branch the cut vertex sends ``k`` edges into, outer block first.

    The last block is the cut vertex's k neighbours.  A matching complement
    needs even order, so for odd ``k >= 3`` they form a cycle complement, and
    for ``k = 1`` the one neighbour is a second cut vertex.
    """
    if k % 2 == 0:
        return [complete(d + 1 - k), matching_complement(k)]
    if k == 1:
        return [complete(2), matching_complement(d - 1), complete(1)]
    return [matching_complement(d + 2 - k), cycles_union_complement(composition)]


def _blocks(d: int, c: int, composition=None) -> list[Graph]:
    """The blocks of one extremal construction, in labelling order.

    The graph is two branches joined at a cut vertex, which sends ``c``
    edges into one and ``d - c`` into the other (:func:`_branch`).  A branch
    of even degree k has d+1 vertices: K_{d+1-k} joined to a matching
    complement on k.  A branch of odd degree k has d+2: for k >= 3, a
    matching complement on d+2-k joined to a cycle complement on k; for
    k = 1, K_2, a matching complement on d-1 and one vertex in sequence, so
    the graph has a bridge.  ``composition`` lists the cycle lengths of the
    cycle complement: it sums to the odd branch degree of at least 3, and is
    empty when there is none (even d, or c in {1, d-1}); None selects the
    single cycle.
    """
    _check_branch_degree(d, c)
    total = _cycle_branch(d, c)
    if composition is None:
        composition = (total,) if total else ()
    composition = tuple(composition)
    if any(k < 3 for k in composition):
        raise ValueError("cycle lengths must be at least 3")
    if sum(composition) != total:
        if not total:
            raise ValueError("a construction without a cycle block takes no cycle composition")
        raise ValueError(f"cycle composition must sum to {total}")
    return _branch(d, c, composition) + [complete(1)] + _branch(d, d - c, composition)[::-1]


def build_extremal(d: int, c: int, composition=None) -> Graph:
    """The extremal d-regular cut-vertex graph at branch degree ``c``.

    Defined for odd d with 1 <= c <= d-1 and for even d with even
    2 <= c <= d-2.  Order is 2d+4 for odd d and 2d+3 for even d.  The vertex
    joining the two branches is a cut vertex with branch degrees {c, d-c};
    it is the only one, except in the bridge graphs (c = 1 or d-1), whose
    bridge has two.  ``composition=None`` selects the single-cycle default.
    """
    return sequential_join(_blocks(d, c, composition))


def _cycle_partitions(total: int, largest: int):
    """Partitions of ``total`` into non-increasing parts from 3 to ``largest``,
    by decreasing first part, so (total,) leads; just () for 0."""
    if total == 0:
        yield ()
    for k in range(min(total, largest), 2, -1):
        for rest in _cycle_partitions(total - k, k):
            yield (k,) + rest


def extremal_family(d: int, c: int) -> tuple[Graph, ...]:
    """The extremal graphs at branch degree ``c``, single-cycle default first.

    One per partition of the cycle block's order into cycle lengths of at
    least 3 (module docstring); all share lambda2.  Without a cycle block the
    family is the one graph with composition ().
    """
    total = _cycle_branch(d, c)
    return tuple(build_extremal(d, c, comp) for comp in _cycle_partitions(total, total))


def construction_partition(d: int, c: int, composition=None) -> VertexPartition:
    """Block partition matching :func:`build_extremal`'s vertex labelling."""
    blocks = []
    offset = 0
    for part in _blocks(d, c, composition):
        blocks.append(tuple(range(offset, offset + part.n)))
        offset += part.n
    return VertexPartition(tuple(blocks))


@dataclass(frozen=True)
class ThresholdResult:
    """Sharp lambda2 threshold for degree d, with its defining data."""

    d: int
    c_star: int
    value: float
    poly: Polynomial

    @cached_property
    def extremal_graph(self) -> Graph:
        """The default-composition graph attaining the threshold, built on first read."""
        return build_extremal(self.d, self.c_star)


def _branch_range(d: int) -> range:
    """Admissible branch degrees up to d/2: 1, 2, ..., (d-1)/2 for odd d and
    2, 4, ..., 2*floor(d/4) for even d."""
    step = 2 - d % 2  # the least admissible c, for every d >= 3
    _check_branch_degree(d, step)
    return range(step, d // 2 + 1, step)


def optimal_branch(d: int) -> int:
    """Branch degree minimizing lambda2: the last of the admissible range."""
    return _branch_range(d)[-1]


def threshold(d: int) -> ThresholdResult:
    """Largest lambda2 still forcing 2-connectedness, with its polynomial.

    ``extremal_graph`` is the default-composition graph attaining it; for odd
    ``d >= 13`` the other members of that graph's family attain it too
    (:func:`extremal_family`).
    """
    c_star = optimal_branch(d)
    return ThresholdResult(d, c_star, lambda2_value(d, c_star), lambda2_polynomial(d, c_star))


def monotonicity_chain(d: int) -> list[tuple[int, float]]:
    """lambda2 of the family graphs over the admissible branch degrees up to
    d/2, in increasing order of c; strictly decreasing."""
    return [(c, lambda2_value(d, c)) for c in _branch_range(d)]


# ---------------------------------------------------------------------------
# the five-set quotient around a cut vertex


def _five_set_quotient(d: int, c: int, a, b, e, f) -> np.ndarray:
    """5x5 quotient of outer block, neighbour set, cut vertex, neighbour set,
    outer block; rows sum to d.

    ``a``/``b`` are the mean edge counts from the first outer block into its
    neighbour set and back, ``e``/``f`` the same on the other side.
    """
    return np.array(
        [
            [d - a, a, 0, 0, 0],
            [b, d - 1 - b, 1, 0, 0],
            [0, c, 0, d - c, 0],
            [0, 0, 1, d - 1 - e, e],
            [0, 0, 0, f, d - f],
        ],
        dtype=float,
    )


def quotient_even_degree(d: int, c: int) -> np.ndarray:
    """5x5 quotient of the even-degree construction partition; rows sum to d."""
    f1_poly(d, c)  # validates the parameter range
    return _five_set_quotient(d, c, c, d + 1 - c, c + 1, d - c)


def quotient_odd_degree(d: int, c: int) -> np.ndarray:
    """5x5 quotient for the odd-degree construction (odd branch form).

    Defined for any 2 <= c <= d-2; for even c it is the matrix of the
    mirrored construction at branch degree d-c, whose reduction still has
    characteristic polynomial f2(d, c).
    """
    f2_poly(d, c)  # validates the parameter range
    return _five_set_quotient(d, c, c, d + 2 - c, c + 1, d - c)


def cut_partition_quotient(d: int, c: int, p: int, q: int, r: int, t: int) -> np.ndarray:
    """5x5 quotient of the five-set partition around an arbitrary cut vertex.

    ``p``/``q`` are the orders of the two outer blocks (component minus the
    cut vertex's neighbours); ``r``/``t`` count edges from the outer blocks
    into the neighbour sets.  Each of the c neighbours on the p side has d-1
    edges besides the cut vertex and at most c-1 of them to other
    neighbours, so c(d-c) <= r <= c(d-1), and likewise (d-c)c <= t.  For odd
    d both orders must be even: the branch with outer block p has degree sum
    d(p + c) - c, which is even only for even p, and likewise for q.
    """
    _check_branch_degree(d, c)
    if p < d + 1 - c:
        raise ValueError("p must be at least d+1-c")
    if q < c + 1:
        raise ValueError("q must be at least c+1")
    if not c * (d - c) <= r <= min(c * p, c * (d - 1)):
        raise ValueError("r out of range")
    if not (d - c) * c <= t <= min((d - c) * q, (d - c) * (d - 1)):
        raise ValueError("t out of range")
    if d % 2 and p % 2:
        raise ValueError("p must be even for odd d")
    if d % 2 and q % 2:
        raise ValueError("q must be even for odd d")
    return _five_set_quotient(d, c, r / p, r / c, t / (d - c), t / q)


def saturated_cut_reduction(d: int, c: int, p: int, q: int) -> np.ndarray:
    """Deflated cut-partition quotient at saturated cross edges (r=cp, t=(d-c)q).

    Each outer vertex is then adjacent to all c (on the q side, d-c)
    neighbours of the cut vertex, and each neighbour has at most d-1 edges
    into its outer block, so the admissible orders are d+1-c <= p <= d-1 and
    c+1 <= q <= d-1, both even for odd d (degree-sum parity);
    :func:`cut_partition_quotient` rejects all others.  At
    p = d+1-c, q = c+1 it is the reduction of the even-degree construction
    quotient.
    """
    return tridiagonal_reduce(cut_partition_quotient(d, c, p, q, c * p, (d - c) * q), d)


SWEEP_TOL = 1e-9


def _top_eigenvalue(tridiag: np.ndarray) -> float:
    return float(tridiagonal_eigenvalues(tridiag)[0])


@dataclass(frozen=True)
class SweepReport:
    """Outcome of the cut-parameter monotonicity sweep."""

    d: int
    c: int
    comparisons: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _check_run(kind, run, top, increasing, violations) -> int:
    """Flag each consecutive pair of ``run`` where ``top`` fails to strictly
    rise (``increasing``) or fall, naming the later point; return the pair count."""
    for prev, cur in zip(run, run[1:]):
        gap = top[cur] - top[prev] if increasing else top[prev] - top[cur]
        if gap <= SWEEP_TOL:
            violations.append(f"{kind} not strictly monotone at {cur}: gap={gap:.3e}")
    return max(len(run) - 1, 0)


def cut_parameter_sweep(d: int, c: int) -> SweepReport:
    """Check the top-eigenvalue response over the admissible parameter grid.

    The top eigenvalue of the deflated cut-partition quotient must strictly
    decrease as either cross-edge count (r, t) grows, and the saturated
    reduction's top eigenvalue must strictly increase with either outer block
    order (p, q).  (d, c) must pass :func:`_check_branch_degree`; for odd d,
    c is normalized to its odd form (the even one is the mirror image).  p
    and q span the admissible saturated orders, d+1-c <= p <= d-1 and
    c+1 <= q <= d-1, even for odd d, so there the p- and q-runs step by 2.
    Each grid point is solved once; violations list the r- and t-runs of
    each (p, q), then the p-runs, then the q-runs.  r and t step by 1,
    although every cut partition has even r = c(d-1) - 2e(N) (c(d-1) is
    even) and even t, so half the grid is no graph's partition.
    """
    _check_branch_degree(d, c)
    if d % 2 and c % 2 == 0 and c not in (1, d - 1):
        c = d - c
    step = 1 + d % 2  # odd d: even block orders only
    p_lo, q_lo = d + 1 - c, c + 1
    p_range = range(p_lo + p_lo % step, d, step)
    q_range = range(q_lo + q_lo % step, d, step)
    r_range = lambda p: range(c * (d - c), min(c * p, c * (d - 1)) + 1)
    t_range = lambda q: range((d - c) * c, min((d - c) * q, (d - c) * (d - 1)) + 1)

    top = {}
    runs = []  # (direction, increasing, points) in report order
    for p in p_range:
        for q in q_range:
            rs, ts = r_range(p), t_range(q)
            for r in rs:
                for t in ts:
                    quot = cut_partition_quotient(d, c, p, q, r, t)
                    top[p, q, r, t] = _top_eigenvalue(tridiagonal_reduce(quot, d))
            runs += [("r", False, [(p, q, r, t) for r in rs]) for t in ts]
            runs += [("t", False, [(p, q, r, t) for t in ts]) for r in rs]
            # the saturated point is in the table: p, q <= d-1 make c*p and
            # (d-c)*q the tops of the r- and t-ranges, and p >= d+1-c (q >= c+1)
            # keeps them at or above the floors c*(d-c) and (d-c)*c
            top[p, q] = top[p, q, c * p, (d - c) * q]
    runs += [("p", True, [(p, q) for p in p_range]) for q in q_range]
    runs += [("q", True, [(p, q) for q in q_range]) for p in p_range]

    violations = []
    comparisons = sum(_check_run(kind, run, top, inc, violations) for kind, inc, run in runs)
    return SweepReport(d, c, comparisons, tuple(violations))
