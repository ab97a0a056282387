"""Exhaustive and randomized generation of connected regular graphs.

The exhaustive enumerator produces exactly one labelled representative per
isomorphism class, using vertex augmentation with a canonical-code prune:

* the code of a labelled graph is the upper-triangle adjacency read column
  by column (column ``j`` holds the bits to vertices ``0..j-1``, vertex 0
  most significant), and a labelling is canonical when its code is maximal
  over all relabelings;
* every prefix ``{0..t}`` of a canonical labelling induces a subgraph that
  is itself canonically labelled, so any partial failing the max-code test
  can be discarded;
* in a canonical labelling of a connected graph every vertex after the
  first has a lower-numbered neighbour, which lets the search demand a
  nonempty back-neighbourhood at each step;
* a new vertex ``t`` whose back-neighbourhood, read on vertices
  ``0..t-2``, is larger than that of ``t-1`` is dropped before the max-code
  test: swapping ``t-1`` and ``t`` leaves columns ``1..t-2`` unchanged and
  makes column ``t-1`` that larger bitstring, so the test would reject the
  partial anyway.  The set of accepted partials, and hence the stream, is
  unchanged; this O(1) check drops most candidates the test used to see;
* call a vertex's lowest back-neighbour its parent.  By the previous rule
  parents never decrease along an accepted partial, so once ``t`` takes
  parent ``p`` no later vertex joins a vertex below ``p``.  Hence ``t``'s
  parent must be the lowest vertex below ``t`` still short of degree ``d``
  (any such vertex skipped would stay short for good), and only
  back-neighbourhoods containing it are generated.  Likewise a partial is
  dropped when its ``m`` future vertices would need more than
  ``m(m-1)/2`` edges among themselves.  Both prunes remove only partials
  with no regular completion, so the stream is unchanged (the parent rule
  is the fill-in-order idea of Meringer's orderly generation of regular
  graphs, J. Graph Theory 30, 1999).

The max-code test works on neighbour bitmasks.  It places vertices at
positions ``0, 1, ...`` in turn, keeping the set of unplaced vertices as a
bitmask.  The vertices that could go at position ``s`` are those whose
column ties the identity column ``s``.  They are found with one AND per
earlier position, and a vertex whose column reads larger proves the
identity is not canonical.  The search branches only on tied vertices.

Together with degree feasibility pruning this enumerates all 621 connected
cubic graphs on up to 14 vertices in about 0.9 s, all 1894 connected
quartic graphs on up to 12 vertices in about 1.6 s and the 4060 cubic
graphs on 16 vertices in about 4.5 s (2-core Xeon, Python 3.11).

The random sampler is exactly uniform over labelled connected d-regular
graphs.  It pairs degree stubs one at a time, each with a uniformly chosen
free stub, and abandons an attempt at its first loop or repeated edge
(the sequential pairing of Steger and Wormald, CPC 8, 1999, but with the
whole attempt rejected, which keeps the pairing model's law).  A cubic
attempt succeeds with probability about exp(-2), so stopping early saves
most of the random draws.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .graphs import Graph, graph_from_edges, is_connected, is_regular

REJECTION_BUDGET = 100_000


def _beats_identity(rows, t) -> bool:
    """True if some relabelling of the partial graph on ``{0..t}`` has a larger code.

    ``perm[i]`` is the vertex placed at position ``i`` and ``free`` the
    bitmask of vertices not yet placed.  Along the identity column ``s``, a
    1 bit keeps only the candidates adjacent to ``perm[i]``; at a 0 bit, any
    candidate adjacent to ``perm[i]`` reads larger and beats the identity.
    """
    perm = [0] * (t + 1)

    def beats(s: int, free: int) -> bool:
        if s > t:
            return False
        cand = free
        col = rows[s]
        for i in range(s):
            nbrs = rows[perm[i]]
            if (col >> i) & 1:
                cand &= nbrs
                if not cand:
                    return False
            elif cand & nbrs:
                return True
        while cand:
            low = cand & -cand
            perm[s] = low.bit_length() - 1
            if beats(s + 1, free ^ low):
                return True
            cand ^= low
        return False

    return beats(0, (1 << (t + 1)) - 1)


def _swap_beats(prev: int, col: int, t: int) -> bool:
    """True if swapping vertices ``t-1`` and ``t`` gives a larger code.

    ``prev`` and ``col`` are the back-neighbourhoods of ``t-1`` and ``t``.
    The swap leaves columns ``1..t-2`` as they are and makes column ``t-1``
    read ``col`` on vertices ``0..t-2``, so it wins when ``col`` has a 1 at
    the lowest vertex where the two differ.
    """
    diff = (col ^ prev) & ((1 << (t - 1)) - 1)
    return col & diff & -diff != 0


def _check_order(n: int, d: int) -> None:
    """Raise ValueError unless some d-regular graph has n vertices."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if n * d % 2:
        raise ValueError("n*d must be even (degree sum parity)")
    if n < d + 1:
        raise ValueError("a d-regular graph needs at least d+1 vertices")


def enumerate_connected_regular(n: int, d: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected d-regular graphs.

    Requires ``n*d`` even and ``n >= d+1``; the stream order is deterministic
    (each graph is emitted in its canonical labelling).
    """
    _check_order(n, d)
    rows = [0] * n
    deg = [0] * n

    def feasible(t: int) -> bool:
        m = n - 1 - t
        total_need = 0
        for v in range(t + 1):
            need = d - deg[v]
            if need > m:
                return False
            total_need += need
        if m == 0:
            return total_need == 0
        if total_need == 0:
            return False  # nothing left for future vertices to attach to
        if (m * d - total_need) % 2:
            return False
        if total_need > m * min(d, t + 1):
            return False
        if m * d - total_need > m * (m - 1):
            return False  # the future vertices cannot place that many edges among themselves
        return True

    def extend(t: int) -> Iterator[Graph]:
        if t == n:
            yield Graph(n, tuple(rows))
            return
        elig = [v for v in range(t) if deg[v] < d]
        if not elig:
            return
        lowest, others = elig[0], elig[1:]
        rem = n - 1 - t
        prev = rows[t - 1]
        for k in range(1, min(d, t) + 1):
            if d - k > rem:
                continue
            for rest in combinations(others, k - 1):
                comb = (lowest,) + rest
                col = 0
                for v in comb:
                    col |= 1 << v
                if _swap_beats(prev, col, t):
                    continue
                rows[t] = col
                for v in comb:
                    rows[v] |= 1 << t
                    deg[v] += 1
                deg[t] = k
                if feasible(t) and not _beats_identity(rows, t):
                    yield from extend(t + 1)
                for v in comb:
                    rows[v] &= ~(1 << t)
                    deg[v] -= 1
                rows[t] = 0
                deg[t] = 0

    yield from extend(1)


def random_connected_regular(n: int, d: int, seed: int) -> Graph:
    """Uniformly random labelled connected d-regular graph via the pairing model.

    Each attempt pairs the n*d degree stubs one at a time: it takes the
    last unpaired stub and joins it to a uniformly chosen other unpaired
    stub.  Any rule for picking the first stub of a pair gives a uniform
    perfect matching, so abandoning the attempt at its first loop or
    repeated edge, or when the finished graph is disconnected, and starting
    over is rejection sampling from the uniform law on simple pairings.
    Every labelled simple d-regular graph comes from exactly (d!)^n of
    them, so the result is uniform over labelled connected d-regular
    graphs.  Deterministic for a fixed seed; raises RuntimeError if the
    rejection budget runs out, and ValueError at once when no connected
    d-regular graph on n vertices exists (d <= 1 with n > d+1).
    """
    _check_order(n, d)
    if d <= 1 and n > d + 1:
        raise ValueError(f"no connected {d}-regular graph on {n} vertices")
    getrandbits = random.Random(seed).getrandbits
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(REJECTION_BUDGET):
        free = stubs[:]
        rows = [0] * n
        edges = []
        while free:
            u = free.pop()
            m = len(free)
            k = m.bit_length()  # redraw k bits until below m: an exact uniform index
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            v = free[j]
            free[j] = free[-1]
            free.pop()
            if u == v or rows[u] >> v & 1:
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            edges.append((u, v))
        else:
            g = graph_from_edges(n, edges)
            if is_connected(g):
                assert is_regular(g) == d
                return g
    raise RuntimeError(
        f"pairing sampler found no connected {d}-regular graph on {n} vertices in {REJECTION_BUDGET} attempts"
    )
