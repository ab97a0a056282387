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
  nonempty back-neighbourhood at each step.

The max-code test works on neighbour bitmasks.  It places vertices at
positions ``0, 1, ...`` in turn, keeping the set of unplaced vertices as a
bitmask.  The vertices that could go at position ``s`` are those whose
column ties the identity column ``s``.  They are found with one AND per
earlier position, and a vertex whose column reads larger proves the
identity is not canonical.  The search branches only on tied vertices.

Together with degree feasibility pruning this enumerates all 621 connected
cubic graphs on up to 14 vertices in about 10 s and all 1894 connected
quartic graphs on up to 12 vertices in about 25 s (2-core Xeon, Python 3.11).
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


def enumerate_connected_regular(n: int, d: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of connected d-regular graphs.

    Requires ``n*d`` even and ``n >= d+1``; the stream order is deterministic
    (each graph is emitted in its canonical labelling).
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if n * d % 2:
        raise ValueError("n*d must be even (degree sum parity)")
    if n < d + 1:
        raise ValueError("a d-regular graph needs at least d+1 vertices")
    if n == 1:
        yield Graph(1, (0,))
        return
    if d == 0:
        return  # no connected 0-regular graph on n >= 2 vertices

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
        return True

    def extend(t: int) -> Iterator[Graph]:
        if t == n:
            yield Graph(n, tuple(rows))
            return
        elig = [v for v in range(t) if deg[v] < d]
        rem = n - 1 - t
        for k in range(1, min(d, t) + 1):
            if d - k > rem:
                continue
            for comb in combinations(elig, k):
                col = 0
                for v in comb:
                    col |= 1 << v
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
    """Uniform-ish connected d-regular graph via the pairing model.

    Degree stubs are shuffled and paired; outcomes with loops, repeated
    edges, or a disconnected result are rejected and retried.  Deterministic
    for a fixed seed; raises RuntimeError if the rejection budget runs out.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if n * d % 2:
        raise ValueError("n*d must be even (degree sum parity)")
    if n < d + 1:
        raise ValueError("a d-regular graph needs at least d+1 vertices")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(REJECTION_BUDGET):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        g = graph_from_edges(n, sorted(edges))
        if is_connected(g):
            assert is_regular(g) == d
            return g
    raise RuntimeError(f"no connected {d}-regular graph found in {REJECTION_BUDGET} attempts")
