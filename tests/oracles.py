"""Independent brute-force oracles used to cross-check the library.

These were written against the definitions directly, before the optimized
implementations, and deliberately share no code with the package: simple
adjacency-set graphs, plain bisection, naive subset scans, and a
backtracking enumerator over the adjacency upper triangle.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np


def bisect_largest_root(coeffs, lo, hi, iters=200):
    """Largest root by plain bisection; requires a sign change on [lo, hi]."""

    def ev(x):
        v = 0.0
        for c in coeffs:
            v = v * x + c
        return v

    grid = [lo + (hi - lo) * k / 256 for k in range(257)]
    vals = [ev(x) for x in grid]
    a = b = None
    for k in range(256, 0, -1):
        if vals[k] > 0 >= vals[k - 1]:
            a, b = grid[k - 1], grid[k]
            break
    assert a is not None, "oracle found no bracket"
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if ev(mid) > 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


# -- tiny independent graph helpers (adjacency sets over 0..n-1) -------------


def adj_sets(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def relabel_edges(edges, perm):
    """The edges with vertex ``v`` renamed to ``perm[v]``."""
    assert sorted(perm) == list(range(len(perm))), "perm must be a permutation of 0..n-1"
    return [(perm[u], perm[v]) for u, v in edges]


def reachable(adj, start, skip=None):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w != skip and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_connected_sets(n, adj):
    if n <= 1:
        return True
    return len(reachable(adj, 0)) == n


def brute_cut_vertices(n, edges):
    """Cut vertices by deletion: {u: sorted component tuples of G - u}."""
    adj = adj_sets(n, edges)
    out = {}
    for u in range(n):
        rest = [v for v in range(n) if v != u]
        if not rest:
            continue
        comps = []
        left = set(rest)
        while left:
            start = min(left)
            comp = reachable(adj, start, skip=u) - {u}
            comps.append(tuple(sorted(comp)))
            left -= comp
        if len(comps) > 1:
            out[u] = sorted(comps)
    return out


def brute_edge_expansion(n, edges):
    """min |E(S, V-S)| / |S| over nonempty S with |S| <= n/2, by full scan."""
    adj = adj_sets(n, edges)
    best = float("inf")
    for k in range(1, n // 2 + 1):
        for sub in combinations(range(n), k):
            s = set(sub)
            cut = sum(1 for v in s for w in adj[v] if w not in s)
            best = min(best, cut / k)
    return best


def brute_iso(n, edges_a, edges_b):
    """Backtracking isomorphism test on edge sets (degree-pruned)."""
    adj_a, adj_b = adj_sets(n, edges_a), adj_sets(n, edges_b)
    deg_a = [len(adj_a[v]) for v in range(n)]
    deg_b = [len(adj_b[v]) for v in range(n)]
    if sorted(deg_a) != sorted(deg_b):
        return False
    image = [-1] * n
    used = [False] * n

    def place(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_b[w] != deg_a[v]:
                continue
            if all((image[x] in adj_b[w]) == (x in adj_a[v]) for x in range(v)):
                image[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return place(0)


def brute_enumerate_connected_regular(n, d):
    """All connected d-regular graphs up to isomorphism, as sorted edge tuples.

    Backtracks over rows of the adjacency upper triangle.  The neighbourhood
    of vertex 0 is fixed to {1..d} (every class has such a labelling), then
    isomorphic duplicates are removed with the backtracking tester above,
    bucketed by rounded adjacency spectra to keep the quadratic step small.
    """
    if n * d % 2 or n < d + 1:
        return []
    adj = [set() for _ in range(n)]
    for v in range(1, d + 1):
        adj[0].add(v)
        adj[v].add(0)
    found = []

    def fill(v):
        if v == n:
            if is_connected_sets(n, adj):
                found.append(tuple(sorted((a, b) for a in range(n) for b in adj[a] if a < b)))
            return
        need = d - len(adj[v])
        if need < 0:
            return
        cands = [w for w in range(v + 1, n) if len(adj[w]) < d]
        if need > len(cands):
            return
        for chosen in combinations(cands, need):
            for w in chosen:
                adj[v].add(w)
                adj[w].add(v)
            fill(v + 1)
            for w in chosen:
                adj[v].remove(w)
                adj[w].remove(v)

    fill(1)

    buckets = {}
    reps = []
    for edges in found:
        mat = np.zeros((n, n))
        for u, v in edges:
            mat[u, v] = mat[v, u] = 1.0
        key = tuple(np.round(np.linalg.eigvalsh(mat), 6))
        bucket = buckets.setdefault(key, [])
        if not any(brute_iso(n, edges, other) for other in bucket):
            bucket.append(edges)
            reps.append(edges)
    return reps


def column_codes(n, edges):
    """Column-major code of every relabelling, keyed by the vertex order.

    ``order[p]`` is the vertex placed at position ``p``.  The code reads the
    relabelled upper triangle column by column (column ``j`` holds the
    adjacencies to positions ``0..j-1``), the first bit read most
    significant.  The identity order comes first.
    """
    adj = adj_sets(n, edges)
    codes = {}
    for order in permutations(range(n)):
        code = 0
        for j in range(1, n):
            for i in range(j):
                code = (code << 1) | (order[i] in adj[order[j]])
        codes[order] = code
    return codes


def max_column_code(n, edges):
    """Maximum column-major code over all n! relabellings, with an order attaining it."""
    codes = column_codes(n, edges)
    order = max(codes, key=codes.get)
    return codes[order], order


def feasible(rows, n, d, t):
    """Whether the partial on ``{0..t}`` (neighbour bitmasks ``rows``) can still become d-regular on n vertices.

    The filter the regular enumerator applied to every candidate partial
    before it generated only completable ones.
    """
    m = n - 1 - t
    total_need = 0
    for v in range(t + 1):
        need = d - rows[v].bit_count()
        if need > m:
            return False
        total_need += need
    if m == 0:
        return total_need == 0
    if total_need == 0:
        return False  # nothing left for future vertices to attach to
    # m*d - total_need = n*d - 2*(t+1)*d + 2*(edges placed) is even, since n*d is
    if total_need > m * min(d, t + 1):
        return False
    if m * d - total_need > m * (m - 1):
        return False  # the future vertices cannot place that many edges among themselves
    return True


def completable_back_neighbourhoods(rows, t, d):
    """The back-neighbourhoods of vertex t that ``feasible`` accepts, as sorted tuples.

    They are drawn as the enumerator once drew them: each holds the lowest
    vertex below t short of degree d and k - 1 more such vertices, k
    ascending and then in lexicographic order, and leaves t needing at
    most one edge per later vertex.
    """
    n = len(rows)
    rows = list(rows)
    elig = [v for v in range(t) if rows[v].bit_count() < d]
    if not elig:
        return []
    lowest, others = elig[0], elig[1:]
    rem = n - 1 - t
    accepted = []
    for k in range(1, min(d, t) + 1):
        if d - k > rem:
            continue
        for rest in combinations(others, k - 1):
            comb = (lowest,) + rest
            rows[t] = sum(1 << v for v in comb)
            for v in comb:
                rows[v] |= 1 << t
            if feasible(rows, n, d, t):
                accepted.append(comb)
            for v in comb:
                rows[v] &= ~(1 << t)
            rows[t] = 0
    return accepted
