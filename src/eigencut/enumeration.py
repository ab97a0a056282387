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
  back-neighbourhoods containing it are generated;
* more generally, only back-neighbourhoods after which the partial can
  still become d-regular are generated (``_back_neighbourhoods``).  The
  shortfall of each earlier vertex is read once per new vertex ``t``.  A
  vertex short of one edge more than there are later vertices must join
  ``t``, as must the parent, and degree counts bound the size ``k`` of the
  set: the partial is then short of the old total plus ``d - 2k`` edge
  ends, which the later vertices must be able to supply.  Nothing is built
  only to be thrown away, and what is dropped has no regular completion,
  so the stream is unchanged (deciding completability while generating is
  the fill-in-order idea of Meringer's orderly generation of regular
  graphs, J. Graph Theory 30, 1999);
* the max-code test of a partial on ``{0..t}`` reuses the test its parent
  on ``{0..t-1}`` passed.  Adding ``t`` changes no column below ``t``, so
  the prefixes of the search (below) that avoid ``t`` are exactly the tie
  prefixes the parent's search entered, and at none of them can a vertex
  other than ``t`` read larger.  The enumerator keeps the tie prefixes of
  the partials along its path and compares ``t``'s column under all of
  them with a few big-integer operations; the search runs only below the
  prefixes where ``t`` ties.  Each accepted partial thus hands its search
  on to its children, as orderly generation hands on earlier work.  Each
  level of the recursion holds its partial's prefixes as a value that no
  deeper level changes, so nothing is undone on the way back up;
* the last ``TAIL`` vertices, from ``base = n - TAIL`` on, are nearly
  forced, so a search there prunes little.  One checkpoint rule covers
  every vertex.  Each first gets the cheap half of the test: one that
  reads larger under a tie prefix of the last partial tested in full
  beats the identity in every completion.  A vertex from ``base`` to
  ``n - 2`` stops there and defers the rest.  Any other vertex settles
  every vertex placed since that partial with one full test, reusing its
  prefixes with each of them as a new vertex (adding several vertices
  changes no column below the first either) and reusing their cheap-check
  results; it then yields the completed graph or builds the prefixes of
  the new partial for the next level.  So a vertex below ``base`` is
  tested alone and the completed graph once over its tail, and the same
  graphs come out in the same order.  That test tries the tail from its
  last vertex down, which refutes a non-canonical graph sooner.
  ``TAIL = 4`` was faster on cubic ``n <= 14`` and quartic ``n <= 11``
  than 3 or 5.

The max-code test works on neighbour bitmasks.  It places vertices at
positions ``0, 1, ...`` in turn, keeping the set of unplaced vertices as a
bitmask.  The vertices that could go at position ``s`` are those whose
column ties the identity column ``s``.  They are found with one AND per
earlier position, and a vertex whose column reads larger proves the
identity is not canonical.  The search branches only on tied vertices.

This enumerates all 621 connected cubic graphs on up to 14 vertices in
about 0.16 s, all 1894 connected quartic graphs on up to 12 vertices in
about 0.4 s and the 4060 cubic graphs on 16 vertices in about 1.0 s (CPU
time on a 2-core Xeon shared with other jobs, Python 3.11, medians of 30
runs each).

The random sampler is exactly uniform over labelled connected d-regular
graphs.  An attempt gives each of the n*d degree stubs a random 64-bit key,
sorts the stubs by key and pairs the first with the second, the third with
the fourth and so on.  With distinct keys that is a uniform perfect
matching (the pairing model of Bollobas, Eur. J. Combin. 1, 1980).  An
attempt with a repeated key, a loop, a repeated edge or a disconnected
graph is dropped, which keeps the law.  numpy screens a batch of attempts
at once, drawn with one ``getrandbits`` call.  The first batch is about the
attempts one graph takes, exp((d*d-1)/4), and each next one doubles, up to
keys for 4096 stubs (45 cubic attempts at n = 30): one graph costs about
one batch, and a run of many graphs of one order shares the numpy calls
among many attempts without holding large arrays.  The 5000 graphs of
the seed-7 cubic sweep (n <= 30) are sampled in about 0.2 s (in process,
min of 7, 2-core Xeon shared with other jobs, Python 3.11).
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterator

from .graphs import Graph, graph_from_edges, is_connected, is_regular

REJECTION_BUDGET = 100_000

TAIL = 4  # vertices tested only once the graph is complete (module docstring)

_BATCH_STUBS = 1 << 12  # the sampler's most keys at once, unless one attempt needs more (module docstring)


def _searcher(rows, t, perm, tree):
    """The max-code search of the partial graph on ``{0..t}`` below a prefix.

    ``perm[i]`` is the vertex placed at position ``i``.  ``beats(s, free)``
    searches below the prefix ``perm[:s]``, whose unplaced vertices are the
    bitmask ``free``, and returns True if a relabelling extending it has a
    larger code.  The vertices that could go at position ``s`` are
    those whose column ties the identity column ``s``: along it, a 1 bit
    keeps only the candidates adjacent to ``perm[i]``, and at a 0 bit any
    candidate adjacent to ``perm[i]`` reads larger and beats the identity.
    Unless ``tree`` is None, every prefix entered is appended to it as the
    tuple ``perm[:s]``, so the prefixes come in depth-first preorder.
    """

    def beats(s: int, free: int) -> bool:
        if tree is not None:
            tree.append(tuple(perm[:s]))
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

    return beats


class _TiePrefixes:
    """The tie prefixes of one canonical partial on the enumerator's path.

    A tie prefix of the partial on ``{0..t-1}`` is a prefix ``perm[:s]``
    that its max-code search enters.  ``tree`` holds them as the tuples
    ``perm[:s]``, in depth-first preorder; the first ``count`` belong to
    this partial, and those past it were recorded by the test of its latest
    extension.
    Prefix ``k`` owns the ``field``-bit field ``k`` of the packed integers,
    whose bit ``i`` stands for position ``i``:

    * ``cols[v]`` marks where each prefix places ``v``, so the OR of
      ``cols`` over a new vertex's back-neighbours is its column read under
      every prefix.  Only vertices that later vertices can join are kept
      up to date;
    * ``ident`` holds identity column ``s`` in the field of each prefix of
      length ``s < t``, and ``full`` has bit 0 set in the field of each
      prefix of length ``t``, whose identity column is the new vertex's;
    * ``ones`` has bit 0 of every field set.  The top bit of a field is a
      guard that no column reaches.

    ``t`` is the order of the partial the prefixes belong to, so a new
    vertex is ``t`` or later.  An instance is never changed: ``push``
    builds the prefixes of an accepted extension as a new one, so each
    level of the enumerator's depth-first path keeps its own.  All levels
    share one ``tree``, whose nodes past a level's ``count`` are
    discarded when that level tests its next extension.
    ``digits[i]`` is a field with bit ``i`` set, written as a binary string.
    """

    __slots__ = ("field", "digits", "t", "tree", "count", "cols", "ident", "full", "ones")

    def __init__(self, field, digits, t, tree, count, cols, ident, full, ones):
        self.field, self.digits, self.t, self.tree, self.count = field, digits, t, tree, count
        self.cols, self.ident, self.full, self.ones = cols, ident, full, ones

    def push(self, rows, t: int, keep: int) -> _TiePrefixes:
        """The prefixes of the partial on ``{0..t}``, which passed its test: these and those recorded past ``count``.

        ``keep`` is the bitmask of vertices that later vertices may join.
        """
        f, base, tree, digits = self.field, self.count, self.tree, self.digits
        count = len(tree)
        m = count - base
        zero = "0" * f
        # The new fields are written out as binary strings, highest first, and
        # parsed once; ORing them into the integers one by one would take a
        # pass over an integer per prefix, quadratic in the prefixes recorded.
        # Each prefix holds all its positions, so one walk over the new
        # prefixes finds every field where a kept vertex sits.
        identparts = [format(rows[s] & ((1 << s) - 1), f"0{f}b") for s in range(t + 1)] + [zero]
        fullparts = [zero] * (t + 1) + [digits[0]]
        newident, newfull = [], []
        # places[v]: (r, digits[i]) for each new prefix r with v at position i, highest r first
        places = [[] if keep >> v & 1 else None for v in range(t + 1)]
        for r in range(m - 1, -1, -1):
            prefix = tree[base + r]
            s = len(prefix)
            newident.append(identparts[s])
            newfull.append(fullparts[s])
            for i, v in enumerate(prefix):
                if (where := places[v]) is not None:
                    where.append((r, digits[i]))
        cols = self.cols[:]
        shift = base * f
        for v, found in enumerate(places):
            if found:
                pieces, hi = [], m
                for r, field in found:
                    pieces += (zero * (hi - r - 1), field)
                    hi = r
                pieces.append(zero * hi)
                cols[v] |= int("".join(pieces), 2) << shift
        col = rows[t] & ((1 << t) - 1)
        ident = self.ident | col * self.full | int("".join(newident), 2) << shift
        full = int("".join(newfull), 2) << shift
        ones = self.ones | ((1 << (m * f)) - 1) // ((1 << f) - 1) << shift
        return _TiePrefixes(f, digits, t + 1, tree, count, cols, ident, full, ones)


def _tie_prefixes(rows, t: int, keep: int) -> _TiePrefixes | None:
    """The tie prefixes of the partial on ``{0..t-1}`` (``t >= 1``), or None if it is not canonical.

    A search from scratch, its prefixes pushed onto those of the empty
    partial; ``keep`` is as for ``_TiePrefixes.push``.
    """
    n = len(rows)
    tree = []
    if _searcher(rows, t - 1, [0] * t, tree)(0, (1 << t) - 1):
        return None
    digits = [format(1 << i, f"0{n + 1}b") for i in range(n)]
    return _TiePrefixes(n + 1, digits, 0, tree, 0, [0] * n, 0, 0, 0).push(rows, t - 1, keep)


def _column_ties(ties: _TiePrefixes, rows, u: int) -> int | None:
    """The guard bits of the tie prefixes of ``{0..ties.t-1}`` where ``u``'s column ties, or None if it reads larger at one.

    At every prefix at once, ``u``'s column is compared with the identity
    column of the prefix's length by the lowest differing bit, as in
    ``_swap_beats``.
    """
    t = ties.t
    mask = (1 << t) - 1
    cols = ties.cols
    x = 0  # u's column read under every tie prefix, one field each
    c = rows[u] & mask
    while c:
        low = c & -c
        x |= cols[low.bit_length() - 1]
        c ^= low
    diff = x ^ (ties.ident | (rows[t] & mask) * ties.full)
    ones = ties.ones
    guard = ones << (ties.field - 1)
    # Per field, subtracting 1 leaves the guard bit set exactly when diff is
    # nonzero, and diff & ~below is diff's lowest set bit.
    below = (diff | guard) - ones
    if x & diff & ~below:
        return None
    return guard & ~below


def _extension_beats(ties: _TiePrefixes, rows, tied) -> bool:
    """True if some relabelling of the partial graph on ``{0..last}`` has a larger code.

    ``ties`` are the tie prefixes of the canonical ``{0..ties.t-1}``.

    ``tied`` holds ``_column_ties(ties, rows, u)``, none of them None, for
    the new vertices ``u = t..last``, where ``t = ties.t``.  Adding them
    changes no column below ``t``.  So the prefixes of the search that
    avoid all of them are exactly those tie prefixes, and none of their
    other candidates reads larger, which would give the canonical prefix a
    larger code.  Where a new vertex ties, the search goes on below the
    prefix with it appended.  Unless ``{0..last}`` is the whole graph, the
    prefixes entered there are recorded for ``ties.push``.  The new
    vertices are tried from ``last`` down: the verdict does not depend on
    the order, only a test of one new vertex records, and a non-canonical
    completed graph is refuted sooner (14,688 search nodes instead of
    27,813 over the cubic graphs on up to 14 vertices).
    """
    t, tree = ties.t, ties.tree
    # the nodes past count are those of an earlier test here or of deeper levels
    del tree[ties.count :]
    last = t + len(tied) - 1
    f = ties.field
    record = last + 1 < len(rows)
    perm = [0] * (last + 1)
    beats = _searcher(rows, last, perm, tree if record else None)
    every = (1 << (last + 1)) - 1
    for u in range(last, t - 1, -1):
        found = tied[u - t]
        # The tied fields' guard bits, read off one binary string: iterating
        # over the bits of ``found`` would cost a pass over it per tie.
        bits = bin(found)
        top = len(bits) - 1
        i = bits.find("1", 2)
        while i >= 0:
            prefix = tree[(top - i) // f]
            s = len(prefix)
            perm[:s] = prefix
            perm[s] = u
            if s < t or t < last:
                free = every ^ (1 << u)
                for v in prefix:
                    free ^= 1 << v
                if beats(s + 1, free):
                    return True
            elif record:  # below a prefix of all of {0..t-1} lies just one leaf
                beats(t + 1, 0)
            i = bits.find("1", i + 1)
    return False


def _swap_beats(prev: int, col: int, t: int) -> bool:
    """True if swapping vertices ``t-1`` and ``t`` gives a larger code.

    ``prev`` and ``col`` are the back-neighbourhoods of ``t-1`` and ``t``.
    The swap leaves columns ``1..t-2`` as they are and makes column ``t-1``
    read ``col`` on vertices ``0..t-2``, so it wins when ``col`` has a 1 at
    the lowest vertex where the two differ.
    """
    diff = (col ^ prev) & ((1 << (t - 1)) - 1)
    return col & diff & -diff != 0


def _back_neighbourhoods(rows, t: int, d: int) -> Iterator[tuple[int, ...]]:
    """The back-neighbourhoods of a new vertex ``t`` after which the partial can still become d-regular.

    ``rows`` holds a partial on ``{0..t-1}`` that the enumerator reached, so
    with ``m = n-1-t`` vertices to come after ``t`` each vertex ``v`` is
    short of ``need(v) <= m+1`` edges, and can gain one from ``t`` and one
    from each later vertex.  So every vertex needing ``m+1`` joins ``t``,
    and so does the lowest vertex needing any (the parent rule).  ``t``
    takes ``1 <= k <= d`` edges and may need ``d - k <= m`` more.  The partial
    on ``{0..t}`` then needs ``T + d - 2k`` edge ends, ``T`` being the
    total need now: none when ``m = 0``, else at least one for the later
    vertices to join, at most ``min(d, t+1)`` per later vertex, and at
    least ``m*d - m(m-1)``, so that the later vertices can place the rest
    among themselves.  That bounds ``k``.  The sets come with ``k``
    ascending, then in lexicographic order, each as a tuple of its vertices
    with those that must join ``t`` first.
    """
    m = len(rows) - 1 - t
    fixed, free = [], []
    total = 0
    for v in range(t):
        need = d - rows[v].bit_count()
        if need:
            (fixed if need > m or not total else free).append(v)
            total += need
    lo = max(1, len(fixed), d - m, (total + d - m * min(d, t + 1) + 1) // 2)
    hi = min(d, (total + d - (m > 0)) // 2, (total + d - m * (d - m + 1)) // 2)
    fixed = tuple(fixed)
    for k in range(lo, hi + 1):
        for rest in combinations(free, k - len(fixed)):
            yield fixed + rest


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

    def extend(t: int, ties: _TiePrefixes, tied: list) -> Iterator[Graph]:
        # ties: those of the last partial tested in full; tied: _column_ties of the vertices placed since
        if t == n:
            yield Graph(n, tuple(rows))
            return
        prev = rows[t - 1]
        bit = 1 << t
        for comb in _back_neighbourhoods(rows, t, d):
            col = 0
            for v in comb:
                col |= 1 << v
            if _swap_beats(prev, col, t):
                continue
            rows[t] = col
            for v in comb:
                rows[v] |= bit
            if (found := _column_ties(ties, rows, t)) is not None:
                if base <= t < n - 1:
                    yield from extend(t + 1, ties, tied + [found])
                elif not _extension_beats(ties, rows, tied + [found]):
                    if t + 1 == n:
                        yield Graph(n, tuple(rows))
                    else:
                        keep = sum(1 << v for v in range(t + 1) if rows[v].bit_count() < d)
                        yield from extend(t + 1, ties.push(rows, t, keep), [])
            for v in comb:
                rows[v] &= ~bit
            rows[t] = 0

    base = max(1, n - TAIL)
    yield from extend(1, _tie_prefixes(rows, 1, 1), [])


def _repeats(rows):
    """Per row of an array sorted along its rows, True where some value repeats."""
    return (rows[:, 1:] == rows[:, :-1]).any(axis=1)


def random_connected_regular_graphs(n: int, d: int, getrandbits) -> Iterator[Graph]:
    """Independent uniformly random labelled connected d-regular graphs, via the pairing model.

    Each attempt draws an independent 64-bit key per degree stub from
    ``getrandbits`` (``random.Random.getrandbits``), sorts the stubs by key
    and pairs consecutive ones.  With distinct keys the sorted order is a
    uniform permutation, so the pairing is a uniform perfect matching; an
    attempt with a repeated key, a loop or a repeated edge, or whose graph
    is disconnected, is dropped, which is rejection sampling from the
    uniform law on simple pairings.  Every labelled simple d-regular graph
    comes from exactly (d!)^n of them, so each graph is uniform over
    labelled connected d-regular graphs.  Attempts are drawn and screened
    in batches (module docstring); ``graph_from_edges`` and
    ``is_connected`` run once per simple pairing.  Raises RuntimeError when
    ``REJECTION_BUDGET`` attempts in a row yield no graph, and ValueError on
    the first ``next`` when no connected d-regular graph on n vertices
    exists (d <= 1 with n > d+1).
    """
    _check_order(n, d)
    if d <= 1 and n > d + 1:
        raise ValueError(f"no connected {d}-regular graph on {n} vertices")
    # numpy is imported here: imported at the top, it loads before the rest of
    # the package, which raised peak memory after import by about 0.3 MiB
    import numpy as np

    stubs = n * d
    # stub s belongs to vertex s // d; unsigned like the keys, so that numpy
    # loads no kernels for a second dtype, which keeps peak memory down
    vertex = np.arange(stubs, dtype=np.uint64) // d
    most = max(1, _BATCH_STUBS // max(stubs, 1))
    # the first batch is about the attempts one graph takes
    rate = (d * d - 1) / 4  # a pairing is simple with probability about exp(-rate)
    batch = most if rate > math.log(most) else min(math.ceil(math.exp(rate)), most)
    failed = 0
    while True:
        # Each array is dropped once read, which keeps peak memory down.
        bits = getrandbits(64 * batch * stubs).to_bytes(8 * batch * stubs, "little")
        keys = np.frombuffer(bits, "<u8").reshape(batch, stubs)
        order = keys.argsort(axis=1)
        ends = vertex[order]
        # the sorted keys, gathered through flat indices: no dearer than a
        # second sort, and about half the cost of take_along_axis
        order += (np.arange(batch) * stubs)[:, None]
        repeated = _repeats(keys.ravel()[order])
        del bits, keys, order
        lo, hi = ends[:, 0::2], ends[:, 1::2]  # sorted positions 2i and 2i+1 are paired
        # every edge coded once, as min * n + max, so a repeated edge repeats a code
        codes = np.minimum(lo, hi)
        codes *= n
        codes += np.maximum(lo, hi)
        codes.sort(axis=1)
        simple = ~(repeated | (lo == hi).any(axis=1) | _repeats(codes))
        del codes
        for i, ok in enumerate(simple.tolist()):
            if ok:
                row = ends[i].tolist()
                g = graph_from_edges(n, zip(row[0::2], row[1::2]))
                if is_connected(g):
                    assert is_regular(g) == d
                    failed = 0
                    yield g
                    continue
            failed += 1
            if failed == REJECTION_BUDGET:
                raise RuntimeError(
                    f"pairing sampler found no connected {d}-regular graph on {n} vertices in {REJECTION_BUDGET} attempts"
                )
        batch = min(2 * batch, most)


def random_connected_regular(n: int, d: int, seed: int) -> Graph:
    """The first graph of ``random_connected_regular_graphs`` fed by ``random.Random(seed)``.

    Uniform over labelled connected d-regular graphs and deterministic for a
    fixed seed; raises as that generator does.
    """
    return next(random_connected_regular_graphs(n, d, random.Random(seed).getrandbits))
