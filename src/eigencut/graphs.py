"""Simple undirected graphs with bit-row adjacency.

Vertices are the integers ``0..n-1``.  A :class:`Graph` stores one Python
integer per vertex whose set bits are that vertex's neighbours, which keeps
neighbourhood intersections and enumeration inner loops cheap.  Graphs are
immutable; every operation here is a pure function.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ``rows[v]`` is the neighbour bitmask of ``v``."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError("rows must have one mask per vertex")
        rows = self.rows
        for v, row in enumerate(rows):
            if row >> self.n:
                raise ValueError(f"row {v} references a vertex >= n")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
                row ^= low

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(r.bit_count() for r in self.rows))


@dataclass(frozen=True)
class CutVertexWitness:
    """A cut vertex together with the split it induces.

    ``components`` are the vertex sets of the components of ``G - u`` and
    ``branch_degrees[i]`` counts the edges from ``u`` into ``components[i]``.
    The branch degrees sum to ``deg(u)``.
    """

    u: int
    components: tuple[frozenset[int], ...]
    branch_degrees: tuple[int, ...]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        if v < 0:
            raise ValueError("vertex set references a negative vertex")
        m |= 1 << v
    return m


def graph_from_edges(n: int, edges) -> Graph:
    """Build a graph on ``n`` vertices from an iterable of (u, v) pairs."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complete(n: int) -> Graph:
    """Complete graph on ``n >= 1`` vertices."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError("a simple cycle needs at least 3 vertices")
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(g.rows)))


def matching_complement(n: int) -> Graph:
    """Complement of a perfect matching on ``n`` (even) vertices; (n-2)-regular."""
    if n < 2 or n % 2:
        raise ValueError("a perfect matching needs a positive even order")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) ^ (1 << (v ^ 1)) for v in range(n)))


def disjoint_union(parts) -> Graph:
    rows = []
    offset = 0
    for p in parts:
        rows.extend(r << offset for r in p.rows)
        offset += p.n
    return Graph(offset, tuple(rows))


def cycles_union_complement(lengths) -> Graph:
    """Complement of a disjoint union of cycles; (sum(lengths) - 3)-regular."""
    lengths = list(lengths)
    if not lengths or any(k < 3 for k in lengths):
        raise ValueError("every cycle length must be at least 3")
    n = sum(lengths)
    full = (1 << n) - 1
    rows = []
    offset = 0
    for k in lengths:
        # vertex offset + i of a k-cycle is adjacent to offset + (i ± 1) mod k
        rows.extend(
            full ^ (1 << offset + i) ^ (1 << offset + (i - 1) % k) ^ (1 << offset + (i + 1) % k)
            for i in range(k)
        )
        offset += k
    return Graph(n, tuple(rows))


def sequential_join(parts) -> Graph:
    """Disjoint union plus all edges between consecutive parts.

    Vertices are labelled block-contiguously in the order the parts are
    listed, so repeated builds give byte-identical encodings.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("sequential join needs at least one part")
    rows = []
    offset = prev = 0  # prev: the previous part's vertex mask
    for i, p in enumerate(parts):
        end = offset + p.n
        nxt = ((1 << parts[i + 1].n) - 1) << end if i + 1 < len(parts) else 0
        rows.extend(r << offset | prev | nxt for r in p.rows)
        prev = ((1 << p.n) - 1) << offset
        offset = end
    return Graph(offset, tuple(rows))


def is_regular(g: Graph) -> int | None:
    """The common degree if ``g`` is regular, else ``None``."""
    if g.n == 0:
        return None
    d = g.degree(0)
    return d if all(r.bit_count() == d for r in g.rows) else None


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    rows = g.rows
    seen = frontier = 1  # breadth-first from vertex 0
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def articulation_points(g: Graph) -> list[CutVertexWitness]:
    """All cut vertices of a connected graph, with their component splits.

    One depth-first search finds both.  It has no cross edges, so the
    subtree of a child ``v`` of ``u`` is a component of ``G - u`` exactly
    when no edge leaves it except to ``u``.  The root is a cut vertex with
    two or more such subtrees, any other vertex with one, and then the rest
    of ``G - u`` (which holds u's parent) is one more component.  Each
    witness lists the components lowest vertex first, with the edge counts
    from ``u`` into them.  Empty result means the graph is 2-connected (or
    n <= 2).  A disconnected graph raises ``ValueError``.
    """
    n = g.n
    if n == 0:
        return []

    rows = g.rows
    entered = [0] * n  # entered[w]: the visited mask just before w is reached
    reach = list(rows)  # reach[v]: the OR of the rows over v's finished subtree
    split = {}  # u -> the subtrees of u's children that are components of G - u
    visited = 1
    # iterative DFS from vertex 0, lowest unvisited neighbour first.  A frame
    # is just its vertex: the neighbours left to visit are its row minus the
    # visited mask, and a finished subtree is what was visited since it began.
    stack = [0]
    while stack:
        v = stack[-1]
        fresh = rows[v] & ~visited
        if fresh:
            bit = fresh & -fresh
            w = bit.bit_length() - 1
            entered[w] = visited
            visited |= bit
            stack.append(w)
        else:
            stack.pop()
            if stack:
                u = stack[-1]
                reach[u] |= reach[v]
                sub = visited & ~entered[v]
                if not reach[v] & ~sub & ~(1 << u):
                    split.setdefault(u, []).append(sub)
    everyone = (1 << n) - 1
    if visited != everyone:
        raise ValueError("articulation points are defined for connected graphs")

    witnesses = []
    for u, comps in sorted(split.items()):
        if u:
            comps.append(everyone & ~(1 << u) & ~sum(comps))  # subtrees are disjoint
        elif len(comps) < 2:
            continue
        comps.sort(key=lambda comp: comp & -comp)
        parts = tuple(frozenset(_bits(comp)) for comp in comps)
        degs = tuple((rows[u] & comp).bit_count() for comp in comps)
        witnesses.append(CutVertexWitness(u, parts, degs))
    return witnesses


def edges_between(g: Graph, s, t) -> int:
    """Number of edges with one end in ``s`` and the other in ``t``.

    Each undirected edge is counted once, even when both ends lie in the
    intersection of the two sets.
    """
    smask, tmask = _mask(s), _mask(t)
    if (smask | tmask) >> g.n:
        raise ValueError("vertex set references a vertex >= n")
    total = sum((g.rows[v] & tmask).bit_count() for v in _bits(smask))
    both = smask & tmask
    inner = sum((g.rows[v] & both).bit_count() for v in _bits(both)) // 2
    return total - inner


# ---------------------------------------------------------------------------
# isomorphism


def _refine_colors(rows: tuple[int, ...]):
    """Yield the colouring after each round of colour refinement of ``rows``.

    Round 0 keys each vertex by degree and common-neighbour profile, later
    rounds by colour and neighbour-colour multiset.  Ids rank the keys of all rows.
    """
    profiles = [tuple(sorted((r & rows[u]).bit_count() for u in _bits(r))) for r in rows]
    ids, new = None, _renumber([(r.bit_count(), p) for r, p in zip(rows, profiles)])
    while new != ids:  # rounds never merge classes, so one that splits none is the fixed point
        ids = new
        yield ids
        new = _renumber([(i, tuple(sorted(ids[u] for u in _bits(r)))) for i, r in zip(ids, rows)])


def _renumber(keys: list) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """True iff some bijection of vertex sets preserves adjacency.

    Both graphs are refined together, as one graph, so colours mean the same
    in each; the first round whose halves' colour multisets differ says no.
    Otherwise backtracking maps each vertex of ``a`` to one of its colour in ``b``.
    """
    n = a.n
    if b.n != n:
        return False
    for ids in _refine_colors(a.rows + tuple(r << n for r in b.rows)):
        ca, cb = ids[:n], ids[n:]
        if sorted(ca) != sorted(cb):
            return False

    class_size = {c: ca.count(c) for c in set(ca)}
    # map vertices of `a` in BFS order, each component from its vertex in the
    # rarest class, so every new vertex (in a connected component) is
    # constrained by a mapped neighbour as early as possible
    order = []
    seen = 0
    for root in sorted(range(n), key=lambda v: (class_size[ca[v]], ca[v], v)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        k = len(order)
        order.append(root)
        while k < len(order):  # `order` is the BFS queue: order[k] is next
            fresh = a.rows[order[k]] & ~seen
            seen |= fresh
            order.extend(_bits(fresh))
            k += 1

    of_color = dict.fromkeys(cb, 0)  # colour -> bitmask of b's vertices
    for w, c in enumerate(cb):
        of_color[c] |= 1 << w
    earlier, mapped = [], 0  # earlier[k]: the neighbours of order[k] mapped before it
    for u in order:
        earlier.append(list(_bits(a.rows[u] & mapped)))
        mapped |= 1 << u
    image = [0] * n  # image[x]: the bit of x's image in b

    def assign(k: int, used: int) -> bool:
        if k == n:
            return True
        u = order[k]
        need = 0  # a candidate's neighbours among `used` must be exactly these
        for x in earlier[k]:
            need |= image[x]
        for w in _bits(of_color[ca[u]] & ~used):
            if b.rows[w] & used == need:
                image[u] = 1 << w
                if assign(k + 1, used | 1 << w):
                    return True
        return False

    return assign(0, 0)


# ---------------------------------------------------------------------------
# serialization


_G6_HEADER = ">>graph6<<"
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_G6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_G6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)


def to_graph6(g: Graph) -> str:
    """Standard printable graph6 encoding (column-major upper triangle)."""
    n = g.n
    if n <= 62:
        prefix = bytes([n + 63])
    elif n <= 258047:
        prefix = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph too large for this graph6 encoder")
    # By symmetry column j of the upper triangle is the low j bits of row j,
    # so bit k of `stream` is the k-th bit of the graph6 bit sequence.
    stream = 0
    offset = 0
    for j, row in enumerate(g.rows):
        stream |= (row & ((1 << j) - 1)) << offset
        offset += j
    # Reversing the bits of each little-endian byte puts bit 0 first; base64
    # then reads 6-bit groups most significant bit first, as graph6 does.
    data = stream.to_bytes((offset + 7) // 8, "little").translate(_BIT_REVERSED)
    groups = binascii.b2a_base64(data, newline=False)[: (offset + 5) // 6]
    return (prefix + groups.translate(_BASE64_TO_G6)).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line; raises ValueError on any malformed input."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    data = s.encode("ascii", errors="strict")
    if not 63 <= min(data) <= max(data) <= 126:
        raise ValueError("graph6 byte out of range 63..126")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise ValueError("unsupported or truncated graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ValueError(f"graph6 body length {len(body)}, expected {expect}")
    # The inverse of to_graph6: "?" pads the body to whole base64 quanta
    # with zero bits, and bit k of `stream` is the k-th bit of the sequence.
    body = (body + b"?" * (-len(body) % 4)).translate(_G6_TO_BASE64)
    stream = int.from_bytes(binascii.a2b_base64(body).translate(_BIT_REVERSED), "little")
    if stream >> nbits:
        raise ValueError("nonzero padding bits in graph6 encoding")
    rows = [0] * n
    for j in range(1, n):
        rows[j] = col = stream & ((1 << j) - 1)  # column j: the neighbours below j
        stream >>= j
        for i in _bits(col):
            rows[i] |= 1 << j
    return Graph(n, tuple(rows))

