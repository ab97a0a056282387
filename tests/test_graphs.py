"""Graph construction, structure queries, isomorphism, and serialization."""

import random
import time

import pytest

import oracles
from eigencut import (
    CutVertexWitness,
    Graph,
    articulation_points,
    build_extremal,
    complement,
    complete,
    cycle,
    cycles_union_complement,
    disjoint_union,
    edges_between,
    enumerate_connected_regular,
    from_graph6,
    graph_from_edges,
    is_connected,
    is_isomorphic,
    is_regular,
    matching_complement,
    sequential_join,
    to_graph6,
)


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, n, p=0.4):
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def assert_cut_vertices_match_brute_force(g):
    """Compare ``articulation_points(g)`` with deletion; return the cut-vertex count."""
    brute = oracles.brute_cut_vertices(g.n, g.edges())
    found = articulation_points(g)
    wits = {w.u: w for w in found}
    assert set(wits) == set(brute)
    assert [w.u for w in found] == sorted(brute)
    for u, comps in brute.items():
        got = sorted(tuple(sorted(c)) for c in wits[u].components)
        assert got == comps
        degs = [sum(1 for v in comp if g.rows[u] >> v & 1) for comp in got]
        assert sorted(degs) == sorted(wits[u].branch_degrees)
        assert sum(wits[u].branch_degrees) == g.degree(u)
        # the split's form: components lowest vertex first, and
        # branch_degrees[i] counts u's edges into components[i]
        lowest = [min(c) for c in wits[u].components]
        assert lowest == sorted(lowest)
        aligned = [sum(1 for v in c if g.rows[u] >> v & 1) for c in wits[u].components]
        assert list(wits[u].branch_degrees) == aligned
    return len(wits)


def k4e_chain(blocks):
    """K4 - e blocks in a row, each block's degree-2 end joined to the next by a bridge."""
    edges = []
    for b in range(blocks):
        o = 4 * b
        edges += [(o, o + 1), (o, o + 2), (o + 1, o + 2), (o + 1, o + 3), (o + 2, o + 3)]
        if b:
            edges.append((o - 1, o))
    return graph_from_edges(4 * blocks, edges)


class TestBuildingBlocks:
    def test_complete(self):
        assert complete(1).n == 1 and complete(1).edge_count() == 0
        g = complete(3)
        assert g.edge_count() == 3 and is_regular(g) == 2
        g = complete(4)
        assert g.edge_count() == 6
        assert all(g.rows[u] >> v & 1 for u in range(4) for v in range(4) if u != v)

    def test_cycle(self):
        assert is_isomorphic(cycle(3), complete(3))
        g = cycle(4)
        assert is_regular(g) == 2 and is_connected(g)
        with pytest.raises(ValueError):
            cycle(2)

    def test_matching_complement(self):
        g = matching_complement(2)
        assert g.edge_count() == 0 and g.n == 2
        assert is_isomorphic(matching_complement(4), cycle(4))
        for n in (2, 4, 6, 8, 10):
            assert is_regular(matching_complement(n)) == n - 2
        with pytest.raises(ValueError):
            matching_complement(3)

    def test_matching_complement_rows(self):
        for n in range(2, 21, 2):
            matching = graph_from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
            assert matching_complement(n).rows == complement(matching).rows

    def test_disjoint_union_of_generator(self):
        g = disjoint_union(complete(k) for k in (1, 3, 2))
        assert g == graph_from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5)])

    def test_cycles_union_complement(self):
        assert cycles_union_complement([3]).edge_count() == 0
        g = cycles_union_complement([3, 3])
        # complement of two triangles is complete bipartite 3+3
        assert is_regular(g) == 3 and g.edge_count() == 9
        g = cycles_union_complement([4])
        assert g.edge_count() == 2 and is_regular(g) == 1
        for lengths in ([5], [3, 4], [3, 3, 3]):
            total = sum(lengths)
            assert is_regular(cycles_union_complement(lengths)) == total - 3
        with pytest.raises(ValueError):
            cycles_union_complement([2, 3])

    def test_cycles_union_complement_rows(self):
        # every composition (ordered) into parts >= 3 with total <= 15
        def compositions(total):
            if total == 0:
                yield ()
            for k in range(3, total + 1):
                for rest in compositions(total - k):
                    yield (k,) + rest

        checked = 0
        for total in range(3, 16):
            for lengths in compositions(total):
                expected = complement(disjoint_union(cycle(k) for k in lengths))
                assert cycles_union_complement(lengths) == expected, lengths
                checked += 1
        assert checked == 188

    def test_sequential_join_small(self):
        k1 = complete(1)
        assert sequential_join([k1, k1]).edge_count() == 1
        assert is_isomorphic(sequential_join([k1, k1, k1]), path(3))
        g = sequential_join([complete(2), matching_complement(2), k1])
        assert g.n == 5
        assert g.degree(0) == g.degree(1) == 3  # 1 inside K2 + 2 across

    def test_sequential_join_one_part(self):
        for part in (complete(1), cycle(5), matching_complement(4), Graph(0, ())):
            assert sequential_join([part]) == part
        with pytest.raises(ValueError, match="at least one part"):
            sequential_join([])

    def test_sequential_join_empty_middle_part(self):
        # a 0-vertex part joins nothing: its neighbours get no edge across it
        empty = Graph(0, ())
        parts = [complete(2), empty, complete(3)]
        assert sequential_join(parts) == disjoint_union(parts)
        g = sequential_join([complete(1), complete(2), empty, complete(1)])
        assert g == graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])

    def test_sequential_join_degree_law(self):
        rng = random.Random(7)
        for _ in range(20):
            parts = [random_graph(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
            joined = sequential_join(parts)
            assert joined.n == sum(p.n for p in parts)
            offset = 0
            for i, part in enumerate(parts):
                before = parts[i - 1].n if i > 0 else 0
                after = parts[i + 1].n if i + 1 < len(parts) else 0
                for v in range(part.n):
                    assert joined.degree(offset + v) == part.degree(v) + before + after
                offset += part.n


class TestStructure:
    def test_regular_and_connected(self):
        assert is_regular(path(3)) is None
        assert is_connected(complete(4))
        assert not is_connected(matching_complement(2))
        assert is_connected(sequential_join([complete(1), complete(1)]))
        assert is_connected(Graph(0, ())) and is_connected(Graph(1, (0,)))
        assert not is_connected(disjoint_union([path(3), complete(1)]))
        assert not is_connected(disjoint_union([complete(1), path(3)]))

    def test_articulation_path(self):
        wits = articulation_points(path(3))
        assert len(wits) == 1
        w = wits[0]
        assert w.u == 1 and sorted(w.branch_degrees) == [1, 1]

    def test_articulation_two_connected(self):
        assert articulation_points(cycle(5)) == []
        assert articulation_points(complete(4)) == []

    def test_articulation_disconnected_rejected(self):
        triangle = complete(3)
        for g in [
            matching_complement(2),
            disjoint_union([triangle, triangle]),
            disjoint_union([complete(1), path(3)]),  # isolated vertex 0
            disjoint_union([path(3), complete(1)]),  # isolated last vertex
        ]:
            with pytest.raises(ValueError, match="defined for connected graphs"):
                articulation_points(g)

    def test_articulation_star(self):
        star = graph_from_edges(5, [(0, v) for v in range(1, 5)])
        wits = articulation_points(star)
        assert len(wits) == 1
        assert wits[0].u == 0 and wits[0].branch_degrees == (1, 1, 1, 1)
        assert len(wits[0].components) == 4

    def test_articulation_matches_brute_force(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            n = rng.randint(3, 10)
            g = random_graph(rng, n, p=rng.uniform(0.25, 0.6))
            if not is_connected(g):
                continue
            checked += 1
            assert_cut_vertices_match_brute_force(g)

    def test_articulation_matches_brute_force_sparse(self):
        # a randomly labelled tree plus a few extra edges: unlike the dense
        # draws above, most of these graphs have several cut vertices
        rng = random.Random(19)
        cut_vertices = 0
        for _ in range(60):
            n = rng.randint(3, 40)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = {(perm[rng.randrange(v)], perm[v]) for v in range(1, n)}
            for _ in range(rng.randint(0, 3)):
                edges.add(tuple(rng.sample(range(n), 2)))
            g = graph_from_edges(n, edges)
            assert is_connected(g)
            cut_vertices += assert_cut_vertices_match_brute_force(g)
        assert cut_vertices > 300

    def test_articulation_matches_brute_force_streams(self):
        # every cut-vertex graph of the cubic n <= 14 and quartic n <= 12 streams
        cut_graphs = 0
        for d, orders in [(3, range(4, 15, 2)), (4, range(5, 13))]:
            for n in orders:
                for g in enumerate_connected_regular(n, d):
                    if articulation_points(g):
                        cut_graphs += 1
                        assert assert_cut_vertices_match_brute_force(g) > 0
        assert cut_graphs == 34 + 3

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_articulation_matches_brute_force_extremal(self, d):
        assert assert_cut_vertices_match_brute_force(build_extremal(d, 1)) >= 1

    def test_articulation_chain_of_blocks(self):
        # 12 blocks: the 22 bridge ends are cut vertices, the two outer ends are not
        g = k4e_chain(12)
        assert assert_cut_vertices_match_brute_force(g) == 22
        w = {w.u: w for w in articulation_points(g)}[19]
        assert w.components == (frozenset(range(19)), frozenset(range(20, 48)))
        assert w.branch_degrees == (2, 1)

    def test_articulation_root_with_three_components(self):
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]
        triangles = graph_from_edges(7, edges)
        assert assert_cut_vertices_match_brute_force(triangles) == 1
        (w,) = articulation_points(triangles)
        assert w.u == 0 and w.branch_degrees == (2, 2, 2)
        assert w.components == (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}))

    def test_articulation_path_root_not_cut(self):
        # vertex 0 starts the search but is a leaf; its child 1 is the first cut vertex
        assert assert_cut_vertices_match_brute_force(path(4)) == 2
        assert articulation_points(path(4))[0] == CutVertexWitness(
            1, (frozenset({0}), frozenset({2, 3})), (1, 1)
        )

    def test_articulation_rooted_trees_with_chords(self):
        # vertex v hangs from a random earlier vertex: unlike the shuffled
        # trees above, the search starts at the tree's root, which is a cut
        # vertex in 36 of these 40 graphs (with three or more components in 23)
        rng = random.Random(28)
        cut_vertices = 0
        for _ in range(40):
            n = rng.randint(2, 60)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(rng.randint(0, 4)):
                edges.add(tuple(rng.sample(range(n), 2)))
            cut_vertices += assert_cut_vertices_match_brute_force(graph_from_edges(n, edges))
        assert cut_vertices > 300

    def test_edges_between(self):
        k4 = complete(4)
        assert edges_between(k4, {0, 1}, {2, 3}) == 4
        c4 = cycle(4)
        assert edges_between(c4, {0, 2}, {1, 3}) == 4
        assert edges_between(matching_complement(2), {0}, {1}) == 0
        # overlapping sets count each edge once: every K4 edge qualifies
        assert edges_between(k4, {0, 1, 2}, {1, 2, 3}) == 6
        assert edges_between(k4, {0, 1}, {1, 2}) == 3  # edges 01, 02, 12 once each


class TestIsomorphism:
    def test_examples(self):
        assert is_isomorphic(cycle(4), matching_complement(4))
        assert not is_isomorphic(complete(4), cycle(4))
        prism = graph_from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        k33 = cycles_union_complement([3, 3])
        assert not is_isomorphic(prism, k33)
        relabelled = oracles.relabel_edges(prism.edges(), [3, 5, 1, 0, 2, 4])
        assert is_isomorphic(prism, graph_from_edges(6, relabelled))
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        # same order and edge count, different degrees; then different edge counts
        assert not is_isomorphic(disjoint_union([complete(3), complete(1)]), star)
        assert not is_isomorphic(cycle(4), graph_from_edges(4, [(0, 1), (2, 3)]))

    def test_refinement_separates_family_members(self, monkeypatch):
        # Colour refinement of both graphs together tells these family members
        # apart in its first round (their common-neighbour profiles differ),
        # and is_isomorphic stops there.  Refining each graph on its own
        # matched their class sizes and left seconds of backtracking.
        from eigencut import graphs

        refine, rounds = graphs._refine_colors, []

        def counted(rows):
            for ids in refine(rows):
                rounds.append(ids)
                yield ids

        monkeypatch.setattr(graphs, "_refine_colors", counted)
        for d, c, x, y in [(17, 8, (9,), (3, 3, 3)), (21, 10, (8, 3), (4, 4, 3))]:
            g, h = build_extremal(d, c, x), build_extremal(d, c, y)
            rounds.clear()
            start = time.perf_counter()
            assert not is_isomorphic(g, h)
            assert time.perf_counter() - start < 0.1, (d, x, y)
            assert len(rounds) == 1, (d, x, y)

    def test_relabel_invariance(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert is_isomorphic(g, graph_from_edges(g.n, oracles.relabel_edges(g.edges(), perm)))

    def test_equivalence_relation_on_corpus(self):
        rng = random.Random(9)
        corpus = [complete(4), cycle(5), path(5), random_graph(rng, 5), random_graph(rng, 5)]
        for g in corpus:
            assert is_isomorphic(g, g)
        for a in corpus:
            for b in corpus:
                assert is_isomorphic(a, b) == is_isomorphic(b, a)
                for c in corpus:
                    if is_isomorphic(a, b) and is_isomorphic(b, c):
                        assert is_isomorphic(a, c)

    def test_agrees_with_brute_force(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 7)
            a, b = random_graph(rng, n), random_graph(rng, n)
            assert is_isomorphic(a, b) == oracles.brute_iso(n, a.edges(), b.edges())


class TestSerialization:
    def test_known_encodings(self):
        assert to_graph6(complete(3)) == "Bw"
        assert to_graph6(Graph(1, (0,))) == "@"
        assert to_graph6(complete(4)) == "C~"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(0, 14)
            g = random_graph(rng, n)
            assert from_graph6(to_graph6(g)) == g
        # above n = 62 the size takes the four-byte header
        for n in [0, 63, 64, 100] + [rng.randint(63, 100) for _ in range(8)]:
            g = random_graph(rng, n, p=rng.uniform(0.02, 0.5))
            assert from_graph6(to_graph6(g)) == g

    def test_matches_independent_encoder(self):
        networkx = pytest.importorskip("networkx")
        rng = random.Random(17)

        def check(g):
            h = networkx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            expected = networkx.to_graph6_bytes(h, header=False).decode().strip()
            assert to_graph6(g) == expected
            assert from_graph6(expected) == g

        for _ in range(40):
            check(random_graph(rng, rng.randint(1, 12)))
        for n in [0, 63, 64, 100] + [rng.randint(63, 100) for _ in range(8)]:
            check(random_graph(rng, n, p=rng.uniform(0.02, 0.5)))

    def test_round_trip_at_size_header_boundary(self):
        # n = 62 is the last order with a one-byte size, n = 63 the first with four
        rng = random.Random(23)
        for n, prefix in ((62, "}"), (63, "~??~")):
            for p in (0.0, 0.3, 1.0):
                g = random_graph(rng, n, p)
                text = to_graph6(g)
                assert text.startswith(prefix)
                assert from_graph6(text) == g

    def test_nonzero_padding_bits_rejected(self):
        # every n from 2 to 9 whose n(n-1)/2 bits do not fill whole bytes, and one n >= 63
        for n in [2, 3, 5, 6, 7, 8, 63]:
            text = to_graph6(Graph(n, (0,) * n))
            padding = -(n * (n - 1) // 2) % 6
            assert padding
            for k in range(padding):  # padding bits are the last byte's low bits
                bad = text[:-1] + chr(63 + (1 << k))
                with pytest.raises(ValueError, match="nonzero padding bits"):
                    from_graph6(bad)

    def test_decode_errors(self):
        with pytest.raises(ValueError):
            from_graph6("B!")  # byte below 63
        with pytest.raises(ValueError):
            from_graph6("Bw?")  # trailing garbage
        with pytest.raises(ValueError):
            from_graph6("B~")  # nonzero padding bits
        with pytest.raises(ValueError):
            from_graph6("")
        for text in ("~??", "~~??????????"):  # truncated, and the 8-byte size form
            with pytest.raises(ValueError, match="unsupported or truncated graph6 size header"):
                from_graph6(text)

    def test_header_accepted(self):
        assert from_graph6(">>graph6<<Bw") == complete(3)


class TestValidation:
    def test_graph_invariants_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))  # asymmetric
        with pytest.raises(ValueError):
            Graph(1, (1,))  # self-loop
        with pytest.raises(ValueError):
            graph_from_edges(2, [(0, 2)])
        # the same checks at high vertices, above one machine word
        rows = [0] * 70
        rows[68] = 1 << 69  # 68 -> 69 without 69 -> 68
        with pytest.raises(ValueError, match=r"not symmetric at \(68, 69\)"):
            Graph(70, tuple(rows))
        rows[68] = 1 << 70
        with pytest.raises(ValueError, match="row 68 references a vertex >= n"):
            Graph(70, tuple(rows))
        rows[68] = 0
        rows[69] = 1 << 69
        with pytest.raises(ValueError, match="self-loop at vertex 69"):
            Graph(70, tuple(rows))

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: Graph(-1, ()), ValueError("vertex count must be non-negative")),
            (lambda: Graph(2, (0,)), ValueError("rows must have one mask per vertex")),
            (lambda: graph_from_edges(3, [(1, 1)]), ValueError("self-loop at vertex 1")),
            (lambda: complete(0), ValueError("complete graph needs at least one vertex")),
            (lambda: is_regular(Graph(0, ())), None),
            (lambda: articulation_points(Graph(0, ())), []),
            (lambda: is_isomorphic(Graph(0, ()), Graph(0, ())), True),
            (
                lambda: edges_between(Graph(3, (0, 0, 0)), [5], [0]),
                ValueError("vertex set references a vertex >= n"),
            ),
            (
                lambda: edges_between(cycle(4), [0], [-1]),
                ValueError("vertex set references a negative vertex"),
            ),
            (
                lambda: to_graph6(Graph(258048, (0,) * 258048)),
                ValueError("graph too large for this graph6 encoder"),
            ),
            (lambda: Graph(2, (-1, 0)), ValueError("row 0 references a vertex >= n")),
        ],
        ids=[
            "negative-order",
            "row-count",
            "edge-self-loop",
            "empty-complete",
            "empty-not-regular",
            "empty-no-cut-vertex",
            "empty-isomorphic",
            "edges-between-range",
            "edges-between-negative",
            "graph6-too-large",
            "negative-row",
        ],
    )
    def test_error_paths(self, call, expected):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as info:
                call()
            assert info.value.args == expected.args
        else:
            result = call()
            assert type(result) is type(expected) and result == expected

    def test_witness_is_frozen(self):
        w = CutVertexWitness(0, (frozenset({1}),), (1,))
        with pytest.raises(AttributeError):
            w.u = 3
