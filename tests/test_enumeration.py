"""Exhaustive enumerator (vs brute-force oracle) and the pairing sampler."""

import functools
import hashlib
import itertools
import random
from collections import Counter

import pytest

import oracles
from eigencut import (
    enumerate_connected_regular,
    graph_from_edges,
    is_connected,
    is_isomorphic,
    is_regular,
    random_connected_regular,
    records_to_csv,
    to_graph6,
    verify_theorem,
)
from eigencut import enumeration
from eigencut.enumeration import (
    _beats_identity,
    _column_ties,
    _extension_beats,
    _swap_beats,
    _tie_prefixes,
)


def _edges_of_code(n, code):
    """The labelled graph whose column-major code is ``code``."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    top = len(pairs) - 1
    return [e for k, e in enumerate(pairs) if (code >> (top - k)) & 1]


@functools.cache
def _max_codes(n):
    """The max code of every labelled graph on n vertices, keyed by its code.

    Relabellings share a maximum, so the oracle runs once per isomorphism
    class.
    """
    best = {}
    for code in range(1 << (n * (n - 1) // 2)):
        if code not in best:
            codes = oracles.column_codes(n, _edges_of_code(n, code))
            assert codes[tuple(range(n))] == code
            best.update(dict.fromkeys(codes.values(), max(codes.values())))
    return best


def _labelled_graphs(n, d):
    """Every labelled connected d-regular graph on n vertices, as row tuples."""
    return {
        graph_from_edges(n, oracles.relabel_edges(g.edges(), perm)).rows
        for g in enumerate_connected_regular(n, d)
        for perm in itertools.permutations(range(n))
    }


def _extension_test(ties, rows, last):
    """The enumerator's test of ``{0..last}`` over the tie prefixes of ``{0..ties.t-1}``: the cheap check of each new vertex, then the search."""
    tied = [_column_ties(ties, rows, u) for u in range(ties.t, last + 1)]
    return None in tied or _extension_beats(ties, rows, tied)


def _prefixes(tree):
    """The prefix of every node of a tie-prefix tree, in record order.

    Only the root, the first node, has the empty prefix, no prefix repeats,
    and every other node's prefix is an earlier node's plus one vertex.
    """
    found = list(tree)
    assert found[0] == () and len(set(found)) == len(found)
    earlier = {()}
    for prefix in found[1:]:
        assert prefix[:-1] in earlier
        earlier.add(prefix)
    return found


def _labelled_with_max_codes(smallest):
    """(n, code, max code) for every labelled graph on ``smallest..6`` vertices and the 7-vertex sample."""
    labelled = [(n, code, top) for n in range(smallest, 7) for code, top in _max_codes(n).items()]
    for code in _seeded_codes_7():
        labelled.append((7, code, oracles.max_column_code(7, _edges_of_code(7, code))[0]))
    return labelled


def _seeded_codes_7():
    """Codes of a seeded sample of 12 labelled graphs on 7 vertices."""
    rng = random.Random(7)
    for _ in range(12):
        density = rng.random()
        yield sum(1 << k for k in range(21) if rng.random() < density)


class TestEnumerate:
    def test_base_cases(self):
        assert sum(1 for _ in enumerate_connected_regular(4, 3)) == 1
        got = list(enumerate_connected_regular(6, 3))
        assert len(got) == 2  # complete bipartite 3+3 and the triangular prism
        assert sum(1 for _ in enumerate_connected_regular(8, 3)) == 5

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_connected_regular(5, 3))
        with pytest.raises(ValueError):
            list(enumerate_connected_regular(3, 3))
        with pytest.raises(ValueError, match="degree must be non-negative"):
            list(enumerate_connected_regular(4, -2))

    def test_cycles_and_tiny_degrees(self):
        for n in range(3, 9):
            assert sum(1 for _ in enumerate_connected_regular(n, 2)) == 1
        assert sum(1 for _ in enumerate_connected_regular(2, 1)) == 1
        assert sum(1 for _ in enumerate_connected_regular(1, 0)) == 1
        assert sum(1 for _ in enumerate_connected_regular(2, 0)) == 0
        assert sum(1 for _ in enumerate_connected_regular(3, 0)) == 0

    def test_postconditions(self):
        for n, d in [(8, 3), (8, 4), (8, 5), (9, 4)]:
            for g in enumerate_connected_regular(n, d):
                assert g.n == n
                assert is_regular(g) == d
                assert is_connected(g)

    def test_pairwise_noniso_small(self):
        graphs = list(enumerate_connected_regular(8, 3))
        for i, a in enumerate(graphs):
            for b in graphs[i + 1 :]:
                assert not is_isomorphic(a, b)

    def test_matches_bruteforce_oracle(self):
        for n, d in [(4, 3), (6, 3), (8, 3), (5, 4), (6, 4), (7, 4), (8, 4), (6, 5)]:
            mine = list(enumerate_connected_regular(n, d))
            brute = oracles.brute_enumerate_connected_regular(n, d)
            assert len(mine) == len(brute)
            # same classes, not just the same count
            for edges in brute:
                h = graph_from_edges(n, edges)
                assert sum(1 for g in mine if is_isomorphic(g, h)) == 1

    def test_stream_is_deterministic(self):
        first = [to_graph6(g) for g in enumerate_connected_regular(10, 3)]
        second = [to_graph6(g) for g in enumerate_connected_regular(10, 3)]
        assert first == second
        assert len(first) == 19

    def test_stream_digests_pinned(self):
        # CSV byte-identity rests on the canonical labelling, so any change
        # to the emitted labelled graphs must show here.  The orders 3..10
        # cover n <= 5, where every vertex after the first is in the tail,
        # and the dense degrees; K9 and K10 are left out for their time.
        for n, d, count, digest in [
            (12, 3, 85, "b27808d206fb74dbad61f0779dc35088fbacbec680e03104c7eea056eff05bdc"),
            (10, 4, 59, "3b543b832ca643d4ce4ac2e2dffedbb2b2ff3da8976b16d467b3e1af57c99c43"),
            (14, 3, 509, "4433238f6ba51d7c77d065ebddf04bd810d6195fa02e5809f5445f4935130fa9"),
            (11, 4, 265, "a16b6b1e510c34762c56aa2cbe31433543c043e5d79b08469fa4978e83c7642f"),
            (12, 4, 1544, "cd94fa9d84fbbdd5e49248cfd9050bc069188ff92566d8dc3cee395753e6192a"),
            (10, 5, 60, "9658bb7612dc0ea3af261023a1c14a74802d6af7404d028cb5dbdb9a371c5d68"),
            (11, 6, 266, "bac12a6d235321b273305792bf89725928b7b1bf3f51382c6729341c5e23df8e"),
            (10, 7, 5, "d22063cd6cadff7f8494bd227f581f90719f285d9358ff1fa04f66b66e202bb4"),
            (3, 2, 1, "4a469b3ce3caaad469f8c97e9176aacbe84216672889aa70c62b37f62e7aa427"),
            (4, 2, 1, "55f5520007c809c88fb73e01ab6a1c1dac3eb0e419052234bd07e2c3640ea2da"),
            (4, 3, 1, "d65ffb1d8d01ba8a6be14162941989d6f211d5c778d7f4fe75935f77dd1cadbe"),
            (5, 2, 1, "7b2ce925a5b403cf4d18985cf9896e16b5d0092ba163eb996080d2f58b86fcf1"),
            (5, 4, 1, "41ea650d4b1c11143ca7ec83c65a5e6be2adb8559eea320bbeface2e045b0773"),
            (6, 2, 1, "fc737d1af082e6ea37ee563cbaebeb5d5e8765f90391a82935c9fdb67a6c4f03"),
            (6, 3, 2, "a618da7085538c2e254bb4c4b0bf8511c6adbac1d8f56fc61d48b97a5439e9fd"),
            (6, 4, 1, "56c08aba755802f3d1add2f0adfe57fe2338dc179f7de2d46477981f9630ca5c"),
            (6, 5, 1, "e121f3992397cffbc3605e987622659508b857c1b5229ea8c37f819d76ca0ce2"),
            (7, 2, 1, "967d7d8f2d8366cfe96e19aabcb47065ca9d9e747f68936d723c918225eda8e4"),
            (7, 4, 2, "cf75d895c0cba05a91f7416b7b0ece64b700c20f8e24568a2aebce9cf06c59fa"),
            (7, 6, 1, "d5cdc270ca85b7f3e6399004bf653ac3214578f2213815b940ca8ea74b5ae91e"),
            (8, 2, 1, "905fd6ab38fc0b718118b7f99a63f9d572ff2a63d79b421cc285c2fef462af5b"),
            (8, 3, 5, "33fffbead44831b4107cfb1be7fda35d7344e4f984726ef81cc4fddc3805bf2f"),
            (8, 4, 6, "924f8366e8b25bd47a86a21981039c6fcbecf51c27a905decf09646137dd301e"),
            (8, 5, 3, "2255c3b60e245e0747240a051e883586838b085307c53fbb9260c4b9887e304a"),
            (8, 6, 1, "950042758568cac8392882983ffb107f1629cae4856b44ac184624eac6d57f29"),
            (8, 7, 1, "34fff80f29e6e5db50f4bf2f96090017e56e96e92f2c76f3ef2c52c4c11bab33"),
            (9, 2, 1, "c91ba583e4ece38f3efd9e1001a19c84e63afe4d7ac018510add540b6f90cd96"),
            (9, 4, 16, "50eba975f204dd0cb54ac7b2a6611b5bfa75dff4a80a2c5d0b92456dc1445bda"),
            (9, 6, 4, "a803dbf7a650daf9f1bc79b8341921a315ad56de5ae25c11565ea8298078486c"),
            (10, 2, 1, "279c9445325d74af950c4f68d1ef6c1fcfa51fd9a5980da8188f05a1b0741c23"),
            (10, 3, 19, "12d132db550e8e86a430277c1b67c4050b21ea9e288e401d4e08aee1d2ffc759"),
            (10, 6, 21, "338f7f97414f5903335376c3f37c7b703e857165a620091a03fb35b43014f378"),
            (10, 8, 1, "62f452f7a9192b64969436db8503f14476e22cc5e56bfaaeb3d962c342b9fed2"),
        ]:
            stream = [to_graph6(g) for g in enumerate_connected_regular(n, d)]
            assert len(stream) == count
            assert hashlib.sha256("\n".join(stream).encode()).hexdigest() == digest

    def test_canonicity_matches_max_code_oracle(self):
        # Every labelled graph on <= 6 vertices, by code.
        for n in range(1, 7):
            for code, top in _max_codes(n).items():
                rows = graph_from_edges(n, _edges_of_code(n, code)).rows
                assert _beats_identity(rows, n - 1) == (code < top)
        # A seeded sample on 7 vertices, each with its max-code relabelling,
        # which no relabelling beats.
        for code in _seeded_codes_7():
            edges = _edges_of_code(7, code)
            top, order = oracles.max_column_code(7, edges)
            assert _beats_identity(graph_from_edges(7, edges).rows, 6) == (code < top)
            pos = {v: p for p, v in enumerate(order)}
            canon = graph_from_edges(7, [(pos[u], pos[v]) for u, v in edges])
            assert not _beats_identity(canon.rows, 6)

    def test_adjacent_swap_rule_is_sound(self):
        # The rule fires exactly where the last column reads larger than
        # column t-1 on vertices 0..t-2 (vertex 0 first), and there both the
        # max-code test and the oracle find a larger relabelling.
        fired = 0
        for n, code, top in _labelled_with_max_codes(3):
            rows = graph_from_edges(n, _edges_of_code(n, code)).rows
            t = n - 1
            last = [(rows[t] >> i) & 1 for i in range(t - 1)]
            prev = [(rows[t - 1] >> i) & 1 for i in range(t - 1)]
            assert _swap_beats(rows[t - 1], rows[t], t) == (last > prev)
            if last > prev:
                fired += 1
                assert _beats_identity(rows, t)
                assert top > code
        assert fired == 15838

    def test_tie_prefix_reuse_lemma(self):
        # When the prefix on {0..n-2} is canonical, no prefix of its search
        # (all of which avoid n-1) lets another vertex beat the identity, so
        # the test that reuses those prefixes gives the max-code verdict.
        reused = 0
        for n, code, top in _labelled_with_max_codes(2):
            rows = graph_from_edges(n, _edges_of_code(n, code)).rows
            t = n - 1
            ties = _tie_prefixes(rows, t, (1 << t) - 1)
            if ties is None:
                continue
            reused += 1
            for prefix in _prefixes(ties.tree):
                ident = [rows[len(prefix)] >> i & 1 for i in range(len(prefix))]
                for u in set(range(t)) - set(prefix):
                    assert [rows[u] >> p & 1 for p in prefix] <= ident
            assert _extension_test(ties, rows, t) == _beats_identity(rows, t) == (code < top)
        assert reused == 1308

    def test_tail_test_matches_max_code_oracle(self):
        # With every vertex from t on new, the test that reuses the tie
        # prefixes of a canonical {0..t-1} gives the max-code verdict on the
        # whole graph, and a new vertex that reads larger at one of them
        # (the cheap check on a tail vertex) marks a non-canonical graph.
        cache = {}
        starts = rejected = 0
        for n, code, top in _labelled_with_max_codes(2):
            rows = graph_from_edges(n, _edges_of_code(n, code)).rows
            for t in range(1, n):
                key = (n, tuple(r & ((1 << t) - 1) for r in rows[:t]))
                if key not in cache:
                    cache[key] = _tie_prefixes(rows, t, (1 << t) - 1)
                ties = cache[key]
                if ties is None:
                    continue
                starts += 1
                assert _extension_test(ties, rows, n - 1) == (code < top)
                for u in range(t, n):
                    if _column_ties(ties, rows, u) is None:
                        rejected += 1
                        assert code < top
        assert (starts, rejected) == (91599, 154421)

    def test_extension_test_matches_search_from_scratch(self, monkeypatch):
        # On every partial the enumerator offers, the test that reuses the
        # parent's tie prefixes agrees with a search from scratch, and an
        # accepted partial that is not yet the whole graph keeps exactly the
        # prefixes that search enters.  The same holds for the one test of
        # each completed graph over its tail, and a tail vertex that the
        # cheap check rejects makes the identity beaten already.  The
        # cheap-check results the test is handed equal a fresh read of each
        # new column.  Every call sees its level's prefixes as they were
        # built, and their packed fields decode to the prefixes in the tree.
        original_test, original_check = enumeration._extension_beats, enumeration._column_ties
        verdicts = Counter()
        seen = {}  # id -> (ties, snapshot, prefixes); holding ties keeps its id unique

        def check_ties(ties, rows, new):
            tree = tuple(ties.tree[: ties.count])
            state = (ties.t, ties.count, tuple(ties.cols), ties.ident, ties.full, ties.ones, tree)
            first = seen.setdefault(id(ties), (ties, state, _prefixes(tree)))
            assert first[1] == state
            t, f = ties.t, ties.field
            below = [v for v in range(t) if any(rows[u] >> v & 1 for u in new)]
            for k, prefix in enumerate(first[2]):
                s = len(prefix)
                field = [x >> (k * f) & ((1 << f) - 1) for x in (ties.full, ties.ident, ties.ones)]
                assert field == [s == t, rows[s] & ((1 << s) - 1) if s < t else 0, 1]
                for v in below:
                    where = sum(1 << i for i, w in enumerate(prefix) if w == v)
                    assert ties.cols[v] >> (k * f) & ((1 << f) - 1) == where

        def checked_test(ties, rows, tied):
            t = ties.t
            last = t + len(tied) - 1
            check_ties(ties, rows, range(t, last + 1))
            assert tied == [original_check(ties, rows, u) for u in range(t, last + 1)]
            verdict = original_test(ties, rows, tied)
            assert verdict == _beats_identity(rows, last)
            verdicts["tail" if t < last else "one vertex", verdict] += 1
            if not verdict and last + 1 < len(rows):
                scratch = _tie_prefixes(rows, last + 1, (1 << (last + 1)) - 1)
                assert sorted(_prefixes(ties.tree)) == sorted(_prefixes(scratch.tree))
            return verdict

        def checked_check(ties, rows, u):
            check_ties(ties, rows, [u])
            tied = original_check(ties, rows, u)
            if tied is None:
                verdicts["cheap rejections"] += 1
                assert _beats_identity(rows, u)
            return tied

        monkeypatch.setattr(enumeration, "_extension_beats", checked_test)
        monkeypatch.setattr(enumeration, "_column_ties", checked_check)
        for n, d, count in [(12, 3, 85), (10, 4, 59), (8, 5, 3), (9, 8, 1)]:
            assert sum(1 for _ in enumerate_connected_regular(n, d)) == count
        assert verdicts == {
            ("one vertex", False): 157,
            ("one vertex", True): 3,
            ("tail", False): 148,
            ("tail", True): 243,
            "cheap rejections": 434,
        }

    def test_parent_is_lowest_unsaturated_vertex(self):
        # In the max-code labelling of each class, vertex t's lowest
        # back-neighbour is the lowest vertex below t with fewer than d
        # neighbours in {0..t-1}: the lemma behind the enumerator's parent rule.
        cases = [(n, 3) for n in range(4, 9)] + [(n, 4) for n in range(5, 8)]
        cases += [(6, 5), (7, 6)] + [(n, 2) for n in range(5, 8)]
        classes = 0
        for n, d in cases:
            for edges in oracles.brute_enumerate_connected_regular(n, d):
                order = oracles.max_column_code(n, edges)[1]
                pos = {v: p for p, v in enumerate(order)}
                adj = oracles.adj_sets(n, [(pos[u], pos[v]) for u, v in edges])
                for t in range(1, n):
                    unsaturated = [v for v in range(t) if sum(w < t for w in adj[v]) < d]
                    assert min(w for w in adj[t] if w < t) == unsaturated[0], (n, d, edges, t)
                classes += 1
        assert classes == 17

    def test_back_neighbourhoods_match_feasibility_oracle(self, monkeypatch):
        # At every partial the enumerator reaches, the back-neighbourhoods it
        # generates for the next vertex are, in order, exactly those the
        # candidate loop with the feasibility filter accepts.  For (10, 9)
        # the partials are the complete graphs on {0..t-1}, checked
        # directly, since the canonicity search takes seconds there.
        original = enumeration._back_neighbourhoods
        partials = 0

        def checked(rows, t, d):
            nonlocal partials
            partials += 1
            got = [tuple(sorted(comb)) for comb in original(rows, t, d)]
            assert got == oracles.completable_back_neighbourhoods(rows, t, d), (rows, t, d)
            yield from got

        monkeypatch.setattr(enumeration, "_back_neighbourhoods", checked)
        cases = [(n, d) for n in range(1, 11) for d in range(n) if n * d % 2 == 0 and (n, d) != (10, 9)]
        for n, d in cases + [(12, 3), (11, 4)]:
            for g in enumerate_connected_regular(n, d):
                assert is_regular(g) == d
        assert (len(cases), partials) == (44, 4505)
        for t in range(1, 10):
            rows = [((1 << t) - 1) ^ (1 << v) for v in range(t)] + [0] * (10 - t)
            expected = oracles.completable_back_neighbourhoods(rows, t, 9)
            assert [tuple(sorted(comb)) for comb in original(rows, t, 9)] == expected == [tuple(range(t))]

    def test_canonicity_call_counts_pinned(self, monkeypatch):
        # The adjacent-swap rule settles most candidates before the max-code
        # test, which without it runs 22,584 and 13,584 times here; the parent
        # rule and the edge-count bound cut it from 5,097 and 3,520 to 869
        # and 702 by never offering a partial that has no regular completion.
        # Testing the last TAIL vertices once, on the completed graph, leaves
        # 369 and 293, and searching only where the cheap check passed
        # leaves 304 and 228.
        calls = 0

        def counted(ties, rows, tied):
            nonlocal calls
            calls += 1
            return _extension_beats(ties, rows, tied)

        monkeypatch.setattr(enumeration, "_extension_beats", counted)
        for n, d, count, expected in [(12, 3, 85, 304), (10, 4, 59, 228)]:
            calls = 0
            assert sum(1 for _ in enumerate_connected_regular(n, d)) == count
            assert calls == expected

    def test_graph6_round_trip_over_streams(self):
        from eigencut import from_graph6

        for n, d in [(10, 3), (12, 3), (8, 4), (10, 5)]:
            for g in enumerate_connected_regular(n, d):
                assert from_graph6(to_graph6(g)) == g


class TestRandomRegular:
    def test_deterministic_per_seed(self):
        a = random_connected_regular(10, 3, seed=1)
        b = random_connected_regular(10, 3, seed=1)
        assert to_graph6(a) == to_graph6(b)
        c = random_connected_regular(10, 3, seed=2)
        assert a.n == c.n == 10

    def test_postconditions(self):
        g = random_connected_regular(8, 4, seed=7)
        assert is_regular(g) == 4 and is_connected(g)
        for seed in range(5):
            g = random_connected_regular(12, 3, seed=seed)
            assert is_regular(g) == 3 and is_connected(g)

    def test_unique_class_is_complete(self):
        from eigencut import complete

        for seed in (0, 1, 99):
            assert is_isomorphic(random_connected_regular(4, 3, seed), complete(4))

    def test_impossible_low_degree_rejected(self):
        # d <= 1 admits a connected graph only on d+1 vertices; the sampler
        # says so at once, as the enumerator yields nothing.
        for n, d in [(4, 1), (3, 0)]:
            with pytest.raises(ValueError, match=f"no connected {d}-regular graph on {n} vertices"):
                random_connected_regular(n, d, seed=0)
            assert not list(enumerate_connected_regular(n, d))
        assert random_connected_regular(2, 1, seed=0).n == 2
        assert random_connected_regular(1, 0, seed=0).n == 1

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            random_connected_regular(5, 3, seed=0)
        with pytest.raises(ValueError):
            random_connected_regular(3, 4, seed=0)
        with pytest.raises(ValueError, match="degree must be non-negative"):
            random_connected_regular(4, -2, seed=0)

    def test_uniform_over_labelled_graphs(self):
        # The pairing model conditioned on a simple connected outcome is
        # uniform over labelled graphs: K3,3 (10 labellings) and the prism
        # (60) at (6, 3); the complements of C7 (360) and C3+C4 (105) at
        # (7, 4).  Each bound is the 1e-6 upper tail of chi-squared at
        # K - 1 degrees of freedom.  A partner never drawn from the last free
        # stub biases (6, 3) only slightly (chi-squared ~105 at 7,000
        # draws), hence the 30,000.
        for n, d, draws, cells, bound in [(6, 3, 30000, 70, 139.8), (7, 4, 4650, 465, 623.5)]:
            labelled = _labelled_graphs(n, d)
            assert len(labelled) == cells
            seen = Counter(random_connected_regular(n, d, seed).rows for seed in range(draws))
            assert set(seen) == labelled
            expected = draws / cells
            chi2 = sum((seen[rows] - expected) ** 2 / expected for rows in labelled)
            assert chi2 < bound, (n, d, chi2)

    def test_stream_pinned(self):
        # The sampler's stream is part of every random-mode CSV; a change to
        # which labelled graph a seed yields must show here.
        assert to_graph6(random_connected_regular(10, 3, seed=1)) == "IRGQKRABO"
        _, records = verify_theorem(3, 30, mode="random", samples=200, seed=7)
        digest = hashlib.sha256(records_to_csv(records).encode()).hexdigest()
        assert digest == "bf80d9f854b5d4d6ac8778abf08e21ecdf183aa363fd3a770d0adc3296ea940d"

    def test_dense_degree_reaches_the_budget(self, monkeypatch):
        # at d = 60 exp((d*d-1)/4) overflows a float; a batch is one attempt
        monkeypatch.setattr(enumeration, "REJECTION_BUDGET", 1)
        with pytest.raises(RuntimeError, match="no connected 60-regular graph on 61 vertices in 1 attempts"):
            random_connected_regular(61, 60, seed=0)

    def test_repeated_keys_rejected(self, monkeypatch):
        # With every key equal the sort order is not a uniform permutation,
        # so every attempt must be dropped, also the one whose stubs, left in
        # place, pair into K2.
        monkeypatch.setattr(enumeration, "REJECTION_BUDGET", 3)
        monkeypatch.setattr(random.Random, "getrandbits", lambda self, k: 0)
        message = "pairing sampler found no connected 1-regular graph on 2 vertices in 3 attempts"
        with pytest.raises(RuntimeError, match=message):
            random_connected_regular(2, 1, seed=0)

    def test_graph_built_once_per_simple_pairing(self, monkeypatch):
        # bench/tracing.py wraps these two names in the enumeration module;
        # the sampler must keep calling both through it, once per simple
        # pairing.
        calls = Counter()

        def counting(name):
            original = getattr(enumeration, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in ("graph_from_edges", "is_connected"):
            monkeypatch.setattr(enumeration, name, counting(name))
        for seed in range(50):
            calls.clear()
            random_connected_regular(12, 3, seed)
            assert calls["graph_from_edges"] == calls["is_connected"] >= 1

    def test_budget_diagnostic_names_the_order(self, monkeypatch):
        # K7 comes from a pairing with probability (6!)^7 / 41!! ~ 7.6e-6,
        # so one attempt finds nothing; the message must not read as if no
        # 6-regular graph on 7 vertices existed.
        monkeypatch.setattr(enumeration, "REJECTION_BUDGET", 1)
        message = "pairing sampler found no connected 6-regular graph on 7 vertices in 1 attempts"
        with pytest.raises(RuntimeError, match=message):
            random_connected_regular(7, 6, seed=0)
