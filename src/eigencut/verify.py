"""Desk-scale verification: sweep generated regular graphs against the
cut-vertex eigenvalue thresholds, expansion bounds, and prior bounds.

The central check, one sweep: every connected d-regular graph with a cut
vertex clears the degree-d threshold and the bound ``lambda2_value(d, c)`` of
each of its normalized branch degrees c, and meets a bound only as a member
of that bound's extremal family; ``_examine`` states the rule and decides
each graph's verdict.  The threshold's family is the one graph
``threshold(d).extremal_graph`` for d <= 12 and every even d, and one graph
per cycle composition for odd d >= 13 (2 graphs at d = 13).  A family is
built when a graph first meets its bound, and only the members whose
spectrum matches the graph's are tested for isomorphism.  Exhaustive mode
walks every isomorphism class up to a given order; random mode samples the
pairing model (``samples`` graphs from ``seed``, options that exhaustive
mode rejects: the order of every sample is drawn first, then each order's
graphs in turn).  Spectra come from one stacked eigensolve per chunk of a
run of graphs of one order.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache
from itertools import groupby, islice
from typing import Iterator

# bench/tracing.py looks up random_connected_regular and records_to_csv in
# this module by name, so both stay here, although the sweep draws from
# random_connected_regular_graphs and the CLI writes csv_lines.
from .enumeration import (  # noqa: F401
    enumerate_connected_regular,
    random_connected_regular,
    random_connected_regular_graphs,
)
from .extremal import extremal_family, lambda2_value, threshold
from .graphs import Graph, articulation_points, is_connected, is_isomorphic, is_regular, to_graph6
# bench/tracing.py wraps spectrum here; the family spectra call it.
from .spectra import SpectralSummary, spectra, spectrum

EIG_TOL = 1e-8
# Isomorphic graphs have equal spectra, so a graph at a bound is tested for
# isomorphism only against family members whose spectrum is within this of
# its own.  Non-isomorphic members of one family differ by far more (>= 0.55
# at d = 21).  Colour refinement cannot tell cycle blocks (11) from (6, 5) at
# d = 21, and is_isomorphic backtracks for about a second on that pair, so
# this prefilter stays.
SPECTRUM_TOL = 1e-6
# Float64 entries per stacked eigensolve (32 KiB): up to 256 cubic graphs of
# order 4, and one graph per stack from order 64 on.
CHUNK_ENTRIES = 1 << 12


class VerificationError(Exception):
    """A generated graph violated a bound that the theory guarantees."""


# slots: a sweep holds every record until it sorts them
@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """Per-graph outcome of a threshold sweep."""

    graph6: str
    n: int
    d: int
    witnesses: tuple[tuple[int, int], ...]  # (cut vertex, normalized branch degree)
    lambda2: float
    threshold_cmp: str  # below / equal / above
    iso_extremal: bool  # an equality case isomorphic to a member of the threshold's family
    # every witness (u, c) whose bound lambda2 meets is a member of c's family
    branch_extremal: bool


@dataclass(frozen=True)
class TheoremReport:
    d: int
    n_max: int
    mode: str
    passed: bool
    equality_cases: tuple[str, ...]
    counterexamples: tuple[str, ...]
    graphs_checked: int
    cut_vertex_graphs: int

    def to_json(self) -> str:
        """The fields in order, ``passed`` under the key ``"pass"``."""
        return json.dumps({"pass" if k == "passed" else k: v for k, v in asdict(self).items()})


def cut_branch_values(g: Graph, d: int) -> tuple[tuple[int, int], ...]:
    """Normalized (cut vertex, branch degree) pairs for every witness split.

    For each cut vertex and each component of ``G - u`` the branch degree c
    is taken as min(edges into the component, d minus that), so c <= d/2.
    For even d every branch degree must be even (a handshake consequence);
    a violation would falsify the classification and raises.
    """
    pairs = set()
    for w in articulation_points(g):
        for b in w.branch_degrees:
            if d % 2 == 0 and b % 2:
                raise VerificationError(
                    f"odd branch degree {b} at cut vertex {w.u} of an even-degree graph"
                )
            pairs.add((w.u, min(b, d - b)))
    return tuple(sorted(pairs))


def _generate(d: int, n_max: int, mode: str, samples: int | None, seed: int | None):
    orders = [n for n in range(d + 1, n_max + 1) if n * d % 2 == 0]
    if not orders:
        raise ValueError("no admissible order at or below n_max")
    if mode == "exhaustive":
        if samples is not None or seed is not None:
            raise ValueError("samples and seed apply only to random mode")
        for n in orders:
            yield from enumerate_connected_regular(n, d)
    elif mode == "random":
        if samples is None or seed is None:
            raise ValueError("random mode needs samples and seed")
        if samples < 1:
            raise ValueError("samples must be positive")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        # every sample's order first, then that many graphs per order, all
        # from the one stream of random bits
        rng = random.Random(seed)
        counts = Counter(rng.choice(orders) for _ in range(samples))
        for n in orders:
            yield from islice(random_connected_regular_graphs(n, d, rng.getrandbits), counts[n])
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _with_spectra(graphs) -> Iterator[tuple[Graph, SpectralSummary]]:
    """Each graph with its spectrum, one stacked eigensolve per chunk of a run of one order."""
    for n, run in groupby(graphs, key=lambda g: g.n):
        size = max(1, CHUNK_ENTRIES // (n * n))
        while chunk := list(islice(run, size)):
            yield from zip(chunk, spectra(chunk))


def _in_family(g: Graph, eigenvalues, family) -> bool:
    """Whether ``g`` is isomorphic to a graph of ``family``, (graph, eigenvalues) pairs."""
    return any(
        g.n == h.n
        and all(abs(x - y) <= SPECTRUM_TOL for x, y in zip(eigenvalues, ev))
        and is_isomorphic(g, h)
        for h, ev in family
    )


def _side(value: float, bound: float) -> int:
    """1 if ``value`` is above ``bound``, 0 within ``EIG_TOL`` of it, -1 below it."""
    return (value > bound + EIG_TOL) - (value < bound - EIG_TOL)


def _examine(
    g: Graph, s: SpectralSummary, d: int, thr, family, judged: bool, counterexamples: list[str]
) -> VerificationRecord:
    """The record of ``g``, whose spectrum is ``s``; ``family(c)`` pairs each
    graph of ``extremal_family(d, c)`` with its eigenvalues.

    A cut-vertex graph is a counterexample, and its graph6 id is appended to
    ``counterexamples``, when lambda2 is below the threshold or below the
    bound ``lambda2_value(d, c)`` of one of its witnesses (u, c), or, when
    ``judged`` (exhaustive mode), when it meets a bound without being
    isomorphic to a member of that bound's extremal family: an equality case
    outside the threshold's family, or a witness (u, c) at its bound outside
    ``extremal_family(d, c)``.  Random mode judges only the strict sides: a
    sample at a bound is recorded, not judged.
    """
    witnesses = cut_branch_values(g, d)
    lam2 = s.lambda2
    side = _side(lam2, thr.value)
    branch_sides = {c: _side(lam2, lambda2_value(d, c)) for c in {c for _, c in witnesses}}
    met = {c for c, b in branch_sides.items() if b == 0}
    tested = met | {thr.c_star} if side == 0 else met
    members = {c for c in tested if _in_family(g, s.eigenvalues, family(c))}
    iso = side == 0 and thr.c_star in members
    branch = met <= members
    graph6 = to_graph6(g)
    if witnesses and (
        side < 0 or -1 in branch_sides.values() or (judged and (not branch or (side == 0 and not iso)))
    ):
        counterexamples.append(graph6)
    cmp = ("below", "equal", "above")[side + 1]
    return VerificationRecord(graph6, g.n, d, witnesses, lam2, cmp, iso, branch)


def verify_theorem(
    d: int,
    n_max: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> tuple[TheoremReport, list[VerificationRecord]]:
    """Sweep generated graphs against the sharp threshold and the branch bounds.

    ``_examine`` decides which graphs are counterexamples; each graph is
    listed at most once.  ``samples`` and ``seed`` drive random mode and are
    rejected in exhaustive mode.
    """
    thr = threshold(d)

    @cache
    def family(c):
        return tuple((h, spectrum(h).eigenvalues) for h in extremal_family(d, c))

    counterexamples = []
    records = [
        _examine(g, s, d, thr, family, mode == "exhaustive", counterexamples)
        for g, s in _with_spectra(_generate(d, n_max, mode, samples, seed))
    ]
    # the CSV contract lists records in graph6-lexicographic order
    records.sort(key=lambda r: r.graph6)
    cut_records = [r for r in records if r.witnesses]
    report = TheoremReport(
        d=d,
        n_max=n_max,
        mode=mode,
        passed=not counterexamples,
        equality_cases=tuple(r.graph6 for r in cut_records if r.threshold_cmp == "equal"),
        counterexamples=tuple(sorted(counterexamples)),
        graphs_checked=len(records),
        cut_vertex_graphs=len(cut_records),
    )
    return report, records


CSV_HEADER = "graph6,n,d,witnesses,lambda2,threshold_cmp,iso_extremal"


def csv_lines(records) -> Iterator[str]:
    """The fixed-layout CSV, line by line; witnesses serialize as 'u:c' pairs joined by ';'."""
    yield CSV_HEADER + "\n"
    for r in records:
        wit = ";".join(f"{u}:{c}" for u, c in r.witnesses)
        yield (
            f"{r.graph6},{r.n},{r.d},{wit},{r.lambda2:.10g},"
            f"{r.threshold_cmp},{str(r.iso_extremal).lower()}\n"
        )


def records_to_csv(records) -> str:
    """The lines of ``csv_lines`` as one string."""
    return "".join(csv_lines(records))


# ---------------------------------------------------------------------------
# edge expansion


@dataclass(frozen=True)
class CheegerCheck:
    h: float
    lower: float
    upper: float
    passed: bool


def edge_expansion(g: Graph) -> float:
    """Exact edge expansion by subset search (Gray-code incremental cuts)."""
    if g.n > 20:
        raise ValueError("exact edge expansion is limited to n <= 20")
    if g.n < 2:
        raise ValueError("edge expansion needs at least two vertices")
    n = g.n
    half = n // 2
    best = float("inf")
    cut = 0
    size = 0
    prev_gray = 0
    for i in range(1, 1 << n):
        gray = i ^ (i >> 1)
        v = (gray ^ prev_gray).bit_length() - 1
        if (gray >> v) & 1:
            cut += g.degree(v) - 2 * (g.rows[v] & prev_gray).bit_count()
            size += 1
        else:
            cut -= g.degree(v) - 2 * (g.rows[v] & gray).bit_count()
            size -= 1
        prev_gray = gray
        if 1 <= size <= half:
            ratio = cut / size
            if ratio < best:
                best = ratio
    return best


def cheeger_check(g: Graph) -> CheegerCheck:
    """Sandwich the exact edge expansion between the spectral-gap bounds.

    Uses lambda2 (not the largest eigenvalue modulus) in both bounds; with
    the modulus the upper bound already fails on bipartite examples like the
    4-cycle.
    """
    d = is_regular(g)
    if d is None or not is_connected(g):
        raise ValueError("edge expansion bounds need a connected regular graph")
    h = edge_expansion(g)
    lam2 = spectrum(g).lambda2
    lower = (d - lam2) / 2
    upper = (2 * d * (d - lam2)) ** 0.5
    passed = _side(lower, h) <= 0 and _side(h, upper) <= 0
    return CheegerCheck(h, lower, upper, passed)


# ---------------------------------------------------------------------------
# earlier published bounds, instantiated for 2-connectedness


@dataclass(frozen=True)
class PriorBoundTable:
    """Earlier lambda2 bounds forcing 2-connectedness, next to the sharp one."""

    d: int
    n: int
    bounds: dict[str, float]
    new_threshold: float


def prior_bounds(d: int, n: int) -> PriorBoundTable:
    """The four published bounds at connectivity target 2, for an order-n graph.

    Requires n > d+1 (several denominators vanish at n = d+1) and n*d even,
    so that some d-regular graph has order n.
    """
    if d < 3:
        raise ValueError("degree must be at least 3")
    if n <= d + 1:
        raise ValueError("need n > d+1 (degenerate denominator)")
    if n * d % 2:
        raise ValueError("n*d must be even (degree sum parity)")
    if d % 2 == 0:
        cioaba_gu = (d - 2 + (d * d + 12) ** 0.5) / 2
    else:
        cioaba_gu = (d - 2 + (d * d + 8) ** 0.5) / 2
    abiad = d - d * n / (2 * (d + 1) * (n - d - 1))
    liu = d - (d - 1) * n * d / (2 * (d + 1) * (n - d - 1))
    hong = d - n * d / ((n - 1) + 4 * d * (n - d - 1))
    return PriorBoundTable(
        d,
        n,
        {
            "cioaba_gu": cioaba_gu,
            "abiad_et_al": abiad,
            "liu": liu,
            "hong_et_al": hong,
        },
        threshold(d).value,
    )
