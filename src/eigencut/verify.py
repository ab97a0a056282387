"""Desk-scale verification: sweep generated regular graphs against the
cut-vertex eigenvalue thresholds, expansion bounds, and prior bounds.

The central check, one sweep: every connected d-regular graph with a cut
vertex has lambda2 at least the degree-d threshold, and at least the bound
``lambda2_value(d, c)`` of each normalized branch degree c at each of its
cut vertices.  An equality case must be isomorphic to a member of
``extremal_family(d, c*)`` at the threshold's branch degree c*: the one
graph ``threshold(d).extremal_graph`` for d <= 12 and every even d, and one
graph per cycle composition for odd d >= 13 (2 graphs at d = 13).  Exhaustive
mode walks every isomorphism class up to a given order; random mode samples
the pairing model (``samples`` graphs from ``seed``, options that exhaustive
mode rejects) and asserts only the strict side of the threshold (a sample
that happens to tie it is recorded, not judged).
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass

from .enumeration import enumerate_connected_regular, random_connected_regular
from .extremal import extremal_family, lambda2_value, threshold
from .graphs import Graph, articulation_points, is_connected, is_isomorphic, is_regular, to_graph6
from .spectra import spectrum

EIG_TOL = 1e-8


class VerificationError(Exception):
    """A generated graph violated a bound that the theory guarantees."""


@dataclass(frozen=True)
class VerificationRecord:
    """Per-graph outcome of a threshold sweep."""

    graph6: str
    n: int
    d: int
    witnesses: tuple[tuple[int, int], ...]  # (cut vertex, normalized branch degree)
    lambda2: float
    threshold_cmp: str  # below / equal / above
    iso_extremal: bool


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
        return json.dumps(
            {
                "d": self.d,
                "n_max": self.n_max,
                "mode": self.mode,
                "pass": self.passed,
                "equality_cases": list(self.equality_cases),
                "counterexamples": list(self.counterexamples),
                "graphs_checked": self.graphs_checked,
                "cut_vertex_graphs": self.cut_vertex_graphs,
            }
        )


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
        rng = random.Random(seed)
        for _ in range(samples):
            n = rng.choice(orders)
            yield random_connected_regular(n, d, rng.randrange(1 << 32))
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _examine(g: Graph, d: int, thr_value: float, family: tuple[Graph, ...]) -> VerificationRecord:
    witnesses = cut_branch_values(g, d)
    lam2 = spectrum(g).lambda2
    if lam2 > thr_value + EIG_TOL:
        cmp = "above"
    elif lam2 < thr_value - EIG_TOL:
        cmp = "below"
    else:
        cmp = "equal"
    iso = cmp == "equal" and any(g.n == h.n and is_isomorphic(g, h) for h in family)
    return VerificationRecord(to_graph6(g), g.n, d, witnesses, lam2, cmp, iso)


def verify_theorem(
    d: int,
    n_max: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> tuple[TheoremReport, list[VerificationRecord]]:
    """Sweep generated graphs against the sharp threshold and the branch bounds.

    A counterexample is a cut-vertex graph strictly below the threshold, an
    equality case isomorphic to no member of the extremal family (equality is
    only asserted in exhaustive mode), or a graph below the bound of one of
    its own branch degrees: a witness (u, c) needs lambda2 at least
    ``lambda2_value(d, c)``.  Each graph is listed at most once.  ``samples``
    and ``seed`` drive random mode and are rejected in exhaustive mode.
    """
    thr = threshold(d)
    family = extremal_family(d, thr.c_star)
    records = [
        _examine(g, d, thr.value, family)
        for g in _generate(d, n_max, mode, samples, seed)
    ]
    # the CSV contract lists records in graph6-lexicographic order
    records.sort(key=lambda r: r.graph6)
    equality = []
    counterexamples = []
    cut_graphs = 0
    for rec in records:
        if not rec.witnesses:
            continue
        cut_graphs += 1
        if rec.threshold_cmp == "equal":
            equality.append(rec.graph6)
        if (
            rec.threshold_cmp == "below"
            or (rec.threshold_cmp == "equal" and mode == "exhaustive" and not rec.iso_extremal)
            or any(rec.lambda2 < lambda2_value(d, c) - EIG_TOL for _, c in rec.witnesses)
        ):
            counterexamples.append(rec.graph6)
    report = TheoremReport(
        d=d,
        n_max=n_max,
        mode=mode,
        passed=not counterexamples,
        equality_cases=tuple(equality),
        counterexamples=tuple(counterexamples),
        graphs_checked=len(records),
        cut_vertex_graphs=cut_graphs,
    )
    return report, records


CSV_HEADER = "graph6,n,d,witnesses,lambda2,threshold_cmp,iso_extremal"


def records_to_csv(records) -> str:
    """Fixed-layout CSV; witnesses serialize as 'u:c' pairs joined by ';'."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        wit = ";".join(f"{u}:{c}" for u, c in r.witnesses)
        buf.write(
            f"{r.graph6},{r.n},{r.d},{wit},{r.lambda2:.10g},"
            f"{r.threshold_cmp},{str(r.iso_extremal).lower()}\n"
        )
    return buf.getvalue()


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
    passed = lower <= h + EIG_TOL and h <= upper + EIG_TOL
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
