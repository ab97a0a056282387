"""Independent checker for the CSV and JSON that ``eigencut verify`` writes.

Nothing here imports eigencut: graph6 is decoded by its own code, cut
vertices are found by deleting each vertex in turn, and eigenvalues come
from ``numpy.linalg.eigvals`` (a general, non-symmetric LAPACK routine,
not the symmetric one the library uses).  Every check is independent of
vertex labelling, so an enumerator that emits other labellings of the same
isomorphism classes still passes.

Exhaustive sweeps are matched against ``reference.json``: for every record
the order, the multiset of normalized branch degrees and lambda2.  Its
per-order counts are checked against OEIS A002851 (cubic) and A006820
(quartic) when it is loaded.  Regenerate it with
``python3 bench/check.py --write-reference`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
CSV_HEADER = "graph6,n,d,witnesses,lambda2,threshold_cmp,iso_extremal"

# connected d-regular graphs per order: OEIS A002851 (d=3), A006820 (d=4)
OEIS = {
    3: {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509},
    4: {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59, 11: 265},
}

# sharp thresholds: the largest root of x^3 - 7x - 2 for d=3, 1 + sqrt(7) for d=4
THRESHOLD = {
    3: max(r.real for r in np.roots([1.0, 0.0, -7.0, -2.0])),
    4: 1.0 + math.sqrt(7.0),
}

LAMBDA_TOL = 1e-8  # CSV lambda2 prints 10 significant digits
MATCH_TOL = 1e-9  # recomputed lambda2 against the reference
CMP_BAND = 1e-6  # inside this band around the threshold any verdict word is accepted


def decode_graph6(text: str) -> list[int]:
    """Neighbour bitmasks of a graph6 string with at most 62 vertices."""
    data = text.encode("ascii")
    if not data or not 63 <= data[0] <= 125 or any(b < 63 or b > 126 for b in data):
        raise ValueError(f"bad graph6 {text!r}")
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    if len(data) - 1 != (nbits + 5) // 6:
        raise ValueError(f"bad graph6 length {text!r}")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if ((data[1 + k // 6] - 63) >> (5 - k % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    for k in range(nbits, (len(data) - 1) * 6):
        if ((data[1 + k // 6] - 63) >> (5 - k % 6)) & 1:
            raise ValueError(f"nonzero graph6 padding {text!r}")
    return rows


def _reach(rows: list[int], start: int, allowed: int) -> int:
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= rows[low.bit_length() - 1]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def components(rows: list[int], allowed: int) -> list[int]:
    comps = []
    while allowed:
        comp = _reach(rows, (allowed & -allowed).bit_length() - 1, allowed)
        comps.append(comp)
        allowed &= ~comp
    return comps


def witnesses(rows: list[int], d: int) -> list[tuple[int, int]]:
    """Sorted distinct (cut vertex, min(b, d - b)) over the components of G - u."""
    full = (1 << len(rows)) - 1
    pairs = set()
    for u in range(len(rows)):
        comps = components(rows, full & ~(1 << u))
        if len(comps) > 1:
            for comp in comps:
                b = (rows[u] & comp).bit_count()
                pairs.add((u, min(b, d - b)))
    return sorted(pairs)


def lambda2s(graphs: list[list[int]]) -> list[float]:
    """Second-largest adjacency eigenvalue of each graph, batched by order."""
    out = [0.0] * len(graphs)
    by_n = defaultdict(list)
    for k, rows in enumerate(graphs):
        by_n[len(rows)].append(k)
    for n, idx in by_n.items():
        bits = np.array([[(graphs[k][v] >> u) & 1 for v in range(n) for u in range(n)] for k in idx])
        ev = np.sort(np.linalg.eigvals(bits.reshape(len(idx), n, n).astype(float)).real, axis=1)
        for k, lam in zip(idx, ev[:, -2]):
            out[k] = float(lam)
    return out


def _joint_colours(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Colour refinement on the disjoint union, so colours compare across the two graphs."""
    n = len(a)
    rows = a + [r << n for r in b]
    colours = [r.bit_count() for r in rows]
    while True:
        keys = [
            (colours[v], tuple(sorted(colours[u] for u in range(len(rows)) if rows[v] >> u & 1)))
            for v in range(len(rows))
        ]
        rank = {key: k for k, key in enumerate(sorted(set(keys)))}
        refined = [rank[key] for key in keys]
        if len(rank) == len(set(colours)):
            return refined[:n], refined[n:]
        colours = refined


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Backtracking isomorphism test pruned by colour refinement."""
    n = len(a)
    if n != len(b):
        return False
    ca, cb = _joint_colours(a, b)
    if sorted(ca) != sorted(cb):
        return False
    size = Counter(ca)
    order = sorted(range(n), key=lambda v: (size[ca[v]], v))
    image = [-1] * n

    def extend(k: int, used: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used >> w & 1 or cb[w] != ca[v]:
                continue
            if all((a[v] >> x & 1) == (b[w] >> image[x] & 1) for x in order[:k]):
                image[v] = w
                if extend(k + 1, used | 1 << w):
                    return True
        image[v] = -1
        return False

    return extend(0, 0)


@dataclass
class Verdict:
    """Outcome of checking one run's outputs."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass(frozen=True)
class Row:
    """One CSV record that passed the per-record checks."""

    graph6: str
    rows: list[int]
    branches: tuple[int, ...]  # sorted normalized branch degrees, labelling-free
    lambda2: float  # recomputed
    cmp: str
    iso_extremal: bool


def _parse_rows(lines: list[list[str]], d: int, n_max: int, verdict: Verdict) -> list[Row]:
    """Records that pass every per-record check; each bad record counts as failed."""
    parsed = []
    for f in lines:
        try:
            if len(f) != 7 or f[5] not in ("above", "below", "equal") or f[6] not in ("true", "false"):
                raise ValueError("malformed fields")
            rows = decode_graph6(f[0])
            n = len(rows)
            if int(f[1]) != n or int(f[2]) != d or n > n_max:
                raise ValueError("wrong n or d")
            if any(r.bit_count() != d for r in rows) or len(components(rows, (1 << n) - 1)) != 1:
                raise ValueError("not a connected regular graph")
            wit = witnesses(rows, d)
            if f[3] != ";".join(f"{u}:{c}" for u, c in wit):
                raise ValueError("wrong witnesses")
            parsed.append((f, rows, tuple(sorted(c for _, c in wit)), float(f[4])))
        except ValueError as exc:
            verdict.fail(1, f"{','.join(f)[:40]!r}: {exc}")
    good = []
    thr = THRESHOLD[d]
    for (f, rows, branches, printed), lam in zip(parsed, lambda2s([p[1] for p in parsed])):
        if lam > thr + CMP_BAND:
            allowed = ("above",)
        elif lam < thr - CMP_BAND:
            allowed = ("below",)
        else:
            allowed = ("above", "below", "equal")
        if abs(printed - lam) > LAMBDA_TOL or f[5] not in allowed:
            verdict.fail(1, f"{f[0]}: lambda2 {f[4]} or verdict {f[5]} disagrees with {lam!r}")
            continue
        good.append(Row(f[0], rows, branches, lam, f[5], f[6] == "true"))
    return good


def _check_report(report: dict, d: int, n_max: int, mode: str, lines: list[list[str]], verdict):
    """The JSON summary must agree with the CSV as written and claim a pass."""
    cut = [f for f in lines if len(f) == 7 and f[3]]
    expect = {
        "d": d,
        "n_max": n_max,
        "mode": mode,
        "pass": True,
        "counterexamples": [],
        "equality_cases": [f[0] for f in cut if f[5] == "equal"],
        "graphs_checked": len(lines),
        "cut_vertex_graphs": len(cut),
    }
    for key, value in expect.items():
        if report.get(key) != value:
            verdict.fail(verdict.attempted, f"report {key}={report.get(key)!r}, expected {value!r}")
            return


def _check_extremal(rows: list[Row], extremal: list[int], verdict: Verdict):
    """iso_extremal is set exactly on equality records isomorphic to the extremal graph."""
    for r in rows:
        iso = r.cmp == "equal" and isomorphic(r.rows, extremal)
        if r.iso_extremal != iso:
            verdict.fail(1, f"{r.graph6}: iso_extremal={r.iso_extremal}, expected {iso}")


def load_reference(d: int, n_max: int) -> list[tuple[int, tuple[int, ...], float]]:
    """Reference (order, branch degrees, lambda2) of every graph up to ``n_max``."""
    entries = json.loads(REFERENCE.read_text())[str(d)]
    counts = Counter(e[0] for e in entries)
    if counts != Counter(OEIS[d]):
        raise ValueError(f"reference counts {dict(counts)} disagree with OEIS for d={d}")
    return [(n, tuple(b), lam) for n, b, lam in entries if n <= n_max]


def _match(rows: list[Row], reference, bad: int, verdict: Verdict) -> None:
    """Pair records with reference entries of equal (n, branches) and lambda2 within MATCH_TOL.

    Unpaired records count as failed, and so do unpaired reference entries
    beyond the ``bad`` records already counted (a bad record leaves one behind).
    """
    got, want = defaultdict(list), defaultdict(list)
    for r in rows:
        got[len(r.rows), r.branches].append(r.lambda2)
    for n, b, lam in reference:
        want[n, b].append(lam)
    extra = missing = 0
    for key in got.keys() | want.keys():
        g, w = sorted(got[key]), sorted(want[key])
        i = j = 0
        while i < len(g) and j < len(w):
            if abs(g[i] - w[j]) <= MATCH_TOL:
                i += 1
                j += 1
            elif g[i] < w[j]:
                i += 1
                extra += 1
            else:
                j += 1
                missing += 1
        extra += len(g) - i
        missing += len(w) - j
    if extra or missing > bad:
        verdict.fail(extra + max(0, missing - bad), f"{extra} records not in, {missing} missing from the reference")


def expected_records(mode: str, d: int, n_max: int, samples: int | None) -> int:
    return samples if mode == "random" else len(load_reference(d, n_max))


def check_run(
    mode: str,
    d: int,
    n_max: int,
    samples: int | None,
    exit_code: int | None,
    stdout: str,
    csv_text: str | None,
    extremal: list[int],
) -> Verdict:
    """Check one ``verify`` run; ``extremal`` is the extremal graph's bitmask rows.

    A run that exits non-zero, writes no CSV or reports a wrong summary has
    all of its expected records counted as failed.
    """
    verdict = Verdict(expected_records(mode, d, n_max, samples))
    if exit_code != 0 or csv_text is None:
        verdict.fail(verdict.attempted, f"exit code {exit_code}, CSV written: {csv_text is not None}")
        return verdict
    try:
        report = json.loads(stdout)
    except ValueError:
        verdict.fail(verdict.attempted, f"stdout is not one JSON report: {stdout[:80]!r}")
        return verdict
    text = csv_text.split("\n")
    if text[0] != CSV_HEADER or text[-1] != "":
        verdict.fail(verdict.attempted, "CSV header or final newline missing")
        return verdict
    lines = [line.split(",") for line in text[1:-1]]
    if [f[0] for f in lines] != sorted(f[0] for f in lines):
        verdict.fail(verdict.attempted, "records are not in graph6 order")
    _check_report(report, d, n_max, mode, lines, verdict)
    rows = _parse_rows(lines, d, n_max, verdict)
    _check_extremal(rows, extremal, verdict)
    if mode == "exhaustive":
        reference = load_reference(d, n_max)
        _match(rows, reference, len(lines) - len(rows), verdict)
        thr = THRESHOLD[d]
        want = sum(1 for _, b, lam in reference if b and abs(lam - thr) <= CMP_BAND)
        got = [r for r in rows if r.branches and r.cmp == "equal"]
        if len(got) != want or not all(r.iso_extremal for r in got):
            verdict.fail(verdict.attempted, f"{len(got)} equality cases, expected {want} extremal")
    else:
        if len(lines) != samples:
            verdict.fail(abs(samples - len(lines)), f"{len(lines)} records for {samples} samples")
        if any(r.branches and r.cmp == "below" for r in rows):
            verdict.fail(verdict.attempted, "a cut-vertex sample is below the threshold")
    return verdict


def write_reference() -> None:
    """Rebuild reference.json from exhaustive sweeps of the library at ``src/``."""
    import contextlib
    import io
    import tempfile

    sys.path.insert(0, str(REFERENCE.parent.parent / "src"))
    from eigencut import cli

    out = {}
    for d in sorted(OEIS):
        with tempfile.TemporaryDirectory(prefix=".work-", dir=REFERENCE.parent) as tmp:
            csv_path = Path(tmp) / "out.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["verify", "--d", str(d), "--n-max", str(max(OEIS[d])), "--csv", str(csv_path)])
            lines = csv_path.read_text().splitlines()[1:]
        graphs = [decode_graph6(line.split(",")[0]) for line in lines]
        entries = sorted(
            [len(g), sorted(c for _, c in witnesses(g, d)), lam]
            for g, lam in zip(graphs, lambda2s(graphs))
        )
        out[str(d)] = entries
    REFERENCE.write_text(json.dumps(out, separators=(",", ":")).replace("],[", "],\n[") + "\n")
    for d in OEIS:
        load_reference(d, max(OEIS[d]))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 bench/check.py --write-reference")
    write_reference()
