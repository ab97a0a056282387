"""eigencut benchmark: time ``eigencut verify`` end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, untraced and traced

Run from the repository root.  Each iteration is a fresh process that
imports eigencut from ``src/`` and calls ``eigencut.cli.main(["verify",
..., "--csv", ...])``, the entry point users run.  Iterations repeat while
the next one is expected to end within ``--seconds`` (at least one runs),
and every output is checked by ``check.py``.  ``THREADS`` is removed from the children's environment, so
runs are the single-worker baseline.

Untraced runs report the ``end_to_end`` metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced iterations and reports the
``per_layer`` metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# graphs and spectra calls made by verify itself (graph_from_edges runs inside the sampler)
EXAMINE_SPANS = ("graphs.articulation_points", "graphs.to_graph6", "graphs.is_isomorphic", "spectra.spectrum")
SETUP_PROBES = 7  # extra import-only processes per run, for a steady setup_s median
TIME_LIMIT_S = 170.0  # a run starts no iteration it cannot finish within this


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n_max: int
    mode: str = "exhaustive"
    samples: int | None = None

    def argv(self, seed: int, csv_path: Path) -> list[str]:
        argv = ["verify", "--d", str(self.d), "--n-max", str(self.n_max)]
        if self.mode == "random":
            argv += ["--mode", "random", "--samples", str(self.samples), "--seed", str(seed)]
        return argv + ["--csv", str(csv_path)]


# Why each workload: README.md.  Only random-cubic uses the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exhaustive-cubic", 3, 14),
        Workload("exhaustive-quartic", 4, 11),
        Workload("random-cubic", 3, 30, "random", 5000),
    )
}


@dataclass
class Iteration:
    mode: str
    setup_s: float | None = None
    verify_s: float | None = None
    peak_rss_kb: int | None = None
    layers: dict | None = None
    failed: int = 0
    csv_bytes: int = 0
    report: dict | None = None


class Runner:
    """Launches child processes in a scratch directory and checks their outputs."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.launches = 0
        self.first_output = None
        self.first_verdict = None
        self.expected = check.expected_records(workload.mode, workload.d, workload.n_max, workload.samples)
        self.problems: list[str] = []

    def _launch(self, mode: str, argv: list[str]) -> tuple[dict | None, float]:
        self.launches += 1
        result_path = self.workdir / f"result-{self.launches}.json"
        env = {k: v for k, v in os.environ.items() if k != "THREADS"}
        cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(result_path), mode, *argv]
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=self.workdir, stdout=subprocess.DEVNULL,
                timeout=max(1.0, self.deadline - launched),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} child timed out")
            return None, launched
        if proc.returncode != 0 or not result_path.exists():
            self.problems.append(f"{mode} child exited with code {proc.returncode}")
            return None, launched
        return json.loads(result_path.read_text()), launched

    def setup(self) -> Iteration:
        result, launched = self._launch("setup", [])
        return Iteration("setup", setup_s=None if result is None else result["imported_at"] - launched)

    def verify(self, mode: str) -> Iteration:
        csv_path = self.workdir / "out.csv"
        csv_path.unlink(missing_ok=True)
        result, launched = self._launch(mode, self.workload.argv(self.seed, csv_path))
        if result is None:
            return Iteration(mode, failed=self.expected)
        csv_text = csv_path.read_text() if csv_path.exists() else None
        it = Iteration(
            mode,
            setup_s=result["imported_at"] - launched,
            verify_s=result["verify_s"],
            peak_rss_kb=result["peak_rss_kb"],
            layers=result["layers"],
            csv_bytes=len(csv_text.encode()) if csv_text is not None else 0,
        )
        output = (result["exit"], result["stdout"], csv_text)
        if self.first_output is None:
            self.first_output = output
            self.first_verdict = self._check(output)
            self.problems += self.first_verdict.problems
        if output == self.first_output:
            it.failed = self.first_verdict.failed
            it.report = json.loads(result["stdout"]) if it.failed == 0 else None
        else:
            it.failed = self.expected
            self.problems.append(f"{mode} output differs from the first iteration's")
        return it

    def _check(self, output):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from eigencut.extremal import threshold

        w = self.workload
        extremal = list(threshold(w.d).extremal_graph.rows)
        return check.check_run(w.mode, w.d, w.n_max, w.samples, *output, extremal)


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[list[Iteration], list[str]]:
    """All iterations of one run: set-up probes, then as many verify rounds as fit in ``seconds``.

    At least one round runs, however long it takes.
    """
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        runner = Runner(workload, seed, workdir, time.monotonic() + TIME_LIMIT_S)
        iterations = [runner.setup() for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        rounds = 0
        while True:
            began = time.monotonic()
            modes = ["plain", "traced"] if rounds % 2 == 0 else ["traced", "plain"]
            for mode in modes if trace else ["plain"]:
                iterations.append(runner.verify(mode))
            rounds += 1
            now = time.monotonic()
            # the next round would take about as long as this one
            if now + (now - began) > min(start + seconds, runner.deadline):
                break
        return iterations, runner.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def metric_values(iterations: list[Iteration], trace: bool) -> dict[str, list[float]]:
    """Per-iteration samples of every metric; the reported value is their median."""
    plain = [it for it in iterations if it.mode == "plain" and it.verify_s is not None]
    if not trace:
        return {
            "setup_s": [it.setup_s for it in iterations if it.setup_s is not None],
            "verify_s": [it.verify_s for it in plain],
            "peak_rss_mb": [it.peak_rss_kb / 1024 for it in plain],
        }
    traced = [it for it in iterations if it.mode == "traced" and it.layers is not None]
    values: dict[str, list[float]] = {}
    for it in traced:
        layer = dict(it.layers)
        if it.report is not None:
            checked, cut = it.report["graphs_checked"], it.report["cut_vertex_graphs"]
            layer.update({
                "verify.csv_bytes": it.csv_bytes,
                "verify.graphs_checked": checked,
                "verify.cut_vertex_graphs": cut,
                "verify.cut_yield": cut / checked if checked else 0.0,
            })
        for name, value in layer.items():
            values.setdefault(name, []).append(value)
    if plain and traced:
        values["trace.overhead_s"] = [
            _median([it.verify_s for it in traced]) - _median([it.verify_s for it in plain])
        ]
    return values


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.exists():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "THREADS": "unset",
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    iterations, problems = measure(workload, seed, seconds, trace)
    verifies = [it for it in iterations if it.mode != "setup"]
    attempted = len(verifies) * check.expected_records(workload.mode, workload.d, workload.n_max, workload.samples)
    failed = sum(it.failed for it in verifies)
    values = metric_values(iterations, trace)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        samples = values.get(m["name"]) or [0.0]  # a layer this workload never calls
        q1, q3 = _quartiles(samples)
        print(f"{m['name']:44s} {_median(samples):14.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} n={len(samples)}")
        metrics[m["name"]] = {"value": _median(samples), "unit": m["unit"]}
    if trace:
        main_s = metrics["cli.main.busy_s"]["value"] or 1.0
        examine = sum(metrics[f"{name}.busy_s"]["value"] for name in EXAMINE_SPANS)
        print(f"share of traced verify_s: enumeration {metrics['enumeration.enumerate.busy_s']['value'] / main_s:.3f}"
              f", sampler {metrics['enumeration.sample.busy_s']['value'] / main_s:.3f}, graphs+spectra {examine / main_s:.3f}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(seed)))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eigencut" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {SRC / 'eigencut'} or {SPEC} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload != "all":
        print(json.dumps(run(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), spec)))
        return 0
    results = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            print(f"== {name} trace={int(trace)}")
            results[f"{name}/trace={int(trace)}"] = run(workload, args.seed, seconds, trace, spec)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
