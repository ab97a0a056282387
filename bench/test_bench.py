"""Tests of the benchmark itself (not part of the library suite).

    python3 -m pytest bench/test_bench.py -q

They use small sweeps (cubic graphs up to 10 vertices, a few hundred random
samples) so they take seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from eigencut.extremal import threshold  # noqa: E402

SMALL = [
    run.Workload("small-exhaustive", 3, 10),
    run.Workload("small-random", 3, 16, "random", 300),
]


def _verify(workload: run.Workload, tmp_path: Path, traced: bool) -> tuple[dict, str]:
    csv_path = tmp_path / f"{workload.name}-{int(traced)}.csv"
    result = child.run_verify(workload.argv(7, csv_path), traced)
    return result, csv_path.read_text()


def _check(workload: run.Workload, result: dict, csv_text: str) -> check.Verdict:
    extremal = list(threshold(workload.d).extremal_graph.rows)
    return check.check_run(
        workload.mode, workload.d, workload.n_max, workload.samples,
        result["exit"], result["stdout"], csv_text, extremal,
    )


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    plain, plain_csv = _verify(workload, tmp_path, traced=False)
    traced, traced_csv = _verify(workload, tmp_path, traced=True)
    assert plain["exit"] == traced["exit"] == 0
    assert plain["stdout"] == traced["stdout"]
    assert plain_csv == traced_csv
    assert _check(workload, plain, plain_csv).failed == 0


def test_wrapped_names_are_restored(tmp_path):
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.WRAPPED
    }
    _verify(SMALL[0], tmp_path, traced=True)
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert importlib.import_module("eigencut.verify").spectrum is not originals[
                ("eigencut.verify", "spectrum")
            ]
            raise RuntimeError("a failing run")
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_order_busy_times_add_up(tmp_path):
    result, _ = _verify(SMALL[0], tmp_path, traced=True)
    layers = result["layers"]
    orders = {k: v for k, v in layers.items() if k.startswith(tracing.ORDER_SPAN) and k.endswith(".busy_s")}
    assert sorted(orders) == sorted(f"{tracing.ORDER_SPAN}{n}.busy_s" for n in (4, 6, 8, 10))
    assert math.isclose(sum(orders.values()), layers["enumeration.enumerate.busy_s"], rel_tol=1e-12)
    for n, count in check.OEIS[3].items():
        if n <= 10:
            assert layers[f"{tracing.ORDER_SPAN}{n}.graphs"] == count
    assert 0 < layers["enumeration.enumerate.busy_s"] < layers["verify.verify_theorem.busy_s"]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_corrupted_csv_row_counts_as_failed(workload, tmp_path):
    result, csv_text = _verify(workload, tmp_path, traced=False)
    lines = csv_text.split("\n")
    row = lines[3].split(",")
    lam = float(row[4])
    wrong_lambda = ",".join(row[:4] + [f"{lam + 0.01:.10g}"] + row[5:])
    assert _check(workload, result, "\n".join(lines[:3] + [wrong_lambda] + lines[4:])).failed == 1
    other = lines[-2].split(",")[0]  # the last record's graph, so n, witnesses or lambda2 disagree
    assert other != row[0]
    swapped = ",".join([other] + row[1:])
    assert _check(workload, result, "\n".join(lines[:3] + [swapped] + lines[4:])).failed >= 1
    crashed = _check(workload, dict(result, exit=2), csv_text)
    assert crashed.failed == crashed.attempted > 0


def test_run_reports_every_metric_of_the_spec():
    spec = json.loads(run.SPEC.read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(SMALL[1], 3, 0, trace, spec)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_matches_oeis():
    for d, counts in check.OEIS.items():
        assert len(check.load_reference(d, max(counts))) == sum(counts.values())


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "random-cubic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
