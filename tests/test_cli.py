"""Command-line interface: outputs, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from eigencut import VerificationError, build_extremal, extremal, from_graph6, is_isomorphic, is_regular
from eigencut.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--d", "3", "--c", "1")
        assert code == 0
        g = from_graph6(out.strip())
        assert g.n == 10 and is_regular(g) == 3

    def test_composition(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--d", "9", "--c", "7", "--cycles", "3,4")
        assert code == 0
        g = from_graph6(out.strip())
        assert g.n == 22 and is_regular(g) == 9
        assert is_isomorphic(g, build_extremal(9, 7, [3, 4]))

    def test_parity_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "build", "--d", "4", "--c", "3")
        assert code == 2
        assert "even" in err

    def test_bad_composition_rejected(self, capsys):
        code, out, err = run_cli(capsys, "build", "--d", "9", "--c", "7", "--cycles", "3,x")
        assert code == 2 and out == ""
        assert err == "error: bad cycle composition '3,x'\n"

    def test_short_cycle_rejected(self, capsys):
        code, out, err = run_cli(capsys, "build", "--d", "9", "--c", "2", "--cycles", "2,5")
        assert code == 2 and out == ""
        assert err == "error: cycle lengths must be at least 3\n"

    def test_empty_composition_rejected(self, capsys):
        code, out, err = run_cli(capsys, "build", "--d", "5", "--c", "3", "--cycles", "")
        assert code == 2 and out == ""
        assert err == "error: bad cycle composition ''\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.g6"
        code, out, _ = run_cli(capsys, "build", "--d", "4", "--c", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert from_graph6(target.read_text().strip()).n == 11

    def test_empty_out_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "build", "--d", "4", "--c", "2", "--out", "")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestSpectrum:
    def test_stdin_round_trip(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run_cli(capsys, "build", "--d", "3", "--c", "1")
        graph6_line = out.strip()
        path = tmp_path / "in.g6"
        path.write_text(graph6_line + "\n")
        code, out, _ = run_cli(capsys, "spectrum", "--in", str(path))
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["n"] == 10
        assert payload["lambda2"] == pytest.approx(2.778457118, abs=1e-8)

    def test_k4(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        code, out, _ = run_cli(capsys, "spectrum", "--in", str(path))
        assert code == 0
        assert json.loads(out)["lambda2"] == pytest.approx(-1)

    def test_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("B!\n")
        code, _, err = run_cli(capsys, "spectrum", "--in", str(path))
        assert code == 2 and "error" in err

    def test_malformed_later_line_prints_nothing(self, capsys, monkeypatch):
        # every line is decoded before the first is printed
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("I}KGGGB?w\nnot-a-graph\n"))
        code, out, err = run_cli(capsys, "spectrum")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nBw\n"))
        code, out, _ = run_cli(capsys, "spectrum")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["n"] == 3

    def test_blank_input_rejected(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n\t\n"))
        code, out, err = run_cli(capsys, "spectrum")
        assert code == 2 and out == ""
        assert err == "error: no graph6 input\n"

    def test_empty_in_rejected(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
        code, out, err = run_cli(capsys, "spectrum", "--in", "")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out, err = run_cli(capsys, "spectrum", "--in", "-")
        assert code == 0 and json.loads(out)["n"] == 4 and err == ""


class TestThreshold:
    def test_single(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--d", "3")
        assert code == 0
        line = out.splitlines()[1].split("\t")
        assert line[0] == "3" and line[1] == "1"
        assert float(line[2]) == pytest.approx(2.778457118)

    def test_range(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--d-range", "3..8")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            d, _, value = row.split("\t")[:3]
            assert int(d) - 1 < float(value) < int(d)

    def test_verbose_chain(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--d", "7", "--verbose")
        assert code == 0
        chain_lines = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert len(chain_lines) == 3  # c = 1, 2, 3

    def test_verbose_table_pinned(self, capsys):
        # every printed threshold and chain value, byte for byte
        code, out, _ = run_cli(capsys, "threshold", "--d-range", "3..60", "--verbose")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "180f854b6913a016084315d5bebe2be4c489878b057a6c91c14ff0297836ca30"

    def test_builds_no_graph(self, capsys, monkeypatch):
        # the table prints polynomials and roots only, so no row may pay
        # for an extremal graph
        def refuse(*args):
            raise AssertionError("threshold built an extremal graph")

        monkeypatch.setattr(extremal, "build_extremal", refuse)
        code, out, _ = run_cli(capsys, "threshold", "--d-range", "3..20", "--verbose")
        assert code == 0
        assert out.splitlines()[1] == "3\t1\t2.778457118\t1 0 -7 -2"

    def test_small_degree_rejected(self, capsys):
        for argv in (["--d", "2"], ["--d-range", "2..4"]):
            code, out, err = run_cli(capsys, "threshold", *argv)
            assert code == 2 and out == "" and "error" in err

    def test_empty_range_rejected(self, capsys):
        code, out, err = run_cli(capsys, "threshold", "--d-range", "8..3")
        assert code == 2 and out == ""
        assert err == "error: empty degree range '8..3'\n"

    def test_bad_range_rejected(self, capsys):
        for text in ("3..", "a..4", "x", ""):
            code, out, err = run_cli(capsys, "threshold", "--d-range", text)
            assert code == 2 and out == ""
            assert err == f"error: bad degree range '{text}'\n"


class TestVerify:
    def test_exhaustive_pass(self, capsys, tmp_path):
        csv_path = tmp_path / "records.csv"
        code, out, _ = run_cli(
            capsys, "verify", "--d", "3", "--n-max", "10", "--csv", str(csv_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["equality_cases"]) == 1
        assert csv_path.read_text().startswith("graph6,n,d,witnesses")

    def test_random_deterministic_across_runs(self, capsys, tmp_path):
        outputs = []
        for run in ("1", "2"):
            csv_path = tmp_path / f"rec{run}.csv"
            code, out, _ = run_cli(
                capsys,
                "verify",
                "--d", "5", "--n-max", "16",
                "--mode", "random", "--samples", "25", "--seed", "42",
                "--csv", str(csv_path),
            )
            assert code == 0
            outputs.append((out, csv_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_negative_samples_rejected(self, capsys):
        for samples in ("-5", "0"):
            code, out, err = run_cli(
                capsys,
                "verify", "--d", "3", "--n-max", "10",
                "--mode", "random", "--samples", samples, "--seed", "1",
            )
            assert code == 2 and out == ""
            assert err == "error: samples must be positive\n"

    def test_negative_seed_rejected(self, capsys):
        # random.Random seeds with |seed|, so -7 would repeat the run of 7.
        code, out, err = run_cli(
            capsys,
            "verify", "--d", "3", "--n-max", "10",
            "--mode", "random", "--samples", "5", "--seed", "-7",
        )
        assert code == 2 and out == ""
        assert err == "error: seed must be non-negative\n"

    def test_no_admissible_order_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "4", "--n-max", "4")
        assert code == 2 and out == ""
        assert err == "error: no admissible order at or below n_max\n"

    def test_samples_rejected_in_exhaustive_mode(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--d", "3", "--n-max", "10", "--samples", "5", "--seed", "1"
        )
        assert code == 2 and out == ""
        assert err == "error: samples and seed apply only to random mode\n"

    def test_small_degree_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--n-max", "10")
        assert code == 2 and out == ""
        assert err == "error: degree must be at least 3\n"

    def test_unwritable_csv_fails_before_sweep(self, capsys, tmp_path, monkeypatch):
        import eigencut.verify

        calls = []
        enumerate_regular = eigencut.verify.enumerate_connected_regular

        def recording(n, d):
            calls.append((n, d))
            return enumerate_regular(n, d)

        monkeypatch.setattr("eigencut.verify.enumerate_connected_regular", recording)
        csv_path = tmp_path / "missing" / "records.csv"
        code, out, err = run_cli(
            capsys, "verify", "--d", "3", "--n-max", "10", "--csv", str(csv_path)
        )
        assert code == 2 and out == "" and err.startswith("error: ")
        assert calls == []

    USAGE_ERRORS = [
        ("--d", "3", "--n-max", "2"),
        ("--d", "2", "--n-max", "10"),
        ("--d", "4", "--n-max", "4"),
        ("--d", "3", "--n-max", "10", "--samples", "5", "--seed", "1"),
        ("--d", "5", "--n-max", "16", "--mode", "random"),
        ("--d", "3", "--n-max", "10", "--mode", "random", "--samples", "0", "--seed", "1"),
    ]

    def test_usage_error_keeps_existing_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "records.csv"
        kept = b"graph6,n,d,witnesses\nkept bytes\n"
        for argv in self.USAGE_ERRORS:
            csv_path.write_bytes(kept)
            code, out, err = run_cli(capsys, "verify", *argv, "--csv", str(csv_path))
            assert code == 2 and out == "" and err.startswith("error: "), argv
            assert csv_path.read_bytes() == kept, argv

    def test_failed_sweep_keeps_existing_csv(self, capsys, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("sampler budget spent")

        monkeypatch.setattr("eigencut.verify.verify_theorem", failing)
        csv_path = tmp_path / "records.csv"
        csv_path.write_bytes(b"kept bytes\n")
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--n-max", "10", "--csv", str(csv_path))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert csv_path.read_bytes() == b"kept bytes\n"

    def test_failed_run_creates_no_csv(self, capsys, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("sampler budget spent")

        csv_path = tmp_path / "new.csv"

        def fails_without_file(argv):
            code, out, err = run_cli(capsys, "verify", *argv, "--csv", str(csv_path))
            assert code == 2 and out == "" and err.startswith("error: "), argv
            assert not csv_path.exists(), argv

        for argv in self.USAGE_ERRORS:
            fails_without_file(argv)
        monkeypatch.setattr("eigencut.verify.verify_theorem", failing)
        fails_without_file(("--d", "3", "--n-max", "10"))

    def test_empty_csv_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--n-max", "8", "--csv", "")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_csv_replaces_existing_file(self, capsys, tmp_path):
        fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
        old.write_bytes(b"x" * 4096)
        for path in (fresh, old):
            code, _, _ = run_cli(capsys, "verify", "--d", "3", "--n-max", "8", "--csv", str(path))
            assert code == 0
        assert old.read_bytes() == fresh.read_bytes()
        assert fresh.read_bytes().startswith(b"graph6,")

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    def test_csv_to_character_device(self, capsys):
        # the records are written to a device such as /dev/null as to a file
        code, out, err = run_cli(
            capsys, "verify", "--d", "3", "--n-max", "8", "--csv", os.devnull
        )
        assert code == 0 and err.startswith("note: vacuous verdict")
        assert json.loads(out)["graphs_checked"] == 8

    @pytest.mark.parametrize("change", ["replace", "remove"])
    def test_csv_path_changed_during_sweep(self, capsys, tmp_path, monkeypatch, change):
        # the records go to whatever the path names once the sweep is done
        import eigencut.verify

        sweep = eigencut.verify.verify_theorem
        csv_path = tmp_path / "records.csv"

        def changing(*args, **kwargs):
            result = sweep(*args, **kwargs)
            if change == "replace":
                (tmp_path / "other.csv").write_bytes(b"other bytes\n")
                os.replace(tmp_path / "other.csv", csv_path)
            else:
                os.remove(csv_path)
            return result

        monkeypatch.setattr("eigencut.verify.verify_theorem", changing)
        code, out, _ = run_cli(capsys, "verify", "--d", "3", "--n-max", "10", "--csv", str(csv_path))
        assert code == 0 and json.loads(out)["graphs_checked"] == 27
        _, records = sweep(3, 10)
        assert csv_path.read_text() == eigencut.verify.records_to_csv(records)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_csv_to_fifo(self, capsys, tmp_path):
        # the FIFO's reader sees every line and then end of file
        import threading

        fifo = tmp_path / "records.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo) as fh:
                received.append(fh.read())
            if received[0].count("\n") < 28:  # free a writer blocked on a second open
                with open(fifo) as fh:
                    fh.read()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, _, _ = run_cli(capsys, "verify", "--d", "3", "--n-max", "10", "--csv", str(fifo))
        reader.join(timeout=60)
        assert code == 0 and not reader.is_alive()
        lines = received[0].splitlines()
        assert len(lines) == 28 and lines[0].startswith("graph6,")

    def test_random_requires_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "5", "--n-max", "16", "--mode", "random")
        assert code == 2 and out == ""
        assert err == "error: random mode needs samples and seed\n"

    def test_vacuous_verdict_noted(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--n-max", "6")
        assert code == 0
        assert json.loads(out)["cut_vertex_graphs"] == 0
        assert err == "note: vacuous verdict, no cut vertex in any of the 3 graphs checked\n"
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--n-max", "10")
        assert code == 0 and json.loads(out)["cut_vertex_graphs"] > 0
        assert err == ""

    def test_verification_failure_exits_1(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise VerificationError("odd branch degree 1 at cut vertex 1")

        monkeypatch.setattr("eigencut.verify.verify_theorem", failing)
        code, out, err = run_cli(capsys, "verify", "--d", "3", "--n-max", "10")
        assert code == 1 and out == ""
        assert err == "verification failure: odd branch degree 1 at cut vertex 1\n"


class TestCompareBounds:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "compare-bounds", "--d", "3", "--n", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bound\tvalue\tmargin"
        names = [ln.split("\t")[0] for ln in lines[1:]]
        assert names == ["cioaba_gu", "abiad_et_al", "liu", "hong_et_al", "sharp_threshold"]
        margins = [float(ln.split("\t")[2]) for ln in lines[1:-1]]
        assert all(m > 0 for m in margins)

    def test_quartic_tie_with_cioaba_gu(self, capsys):
        # at d = 4 the even-degree Cioaba-Gu bound is 1 + sqrt(7), the threshold itself
        code, out, _ = run_cli(capsys, "compare-bounds", "--d", "4", "--n", "11")
        assert code == 0
        assert out.splitlines()[1] == "cioaba_gu\t3.645751311\t0"

    def test_degenerate(self, capsys):
        for d, n in [("3", "4"), ("3", "5"), ("5", "7")]:  # n = d+1, then n*d odd
            code, out, err = run_cli(capsys, "compare-bounds", "--d", d, "--n", n)
            assert code == 2 and out == "", (d, n)
            assert err.startswith("error: ") and err.count("\n") == 1, (d, n)

    def test_small_degree_rejected(self, capsys):
        code, out, err = run_cli(capsys, "compare-bounds", "--d", "2", "--n", "5")
        assert code == 2 and out == ""
        assert err == "error: degree must be at least 3\n"


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "threshold", "--d-range", "3..6")
        _, out2, _ = run_cli(capsys, "threshold", "--d-range", "3..6")
        assert out1 == out2


def test_cli_import_stays_light():
    # exact roots use plain ints: fractions would also pull in decimal
    code = "import sys, eigencut.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(extremal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
