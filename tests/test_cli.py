"""Command-line interface: outputs, formats, exit codes, determinism."""

import json

import pytest

from eigencut import from_graph6, is_isomorphic, is_regular, build_extremal
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

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.g6"
        code, out, _ = run_cli(capsys, "build", "--d", "4", "--c", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert from_graph6(target.read_text().strip()).n == 11


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

    def test_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nBw\n"))
        code, out, _ = run_cli(capsys, "spectrum")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["n"] == 3


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

    def test_small_degree_rejected(self, capsys):
        for argv in (["--d", "2"], ["--d-range", "2..4"]):
            code, out, err = run_cli(capsys, "threshold", *argv)
            assert code == 2 and out == "" and "error" in err

    def test_empty_range_rejected(self, capsys):
        code, out, err = run_cli(capsys, "threshold", "--d-range", "8..3")
        assert code == 2 and out == ""
        assert err == "error: empty degree range '8..3'\n"


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

    def test_random_deterministic_across_workers(self, capsys, tmp_path, monkeypatch):
        outputs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("THREADS", threads)
            csv_path = tmp_path / f"rec{threads}.csv"
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

    def test_no_admissible_order_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "4", "--n-max", "4")
        assert code == 2 and out == ""
        assert err == "error: no admissible order at or below n_max\n"

    def test_random_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--d", "5", "--n-max", "16", "--mode", "random"])
        assert exc.value.code == 2


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

    def test_degenerate(self, capsys):
        code, _, err = run_cli(capsys, "compare-bounds", "--d", "3", "--n", "4")
        assert code == 2 and "error" in err


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "threshold", "--d-range", "3..6")
        _, out2, _ = run_cli(capsys, "threshold", "--d-range", "3..6")
        assert out1 == out2
