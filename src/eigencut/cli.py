"""Command-line front end.

Subcommands: ``build``, ``spectrum``, ``threshold``, ``verify``,
``compare-bounds``.  Exit codes: 0 success, 1 verification failure,
2 usage or input error.  Numbers print with 10 significant digits so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import extremal, verify
from .graphs import from_graph6, to_graph6
from .spectra import spectrum


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _cmd_build(args) -> int:
    composition = None
    if args.cycles is not None:
        try:
            composition = [int(part) for part in args.cycles.split(",")]
        except ValueError:
            raise ValueError(f"bad cycle composition {args.cycles!r}") from None
    g = extremal.build_extremal(args.d, args.c, composition)
    line = to_graph6(g) + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(line)
    else:
        sys.stdout.write(line)
    return 0


def _cmd_spectrum(args) -> int:
    if args.infile is not None and args.infile != "-":
        with open(args.infile) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    # every line is decoded before any is printed, so bad input writes nothing
    graphs = [from_graph6(ln) for ln in text.splitlines() if ln.strip()]
    if not graphs:
        raise ValueError("no graph6 input")
    for g in graphs:
        s = spectrum(g)
        sys.stdout.write(
            json.dumps(
                {
                    "n": g.n,
                    "eigenvalues": [float(_fmt(v)) for v in s.eigenvalues],
                    "lambda2": None if s.lambda2 is None else float(_fmt(s.lambda2)),
                }
            )
            + "\n"
        )
    return 0


def _parse_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        return list(range(int(lo), int(hi) + 1)) if dots else [int(text)]
    except ValueError:
        raise ValueError(f"bad degree range {text!r}") from None


def _cmd_threshold(args) -> int:
    ds = _parse_range(args.d_range) if args.d_range is not None else [args.d]
    if not ds:
        raise ValueError(f"empty degree range {args.d_range!r}")
    # every row is computed before the header, so bad input writes nothing
    lines = ["d\tc_star\tthreshold\tpolynomial\n"]
    for d in ds:
        # the threshold is the chain's last entry; no extremal graph is built
        chain = extremal.monotonicity_chain(d)
        c_star, value = chain[-1]
        coeffs = " ".join(_fmt(c) for c in extremal.lambda2_polynomial(d, c_star).coeffs)
        lines.append(f"{d}\t{c_star}\t{_fmt(value)}\t{coeffs}\n")
        if args.verbose:
            for c, val in chain:
                lines.append(f"# d={d} c={c} lambda2={_fmt(val)}\n")
    sys.stdout.write("".join(lines))
    return 0


def _cmd_verify(args) -> int:
    # the CSV path is opened before the sweep and held open, so an unwritable
    # path fails at once and a FIFO keeps its reader, but the records are
    # written through a fresh open after the sweep, so a failed sweep leaves
    # the path as it was; a file this run created is removed if the run fails
    created = args.csv is not None and not os.path.exists(args.csv)
    try:
        with contextlib.nullcontext() if args.csv is None else open(args.csv, "a"):
            report, records = verify.verify_theorem(
                args.d,
                args.n_max,
                mode=args.mode,
                samples=args.samples,
                seed=args.seed,
            )
            if args.csv is not None:
                with open(args.csv, "w") as fh:
                    fh.writelines(verify.csv_lines(records))
    except BaseException:
        if created:
            with contextlib.suppress(FileNotFoundError):  # the open itself may have failed
                os.remove(args.csv)
        raise
    sys.stdout.write(report.to_json() + "\n")
    if not report.cut_vertex_graphs:
        n = report.graphs_checked
        sys.stderr.write(f"note: vacuous verdict, no cut vertex in any of the {n} graphs checked\n")
    return 0 if report.passed else 1


def _cmd_compare_bounds(args) -> int:
    table = verify.prior_bounds(args.d, args.n)
    sys.stdout.write("bound\tvalue\tmargin\n")
    for name, value in table.bounds.items():
        sys.stdout.write(f"{name}\t{_fmt(value)}\t{_fmt(table.new_threshold - value)}\n")
    sys.stdout.write(f"sharp_threshold\t{_fmt(table.new_threshold)}\t0\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigencut",
        description="Extremal regular graphs, lambda2 thresholds, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit the extremal graph for (d, c) as graph6")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--cycles", help="comma-separated cycle lengths (default: one cycle)")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("spectrum", help="eigenvalues and lambda2 of graph6 input, as JSON")
    p.add_argument("--in", dest="infile", help="graph6 file ('-' or omit for stdin)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("threshold", help="sharp lambda2 threshold table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int)
    group.add_argument("--d-range", dest="d_range", help="inclusive range a..b")
    p.add_argument("--verbose", action="store_true", help="also print the lambda2 chain")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify", help="sweep generated graphs against the threshold")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", help="write per-graph records to this CSV file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare-bounds", help="prior lambda2 bounds vs the sharp threshold")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_compare_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except verify.VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # contract: diagnostics and exit codes, no tracebacks
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
