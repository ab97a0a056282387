"""One benchmark iteration in a fresh process.

    python3 bench/child.py SRC RESULT MODE [VERIFY ARGUMENTS...]

Imports eigencut from the source tree SRC and notes the monotonic clock
when the import returns, so the parent can time set-up from its launch.
MODE ``setup`` stops there; ``plain`` runs ``eigencut.cli.main`` on the
verify arguments and ``traced`` does the same with the layer wrappers of
``tracing`` installed.  The result is written to RESULT as JSON.
"""

import sys
import time


def _peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: across exec, ``ru_maxrss`` keeps the
    peak of the address space the process was spawned from, which here is
    the benchmark's parent process and can exceed the child's own peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_verify(argv: list[str], traced: bool) -> dict:
    """Run ``cli.main(argv)`` with stdout captured; time it and, if traced, its layers."""
    import contextlib
    import io

    from eigencut import cli

    import tracing

    out = io.StringIO()
    tracer = tracing.Tracer()
    wrappers = tracing.traced(tracer) if traced else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), wrappers:
        start = time.perf_counter()
        code = tracer.call("cli.main", cli.main, argv) if traced else cli.main(argv)
        verify_s = time.perf_counter() - start
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "verify_s": verify_s,
        "peak_rss_kb": _peak_rss_kb(),
        "layers": tracing.summarize(tracer) if traced else None,
    }


def main() -> int:
    src, result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, src)
    import eigencut

    imported_at = time.monotonic()
    import json
    from pathlib import Path

    if not Path(eigencut.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.stderr.write(f"eigencut was imported from {eigencut.__file__}, not from {src}\n")
        return 3
    result = {"imported_at": imported_at}
    if mode != "setup":
        result.update(run_verify(argv, mode == "traced"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
