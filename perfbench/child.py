"""Fresh-process steps of the benchmark.

    python perfbench/child.py setup [--trace] WORKLOAD SEED
    python perfbench/child.py cli --trace CLI_ARG...

``setup`` imports padefit and builds the workload's inputs, as the main
benchmark process does before its first task; the parent times the whole
process.  ``cli`` imports padefit.cli and runs ``main`` on the given
arguments, capturing the report.  With ``--trace`` the child prints one
JSON object: its start time on the wall clock (the parent subtracts its
spawn time to get interpreter start-up), the import and main times, the
captured CLI output and exit code, and the tracer's snapshot.
"""

import time

STARTED = time.time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    t0 = time.perf_counter()
    if mode == "cli":
        import padefit.cli as cli
    else:
        import padefit  # noqa: F401
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    stdout, rc = "", 0
    if mode == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(rest)
        stdout = buf.getvalue()
    else:
        import workloads

        workloads.build_inputs(rest[0], int(rest[1]))
    main_s = time.perf_counter() - t0
    if tracer is not None:
        doc = {
            "started": STARTED,
            "import_s": import_s,
            "main_s": main_s,
            "rc": rc,
            "stdout": stdout,
            "trace": tracer.snapshot(),
        }
        print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
