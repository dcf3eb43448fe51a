"""One benchmark repetition in a fresh interpreter.

    python3 child.py SRC MODE [TUPLE_FILE REPORT_FILE]...

Imports ``dcmodel`` from SRC before anything else that is not in the
standard library, so that the time from process start to the end of
that import is the set-up cost.  MODE is ``setup`` (stop after the
import), ``untraced`` or ``traced`` (run the suite through the CLI on
each tuple file, one after the other).  The last line of standard
output is one JSON object for the parent.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import tracer as tracing


def run_pass(cli, pairs, tracer=None) -> tuple:
    """Run ``dcmodel suite`` on each (tuple, report) pair; returns the
    pass's wall time and per-call outcomes."""
    outcomes = []
    total = 0.0
    for tuple_file, report_file in pairs:
        argv = ["--format", "json", "suite", tuple_file, "--report", report_file]
        error = None
        if os.path.exists(report_file):
            os.remove(report_file)
        t0 = time.perf_counter()
        root = tracer.enter(tracing.ROOT) if tracer else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # an escaping exception loses the call; the parent counts it
            code = None
            error = traceback.format_exc(limit=3)
        finally:
            if tracer:
                tracer.exit(root)
        total += time.perf_counter() - t0
        outcomes.append({"code": code, "error": error})
    for (_, report_file), out in zip(pairs, outcomes):
        if out["error"] is None and os.path.exists(report_file):
            with open(report_file) as f:
                out["report"] = f.read()
    return total, outcomes


def main(argv) -> int:
    src, mode, files = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    dcmodel = importlib.import_module("dcmodel")
    result = {"imported_at": time.monotonic()}
    if os.path.dirname(os.path.abspath(dcmodel.__file__)) != os.path.join(src, "dcmodel"):
        print(f"error: imported dcmodel from {dcmodel.__file__}, not {src}", file=sys.stderr)
        return 2
    if mode != "setup":
        cli = importlib.import_module("dcmodel.cli")
        pairs = list(zip(files[::2], files[1::2]))
        tracer = None
        if mode == "traced":
            tracer = tracing.Tracer()
            result["absent"] = tracing.install(tracer)[1]
        result["suite_s"], result["calls"] = run_pass(cli, pairs, tracer)
        if tracer:
            result["self_times"] = tracer.self_times()
            result["gauges"] = tracer.gauges
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
