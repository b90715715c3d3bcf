"""One pass of a workload, in a fresh process.

Reads a JSON job from stdin: ``{"ops": [[argv...], ...], "trace": bool}``.
Runs each op through ``frobcheck.cli.run`` exactly as the ``frobcheck``
command would (the report it prints is captured), and writes one JSON
object to stdout: per op its exit code (None for a crash), invariant
lines and latency; the pass time; the process's peak RSS; and, when
traced, the trace summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from oracle import invariant_lines


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    from frobcheck.cli import run

    ops = []
    started = time.perf_counter()
    for index, argv in enumerate(job["ops"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except Exception:
                traceback.print_exc()
                code = None
        ms = (time.perf_counter() - t0) * 1000.0
        if tracer is not None:
            tracer.end_op()
        ops.append({"exit": code, "ms": ms,
                    "lines": invariant_lines(out.getvalue()),
                    "stderr": err.getvalue()[-2000:] if code is None else ""})
    pass_s = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ops": ops,
        "pass_s": pass_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
