"""frobcheck benchmark: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/frobcheck``. The seeded
model files go to ``.bench_work/``. Load model: closed loop, one client,
one op in flight. A pass runs the workload's op list once in a fresh
worker process, so no process state carries from one pass to the next.

``--trace 0`` measures set-up (a fresh process importing ``frobcheck.cli``,
several times) and then runs passes until S seconds have gone, and reports
the ``end_to_end`` metrics of BENCHMARK.json. ``--trace 1`` alternates
plain and traced passes (at least one plain, two traced), checks that the
two traced passes count exactly the same work op by op, and reports the
``per_layer`` metrics; tracing overhead is the traced minus the plain pass
time. Every op's exit code and invariant lines are checked against
``expected.json`` in both modes.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from models import write_models
from workloads import (BASELINE_COUNTERS, BASELINE_OP, REQUIRED_LAYERS,
                       WORKLOADS, argv_for)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Worker environment, the same on every commit. Ring C needs both budget
# overrides; a pinned hash seed fixes set and dict iteration order.
WORKER_ENV = {
    "FROBCHECK_MAX_PUSHFORWARD_GENS": "256",
    "FROBCHECK_MAX_DEGREE": "2000",
    "PYTHONHASHSEED": "0",
}
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import frobcheck.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FROBCHECK_")}
    env.update(WORKER_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args, deadline: float, stdin: str = "") -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run would exceed {RUN_LIMIT_S:.0f} s")
    try:
        done = subprocess.run(args, input=stdin, capture_output=True,
                              text=True, cwd=ROOT, env=worker_env(),
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {RUN_LIMIT_S:.0f} s")
    if done.returncode != 0:
        raise BenchError(f"child exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def measure_setup(deadline: float) -> list:
    return [float(_child([sys.executable, "-c", IMPORT_PROBE], deadline))
            for _ in range(SETUP_SAMPLES)]


def run_pass(argvs, trace: bool, deadline: float) -> dict:
    job = json.dumps({"ops": argvs, "trace": trace})
    return json.loads(_child([sys.executable, str(HERE / "worker.py")],
                             deadline, job))


class Tally:
    """Oracle outcomes over every op of every pass."""

    def __init__(self, ops, expected):
        self.ops = ops
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.wrong = 0
        self.reported = set()

    def add(self, result: dict) -> None:
        for op, got in zip(self.ops, result["ops"]):
            want = self.expected[op]
            outcome, problems = oracle.classify(got["exit"], got["lines"],
                                                want)
            self.attempted += 1
            if outcome == oracle.OK:
                continue
            self.failed += 1
            if outcome == oracle.KNOWN_DEFECT:
                self.known_defect += 1
            else:
                self.wrong += 1
            if op not in self.reported:
                self.reported.add(op)
                print(f"failed op ({outcome}): {op}: " + "; ".join(problems),
                      file=sys.stderr)
                if got.get("stderr"):
                    print(got["stderr"], file=sys.stderr)


def percentile(values, pct: int) -> float:
    """Nearest rank: the smallest value with ``pct``% of values at or below."""
    ranked = sorted(values)
    return ranked[max(math.ceil(pct * len(ranked) / 100) - 1, 0)]


class Run:
    """One workload at one seed: its ops, model files and oracle tally."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 expected: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ops = WORKLOADS[workload]
        work_dir = Path(".bench_work") / f"{workload}-seed{seed}"
        paths = write_models(seed, ROOT / work_dir)
        models = {k: str(work_dir / p.name) for k, p in paths.items()}
        self.argvs = [argv_for(op, models) for op in self.ops]
        self.tally = Tally(self.ops, expected)

    def one_pass(self, trace: bool) -> dict:
        result = run_pass(self.argvs, trace, self.deadline)
        self.tally.add(result)
        return result


def timed_metrics(run: Run):
    """End-to-end metrics, and the sample count behind each."""
    setup = measure_setup(run.deadline)
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < run.seconds:
        passes.append(run.one_pass(False))
    # one latency per op: its median over the passes. Pooled samples would
    # cluster by op, and a percentile would sit on the edge of one cluster.
    op_ms = [statistics.median(r["ops"][k]["ms"] for r in passes)
             for k in range(len(run.ops))]
    print("pass wall/cpu s: " + "  ".join(
        f"{r['pass_s']:.3f}/{r['cpu_s']:.3f}" for r in passes))
    for op, ms in zip(run.ops, op_ms):
        print(f"  {ms:10.1f} ms  {op}")
    n = len(passes)
    op_samples = f"{len(op_ms)} ops, each the median of {n} passes"
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(r["pass_s"] for r in passes),
        "op_ms.p50": percentile(op_ms, 50),
        "op_ms.p90": percentile(op_ms, 90),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0
                                         for r in passes),
    }
    samples = {"setup_s": f"{len(setup)} processes", "pass_s": f"{n} passes",
               "op_ms.p50": op_samples, "op_ms.p90": op_samples,
               "peak_rss_mb": f"{n} passes"}
    return values, samples


def _op_work(result: dict) -> list:
    return result["trace"]["per_op"]


def _layer_value(name: str, traced: list, plain: list):
    work = _op_work(traced[0])
    label, _, field = name.rpartition(".")
    if label == "trace":
        t = statistics.median(r["pass_s"] for r in traced)
        if field == "pass_s":
            return t
        return t - statistics.median(r["pass_s"] for r in plain)
    if field in ("s", "self_s"):
        return statistics.median(r["trace"][field].get(label, 0.0)
                                 for r in traced)
    if field.endswith("_max"):
        return max((w.get(name, 0) for w in work), default=0)
    return sum(w.get(name, 0) for w in work)


def traced_metrics(run: Run, names):
    """Per-layer metrics from alternating plain and traced passes."""
    plain, traced = [], []
    started = time.monotonic()
    while (len(plain) < 1 or len(traced) < 2
           or time.monotonic() - started < run.seconds):
        want_trace = len(traced) < 2 * len(plain)
        (traced if want_trace else plain).append(run.one_pass(want_trace))
    first = _op_work(traced[0])
    for other in traced[1:]:
        if _op_work(other) != first:
            raise BenchError("traced passes counted different work")
    calls = traced[0]["trace"]["calls"]
    silent = [label for label in REQUIRED_LAYERS[run.workload]
              if not calls.get(label)]
    if silent:
        raise BenchError("wrapped layers never fired: " + ", ".join(silent))
    print("work counters identical across traced passes: yes")
    if run.seed == 0 and BASELINE_OP in run.ops:
        got = first[run.ops.index(BASELINE_OP)]
        for key, want in BASELINE_COUNTERS.items():
            print(f"seed-0 baseline {BASELINE_OP!r} {key}: "
                  f"{got.get(key, 0)} (recorded {want})")
    out = ROOT / ".bench_work" / f"{run.workload}-seed{run.seed}.tree.json"
    out.write_text(json.dumps({"ops": run.ops,
                               "nodes": traced[-1]["trace"]["tree"]}) + "\n")
    print(f"span tree (node: parent, label, calls, s, self_s): {out}")
    values = {name: _layer_value(name, traced, plain) for name in names}
    samples = {name: f"{len(traced)} traced passes" for name in names}
    samples["trace.overhead_s"] = (f"{len(traced)} traced, "
                                   f"{len(plain)} plain passes")
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "frobcheck" / "cli.py").is_file():
        print(f"error: no frobcheck sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    expected = json.loads((HERE / "expected.json").read_text())
    workloads = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]

    for workload in workloads:
        run = Run(workload, args.seed, args.seconds, expected)
        print(f"workload: {workload}  seed: {args.seed}  "
              f"trace: {args.trace}  ops per pass: {len(run.ops)}")
        try:
            if args.trace:
                values, samples = traced_metrics(run, list(units))
            else:
                values, samples = timed_metrics(run)
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        tally = run.tally
        print(f"attempted: {tally.attempted}  failed: {tally.failed}  "
              f"failed_frac: {tally.failed / tally.attempted:.4f}  "
              f"(known defect: {tally.known_defect}, wrong: {tally.wrong})")
        for name, unit in units.items():
            print(f"  {name} = {values[name]} {unit}  [{samples[name]}]")
        print(json.dumps({
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
