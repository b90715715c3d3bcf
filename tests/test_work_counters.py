"""Exact work counters of four seed-0 benchmark ops, pinned.

One traced benchmark worker runs the ops of ``PINNED`` on the seed-0
models, as the benchmark does; perfbench/ is only read. ``info`` reaches
the kappa bound and ``ext-pushforward`` the memoized pushforward. The
S-pairs of ``buchberger_flat`` and the reduction steps of ``reduce_full``
must equal the recorded values, and the ``reduce_full`` calls must stay at
or below theirs. The counters are exact
and reproducible, so any change to them is a change to the engine's work:
a change that moves them must update the values here and say why.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

# op -> (S-pairs, reduction steps, most reduce_full calls)
PINNED = {
    "tor {C} -m k -n 1 -i 2 --method both": (194, 540, 475),
    "resolve {C} -m k -L 8": (1225, 4323, 3781),
    "info {C}": (82, 165, 188),
    "check gorenstein {C} --method ext-pushforward": (154, 388, 420),
}


def test_work_counters_of_pinned_ops(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from models import write_models
    from run import worker_env
    from workloads import argv_for
    paths = {k: str(v) for k, v in write_models(0, tmp_path).items()}
    job = json.dumps({"ops": [argv_for(op, paths) for op in PINNED],
                      "trace": True})
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH,
                                                        "worker.py")],
                          input=job, capture_output=True, text=True,
                          env=worker_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = {}
    for op, work in zip(PINNED, json.loads(proc.stdout)["trace"]["per_op"]):
        got[op] = (work["engine.buchberger_flat.spairs"],
                   work["engine.reduce_full.steps"],
                   work["engine.reduce_full.calls"])
    for op, (spairs, steps, calls) in PINNED.items():
        assert got[op][:2] == (spairs, steps), op
        assert got[op][2] <= calls, op
