"""Regenerate expected.json, the oracle's true values, from seed 0.

    python3 perfbench/make_expected.py

Every op of every workload runs once on the unchanged corpus models; its
exit code and invariant lines become the expected values. Those values do
not depend on the seed (see models.py). One exception: the last Betti
number of ``resolve -L L`` is not trusted, because the last differential
is never pruned. Betti numbers are instead taken from the same command at
``-L L+1``, truncated to L. Review the diff before committing a new file.
"""

from __future__ import annotations

import json
import re
import time

from models import write_models
from run import HERE, ROOT, run_pass
from workloads import WORKLOADS, argv_for


def main() -> None:
    work_dir = ROOT / ".bench_work" / "expected"
    models = {k: str(p) for k, p in write_models(0, work_dir).items()}
    ops = sorted({op for ops in WORKLOADS.values() for op in ops})
    longer = {op: re.sub(r"-L (\d+)", lambda m: f"-L {int(m[1]) + 1}", op)
              for op in ops if op.startswith("resolve ")}
    todo = ops + sorted(longer.values())
    deadline = time.monotonic() + 3600
    result = run_pass([argv_for(op, models) for op in todo], False, deadline)
    got = dict(zip(todo, result["ops"]))
    expected = {}
    for op in ops:
        lines = dict(got[op]["lines"])
        if op in longer:
            length = int(lines["resolve.requested_length"])
            betti = got[longer[op]]["lines"]["resolve.betti"].split()
            lines["resolve.betti"] = " ".join(betti[:length + 1])
        expected[op] = {"exit": got[op]["exit"], "lines": lines}
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
