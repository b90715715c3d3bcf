"""Golden reports: stdout of fixed commands on the corpus, byte for byte.

Rerun determinism is covered in test_cli; these files pin the reports
across commits, printed matrices included. Only the ``command:`` line is
skipped, since it holds the checkout path. After a deliberate output
change, regenerate with ``PYTHONPATH=src python tests/test_golden.py``.

The two high-power functor reports pin lengths of large Artinian
quotients. B at n = 5 reaches weighted degree 243, and every report runs
at the CLI's default budget, with no environment settings.

The benchmark's ops are checked here too, by its own oracle: their
invariant lines, not their bytes, at seed 0 and at seed 1, whose permuted
and rescaled presentations no golden report covers.
"""

import json
import os
import subprocess
import sys

import pytest

from frobcheck.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = os.path.join(HERE, "models")
GOLDEN = os.path.join(HERE, "golden")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

COMMANDS = {
    "resolve_b_MF_L3": "resolve {b} -m MF -L 3",
    # the last kernel's unit syzygy drops a column of d2 (5 -> 4)
    "resolve_b_k_L2": "resolve {b} -m k -L 2",
    "resolve_c_k_L3": "resolve {c} -m k -L 3",
    "resolve_d_MF_L4": "resolve {d} -m MF -L 4",
    "resolve_e_k_L4_tsv": "resolve {e} -m k -L 4 --tsv",
    "frobenius_b_MF_n2": "frobenius {b} -m MF -n 2",
    "frobenius_d_k_n2": "frobenius {d} -m k -n 2",
    "tor_e_k_n1_i2_both": "tor {e} -m k -n 1 -i 2 --method both",
    "check_free_b_MF_tsv": "check free {b} -m MF -s yz -n 1 --n-max 2 --tsv",
    "check_gorenstein_e_tor_omega": "check gorenstein {e} --method tor-omega -s s",
    "check_gorenstein_b_ext_pushforward":
        "check gorenstein {b} --method ext-pushforward",
    "tor_b_k_n1_i3_both": "tor {b} -m k -n 1 -i 3 --method both",
    "scan_rigidity_d_MF": "scan rigidity {d} -m MF --n-range 1..2 --i-range 1..3",
    "info_a": "info {a}",
    "info_b": "info {b}",
    "info_c": "info {c}",
    "info_d": "info {d}",
    "info_e": "info {e}",
    "tor_b_k_n5_i3_functor": "tor {b} -m k -n 5 -i 3 --method functor",
    "tor_c_k_n2_i3_functor": "tor {c} -m k -n 2 -i 3 --method functor",
    # the pushforward side at n = 3: one distinct block among 125
    "tor_c_k_n3_i3_both": "tor {c} -m k -n 3 -i 3 --method both",
    # C's pushforward splits into 5 isomorphic residue blocks
    "tor_c_k_n1_i3_pushforward": "tor {c} -m k -n 1 -i 3 --method pushforward",
    "check_gorenstein_c_ext_pushforward":
        "check gorenstein {c} --method ext-pushforward",
}


def _argv(command, models=MODELS):
    paths = {k: os.path.join(models, f"{k}.json") for k in "abcde"}
    return [tok.format(**paths) for tok in command.split()]


def _payload(text):
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith("command: ")]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name, capsys):
    code = run(_argv(COMMANDS[name]))
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert code == 0
    assert _payload(out) == _payload(want)


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_ops_match_their_oracle(seed, tmp_path, monkeypatch,
                                          capsys):
    # the benchmark's correctness gate in process, every op of every
    # workload, at the default budget (no budget variable its workers set
    # is read); perfbench/ is only read
    monkeypatch.syspath_prepend(PERFBENCH)
    import oracle
    from models import write_models
    from workloads import WORKLOADS, argv_for
    with open(os.path.join(PERFBENCH, "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)
    paths = {k: str(v) for k, v in write_models(seed, tmp_path).items()}
    ops = [op for workload in WORKLOADS.values() for op in workload]
    assert len(ops) == 33
    problems = {}
    for op in ops:
        code = run(argv_for(op, paths))
        lines = oracle.invariant_lines(capsys.readouterr().out)
        wrong = oracle.judge(code, lines, expected[op])
        if wrong:
            problems[op] = wrong
    assert problems == {}


def test_benchmark_required_layers_fire(tmp_path, monkeypatch):
    # one traced worker runs every workload's seed-0 ops as the benchmark
    # does; each layer REQUIRED_LAYERS names for a workload must fire in
    # one of its ops, or a traced benchmark run of it fails
    monkeypatch.syspath_prepend(PERFBENCH)
    from models import write_models
    from run import worker_env
    from workloads import REQUIRED_LAYERS, WORKLOADS, argv_for
    paths = {k: str(v) for k, v in write_models(0, tmp_path).items()}
    ops = [(name, argv_for(op, paths))
           for name, workload in WORKLOADS.items() for op in workload]
    job = json.dumps({"ops": [argv for _, argv in ops], "trace": True})
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH,
                                                        "worker.py")],
                          input=job, capture_output=True, text=True,
                          env=worker_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    fired = {name: set() for name in WORKLOADS}
    for (name, _), work in zip(ops, json.loads(proc.stdout)["trace"]["per_op"]):
        fired[name].update(k[:-len(".calls")] for k in work
                           if k.endswith(".calls"))
    silent = {name: sorted(set(layers) - fired[name])
              for name, layers in REQUIRED_LAYERS.items()}
    assert silent == {name: [] for name in REQUIRED_LAYERS}


if __name__ == "__main__":
    import contextlib
    import io
    for name, command in sorted(COMMANDS.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(_argv(command))
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        shown = " ".join(_argv(command, os.path.join("tests", "models")))
        text = "".join(f"command: {shown}\n" if line.startswith("command: ")
                       else line for line in buf.getvalue().splitlines(True))
        with open(os.path.join(GOLDEN, f"{name}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
