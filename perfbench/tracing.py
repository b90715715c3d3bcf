"""Outside-in tracing of frobcheck's layers.

``install`` wraps public functions of ``cli``, ``algebra_kernel``,
``_engine``, ``module_engine``, ``invariants``, ``frobenius`` and
``criteria`` without touching the program's source. A function imported
by name into other modules (``reduce_full`` into ``algebra_kernel``,
``minimalize`` into four modules) is replaced in every ``frobcheck``
namespace that binds it, so no call path escapes the wrapper.

Each wrapped call is a span. Spans nest on a stack; a span's self time is
its duration minus the time of the wrapped spans it opened. Leaf calls
number in the millions, so spans are kept aggregated: one node per op and
call path (label plus parent node), with call count, time and self time.
Work counters come from arguments and return values (``GBData``, lengths
of returned lists), never from inside the program.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


class TraceError(Exception):
    pass


class Tracer:
    """Span stack, per-label totals, per-op counters and the call tree."""

    def __init__(self):
        self.stack: List[list] = []      # [label, start, child_s, node]
        self.open: Dict[str, int] = {}   # label -> spans of it now open
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {}  # reset per op
        self.nodes: List[list] = []      # [parent, label, calls, s, self_s]
        self.node_ids: Dict[Tuple[int, str], int] = {}
        self.per_op: List[Dict[str, int]] = []

    def begin(self, label: str) -> None:
        parent = self.stack[-1][3] if self.stack else -1
        node = self.node_ids.get((parent, label))
        if node is None:
            node = len(self.nodes)
            self.nodes.append([parent, label, 0, 0.0, 0.0])
            self.node_ids[(parent, label)] = node
        self.open[label] = self.open.get(label, 0) + 1
        self.stack.append([label, perf(), 0.0, node])

    def end(self) -> None:
        label, start, child_s, node = self.stack.pop()
        dur = perf() - start
        own = dur - child_s
        if self.stack:
            self.stack[-1][2] += dur
        self.open[label] -= 1
        self.calls[label] = self.calls.get(label, 0) + 1
        self.self_s[label] = self.self_s.get(label, 0.0) + own
        if not self.open[label]:
            # outermost span of this label: recursion is not counted twice
            self.total_s[label] = self.total_s.get(label, 0.0) + dur
        rec = self.nodes[node]
        rec[2] += 1
        rec[3] += dur
        rec[4] += own

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, -1):
            self.peaks[key] = value

    def begin_op(self, index: int) -> None:
        self._mark = (dict(self.calls), dict(self.counts))
        self.peaks = {}
        self.begin(f"op[{index}]")

    def end_op(self) -> None:
        self.end()
        calls0, counts0 = self._mark
        work = {f"{k}.calls": v - calls0.get(k, 0)
                for k, v in self.calls.items() if not k.startswith("op[")}
        work.update({k: v - counts0.get(k, 0) for k, v in self.counts.items()})
        work.update(self.peaks)
        self.per_op.append({k: v for k, v in sorted(work.items()) if v})

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "s": self.total_s,
            "self_s": self.self_s,
            "per_op": self.per_op,
            "tree": self.nodes,
        }


# ---------------------------------------------------------------------------
# counters read from arguments and results

def _buchberger_flat(tr: Tracer, args: dict, out) -> None:
    n = len(args["gens"])
    tr.add("engine.buchberger_flat.gens_in", n)
    tr.peak("engine.buchberger_flat.gens_in_max", n)
    tr.add("engine.buchberger_flat.spairs", out.spairs_reduced)
    tr.add("engine.buchberger_flat.basis_out", len(out.index.elems))


def _syzygies_flat(tr: Tracer, args: dict, out) -> None:
    tr.add("engine.syzygies_flat.syz_out", len(out))


def _kernel_columns(tr: Tracer, args: dict, out) -> None:
    tr.add("module_engine._kernel_columns.cols_in",
           len(args["lead_cols"]) + len(args["rest_cols"]))


def _ideal_padding(tr: Tracer, args: dict, out) -> None:
    tr.add("module_engine._ideal_padding.rows", len(out))


def _pushforward(tr: Tracer, args: dict, out) -> None:
    tr.add("frobenius.pushforward_presentation.gens",
           out.presentation.ambient_rank)


def _minors(tr: Tracer, args: dict, out) -> None:
    tr.add("invariants._minors.count", len(out))


# (label, module, attribute, counter)
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("cli.parse_model", "cli", "parse_model", None),
    ("engine.buchberger_flat", "_engine", "buchberger_flat", _buchberger_flat),
    ("engine.reduce_full", "_engine", "reduce_full", None),
    ("engine.syzygies_flat", "_engine", "syzygies_flat", _syzygies_flat),
    ("algebra_kernel.buchberger", "algebra_kernel", "buchberger", None),
    ("algebra_kernel.normal_form", "algebra_kernel", "normal_form", None),
    ("algebra_kernel.standard_monomials", "algebra_kernel",
     "standard_monomials", None),
    ("algebra_kernel.Polynomial.mul", "algebra_kernel", "Polynomial.__mul__",
     None),
    ("module_engine._ideal_padding", "module_engine", "_ideal_padding",
     _ideal_padding),
    ("module_engine._kernel_columns", "module_engine", "_kernel_columns",
     _kernel_columns),
    ("module_engine.matmul", "module_engine", "matmul", None),
    ("module_engine._minimalize_columns", "module_engine",
     "_minimalize_columns", None),
    ("module_engine.minimalize", "module_engine", "minimalize", None),
    ("module_engine.module_length", "module_engine", "module_length", None),
    ("module_engine.minimal_free_resolution", "module_engine",
     "minimal_free_resolution", None),
    ("module_engine.present_homology", "module_engine", "present_homology",
     None),
    ("invariants.depth_of_module", "invariants", "depth_of_module", None),
    ("invariants.dimension_of_module", "invariants", "dimension_of_module",
     None),
    ("invariants.rank_of_module", "invariants", "rank_of_module", None),
    ("invariants.canonical_module", "invariants", "canonical_module", None),
    ("invariants._minors", "invariants", "_minors", _minors),
    ("frobenius.pushforward_presentation", "frobenius",
     "pushforward_presentation", _pushforward),
    ("frobenius.kappa_for_sop", "frobenius", "kappa_for_sop", None),
    ("frobenius.frobenius_complex", "frobenius", "frobenius_complex", None),
] + [("criteria.check", "criteria", name, None)
     for name in ("check_thm_main1", "check_thm_kl", "check_cor_free",
                  "check_cor_codim1", "check_gorenstein", "rigidity_scan")]


def _wrap(tr: Tracer, label: str, orig: Callable,
          counter: Optional[Callable]) -> Callable:
    begin, end = tr.begin, tr.end
    if counter is None:
        def traced(*args, **kwargs):
            begin(label)
            try:
                return orig(*args, **kwargs)
            finally:
                end()
    else:
        sig = inspect.signature(orig)

        def traced(*args, **kwargs):
            begin(label)
            try:
                out = orig(*args, **kwargs)
            finally:
                end()
            counter(tr, sig.bind(*args, **kwargs).arguments, out)
            return out
    traced.__wrapped__ = orig
    return traced


def _wrap_reduce_full(tr: Tracer, orig: Callable) -> Callable:
    """Count reduction steps: each one is mirrored through ``on_reduce``."""
    begin, end = tr.begin, tr.end
    label = "engine.reduce_full"
    key = "engine.reduce_full.steps"

    def traced(vec, G, ctx, on_reduce=None):
        steps = 0

        def counting(t, d, c):
            nonlocal steps
            steps += 1
            if on_reduce is not None:
                on_reduce(t, d, c)

        begin(label)
        try:
            return orig(vec, G, ctx, counting)
        finally:
            end()
            tr.add(key, steps)

    traced.__wrapped__ = orig
    return traced


def install(tr: Tracer) -> None:
    """Wrap every target in every ``frobcheck`` namespace that binds it."""
    importlib.import_module("frobcheck.cli")
    spaces = [m for name, m in sorted(sys.modules.items())
              if name == "frobcheck" or name.startswith("frobcheck.")]
    for label, modname, attr, counter in TARGETS:
        module = sys.modules.get(f"frobcheck.{modname}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = owner.__dict__.get(name) if owner is not None else None
        if orig is None:
            raise TraceError(f"frobcheck.{modname}.{attr} not found")
        if label == "engine.reduce_full":
            traced = _wrap_reduce_full(tr, orig)
        else:
            traced = _wrap(tr, label, orig, counter)
        if owner_name:
            setattr(owner, name, traced)
            continue
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is orig:
                    setattr(space, key, traced)
