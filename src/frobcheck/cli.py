"""Model-file front end and command dispatch.

Model files are JSON with a fixed schema (see README). Polynomial strings
follow the grammar

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := integer | variable ('^' uint)? | '(' expr ')'

with whitespace insignificant and integers reduced mod p. Validation
enforces the locality convention: every ideal generator, relation entry
and s.o.p. element is quasi-homogeneous for the declared weights with all
terms of positive weighted degree, and each relation matrix admits a
consistent system of degree shifts (so the graded engine's unit test is
exact). Violations are rejected with positional diagnostics.

Reports are canonical: fixed field order, no timestamps in the payload,
byte-identical across reruns. Wall time goes to stderr. Exit codes:
0 CONSISTENT/success, 1 PAPER_VIOLATION (implementation-bug detector),
2 input or precondition error (including SKIPPED verdicts and an
unwritable --out), 3 budget, 4 internal error (an unexpected exception;
its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Sequence, Tuple

from .algebra_kernel import Polynomial, RingModel
from .budget import DEFAULT_BUDGET, Budget
from .criteria import (CONSISTENT, PAPER_VIOLATION, CriterionReport, _fmt,
                       check_cor_codim1, check_cor_free, check_gorenstein,
                       check_thm_kl, check_thm_main1, rigidity_scan)
from .errors import (ArgumentError, BudgetExceededError, FrobcheckError,
                     InternalConsistencyError, ModelError, PreconditionError)
from .frobenius import (frobenius_module, kappa_upper_bound, pushforward_tor,
                        tor_frobenius)
from .invariants import cm_type_and_gorenstein, depth_of_ring
from .module_engine import (Matrix, PresentedModule, minimal_free_resolution,
                            minimalize, module_length)

IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


# ---------------------------------------------------------------------------
# polynomial expression parser

class _Tokens:
    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        self.toks: List[Tuple[str, object, int]] = []
        self.pos = 0
        col = 0
        n = len(text)
        while col < n:
            ch = text[col]
            if ch.isspace():
                col += 1
                continue
            start = col
            if ch.isdigit():
                while col < n and text[col].isdigit():
                    col += 1
                self.toks.append(("int", int(text[start:col]), start + 1))
            elif ch.isalpha() or ch == "_":
                while col < n and text[col] in IDENT_CHARS:
                    col += 1
                self.toks.append(("name", text[start:col], start + 1))
            elif ch in "+-*^()":
                self.toks.append((ch, ch, start + 1))
                col += 1
            else:
                raise ModelError(
                    f"{path}: column {col + 1}: unexpected character {ch!r}")
        self.toks.append(("end", None, n + 1))

    def peek(self) -> Tuple[str, object, int]:
        return self.toks[self.pos]

    def take(self) -> Tuple[str, object, int]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, col: int) -> ModelError:
        return ModelError(f"{self.path}: column {col}: {msg}")


def parse_polynomial(ring: RingModel, text: str,
                     path: str = "<expr>") -> Polynomial:
    """Parse one polynomial expression against the ring's variables."""
    toks = _Tokens(text, path)

    def factor() -> Polynomial:
        kind, val, col = toks.take()
        if kind == "int":
            return ring.constant(val)
        if kind == "name":
            if val not in ring.variables:
                raise toks.error(f"unknown variable {val!r}", col)
            poly = ring.variable(val)
            if toks.peek()[0] == "^":
                toks.take()
                k2, v2, c2 = toks.take()
                if k2 != "int":
                    raise toks.error("exponent must be an unsigned integer", c2)
                poly = poly ** v2
            return poly
        if kind == "(":
            inner = expr()
            k2, _, c2 = toks.take()
            if k2 != ")":
                raise toks.error("expected ')'", c2)
            return inner
        raise toks.error(f"expected integer, variable or '(', got {kind!r}", col)

    def term() -> Polynomial:
        poly = factor()
        while toks.peek()[0] == "*":
            toks.take()
            poly = poly * factor()
        return poly

    def expr() -> Polynomial:
        negate = False
        if toks.peek()[0] == "-":
            toks.take()
            negate = True
        poly = term()
        if negate:
            poly = -poly
        while toks.peek()[0] in ("+", "-"):
            op, _, _ = toks.take()
            rhs = term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    out = expr()
    kind, _, col = toks.peek()
    if kind != "end":
        raise toks.error(f"trailing input starting with {kind!r}", col)
    return out


# ---------------------------------------------------------------------------
# model files

@dataclass
class ModelFile:
    """A parsed model: the ring plus named modules and s.o.p. candidates."""

    ring: RingModel
    modules: Dict[str, PresentedModule]
    sops: Dict[str, Tuple[Polynomial, ...]]
    canonical: str
    digest: str

    def module(self, name: str) -> PresentedModule:
        if name not in self.modules:
            raise ModelError(f"unknown module {name!r}; defined: "
                             f"{', '.join(sorted(self.modules)) or 'none'}")
        return self.modules[name]

    def sop(self, name: str) -> Tuple[Polynomial, ...]:
        if name not in self.sops:
            raise ModelError(f"unknown s.o.p. {name!r}; defined: "
                             f"{', '.join(sorted(self.sops)) or 'none'}")
        return self.sops[name]


def _parse_polys(ring: RingModel, raw, path: str,
                 zero: str = "") -> List[Polynomial]:
    """Parse the list of polynomial strings at ``path``. Element k, at
    ``path[k]``, must be quasi-homogeneous inside the maximal ideal, and
    nonzero if ``zero`` names the error for a zero element."""
    if not isinstance(raw, list):
        raise ModelError(f"{path}: must be a list of polynomial strings")
    out = []
    for k, s in enumerate(raw):
        epath = f"{path}[{k}]"
        if not isinstance(s, str):
            raise ModelError(f"{epath}: must be a string")
        e = parse_polynomial(ring, s, epath)
        if e.is_zero():
            if zero:
                raise ModelError(f"{epath}: {zero}")
        elif not e.is_quasi_homogeneous():
            raise ModelError(
                f"{epath}: {ring.render_poly(e)!r} is not quasi-homogeneous "
                f"for weights {ring.weights}")
        elif not e.in_maximal_ideal():
            raise ModelError(
                f"{epath}: {ring.render_poly(e)!r} has a constant term; "
                "entries must lie in the maximal ideal")
        out.append(e)
    return out


def parse_model(data) -> ModelFile:
    """Parse and validate a model file (bytes, str, or a decoded dict)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as e:
            raise ModelError(
                f"model syntax error: line {e.lineno}, column {e.colno}: "
                f"{e.msg}") from e
    else:
        obj = data
    if not isinstance(obj, dict):
        raise ModelError("model file must be a JSON object")
    known = {"p", "variables", "weights", "flags", "ideal", "modules", "sops"}
    for key in obj:
        if key not in known:
            raise ModelError(f"unknown model key {key!r}")
    if "p" not in obj or "variables" not in obj:
        raise ModelError("model needs at least 'p' and 'variables'")
    p = obj["p"]
    if not isinstance(p, int):
        raise ModelError("p: must be an integer")
    variables = obj["variables"]
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) and v and v[0].isalpha()
                       and set(v) <= IDENT_CHARS for v in variables)):
        raise ModelError("variables: must be a nonempty list of identifiers")
    weights = obj.get("weights")
    flags = obj.get("flags", {})
    if not isinstance(flags, dict):
        raise ModelError("flags: must be an object")
    for key in flags:
        if key not in ("domain", "cm", "generically_gorenstein"):
            raise ModelError(f"flags: unknown flag {key!r}")

    try:
        shell = RingModel(p, variables, weights)
    except ArgumentError as e:
        raise ModelError(str(e)) from e

    gens = _parse_polys(shell, obj.get("ideal", []), "ideal",
                        "generator is zero")
    try:
        ring = RingModel(p, variables, weights, gens,
                         is_domain=bool(flags.get("domain", False)),
                         expected_CM=flags.get("cm"),
                         generically_gorenstein=flags.get(
                             "generically_gorenstein"))
    except ArgumentError as e:
        raise ModelError(str(e)) from e

    modules: Dict[str, PresentedModule] = {}
    modules_raw = obj.get("modules", {})
    if not isinstance(modules_raw, dict):
        raise ModelError("modules: must be an object")
    for name in modules_raw:
        spec = modules_raw[name]
        path = f"modules[{name}]"
        if not isinstance(spec, dict) or "ambient_rank" not in spec:
            raise ModelError(f"{path}: needs 'ambient_rank' and 'relations'")
        rank = spec["ambient_rank"]
        rel_raw = spec.get("relations", [])
        if not isinstance(rank, int) or rank < 0:
            raise ModelError(f"{path}: ambient_rank must be a "
                             "nonnegative integer")
        if not isinstance(rel_raw, list):
            raise ModelError(f"{path}: relations must be a list of rows")
        if rel_raw and len(rel_raw) != rank:
            raise ModelError(f"{path}: {len(rel_raw)} relation rows for "
                             f"ambient rank {rank}")
        rows: List[List[Polynomial]] = []
        width = None
        for i, row in enumerate(rel_raw):
            if not isinstance(row, list):
                raise ModelError(f"{path}: row {i + 1} is not a list")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ModelError(f"{path}: ragged relations matrix")
            rows.append(_parse_polys(ring, row, f"{path}.relations[{i}]"))
        try:
            modules[name] = PresentedModule.from_rows(ring, rows,
                                                      ambient_rank=rank)
        except ArgumentError as exc:
            raise ModelError(f"{path}: {exc}") from None

    sops: Dict[str, Tuple[Polynomial, ...]] = {}
    sops_raw = obj.get("sops", {})
    if not isinstance(sops_raw, dict):
        raise ModelError("sops: must be an object")
    for name in sops_raw:
        sops[name] = tuple(_parse_polys(ring, sops_raw[name],
                                        f"sops[{name}]", "element is zero"))

    canonical = render_model_dict(ring, modules, sops)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return ModelFile(ring, modules, sops, canonical, digest)


def _rendered_rows(ring: RingModel, cols: Matrix, nrows: int
                   ) -> List[List[str]]:
    """Rendered entries row by row: a column's terms, descending, come row
    by row (position-over-term), each row's in ``render_poly`` order."""
    pb, top = ring.ctx.pb, ring.ctx.top
    rows = [["0"] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, run in groupby(sorted(col, reverse=True),
                              lambda t: -(t >> pb)):
            rows[i][j] = ring.render_terms([(t & top, col[t]) for t in run])
    return rows


def render_model_dict(ring: RingModel, modules: Dict[str, PresentedModule],
                      sops: Dict[str, Tuple[Polynomial, ...]]) -> str:
    """Canonical JSON text of a model; parse(render(m)) == m."""
    flags = {}
    if ring.is_domain:
        flags["domain"] = True
    if ring.expected_CM is not None:
        flags["cm"] = ring.expected_CM
    if ring.generically_gorenstein is not None:
        flags["generically_gorenstein"] = ring.generically_gorenstein
    out = {
        "p": ring.p,
        "variables": list(ring.variables),
        "weights": list(ring.weights),
        "flags": flags,
        "ideal": [ring.render_poly(g) for g in ring.ideal_gens],
        "modules": {
            name: {
                "ambient_rank": m.ambient_rank,
                "relations": _rendered_rows(ring, m.columns, m.ambient_rank),
            }
            for name, m in sorted(modules.items())
        },
        "sops": {name: [ring.render_poly(e) for e in seq]
                 for name, seq in sorted(sops.items())},
    }
    return json.dumps(out, indent=2) + "\n"


# ---------------------------------------------------------------------------
# budgets from the environment

_ENV_FIELDS = {
    "FROBCHECK_MAX_SPAIRS": "max_spairs",
    "FROBCHECK_MAX_BASIS": "max_basis",
}


def budget_from_env(env=None) -> Budget:
    env = os.environ if env is None else env
    overrides = {}
    for var, field_name in _ENV_FIELDS.items():
        if var in env:
            try:
                overrides[field_name] = int(env[var])
            except ValueError as e:
                raise ModelError(f"{var} must be an integer") from e
    return Budget(**overrides) if overrides else DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# payload helpers

def _kappa_bound(mf: ModelFile, budget: Budget) -> Tuple[int, Dict[str, int]]:
    """kappa_upper_bound over the model's s.o.p.s plus the variables."""
    ring = mf.ring
    cands = dict(sorted(mf.sops.items()))
    cands.setdefault("variables", tuple(ring.variable(i)
                                        for i in range(len(ring.variables))))
    return kappa_upper_bound(ring, cands, budget)


def _matrix_lines(ring: RingModel, cols: Matrix, nrows: int, indent: str
                  ) -> List[str]:
    lines = [indent + "[" + ", ".join(row) + "]"
             for row in _rendered_rows(ring, cols, nrows)]
    if not cols:
        lines.append(indent + "(no relations)")
    return lines


# ---------------------------------------------------------------------------
# subcommand payloads

def _payload_info(mf: ModelFile, budget: Budget, tsv: bool) -> Tuple[str, int]:
    ring = mf.ring
    lines = ["info:"]
    lines.append(f"  p: {ring.p}")
    lines.append(f"  variables: {' '.join(ring.variables)}")
    lines.append(f"  weights: {' '.join(map(str, ring.weights))}")
    lines.append(f"  ideal: {'; '.join(ring.render_poly(g) for g in ring.ideal_gens) or '(0)'}")
    dim = ring.dim(budget)
    depth = depth_of_ring(ring, budget)
    cm = dim == depth
    lines.append(f"  dim: {dim}")
    lines.append(f"  depth: {depth}")
    lines.append(f"  cohen_macaulay: {_fmt(cm)}")
    exit_code = 0
    if ring.expected_CM is not None:
        lines.append(f"  cm_asserted: {_fmt(ring.expected_CM)}")
        if bool(ring.expected_CM) != cm:
            lines.append("  cm_assertion_consistent: false")
            exit_code = 2
    if cm:
        t, gor = cm_type_and_gorenstein(ring, budget)
        lines.append(f"  type: {t}")
        lines.append(f"  gorenstein: {_fmt(gor)}")
    lines.append(f"  domain_flag: {_fmt(ring.is_domain)}")
    if ring.generically_gorenstein is not None:
        lines.append(f"  generically_gorenstein_flag: "
                     f"{_fmt(ring.generically_gorenstein)}")
    lines.append("  kappa_upper_bounds:")
    try:
        bound, per = _kappa_bound(mf, budget)
    except PreconditionError:
        lines.append("    (no valid s.o.p. candidate)")
        lines.append("  kappa_upper_bound_overall: unavailable")
    else:
        for name in sorted(per):
            lines.append(f"    {name}: {per[name]}")
        lines.append(f"  kappa_upper_bound_overall: {bound}")
    lines.append(f"  modules: {' '.join(sorted(mf.modules)) or '(none)'}")
    lines.append(f"  sops: {' '.join(sorted(mf.sops)) or '(none)'}")
    return "\n".join(lines), exit_code


def _payload_resolve(mf: ModelFile, name: str, length: int, budget: Budget,
                     tsv: bool) -> Tuple[str, int]:
    M = mf.module(name)
    res = minimal_free_resolution(M, length, budget)
    lines = ["resolve:"]
    lines.append(f"  module: {name}")
    lines.append(f"  requested_length: {length}")
    betti = [res.rank(i) for i in range(length + 1)]
    lines.append(f"  betti: {' '.join(map(str, betti))}")
    for i in range(1, min(res.length, length) + 1):
        lines.append(f"  d{i}:")
        lines.extend(_matrix_lines(mf.ring, res.differentials[i - 1],
                                   res.rank(i - 1), "    "))
    if tsv:
        lines.append("#tsv betti")
        lines.append("step\trank")
        for i, b in enumerate(betti):
            lines.append(f"{i}\t{b}")
    return "\n".join(lines), 0


def _payload_frobenius(mf: ModelFile, name: str, n: int, budget: Budget,
                       tsv: bool) -> Tuple[str, int]:
    M = minimalize(mf.module(name), budget)
    F = frobenius_module(M, n, budget)
    lines = ["frobenius:"]
    lines.append(f"  module: {name}")
    lines.append(f"  n: {n}")
    lines.append(f"  q: {mf.ring.p ** n}")
    lines.append(f"  mu: {F.ambient_rank}")
    lines.append(f"  length: {_fmt(module_length(F, budget))}")
    lines.append("  presentation:")
    lines.extend(_matrix_lines(F.ring, F.columns, F.ambient_rank, "    "))
    return "\n".join(lines), 0


def _payload_tor(mf: ModelFile, name: str, n: int, i: int, method: str,
                 budget: Budget, tsv: bool) -> Tuple[str, int]:
    M = mf.module(name)
    lines = ["tor:"]
    lines.append(f"  module: {name}")
    lines.append(f"  n: {n}")
    lines.append(f"  i: {i}")
    if method == "pushforward":
        parts = pushforward_tor(M, n, i, budget)
    else:
        # "both" raises unless the two routes agree, so one result serves both
        parts = ((tor_frobenius(M, n, i, method, budget), 1),)
    zero = all(h.is_zero(budget) for h, _ in parts)
    length = sum(k * module_length(h, budget) for h, k in parts)
    methods = ["functor", "pushforward"] if method == "both" else [method]
    for m in methods:
        lines.append(f"  {m}:")
        lines.append(f"    zero: {_fmt(zero)}")
        lines.append(f"    length: {_fmt(length)}")
    if method == "both":
        lines.append("  cross_oracle: agree")
    return "\n".join(lines), 0


def _parse_range(text: str) -> Tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ModelError(f"range {text!r} must look like a..b")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as e:
        raise ModelError(f"range {text!r} must be integral") from e
    if lo > hi:
        raise ModelError(f"range {text!r} is empty")
    return lo, hi


def _verdict_exit(verdict: str) -> int:
    if verdict == CONSISTENT:
        return 0
    if verdict == PAPER_VIOLATION:
        return 1
    return 2


def _report_tsv(report: CriterionReport) -> List[str]:
    rows = [(k, v) for k, v in report.quantities.items()
            if "_tor_zero_" in k or k.startswith(("ext_", "tor_"))]
    if not rows:
        return []
    lines = ["#tsv table", "key\tvalue"]
    for k, v in rows:
        lines.append(f"{k}\t{_fmt(v)}")
    return lines


def _payload_check(mf: ModelFile, args, budget: Budget) -> Tuple[str, int]:
    if args.rank is not None and args.rank < 0:
        raise ArgumentError(f"--rank {args.rank} is negative")
    bound, per = _kappa_bound(mf, budget)
    n = args.n
    report: CriterionReport
    if args.criterion == "main1":
        M = mf.module(_need(args.module, "-m"))
        report = check_thm_main1(M, n, bound, budget,
                                 rank_override=args.rank,
                                 module_name=args.module)
    elif args.criterion == "kl":
        M = mf.module(_need(args.module, "-m"))
        report = check_thm_kl(M, n, bound, budget, rank_override=args.rank,
                              module_name=args.module)
    elif args.criterion == "free":
        M = mf.module(_need(args.module, "-m"))
        x = mf.sop(_need(args.sop, "-s"))
        report = check_cor_free(M, x, n, bound, i_max=args.i_max,
                                n_max=args.n_max, budget=budget,
                                rank_override=args.rank,
                                module_name=args.module, sop_name=args.sop)
    elif args.criterion == "codim1":
        M = mf.module(_need(args.module, "-m"))
        x = mf.sop(_need(args.sop, "-s"))
        report = check_cor_codim1(M, x, n, bound, i_max=args.i_max,
                                  n_max=args.n_max, budget=budget,
                                  module_name=args.module, sop_name=args.sop)
    elif args.criterion == "gorenstein":
        method = (args.method or "canonical-frobenius").replace("-", "_")
        x = mf.sop(_need(args.sop, "-s")) if method == "tor_omega" else None
        report = check_gorenstein(mf.ring, method, x=x, n=n,
                                  kappa_bound=bound, i_max=args.i_max,
                                  budget=budget, sop_name=args.sop or "")
    else:
        raise ModelError(f"unknown criterion {args.criterion!r}")
    lines = [report.render()]
    if args.tsv:
        lines.extend(_report_tsv(report))
    return "\n".join(lines), _verdict_exit(report.verdict)


def _need(value, flag: str):
    if value is None:
        raise ModelError(f"missing required option {flag}")
    return value


def _payload_scan(mf: ModelFile, args, budget: Budget) -> Tuple[str, int]:
    M = mf.module(_need(args.module, "-m"))
    n_range = _parse_range(args.n_range)
    i_range = _parse_range(args.i_range)
    verdict = rigidity_scan(M, n_range, i_range, budget,
                            module_id=args.module)
    lines = [verdict.render()]
    if args.tsv:
        lines.append("#tsv tor_zero")
        lines.append("n\ti\tzero")
        for (n, i) in sorted(verdict.table):
            lines.append(f"{n}\t{i}\t{_fmt(verdict.table[(n, i)])}")
    return "\n".join(lines), 0


# ---------------------------------------------------------------------------
# dispatch

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frobcheck",
        description="Frobenius freeness and Gorensteinness checkers over "
                    "prime-characteristic quotient rings")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="model file (JSON)")
        sp.add_argument("--out", help="also write the report to this path")
        sp.add_argument("--tsv", action="store_true",
                        help="append tab-separated tables")

    sp = sub.add_parser("info", help="ring invariants and kappa bounds")
    common(sp)

    sp = sub.add_parser("resolve", help="minimal free resolution")
    sp.add_argument("-m", dest="module", required=True)
    sp.add_argument("-L", dest="length", type=int, required=True)
    common(sp)

    sp = sub.add_parser("frobenius", help="Frobenius power of a module")
    sp.add_argument("-m", dest="module", required=True)
    sp.add_argument("-n", dest="n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("tor", help="Tor_i(M, f^n R)")
    sp.add_argument("-m", dest="module", required=True)
    sp.add_argument("-n", dest="n", type=int, required=True)
    sp.add_argument("-i", dest="i", type=int, required=True)
    sp.add_argument("--method", choices=["functor", "pushforward", "both"],
                    default="both")
    common(sp)

    sp = sub.add_parser("check", help="run a criterion checker")
    sp.add_argument("criterion",
                    choices=["main1", "kl", "free", "codim1", "gorenstein"])
    sp.add_argument("-m", dest="module")
    sp.add_argument("-s", dest="sop")
    sp.add_argument("-n", dest="n", type=int, default=1)
    sp.add_argument("--i-max", dest="i_max", type=int)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--method", dest="method",
                    choices=["canonical-frobenius", "ext-pushforward",
                             "tor-omega"])
    sp.add_argument("--rank", dest="rank", type=int,
                    help="caller-supplied rank for non-domain models")
    common(sp)

    sp = sub.add_parser("scan", help="window scans")
    sp.add_argument("what", choices=["rigidity"])
    sp.add_argument("-m", dest="module")
    sp.add_argument("--n-range", dest="n_range", default="1..2")
    sp.add_argument("--i-range", dest="i_range", default="1..3")
    common(sp)

    return ap


_parser = None   # built on the first run, then reused


def run(argv: Sequence[str]) -> int:
    """Execute one command line; prints the report, returns the exit code."""
    started = time.monotonic()
    global _parser
    _parser = _parser or _build_parser()
    try:
        args = _parser.parse_args(list(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        budget = budget_from_env()
        try:
            with open(args.model, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise ModelError(f"cannot read model file {args.model!r}: "
                             f"{e.strerror}") from e
        mf = parse_model(raw)
        header = [
            f"command: {' '.join(argv)}",
            f"model_digest: sha256:{mf.digest}",
        ]
        if args.command == "info":
            payload, code = _payload_info(mf, budget, args.tsv)
        elif args.command == "resolve":
            payload, code = _payload_resolve(mf, args.module, args.length,
                                             budget, args.tsv)
        elif args.command == "frobenius":
            payload, code = _payload_frobenius(mf, args.module, args.n,
                                               budget, args.tsv)
        elif args.command == "tor":
            payload, code = _payload_tor(mf, args.module, args.n, args.i,
                                         args.method, budget, args.tsv)
        elif args.command == "check":
            payload, code = _payload_check(mf, args, budget)
        elif args.command == "scan":
            payload, code = _payload_scan(mf, args, budget)
        else:  # pragma: no cover
            raise ModelError(f"unknown command {args.command!r}")
        text = "\n".join(header) + "\n" + payload + "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as e:
                raise ModelError(f"cannot write report {args.out!r}: "
                                 f"{e.strerror}") from e
        else:
            sys.stdout.write(text)
        print(f"wall_ms: {int((time.monotonic() - started) * 1000)}",
              file=sys.stderr)
        return code
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InternalConsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return 1
    except (ModelError, PreconditionError, ArgumentError, FrobcheckError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
