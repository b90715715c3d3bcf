"""Executable checkers for the freeness/Gorensteinness criteria.

Each checker evaluates the premises and the conclusion of one statement on
concrete inputs and returns a CriterionReport. CONSISTENT means the
implication was respected (including premise failure); PAPER_VIOLATION is
reserved for a computed contradiction of a proved statement and therefore
flags an implementation bug, never a mathematical discovery. Checkers
refuse to run with n below the supplied kappa upper bound, because the
statements hypothesize n >= kappa(R) and the engine only certifies upper
bounds.

Unbounded "for all i, n > 0" quantifiers are approximated by finite grids
(default i <= dim R + 1, n <= max(2, n)); every report names its grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .algebra_kernel import INFINITE, Polynomial, RingModel
from .budget import DEFAULT_BUDGET, Budget
from .errors import ArgumentError, PreconditionError
from .frobenius import (frobenius_module, pushforward_presentation,
                        tor_frobenius)
from .invariants import (canonical_module, cm_type_and_gorenstein,
                         depth_of_module, depth_of_ring, dimension_of_module,
                         is_cohen_macaulay, is_mcm, is_regular_sequence,
                         is_sop, quotient_by_sequence, rank_of_module,
                         ring_as_module)
from .module_engine import (PresentedModule, direct_sum, ext, min_generators,
                            minimal_free_resolution, minimalize,
                            module_length)

CONSISTENT = "CONSISTENT"
PAPER_VIOLATION = "PAPER_VIOLATION"
SKIPPED = "SKIPPED"

GORENSTEIN_METHODS = ("canonical_frobenius", "ext_pushforward", "tor_omega")


@dataclass
class CriterionReport:
    """Structured verdict of one criterion check.

    ``inputs``, ``quantities`` and ``conditions`` keep insertion order and
    render deterministically, so reports are byte-identical across reruns.
    """

    criterion: str
    inputs: Dict[str, object] = field(default_factory=dict)
    quantities: Dict[str, object] = field(default_factory=dict)
    conditions: Dict[str, bool] = field(default_factory=dict)
    verdict: str = CONSISTENT
    skip_reason: Optional[str] = None
    grid: Optional[str] = None

    def render(self) -> str:
        lines = [f"criterion: {self.criterion}"]
        lines.append("inputs:")
        for k, v in self.inputs.items():
            lines.append(f"  {k}: {_fmt(v)}")
        if self.grid:
            lines.append(f"grid: {self.grid}")
        lines.append("quantities:")
        for k, v in self.quantities.items():
            lines.append(f"  {k}: {_fmt(v)}")
        lines.append("conditions:")
        for k, v in self.conditions.items():
            lines.append(f"  {k}: {_fmt(v)}")
        if self.skip_reason:
            lines.append(f"skip_reason: {self.skip_reason}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is INFINITE:
        return "INFINITE"
    return str(v)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise PreconditionError(msg)


def _skip(report: CriterionReport, reason: str) -> CriterionReport:
    report.verdict = SKIPPED
    report.skip_reason = reason
    return report


_NO_RANK = ("rank unavailable: ring is not flagged a domain and no rank was "
            "supplied")


def _module_premises(M: PresentedModule, n: int, kappa_bound: int,
                     budget: Budget, what: str) -> int:
    """Hypotheses shared by the module statements; returns dim R."""
    d = M.ring.dim(budget)
    _require(d > 0, f"{what} needs positive dimension")
    _require(is_cohen_macaulay(M.ring, budget), f"{what} needs a CM ring")
    _require(n >= kappa_bound, f"n={n} below the kappa upper bound {kappa_bound}")
    _require(not M.is_zero(budget), "module is zero")
    return d


def _rank(M: PresentedModule, rank_override: Optional[int],
          budget: Budget) -> Optional[int]:
    if rank_override is None:
        return rank_of_module(M, budget)
    if rank_override < 0:
        raise ArgumentError(f"rank {rank_override} is negative")
    return rank_override


# ---------------------------------------------------------------------------
# projective dimension

def pd_is_finite(M: PresentedModule, budget: Budget = DEFAULT_BUDGET
                 ) -> Tuple[bool, Optional[int]]:
    """Resolve to depth(R)+1 steps; a zero syzygy by then certifies pd.

    Sound and complete by Auslander-Buchsbaum: a finite projective
    dimension is at most depth R, so a minimal resolution still nonzero at
    step depth(R)+1 is infinite.
    """
    bound = depth_of_ring(M.ring, budget) + 1
    res = minimal_free_resolution(M, bound, budget)
    if res.length < bound:
        return True, res.length
    return False, None


# ---------------------------------------------------------------------------
# Tor grids

def _tor_zero_table(M: PresentedModule, i_range: Sequence[int],
                    n_range: Sequence[int], budget: Budget
                    ) -> Dict[Tuple[int, int], bool]:
    table: Dict[Tuple[int, int], bool] = {}
    for n in n_range:
        for i in i_range:
            h = tor_frobenius(M, n, i, "functor", budget)
            table[(n, i)] = h.is_zero(budget)
    return table


def _tor_grid(d: int, n: int, kappa_bound: int, i_max: Optional[int],
              n_max: Optional[int], cond: str) -> Tuple[int, int, int]:
    """(i_max, n_max, n_lo) of a corollary's Tor grid, defaults filled in.

    An empty window would make "all vanish" vacuously true and "one
    vanishes" false, a contradiction that no computation produced.
    """
    i_max = i_max if i_max is not None else d + 1
    n_max = n_max if n_max is not None else max(2, n)
    n_lo = max(kappa_bound, 1)
    _require(i_max >= 1, f"empty Tor grid: i in [1..{i_max}]")
    _require(n_max >= n_lo, f"empty Tor grid for condition {cond}: "
                            f"n in [{n_lo}..{n_max}]")
    return i_max, n_max, n_lo


def _table_quantities(report: CriterionReport, table: Dict[Tuple[int, int], bool],
                      prefix: str) -> None:
    for (n, i) in sorted(table):
        report.quantities[f"{prefix}_tor_zero_n{n}_i{i}"] = table[(n, i)]


# ---------------------------------------------------------------------------
# freeness: F^n(M) MCM for one n >= kappa forces M free

def check_thm_main1(M: PresentedModule, n: int, kappa_bound: int,
                    budget: Budget = DEFAULT_BUDGET,
                    rank_override: Optional[int] = None,
                    module_name: str = "M") -> CriterionReport:
    ring = M.ring
    report = CriterionReport("thm_main1", inputs={
        "module": module_name, "n": n, "kappa_upper_bound": kappa_bound})
    _module_premises(M, n, kappa_bound, budget, "theorem")
    rank = _rank(M, rank_override, budget)
    if rank is None:
        return _skip(report, _NO_RANK)
    Mmin = minimalize(M, budget)
    free = Mmin.num_relations == 0
    fnm = frobenius_module(Mmin, n, budget)
    mcm = is_mcm(fnm, budget) if not fnm.is_zero(budget) else False
    report.quantities.update({
        "q": ring.p ** n,
        "dim_R": ring.dim(budget),
        "rank_M": rank,
        "mu_M": Mmin.ambient_rank,
        "depth_FnM": depth_of_module(fnm, budget) if not fnm.is_zero(budget)
                     else "zero module",
    })
    report.conditions.update({
        "premise_has_rank": True,
        "premise_fn_mcm": mcm,
        "conclusion_free": free,
    })
    premise = mcm
    report.verdict = PAPER_VIOLATION if premise and not free else CONSISTENT
    return report


# ---------------------------------------------------------------------------
# Tor vanishing window below d - depth F^n(M) forces finite pd

def check_thm_kl(M: PresentedModule, n: int, kappa_bound: int,
                 budget: Budget = DEFAULT_BUDGET,
                 rank_override: Optional[int] = None,
                 module_name: str = "M") -> CriterionReport:
    report = CriterionReport("thm_kl", inputs={
        "module": module_name, "n": n, "kappa_upper_bound": kappa_bound})
    d = _module_premises(M, n, kappa_bound, budget, "theorem")
    rank = _rank(M, rank_override, budget)
    if rank is None:
        return _skip(report, _NO_RANK)
    Mmin = minimalize(M, budget)
    fnm = frobenius_module(Mmin, n, budget)
    if fnm.is_zero(budget):
        return _skip(report, "F^n(M) is zero; depth undefined")
    t = depth_of_module(fnm, budget)
    window = list(range(1, d - t + 1))
    vanish = all(tor_frobenius(M, n, i, "functor", budget).is_zero(budget)
                 for i in window)
    finite, pd = pd_is_finite(M, budget)
    report.grid = f"window i in [1..{d - t}]"
    report.quantities.update({
        "dim_R": d,
        "depth_FnM": t,
        "rank_M": rank,
        "pd_M": pd if finite else "INFINITE",
    })
    report.conditions.update({
        "premise_has_rank": True,
        "premise_window_vanishes": vanish,
        "conclusion_pd_finite": finite,
    })
    report.verdict = PAPER_VIOLATION if vanish and not finite else CONSISTENT
    return report


# ---------------------------------------------------------------------------
# four equivalent freeness conditions for MCM modules with rank

def check_cor_free(M: PresentedModule, x: Sequence[Polynomial], n: int,
                   kappa_bound: int, i_max: Optional[int] = None,
                   n_max: Optional[int] = None,
                   budget: Budget = DEFAULT_BUDGET,
                   rank_override: Optional[int] = None,
                   module_name: str = "M", sop_name: str = "x"
                   ) -> CriterionReport:
    ring = M.ring
    report = CriterionReport("cor_free", inputs={
        "module": module_name, "sop": sop_name, "n": n,
        "kappa_upper_bound": kappa_bound})
    d = _module_premises(M, n, kappa_bound, budget, "corollary")
    i_max, n_max, n_lo = _tor_grid(d, n, kappa_bound, i_max, n_max, "(4)")
    _require(is_sop(x, ring, budget), "x is not a full s.o.p. for R")
    if not is_mcm(M, budget):
        return _skip(report, "module is not maximal Cohen-Macaulay")
    rank = _rank(M, rank_override, budget)
    if rank is None:
        return _skip(report, _NO_RANK)
    report.grid = (f"(3): i in [1..{i_max}], n in [1..{n_max}]; "
                   f"(4): i in [1..{i_max}], n in [{n_lo}..{n_max}]")

    Mmin = minimalize(M, budget)
    cond1 = Mmin.num_relations == 0
    q = ring.p ** n
    mxm = quotient_by_sequence(Mmin, x)
    len_mxm = module_length(mxm, budget)
    _require(len_mxm is not INFINITE, "M/xM has infinite length")
    fn_mxm = frobenius_module(mxm, n, budget)
    len_fn = module_length(fn_mxm, budget)
    expected = (q ** d) * len_mxm
    cond2 = len_fn == expected

    table = _tor_zero_table(mxm, range(1, i_max + 1), range(1, n_max + 1),
                            budget)
    cond3 = all(table.values())
    cond4 = any(table[(nn, ii)] for (nn, ii) in table if nn >= n_lo)

    report.quantities.update({
        "q": q,
        "dim_R": d,
        "rank_M": rank,
        "mu_M": Mmin.ambient_rank,
        "len_M_mod_x": len_mxm,
        "len_Fn_M_mod_x": len_fn,
        "q^d_times_len": expected,
    })
    _table_quantities(report, table, "c3")
    report.conditions.update({
        "c1_free": cond1,
        "c2_length_equality": cond2,
        "c3_all_tor_vanish": cond3,
        "c4_one_tor_vanishes": cond4,
    })
    agree = cond1 == cond2 == cond3 == cond4
    report.verdict = CONSISTENT if agree else PAPER_VIOLATION
    return report


# ---------------------------------------------------------------------------
# the equivalences for codimension-1 CM modules

def check_cor_codim1(M: PresentedModule, x: Sequence[Polynomial], n: int,
                     kappa_bound: int, i_max: Optional[int] = None,
                     n_max: Optional[int] = None,
                     budget: Budget = DEFAULT_BUDGET,
                     module_name: str = "M", sop_name: str = "x"
                     ) -> CriterionReport:
    ring = M.ring
    report = CriterionReport("cor_codim1", inputs={
        "module": module_name, "sop": sop_name, "n": n,
        "kappa_upper_bound": kappa_bound})
    d = _module_premises(M, n, kappa_bound, budget, "corollary")
    i_max, n_max, n_lo = _tor_grid(d, n, kappa_bound, i_max, n_max, "(3)")
    dim_m = dimension_of_module(M, budget)
    if d - dim_m != 1:
        return _skip(report, f"module has codimension {d - dim_m}, not 1")
    if depth_of_module(M, budget) != dim_m:
        return _skip(report, "module is not Cohen-Macaulay")
    if len(x) != dim_m:
        return _skip(report, f"sequence length {len(x)} differs from dim M = {dim_m}")
    if not is_regular_sequence(x, ring_as_module(ring), budget):
        return _skip(report, "sequence is not regular on R")
    Mmin = minimalize(M, budget)
    mxm = quotient_by_sequence(Mmin, x)
    if module_length(mxm, budget) is INFINITE:
        return _skip(report, "x is not a s.o.p. for M (M/xM infinite)")

    report.grid = (f"(2): i in [1..{i_max}], n in [1..{n_max}]; "
                   f"(3): i in [1..{i_max}], n in [{n_lo}..{n_max}]")

    finite, pd = pd_is_finite(M, budget)
    table = _tor_zero_table(mxm, range(1, i_max + 1), range(1, n_max + 1),
                            budget)
    cond2 = all(table.values())
    cond3 = any(table[(nn, ii)] for (nn, ii) in table if nn >= n_lo)
    report.quantities.update({
        "dim_R": d,
        "dim_M": dim_m,
        "len_M_mod_x": module_length(mxm, budget),
        "pd_M": pd if finite else "INFINITE",
    })
    _table_quantities(report, table, "c2")
    report.conditions.update({
        "c1_pd_finite": finite,
        "c2_all_tor_vanish": cond2,
        "c3_one_tor_vanishes": cond3,
    })
    agree = finite == cond2 == cond3
    report.verdict = CONSISTENT if agree else PAPER_VIOLATION
    return report


# ---------------------------------------------------------------------------
# Gorensteinness criteria

def check_gorenstein(ring: RingModel, method: str,
                     x: Optional[Sequence[Polynomial]] = None, n: int = 1,
                     kappa_bound: int = 0, i_max: Optional[int] = None,
                     budget: Budget = DEFAULT_BUDGET,
                     sop_name: str = "x") -> CriterionReport:
    """One of the three Frobenius Gorensteinness criteria against the
    type-based ground truth.

    The rank hypothesis on omega (equivalently, generic Gorensteinness) is
    discharged by the domain flag or by the model's generically_gorenstein
    assertion; without either, the check is SKIPPED.
    """
    if method not in GORENSTEIN_METHODS:
        raise ArgumentError(f"unknown Gorenstein method {method!r}")
    report = CriterionReport(f"gorenstein_{method}", inputs={
        "method": method, "n": n, "kappa_upper_bound": kappa_bound})
    d = ring.dim(budget)
    _require(is_cohen_macaulay(ring, budget), "criterion needs a CM ring")
    _require(n >= kappa_bound, f"n={n} below the kappa upper bound {kappa_bound}")
    if ring.is_domain:
        rank_source = "domain"
    elif ring.generically_gorenstein:
        rank_source = "assertion"
    else:
        return _skip(report, "omega rank unavailable: not a domain and no "
                             "generically_gorenstein assertion")
    report.inputs["rank_source"] = rank_source

    cm_type, gorenstein = cm_type_and_gorenstein(ring, budget)
    report.quantities.update({"dim_R": d, "cm_type": cm_type,
                              "gorenstein_ground_truth": gorenstein})

    if method == "canonical_frobenius":
        omega = canonical_module(ring, budget)
        fn_omega = frobenius_module(omega, n, budget)
        premise = is_mcm(fn_omega, budget)
        report.quantities["mu_omega"] = min_generators(omega, budget)
        report.quantities["fn_omega_mcm"] = premise
    elif method == "ext_pushforward":
        if d == 0:
            return _skip(report, "ext_pushforward needs positive dimension")
        if n < 1:
            return _skip(report, "pushforward needs n >= 1")
        # Ext^i(f^n R, R), the sum of count copies of each Ext^i(P, R), is
        # zero iff it is on the sum of the distinct blocks P
        blocks = pushforward_presentation(ring, n, budget).blocks(budget)
        distinct = direct_sum(ring, [P for P, _ in blocks], budget)
        premise = True
        for i in range(1, d + 1):
            zero = ext(distinct, ring_as_module(ring), i,
                       budget).is_zero(budget)
            report.quantities[f"ext_{i}_fnR_R_zero"] = zero
            premise = premise and zero
        report.quantities["mu_fnR"] = sum(k * P.ambient_rank
                                          for P, k in blocks)
    else:  # tor_omega
        _require(x is not None, "tor_omega needs a s.o.p.")
        _require(is_sop(x, ring, budget), "x is not a full s.o.p. for R")
        report.inputs["sop"] = sop_name
        omega = canonical_module(ring, budget)
        i_max = i_max if i_max is not None else d + 1
        report.grid = f"i in [1..{i_max}] at n={n}"
        omega_x = quotient_by_sequence(omega, x)
        premise = False
        for i in range(1, i_max + 1):
            h = tor_frobenius(omega_x, n, i, "functor", budget)
            zero = h.is_zero(budget)
            report.quantities[f"tor_{i}_omega_mod_x_zero"] = zero
            premise = premise or zero

    report.conditions.update({
        "premise": premise,
        "conclusion_gorenstein": gorenstein,
    })
    report.verdict = PAPER_VIOLATION if premise and not gorenstein \
        else CONSISTENT
    return report


# ---------------------------------------------------------------------------
# rigidity scans

@dataclass
class RigidityVerdict:
    """Window scan of Tor_i(M, f^n R) vanishing.

    RIGID_WITNESSED never claims rigidity beyond the window: it means
    either pd M is finite (first disjunct of the definition) or no
    vanishing appeared anywhere in the scanned window.
    """

    module_id: str
    n_range: Tuple[int, int]
    i_range: Tuple[int, int]
    table: Dict[Tuple[int, int], bool]
    pd_finite: bool
    pd: Optional[int]
    classification: str

    def render(self) -> str:
        lines = [
            "rigidity_scan:",
            f"  module: {self.module_id}",
            f"  n_range: {self.n_range[0]}..{self.n_range[1]}",
            f"  i_range: {self.i_range[0]}..{self.i_range[1]}",
            f"  pd_finite: {_fmt(self.pd_finite)}",
            f"  pd: {self.pd if self.pd is not None else 'INFINITE'}",
        ]
        for (n, i) in sorted(self.table):
            lines.append(f"  tor_zero_n{n}_i{i}: {_fmt(self.table[(n, i)])}")
        lines.append(f"  classification: {self.classification}")
        return "\n".join(lines)


def rigidity_scan(M: PresentedModule, n_range: Tuple[int, int],
                  i_range: Tuple[int, int], budget: Budget = DEFAULT_BUDGET,
                  module_id: str = "M") -> RigidityVerdict:
    n_lo, n_hi = n_range
    i_lo, i_hi = i_range
    if n_lo < 1 or i_lo < 1:
        raise ArgumentError("rigidity scan ranges start at 1")
    finite, pd = pd_is_finite(M, budget)
    table = _tor_zero_table(M, range(i_lo, i_hi + 1), range(n_lo, n_hi + 1),
                            budget)
    if not table:
        cls = "INCONCLUSIVE"
    elif finite:
        cls = "RIGID_WITNESSED"
    elif any(table.values()):
        cls = "VANISHING_FOUND"
    else:
        cls = "RIGID_WITNESSED"
    return RigidityVerdict(module_id, (n_lo, n_hi), (i_lo, i_hi), table,
                           finite, pd, cls)
