"""The benchmark's workloads: op lists, and the layers each must exercise.

An op is one ``frobcheck`` command line. ``{A}`` .. ``{E}`` stand for the
seeded model files of the five corpus rings (see models.py). Within a pass
no op repeats; every op re-reads and re-parses its model file.
"""

from __future__ import annotations

from typing import Dict, List

WORKLOADS: Dict[str, List[str]] = {
    # criterion 5's pushforward route: Buchberger calls of up to 3333
    # generators, pair bookkeeping and final minimalization
    "pushforward_tor": [
        "tor {C} -m k -n 1 -i 1 --method both",
        "tor {C} -m k -n 1 -i 2 --method both",
        "tor {C} -m k -n 1 -i 3 --method both",
        "tor {B} -m k -n 1 -i 3 --method both",
        "tor {D} -m k -n 1 -i 3 --method both",
        "tor {E} -m k -n 1 -i 3 --method both",
    ],
    # high Frobenius powers: few generators, weighted degrees near 1900;
    # reduce_full on C, standard_monomials length enumeration on B and E
    "frobenius_functor": [
        "tor {C} -m k -n 3 -i 2 --method functor",
        "tor {C} -m k -n 3 -i 3 --method functor",
        "tor {C} -m k -n 2 -i 3 --method functor",
        "tor {B} -m MF -n 5 -i 3 --method functor",
        "tor {B} -m k -n 5 -i 3 --method functor",
        "tor {D} -m k -n 3 -i 3 --method functor",
        "tor {E} -m k -n 6 -i 3 --method functor",
    ],
    # long resolutions, each differential verified as d.d = 0: matmul over
    # the Column/Polynomial representation plus tracked syzygies
    "deep_resolve": [
        "resolve {C} -m k -L 8",
        "resolve {B} -m k -L 10",
        "resolve {D} -m MF -L 10",
        "resolve {E} -m k -L 12",
    ],
    # many short commands: parsing, kappa, minors, lengths, checker logic
    "checker_mix": [
        "info {A}",
        "info {B}",
        "info {C}",
        "info {D}",
        "info {E}",
        "check free {B} -m MF -s yz -n 1 --n-max 2",
        "check codim1 {B} -m Ry -s z -n 1",
        "check main1 {D} -m MF",
        "check kl {B} -m k",
        "check kl {E} -m Ex",
        "check gorenstein {C} --method canonical-frobenius",
        "check gorenstein {C} --method ext-pushforward",
        "check gorenstein {C} --method tor-omega -s x",
        "check gorenstein {E} --method tor-omega -s s",
        "scan rigidity {E} -m k --n-range 1..3 --i-range 1..4",
        "scan rigidity {D} -m MF --n-range 1..3 --i-range 1..4",
    ],
}

# Wrapped layers that must fire at least once in a traced pass of each
# workload; a layer that stays silent there means the trace lost it.
REQUIRED_LAYERS: Dict[str, List[str]] = {
    "pushforward_tor": [
        "engine.buchberger_flat", "engine.reduce_full",
        "engine.syzygies_flat", "module_engine._kernel_columns",
        "module_engine._ideal_padding", "module_engine.present_homology",
        "frobenius.pushforward_presentation",
    ],
    "frobenius_functor": [
        "engine.buchberger_flat", "engine.reduce_full",
        "algebra_kernel.standard_monomials", "module_engine.module_length",
        "module_engine.present_homology", "frobenius.frobenius_complex",
    ],
    "deep_resolve": [
        "engine.syzygies_flat", "module_engine._kernel_columns",
        "module_engine.matmul", "module_engine._minimalize_columns",
        "module_engine.minimal_free_resolution", "module_engine.minimalize",
        "algebra_kernel.Polynomial.mul",
    ],
    "checker_mix": [
        "cli.parse_model", "algebra_kernel.buchberger",
        "algebra_kernel.normal_form", "algebra_kernel.standard_monomials",
        "module_engine.module_length", "module_engine.minimalize",
        "invariants.depth_of_module", "invariants.dimension_of_module",
        "invariants.rank_of_module", "invariants.canonical_module",
        "invariants._minors", "frobenius.kappa_for_sop",
        "frobenius.frobenius_complex", "criteria.check",
    ],
}

# Exact work counters of one seed-0 op, recorded when the benchmark was
# defined; a traced seed-0 run reports whether the current tree still
# reproduces them (an engine change is expected to move them).
BASELINE_OP = "tor {C} -m k -n 1 -i 3 --method both"
BASELINE_COUNTERS = {
    "engine.buchberger_flat.calls": 10,
    "engine.buchberger_flat.gens_in_max": 3333,
    "engine.buchberger_flat.spairs": 8176,
}


def argv_for(op: str, models: Dict[str, str]) -> List[str]:
    return [tok.format(**models) for tok in op.split()]
