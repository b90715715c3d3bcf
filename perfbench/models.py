"""Seeded model files for the benchmark.

Seed 0 is the five corpus models in ``perfbench/corpus`` unchanged. Any
other seed gives every module presentation a random change of basis: the
generators (rows of the relations matrix) are permuted, and each row and
each relation column is multiplied by a random unit, as is each s.o.p.
element. The modules, rings and s.o.p. ideals stay the same, so every
invariant the oracle compares keeps its seed-0 value. Over F_2 the only
unit is 1, so models A and E change only where a module has two or more
generators.

Other changes would keep the invariants too, but the engine's work depends
on the presentation, and these change it by more than the benchmark's
bounds, so a run would measure the draw instead of the engine. Measured
on 2 CPUs at seeds 1-7 against seed 0:

* one weight-preserving shear ``x -> x + d*y`` on ring B:
  ``tor B -m k -n 5 -i 3 --method functor`` takes 7-21 s instead of 0.4 s;
* permuting the relations of ``k`` over ring C: Polynomial
  multiplications of ``resolve C -m k -L 8`` range from 90k to 228k;
* scaling the variables, or scaling or permuting the ideal generators of
  ring C: S-pairs of ``tor C -m k -n 1 -i 2 --method both`` rise from
  4173 by up to 20%.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict

CORPUS = Path(__file__).resolve().parent / "corpus"
LETTERS = "abcde"


def _scaled(text: str, unit: int) -> str:
    return text if unit == 1 else f"{unit}*({text})"


def transform(model: dict, rng: random.Random) -> dict:
    """``model`` with each module presentation changed by a random basis."""
    p = model["p"]

    def unit() -> int:
        return rng.randrange(1, p)

    modules = {}
    for name, spec in model.get("modules", {}).items():
        rows = spec.get("relations", [])
        col_units = [unit() for _ in (rows[0] if rows else ())]
        new_rows = []
        for row in rows:
            row_unit = unit()
            new_rows.append([_scaled(e, row_unit * u % p)
                             for e, u in zip(row, col_units)])
        rng.shuffle(new_rows)
        modules[name] = dict(spec, relations=new_rows)
    sops = {name: [_scaled(e, unit()) for e in seq]
            for name, seq in model.get("sops", {}).items()}
    return dict(model, modules=modules, sops=sops)


def write_models(seed: int, dest: Path) -> Dict[str, Path]:
    """Write the five models for ``seed`` into ``dest``; return their paths."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for k, letter in enumerate(LETTERS):
        text = (CORPUS / f"{letter}.json").read_text(encoding="utf-8")
        if seed != 0:
            rng = random.Random(seed * len(LETTERS) + k)
            text = json.dumps(transform(json.loads(text), rng), indent=2) + "\n"
        target = dest / f"{letter}.json"
        target.write_text(text, encoding="utf-8")
        paths[letter.upper()] = target
    return paths
