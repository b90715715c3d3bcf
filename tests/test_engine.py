"""Flat engine oracles: reduced module Groebner bases and syzygies checked
by an independent term order and division, cancellation polls, and the
benchmark tracer's bindings."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frobcheck.budget import Budget
from frobcheck._engine import EngineContext, buchberger_flat, syzygies_flat

P = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# independent oracle: position-over-term order and division, written out
# here rather than taken from the engine

def _lead(vec, weights):
    def key(term):
        pos, m = term
        wdeg = sum(w * e for w, e in zip(weights, m))
        return (-pos, wdeg, [-e for e in reversed(m)])
    return max(vec, key=key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _axpy(target, c, shift, src):
    for (pos, m), a in src.items():
        key = (pos, tuple(x + y for x, y in zip(shift, m)))
        v = (target.get(key, 0) + c * a) % P
        if v:
            target[key] = v
        else:
            target.pop(key, None)


def _combine(coeffs, vecs):
    """sum of c * x^m * vecs[i] over the terms ((i, m), c) of coeffs."""
    out = {}
    for (i, m), c in coeffs.items():
        _axpy(out, c, m, vecs[i])
    return out


def _reduces_to_zero(vec, basis, weights):
    vec = dict(vec)
    leads = [_lead(g, weights) for g in basis]
    while vec:
        pos, m = t = _lead(vec, weights)
        k = next((k for k, (q, lm) in enumerate(leads)
                  if q == pos and _divides(lm, m)), None)
        if k is None:
            return False
        lm = leads[k][1]
        c = vec[t] * pow(basis[k][leads[k]], -1, P)
        _axpy(vec, -c, tuple(y - x for x, y in zip(lm, m)), basis[k])
    return True


@st.composite
def module_gens(draw, nvars):
    """Generators of a submodule of S^5 with leads at one to three of the
    five positions, one to three generators per lead position, and now and
    then a zero generator."""
    positions = sorted(draw(st.sets(st.integers(0, 4), min_size=1,
                                    max_size=3)))
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.integers(1, P - 1)
    gens = []
    for pos in positions:
        lower = st.sampled_from([q for q in positions if q >= pos])
        for _ in range(draw(st.integers(1, 3))):
            g = {(pos, draw(mono)): draw(coeff)}
            for _ in range(draw(st.integers(0, 2))):
                g[(draw(lower), draw(mono))] = draw(coeff)
            gens.append(g)
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), {})
    return gens


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 3)])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_module_groebner_basis_and_syzygies(weights, data):
    ctx = EngineContext(P, weights)
    gens = data.draw(module_gens(len(weights)))
    gbd = buchberger_flat(gens, ctx, Budget(), track=True)
    basis, leads = gbd.index.elems, gbd.index.leads
    nonzero = [g for g in gens if g]
    assert bool(basis) == bool(nonzero)

    for k, g in enumerate(basis):
        assert leads[k] == _lead(g, weights)
        assert g[leads[k]] == 1
        # each element lies in the submodule, through its certificate
        assert _combine(gbd.reps[k], gens) == g
        for l, (q, lm) in enumerate(leads):
            if l != k and q == leads[k][0]:
                assert not _divides(lm, leads[k][1])
        for pos, m in g:
            if (pos, m) != leads[k]:
                assert not any(q == pos and _divides(lm, m)
                               for q, lm in leads)

    # Buchberger's criterion on every same-position pair of leads
    for k, (pk, mk) in enumerate(leads):
        for l in range(k + 1, len(leads)):
            pl, ml = leads[l]
            if pl != pk:
                continue
            lcm = tuple(max(x, y) for x, y in zip(mk, ml))
            s = {}
            _axpy(s, 1, tuple(x - y for x, y in zip(lcm, mk)), basis[k])
            _axpy(s, -1, tuple(x - y for x, y in zip(lcm, ml)), basis[l])
            assert _reduces_to_zero(s, basis, weights)
    for g in nonzero:
        assert _reduces_to_zero(g, basis, weights)

    perm = data.draw(st.permutations(range(len(gens))))
    again = buchberger_flat([gens[i] for i in perm], ctx, Budget()).index
    assert again.leads == leads and again.elems == basis

    for z in syzygies_flat(gens, ctx, Budget()):
        assert _combine(z, gens) == {}


# ---------------------------------------------------------------------------
# cancel_check

class Cancelled(Exception):
    pass


def test_cancel_polled_in_tail_and_syzygy_reductions():
    ctx = EngineContext(P, (1, 1, 1))
    # x^2 + yz, xz^2, xy^2 + z^3 as polynomials (position 0)
    gens = [{(0, (2, 0, 0)): 1, (0, (0, 1, 1)): 1},
            {(0, (1, 0, 2)): 1},
            {(0, (1, 2, 0)): 1, (0, (0, 0, 3)): 1}]
    polls = []
    budget = Budget(cancel_check=lambda: polls.append(1))
    gbd = buchberger_flat(gens, ctx, budget)
    # the tail reduction polls as well as the S-pair reductions
    assert len(polls) > gbd.spairs_reduced
    plain = len(polls)
    polls.clear()

    def cancel():
        polls.append(1)
        if len(polls) > plain:
            raise Cancelled()

    # syzygies_flat's Buchberger call makes the same polls; the next one
    # comes from its own reductions
    with pytest.raises(Cancelled):
        syzygies_flat(gens, ctx, Budget(cancel_check=cancel))
    assert len(polls) == plain + 1


# ---------------------------------------------------------------------------
# the benchmark's tracer wraps engine functions by name and signature

TRACED_TOR = """
import contextlib, io, sys
sys.path[:0] = ["perfbench", "src"]
from tracing import Tracer, install
tracer = Tracer()
install(tracer)
from frobcheck.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(["tor", "tests/models/e.json", "-m", "k", "-n", "1", "-i", "2",
                "--method", "both"])
print(code, tracer.counts.get("engine.buchberger_flat.spairs", 0),
      tracer.counts.get("engine.reduce_full.steps", 0))
"""


def test_benchmark_tracer_binds_engine():
    # a subprocess, so the tracer's wrappers never reach other tests
    proc = subprocess.run([sys.executable, "-c", TRACED_TOR], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, spairs, steps = map(int, proc.stdout.split())
    assert code == 0
    assert spairs > 0 and steps > 0
