"""Flat engine oracles: reduced module Groebner bases checked by an
independent term order and division, elimination kernels checked against a
tracked Schreyer reference, seeded calls checked against unseeded ones,
cancellation polls, and the benchmark tracer's bindings."""

import heapq
import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from frobcheck.budget import Budget
from frobcheck._engine import (EngineContext, GIndex, buchberger_flat,
                               lead_term, mono_coprime, mono_divides,
                               mono_lcm, mono_sub, reduce_full,
                               syzygies_flat, vec_axpy, vec_scale)

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


# ---------------------------------------------------------------------------
# reference: Buchberger with certificates and Schreyer syzygies pulled back
# through them, the kernel algorithm the engine used before elimination

def _ref_buchberger(gens, ctx):
    """Reduced basis plus certificates: reps[k] is keyed by (gens index,
    mono) and combines the generators into basis element k."""
    p = ctx.p
    idx = GIndex(ctx)
    reps, heap, alive_pairs = [], [], {}
    rank1 = all(k[0] == 0 for g in gens for k in g)

    def gm_update(t):
        pt, mt = idx.leads[t]
        by_lcm = {}
        for i in idx.by_pos[pt][:-1]:
            by_lcm.setdefault(mono_lcm(idx.leads[i][1], mt), []).append(i)
        pairs = alive_pairs.setdefault(pt, {})
        for (i, j), l in list(pairs.items()):
            if mono_divides(mt, l) and \
               mono_lcm(idx.leads[i][1], mt) != l and \
               mono_lcm(idx.leads[j][1], mt) != l:
                del pairs[(i, j)]
        for l in sorted(by_lcm):
            if any(l2 != l and mono_divides(l2, l) for l2 in by_lcm):
                continue
            members = by_lcm[l]
            if rank1 and any(mono_coprime(idx.leads[i][1], mt)
                             for i in members):
                continue
            pairs[(members[0], t)] = l
            heapq.heappush(heap, (ctx.mono_key(l), members[0], t))

    def add_elem(vec, rep):
        lead = lead_term(vec, ctx)
        ic = ctx.inv(vec[lead])
        idx.add(vec_scale(vec, ic, p), lead)
        reps.append(vec_scale(rep, ic, p))
        gm_update(len(idx.elems) - 1)

    def mirror_into(rep, certs):
        def mirror(t, d, c):
            vec_axpy(rep, p - c, d, certs[t], p)
        return mirror

    for i, g in enumerate(gens):
        if g:
            add_elem(dict(g), {(i, ctx.zero_mono): 1})
    while heap:
        _, i, j = heapq.heappop(heap)
        l = alive_pairs[idx.leads[i][0]].pop((i, j), None)
        if l is None:
            continue
        di, dj = mono_sub(l, idx.leads[i][1]), mono_sub(l, idx.leads[j][1])
        u, rep = {}, {}
        vec_axpy(u, 1, di, idx.elems[i], p)
        vec_axpy(u, p - 1, dj, idx.elems[j], p)
        vec_axpy(rep, 1, di, reps[i], p)
        vec_axpy(rep, p - 1, dj, reps[j], p)
        h = reduce_full(u, idx, ctx, on_reduce=mirror_into(rep, reps))
        if h:
            add_elem(h, rep)

    alive = [i for i, (pi, mi) in enumerate(idx.leads)
             if not any(j != i and mono_divides(idx.leads[j][1], mi)
                        and (idx.leads[j][1] != mi or j < i)
                        for j in idx.by_pos[pi])]
    alive.sort(key=lambda k: ctx.term_key(idx.leads[k]))
    final, freps = GIndex(ctx), [reps[i] for i in alive]
    for i in alive:
        final.add(idx.elems[i], idx.leads[i])
    for k, lead in enumerate(final.leads):
        vec = dict(final.elems[k])
        del vec[lead]
        nf = reduce_full(vec, final, ctx,
                         on_reduce=mirror_into(freps[k], freps))
        nf[lead] = 1
        final.elems[k] = nf
    return final, freps


def _ref_syzygies(gens, ctx):
    """Generators of the syzygies of ``gens``: Schreyer syzygies of the
    reduced basis pulled back through the certificates, plus the columns of
    I - A*B expressing each generator over the basis."""
    p = ctx.p
    G, reps = _ref_buchberger(gens, ctx)

    def collect_into(z, sign):
        def collect(t, d, c):
            _axpy(z, sign * c, d, {(t, ctx.zero_mono): 1})
        return collect

    zs = []
    for k, (pk, mk) in enumerate(G.leads):
        for l in G.by_pos[pk]:
            if l <= k:
                continue
            L = mono_lcm(mk, G.leads[l][1])
            dk, dl = mono_sub(L, mk), mono_sub(L, G.leads[l][1])
            u = {}
            vec_axpy(u, 1, dk, G.elems[k], p)
            vec_axpy(u, p - 1, dl, G.elems[l], p)
            z = {(k, dk): 1, (l, dl): p - 1}
            assert not reduce_full(u, G, ctx, on_reduce=collect_into(z, -1))
            zs.append(_combine(z, reps))
    for i, f in enumerate(gens):
        b = {}
        if f:
            assert not reduce_full(dict(f), G, ctx,
                                   on_reduce=collect_into(b, 1))
        s = {(i, ctx.zero_mono): 1}
        _axpy(s, -1, ctx.zero_mono, _combine(b, reps))
        zs.append(s)
    return [z for z in zs if z]


# ---------------------------------------------------------------------------

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


def _monos_of_degree(weights, d):
    return [m for m in product(range(4), repeat=len(weights))
            if sum(w * e for w, e in zip(weights, m)) == d]


@st.composite
def graded_module_gens(draw, weights):
    """Generators shaped like ``module_gens`` but graded: with a degree
    shift per position, all terms of a generator have one degree. This is
    the input domain of ``syzygies_flat``: the module layer rejects every
    other matrix before elimination (tested in test_module_engine.py)."""
    shifts = draw(st.lists(st.integers(0, 2), min_size=5, max_size=5))
    positions = sorted(draw(st.sets(st.integers(0, 4), min_size=1,
                                    max_size=3)))
    mono = st.tuples(*[st.integers(0, 2)] * len(weights))
    coeff = st.integers(1, P - 1)
    gens = []
    for pos in positions:
        lower = st.sampled_from([q for q in positions if q >= pos])
        for _ in range(draw(st.integers(1, 3))):
            m = draw(mono)
            deg = shifts[pos] + sum(w * e for w, e in zip(weights, m))
            g = {(pos, m): draw(coeff)}
            for _ in range(draw(st.integers(0, 2))):
                q = draw(lower)
                monos = _monos_of_degree(weights, deg - shifts[q])
                if monos:
                    g[(q, draw(st.sampled_from(monos)))] = draw(coeff)
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
    gbd = buchberger_flat(gens, ctx, Budget())
    basis, leads = gbd.index.elems, gbd.index.leads
    nonzero = [g for g in gens if g]
    assert bool(basis) == bool(nonzero)

    # the reference computes the same reduced basis, and its certificates
    # put each element inside the submodule
    ref, reps = _ref_buchberger(gens, ctx)
    assert ref.leads == leads and ref.elems == basis
    for k, g in enumerate(basis):
        assert leads[k] == _lead(g, weights)
        assert g[leads[k]] == 1
        assert _combine(reps[k], gens) == g
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

    # the elimination kernel is a reduced basis of the syzygy module: each
    # vector maps to zero, and it spans the same module as the reference
    gens = data.draw(graded_module_gens(weights))
    kernel = syzygies_flat(gens, 5, len(gens), ctx, Budget())
    assert buchberger_flat(kernel, ctx, Budget()).index.elems == kernel
    for z in kernel:
        assert _combine(z, gens) == {}
    ref_syz = _ref_syzygies(gens, ctx)
    ref_basis = buchberger_flat(ref_syz, ctx, Budget()).index.elems
    for z in ref_syz:
        assert _reduces_to_zero(z, kernel, weights)
    for z in kernel:
        assert _reduces_to_zero(z, ref_basis, weights)

    # with a lead block: the kernel is the lead-block part of the syzygies
    nlead = data.draw(st.integers(1, len(gens)))
    kernel = syzygies_flat(gens, 5, nlead, ctx, Budget())
    rest = buchberger_flat(gens[nlead:], ctx, Budget()).index.elems
    for z in kernel:
        assert {k[0] for k in z} <= set(range(nlead))
        assert _reduces_to_zero(_combine(z, gens), rest, weights)
    for z in ref_syz:
        proj = {k: c for k, c in z.items() if k[0] < nlead}
        assert _reduces_to_zero(proj, kernel, weights)


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 3)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_seeded_basis_and_kernel_equal_unseeded(weights, data):
    # a seed is a reduced basis whose inner S-pairs are never formed; the
    # pairs between it and new generators still are, so the result is the
    # reduced basis of everything, element for element
    ctx = EngineContext(P, weights)
    h = data.draw(module_gens(len(weights)))
    g = data.draw(module_gens(len(weights)))
    B = buchberger_flat(h, ctx, Budget()).index.elems
    seeded = buchberger_flat(g, ctx, Budget(), seed=B).index
    plain = buchberger_flat(g + B, ctx, Budget()).index
    assert seeded.leads == plain.leads and seeded.elems == plain.elems
    again = buchberger_flat(g + h, ctx, Budget()).index
    assert again.leads == plain.leads and again.elems == plain.elems
    alone = buchberger_flat([], ctx, Budget(), seed=B).index
    assert alone.elems == B

    # a kernel whose rest is partly given as a seed basis
    gens = data.draw(graded_module_gens(weights))
    nlead = data.draw(st.integers(1, len(gens)))
    cut = data.draw(st.integers(nlead, len(gens)))
    rest = buchberger_flat(gens[cut:], ctx, Budget()).index.elems
    seeded = syzygies_flat(gens[:cut], 5, nlead, ctx, Budget(), seed=rest)
    assert seeded == syzygies_flat(gens, 5, nlead, ctx, Budget())


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

    def cancel():
        raise Cancelled()

    # the kernel's one Buchberger call polls, so a raising check cancels it
    with pytest.raises(Cancelled):
        syzygies_flat(gens, 1, len(gens), ctx, Budget(cancel_check=cancel))


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
