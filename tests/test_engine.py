"""Flat engine oracles: the packed term encoding checked against tuple
keys, reduced module Groebner bases checked by an independent term order
and division, elimination kernels checked against a tracked Schreyer
reference, seeded calls checked against unseeded ones, the degree ceiling,
cancellation polls, and the benchmark tracer's bindings."""

import heapq
import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import packed
from frobcheck.budget import Budget
from frobcheck.errors import BudgetExceededError
from frobcheck._engine import (DEGREE_LIMIT, F, EngineContext, GIndex,
                               buchberger_flat, exp_lcm, mono_divides,
                               reduce_full, syzygies_flat, vec_axpy,
                               vec_scale)

P = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# independent oracle: position-over-term order and division, written out
# here rather than taken from the engine

def _tuple_key(weights, m):
    """Weighted grevlex: degree first, then the smaller last exponent."""
    wdeg = sum(w * e for w, e in zip(weights, m))
    return (wdeg, [-e for e in reversed(m)])


def _lead(vec, weights):
    return max(vec, key=lambda t: (-t[0], _tuple_key(weights, t[1])))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def _axpy(target, c, shift, src):
    for (pos, m), a in src.items():
        key = (pos, tuple(x + y for x, y in zip(shift, m)))
        v = (target.get(key, 0) + c * a) % P
        if v:
            target[key] = v
        else:
            target.pop(key, None)


def _flat(ctx, vec):
    """The terms of a packed vector as {(position, exponents): coeff}."""
    return {(pos, m): c for pos, m, c in ctx.unpack(vec)}


def _flat_leads(idx):
    return [next(idx.ctx.unpack({lead: 1}))[:2] for lead in idx.leads]


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
    """Reduced basis plus certificates: reps[k] is packed with the gens
    index as its position and combines the generators into basis element
    k. Vectors are packed as in the engine, whose reductions this mirrors
    through ``on_reduce``, whose deltas are packed shifts. The pair
    bookkeeping runs on decoded lead tuples; the number of S-pairs it
    reduced comes third."""
    p, pb = ctx.p, ctx.pb
    idx = GIndex(ctx)
    reps, heap, alive_pairs = [], [], {}
    spairs = 0
    rank1 = all(k[0] == 0 for g in gens for k in g)

    def pos_of(t):
        return -(t >> pb)

    def gm_update(t):
        monos = idx.lead_monos()
        pt, mt = pos_of(idx.leads[t]), monos[t]
        by_lcm = {}
        for i in idx.by_pos[pt][:-1]:
            by_lcm.setdefault(_lcm(monos[i], mt), []).append(i)
        pairs = alive_pairs.setdefault(pt, {})
        for (i, j), l in list(pairs.items()):
            if mono_divides(mt, l) and \
               _lcm(monos[i], mt) != l and \
               _lcm(monos[j], mt) != l:
                del pairs[(i, j)]
        for l in sorted(by_lcm):
            if any(l2 != l and mono_divides(l2, l) for l2 in by_lcm):
                continue
            members = by_lcm[l]
            if rank1 and any(_coprime(monos[i], mt) for i in members):
                continue
            pairs[(members[0], t)] = l
            heapq.heappush(heap, (ctx.mono_key(l), members[0], t))

    def add_elem(vec, rep):
        lead = max(vec)
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
            add_elem(packed(ctx, g), {-(i << pb): 1})
    while heap:
        key, i, j = heapq.heappop(heap)
        pos = pos_of(idx.leads[i])
        if alive_pairs[pos].pop((i, j), None) is None:
            continue
        spairs += 1
        lcm = key - (pos << pb)
        di, dj = lcm - idx.leads[i], lcm - idx.leads[j]
        u, rep = {}, {}
        vec_axpy(u, 1, di, idx.elems[i], p)
        vec_axpy(u, p - 1, dj, idx.elems[j], p)
        vec_axpy(rep, 1, di, reps[i], p)
        vec_axpy(rep, p - 1, dj, reps[j], p)
        h = reduce_full(u, idx, ctx, on_reduce=mirror_into(rep, reps))
        if h:
            add_elem(h, rep)

    # minimalization by decoded leads and tuple division
    leads, monos = idx.leads, idx.lead_monos()
    alive = [i for i, mi in enumerate(monos)
             if not any(j != i and mono_divides(monos[j], mi)
                        and (monos[j] != mi or j < i)
                        for j in idx.by_pos[pos_of(leads[i])])]
    alive.sort(key=lambda k: (-pos_of(leads[k]), _tuple_key(ctx.weights,
                                                            monos[k])))
    final, freps = GIndex(ctx), [reps[i] for i in alive]
    for i in alive:
        final.add(idx.elems[i], leads[i])
    for k, lead in enumerate(final.leads):
        vec = dict(final.elems[k])
        del vec[lead]
        nf = reduce_full(vec, final, ctx,
                         on_reduce=mirror_into(freps[k], freps))
        nf[lead] = 1
        final.elems[k] = nf
    return final, freps, spairs


def _ref_syzygies(gens, ctx):
    """Generators of the syzygies of ``gens``: Schreyer syzygies of the
    reduced basis pulled back through the certificates, plus the columns of
    I - A*B expressing each generator over the basis. Returned flat."""
    p, pb = ctx.p, ctx.pb
    G, reps, _ = _ref_buchberger(gens, ctx)
    flat_reps = [_flat(ctx, r) for r in reps]
    monos = G.lead_monos()

    def collect_into(z, sign):
        # z is packed with the basis index as its position
        def collect(t, d, c):
            vec_axpy(z, sign * c, d, {-(t << pb): 1}, p)
        return collect

    zs = []
    for k, lead in enumerate(G.leads):
        pk = -(lead >> pb)
        for l in G.by_pos[pk]:
            if l <= k:
                continue
            L = ctx.mono_key(_lcm(monos[k], monos[l])) - (pk << pb)
            dk, dl = L - lead, L - G.leads[l]
            u = {}
            vec_axpy(u, 1, dk, G.elems[k], p)
            vec_axpy(u, p - 1, dl, G.elems[l], p)
            z = {dk - (k << pb): 1, dl - (l << pb): p - 1}
            assert not reduce_full(u, G, ctx, on_reduce=collect_into(z, -1))
            zs.append(_combine(_flat(ctx, z), flat_reps))
    for i, f in enumerate(gens):
        b = {}
        if f:
            assert not reduce_full(packed(ctx, f), G, ctx,
                                   on_reduce=collect_into(b, 1))
        s = {(i, ctx.zero_mono): 1}
        _axpy(s, -1, ctx.zero_mono, _combine(_flat(ctx, b), flat_reps))
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
    gbd = buchberger_flat([packed(ctx, g) for g in gens], ctx, Budget())
    basis = [_flat(ctx, v) for v in gbd.index.elems]
    leads = _flat_leads(gbd.index)
    nonzero = [g for g in gens if g]
    assert bool(basis) == bool(nonzero)

    # the reference computes the same reduced basis, and its certificates
    # put each element inside the submodule
    ref, reps, spairs = _ref_buchberger(gens, ctx)
    assert ref.leads == gbd.index.leads and ref.elems == gbd.index.elems
    assert spairs == gbd.spairs_reduced
    for k, g in enumerate(basis):
        assert leads[k] == _lead(g, weights)
        assert g[leads[k]] == 1
        assert _combine(_flat(ctx, reps[k]), gens) == g
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
    again = buchberger_flat([packed(ctx, gens[i]) for i in perm], ctx,
                            Budget()).index
    assert _flat_leads(again) == leads
    assert [_flat(ctx, v) for v in again.elems] == basis

    # the elimination kernel is a reduced basis of the syzygy module: each
    # vector maps to zero, and it spans the same module as the reference
    gens = data.draw(graded_module_gens(weights))
    cols = [packed(ctx, g) for g in gens]
    kern = syzygies_flat(cols, 5, len(gens), ctx, Budget())
    kernel = [_flat(ctx, z) for z in kern.elems]
    assert buchberger_flat(kern.elems, ctx, Budget()).index.elems == \
        kern.elems
    for z in kernel:
        assert _combine(z, gens) == {}
    ref_syz = _ref_syzygies(gens, ctx)
    ref_basis = [_flat(ctx, v) for v in buchberger_flat(
        [packed(ctx, z) for z in ref_syz], ctx, Budget()).index.elems]
    for z in ref_syz:
        assert _reduces_to_zero(z, kernel, weights)
    for z in kernel:
        assert _reduces_to_zero(z, ref_basis, weights)

    # with a lead block: the kernel is the lead-block part of the syzygies
    nlead = data.draw(st.integers(1, len(gens)))
    kernel = [_flat(ctx, z) for z in
              syzygies_flat(cols, 5, nlead, ctx, Budget()).elems]
    rest = [_flat(ctx, v) for v in
            buchberger_flat(cols[nlead:], ctx, Budget()).index.elems]
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
    h = [packed(ctx, v) for v in data.draw(module_gens(len(weights)))]
    g = [packed(ctx, v) for v in data.draw(module_gens(len(weights)))]
    B = buchberger_flat(h, ctx, Budget()).index
    seeded = buchberger_flat(g, ctx, Budget(), seed=B).index
    plain = buchberger_flat(g + B.elems, ctx, Budget()).index
    assert seeded.leads == plain.leads and seeded.elems == plain.elems
    again = buchberger_flat(g + h, ctx, Budget()).index
    assert again.leads == plain.leads and again.elems == plain.elems
    alone = buchberger_flat([], ctx, Budget(), seed=B).index
    assert alone.elems == B.elems

    # a kernel whose rest is partly given as a seed basis
    gens = [packed(ctx, v) for v in data.draw(graded_module_gens(weights))]
    nlead = data.draw(st.integers(1, len(gens)))
    cut = data.draw(st.integers(nlead, len(gens)))
    rest = buchberger_flat(gens[cut:], ctx, Budget()).index
    seeded = syzygies_flat(gens[:cut], 5, nlead, ctx, Budget(), seed=rest)
    unseeded = syzygies_flat(gens, 5, nlead, ctx, Budget())
    assert seeded.leads == unseeded.leads and seeded.elems == unseeded.elems


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 3)])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_ideal_basis_and_pairs_match_the_reference(weights, data):
    # rank 1, where the product criterion drops the pairs of coprime leads
    ctx = EngineContext(P, weights)
    mono = st.tuples(*[st.integers(0, 3)] * len(weights))
    term = st.tuples(st.just(0), mono)
    gens = data.draw(st.lists(st.dictionaries(term, st.integers(1, P - 1),
                                              min_size=1, max_size=3),
                              min_size=1, max_size=5))
    gbd = buchberger_flat([packed(ctx, g) for g in gens], ctx, Budget())
    ref, _, spairs = _ref_buchberger(gens, ctx)
    assert ref.leads == gbd.index.leads and ref.elems == gbd.index.elems
    assert spairs == gbd.spairs_reduced
    basis = [_flat(ctx, v) for v in gbd.index.elems]
    for g in gens:
        assert _reduces_to_zero(g, basis, weights)


def test_product_criterion_only_in_rank_one():
    # x^2 and y^3 have coprime leads: no S-pair for polynomials, but one
    # at a module position, where the criterion does not hold
    ctx = EngineContext(P, (1, 1, 1))
    for pos, spairs in ((0, 0), (1, 1)):
        gens = [packed(ctx, {(pos, (2, 0, 0)): 1, (pos, (0, 1, 1)): 1}),
                packed(ctx, {(pos, (0, 3, 0)): 1})]
        gbd = buchberger_flat(gens, ctx, Budget())
        assert gbd.spairs_reduced == spairs
        assert gbd.index.elems == gens


def _word(m):
    """E(m): exponent e_i in the F-bit field i."""
    return sum(e << (F * i) for i, e in enumerate(m))


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, 4, 5), (2, 3)])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_lcm_divisibility_and_coprimality(weights, data):
    # every exponent up to the largest that packs on its own, so fields
    # fill below their guard bits; lcms may lie past the degree ceiling
    ctx = EngineContext(P, weights)
    tops = [(DEGREE_LIMIT - 1) // w for w in weights]
    exps = st.tuples(*[st.one_of(st.sampled_from([0, 1, top - 1, top]),
                                 st.integers(0, top)) for top in tops])
    a, c = data.draw(exps), data.draw(exps)
    b = data.draw(st.sampled_from([
        c, a, _lcm(a, c), tuple(map(min, a, c)),
        tuple(0 if x else y for x, y in zip(a, c))]))    # coprime to a
    for m in (a, b):
        if _wdeg(weights, m) < DEGREE_LIMIT:
            assert -ctx.mono_key(m) & ctx.mask == _word(m)
    A, B, guard = _word(a), _word(b), ctx.guard
    lcm = exp_lcm(A, B, guard)
    assert lcm == exp_lcm(B, A, guard) == _word(_lcm(a, b))
    # the guard-bit test of reduce_full, the chain filter and the M rule
    assert ((B | guard) - A & guard == guard) == _divides(a, b)
    assert ((lcm | guard) - A & guard == guard)
    # the product criterion's test
    assert (lcm == A + B) == _coprime(a, b)


# ---------------------------------------------------------------------------
# the packed term encoding, against tuple keys and componentwise division

def _wdeg(weights, m):
    return sum(w * e for w, e in zip(weights, m))


@st.composite
def packable_terms(draw, weights):
    """A term below the degree ceiling: small exponents, now and then one
    raised to within a few steps of the largest that still packs."""
    m = list(draw(st.tuples(*[st.integers(0, 4)] * len(weights))))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(weights) - 1))
        room = (DEGREE_LIMIT - 1 - _wdeg(weights, m)
                + weights[i] * m[i]) // weights[i]
        m[i] = draw(st.integers(max(room - 3, 0), room))
    return draw(st.integers(0, 4)), tuple(m)


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, 4, 5), (2, 3)])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_packing_matches_tuple_order_and_division(weights, data):
    ctx = EngineContext(P, weights)
    s = data.draw(packable_terms(weights))
    t = data.draw(packable_terms(weights))
    if data.draw(st.booleans()):
        # a multiple of s, so that division holds in about half the cases
        extra = data.draw(st.tuples(*[st.integers(0, 3)] * len(weights)))
        m = tuple(a + b for a, b in zip(s[1], extra))
        if _wdeg(weights, m) < DEGREE_LIMIT:
            t = (s[0], m)
    (ks,), (kt,) = packed(ctx, {s: 1}), packed(ctx, {t: 1})

    # int order is position-over-term weighted grevlex, positions included
    def key(term):
        return (-term[0], _tuple_key(weights, term[1]))
    assert (ks < kt) == (key(s) < key(t))
    assert (ks == kt) == (s == t)

    # decoding inverts packing, and the degree reads off the key
    assert _flat(ctx, {ks: 1, kt: 2}) == {s: 1, t: 2}
    assert ctx.wdeg(s[1]) == _wdeg(weights, s[1])

    # k is linear below the ceiling, and refuses to pack past it
    mn = tuple(a + b for a, b in zip(s[1], t[1]))
    if _wdeg(weights, mn) < DEGREE_LIMIT:
        assert ctx.mono_key(mn) == ctx.mono_key(s[1]) + ctx.mono_key(t[1])
    else:
        with pytest.raises(BudgetExceededError, match="packed_degree"):
            ctx.mono_key(mn)

    # the guard-bit divisor test of reduce_full: a monic monomial lead
    # reduces a term to zero iff it divides it at the same position
    G = GIndex(ctx)
    G.add({ks: 1}, ks)
    divides = s[0] == t[0] and _divides(s[1], t[1])
    assert (reduce_full({kt: 1}, G, ctx) == {}) == divides


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, 4, 5), (2, 3)])
def test_packing_at_the_degree_ceiling(weights):
    # the largest exponent that packs fills its field below the guard bit
    # at unit weight; one more passes the ceiling
    ctx = EngineContext(P, weights)
    for i, w in enumerate(weights):
        def power(e):
            return tuple(e if j == i else 0 for j in range(len(weights)))
        top = power((DEGREE_LIMIT - 1) // w)
        k = packed(ctx, {(3, top): 1})
        assert _flat(ctx, k) == {(3, top): 1}
        assert ctx.wdeg(top) == _wdeg(weights, top) < DEGREE_LIMIT
        with pytest.raises(BudgetExceededError, match="packed_degree"):
            ctx.mono_key(power((DEGREE_LIMIT - 1) // w + 1))


def test_reduction_past_the_degree_ceiling_raises():
    # x*e0 + y^20000*e1 is graded (row shifts 19999 and 0); reducing
    # x^20000*e0 by it makes x^19999*y^20000*e1, past the ceiling
    ctx = EngineContext(P, (1, 1))
    gb = buchberger_flat([packed(ctx, {(0, (1, 0)): 1, (1, (0, 20000)): 1})],
                         ctx, Budget())
    with pytest.raises(BudgetExceededError, match="packed_degree"):
        reduce_full(packed(ctx, {(0, (20000, 0)): 1}), gb.index, ctx)
    # below the ceiling the same step succeeds
    out = reduce_full(packed(ctx, {(0, (10000, 0)): 1}), gb.index, ctx)
    assert _flat(ctx, out) == {(1, (9999, 20000)): P - 1}


def test_library_calls_past_the_degree_ceiling_raise():
    from frobcheck import RingModel, module_groebner, normal_form
    R = RingModel(5, ["x", "y"])
    x, y = R.variable(0), R.variable(1)
    # packing the input: x^40000 has weighted degree 40000
    with pytest.raises(BudgetExceededError, match="packed_degree"):
        normal_form(x ** 40000, R.ideal_groebner())
    # a reduction step: the column (x, y^20000) turns x^20000 e0 into
    # -x^19999 y^20000 e1
    gb = module_groebner([[x, y ** 20000]], 2, R)
    with pytest.raises(BudgetExceededError, match="packed_degree"):
        reduce_full(packed(R.ctx, {(0, (20000, 0)): 1}), gb.index, R.ctx)


def test_products_past_the_degree_ceiling_raise():
    # over a ring with no ideal nothing is reduced, so the normal form
    # checks every term: x^20000 * y^20000 has weighted degree 40000
    from frobcheck import RingModel
    from frobcheck.module_engine import matmul
    R = RingModel(5, ["x", "y"])
    a = [packed(R.ctx, {(0, (20000, 0)): 1})]
    ok = [packed(R.ctx, {(0, (0, 12767)): 1})]
    assert matmul(R, a, ok) == [packed(R.ctx, {(0, (20000, 12767)): 1})]
    with pytest.raises(BudgetExceededError,
                       match="packed_degree.*weighted degree 40000"):
        matmul(R, a, [packed(R.ctx, {(0, (0, 20000)): 1})])


# ---------------------------------------------------------------------------
# cancel_check

class Cancelled(Exception):
    pass


def test_cancel_polled_in_tail_and_syzygy_reductions():
    ctx = EngineContext(P, (1, 1, 1))
    # x^2 + yz, xz^2, xy^2 + z^3 as polynomials (position 0)
    gens = [packed(ctx, g) for g in ({(0, (2, 0, 0)): 1, (0, (0, 1, 1)): 1},
                                     {(0, (1, 0, 2)): 1},
                                     {(0, (1, 2, 0)): 1, (0, (0, 0, 3)): 1})]
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
