"""Frobenius functor, pushforward presentation, cross-oracle Tor, kappa."""

from itertools import product
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from frobcheck import (ArgumentError, FreeComplex, InternalConsistencyError,
                       Polynomial, PresentedModule, PreconditionError,
                       RingModel, buchberger, frobenius_complex,
                       frobenius_module, is_sop, kappa_for_sop,
                       kappa_upper_bound, minimal_free_resolution, minimalize,
                       module_length, normal_form, pushforward_presentation,
                       pushforward_tor, rank_of_module, residue_field,
                       tor_frobenius)
from frobcheck._engine import DEGREE_LIMIT, reduce_full, vec_axpy
from frobcheck.algebra_kernel import _minimal_monomials
from frobcheck.budget import Budget
from frobcheck.cli import parse_polynomial, run
from frobcheck.errors import BudgetExceededError
from frobcheck.frobenius import (PushforwardModule, _bracket,
                                 _twisted_homology)
from frobcheck.module_engine import _nf, matmul, tor
from conftest import (box_standard_monomials, colength, load_model,
                      model_path, monomials_of_degree, packed)
from test_module_engine import (RING_D, WEIGHTED, _columns, disguised_pair,
                                graded_rows)


def P(ring, s):
    return parse_polynomial(ring, s)


# ---------------------------------------------------------------------------
# the functor on presentations

def test_frobenius_module_entrywise_powers(model_b):
    B = model_b.ring
    MF = model_b.module("MF")
    F = frobenius_module(minimalize(MF), 1)
    expected = {B.nf(P(B, "x^3")), B.nf(P(B, "y^3")),
                B.nf(P(B, "z^3")), B.nf(P(B, "-x^3"))}
    got = {e for row in F.rows() for e in row if not e.is_zero()}
    assert got == expected


def test_frobenius_of_k_is_bracket_quotient(model_a):
    A = model_a.ring
    F = frobenius_module(residue_field(A), 1)
    assert module_length(F) == 4
    gb = buchberger([P(A, "x^2"), P(A, "y^2")], A)
    assert colength(gb) == len(box_standard_monomials(gb)) == 4


def test_frobenius_preserves_free(model_b):
    free = PresentedModule.free(model_b.ring, 3)
    for n in (1, 2):
        out = frobenius_module(free, n)
        assert out.ambient_rank == 3 and out.num_relations == 0


def test_frobenius_requires_minimal_presentation(model_a):
    A = model_a.ring
    M = PresentedModule.from_rows(A, [[A.one()]])
    with pytest.raises(PreconditionError):
        frobenius_module(M, 1)


def test_frobenius_length_matches_bracket_power_colength(model_b):
    # F^n(R/I) = R/I^[q] on finite-colength ideals
    B = model_b.ring
    for gens in ([P(B, "x"), P(B, "y"), P(B, "z")],
                 [P(B, "x^2"), P(B, "y"), P(B, "z^2")]):
        M = PresentedModule.from_rows(B, [gens])
        for n in (1, 2):
            q = B.p ** n
            gb = buchberger(list(B.ideal_gens)
                            + [g.frobenius_power(q) for g in gens], B)
            assert module_length(frobenius_module(M, n)) == colength(gb) \
                == len(box_standard_monomials(gb))


# ---------------------------------------------------------------------------
# the functor on complexes

def _is_complex(C):
    """Whether consecutive differentials compose to zero modulo I."""
    return not any(any(matmul(C.ring, C.differential(i),
                              C.differential(i + 1)))
                   for i in range(1, C.length))


def test_frobenius_complex_still_a_complex(model_b):
    # frobenius_complex builds without multiplying its differentials, so
    # d.d = 0 is checked here
    res = minimal_free_resolution(residue_field(model_b.ring), 3)
    fc = frobenius_complex(res, 1)
    assert fc.ranks == res.ranks
    assert _is_complex(fc)


def test_hand_built_complex_is_verified(model_a):
    # a complex given from outside is still checked on construction
    A = model_a.ring
    x, y = ({(0, m): 1} for m in ((1, 0), (0, 1)))
    d1, d2 = [packed(A.ctx, x)], [packed(A.ctx, y)]
    with pytest.raises(InternalConsistencyError,
                       match=r"d_1 \. d_2 is nonzero"):
        FreeComplex(A, [1, 1, 1], [d1, d2])
    assert FreeComplex(A, [1, 1, 1], [d1, d2], verify=False).length == 2


def _entries(ring, cols):
    """{(row, column): Polynomial} of the nonzero entries of a matrix."""
    terms = {}
    for j, col in enumerate(cols):
        for i, m, c in ring.ctx.unpack(col):
            terms.setdefault((i, j), {})[m] = c
    return {k: Polynomial(ring, t) for k, t in terms.items()}


def _bracket_reference(ring, cols, q):
    """The nonzero entries of the q-th power of ``cols``, entry by entry,
    by Polynomial arithmetic over S and normal_form; no memo involved."""
    nfs = {k: ring.nf(e ** q) for k, e in _entries(ring, cols).items()}
    return {k: e for k, e in nfs.items() if not e.is_zero()}


def test_bracket_is_the_entrywise_power(corpus):
    # every entry of [d] is the normal form of the q-th power of d's entry
    for mf in corpus.values():
        ring = mf.ring
        res = minimal_free_resolution(residue_field(ring), 3)
        for d in res.differentials:
            for n in (1, 2):
                q = ring.p ** n
                assert _entries(ring, _bracket(ring, d, q)) == \
                    _bracket_reference(ring, d, q)


RING_A, RING_C = load_model("a.json").ring, load_model("c.json").ring


@pytest.mark.parametrize("ring", [RING_C, RING_D, RING_A],
                         ids=["C", "D", "A"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_bracket_of_generated_columns(ring, data):
    # C (weights 3,4,5), D (2,3) and the ideal-free A; the ring's memo
    # persists from example to example, so later ones read it
    r, t = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    shifts = [data.draw(st.integers(0, 3)) for _ in range(r)]
    degrees = [data.draw(st.integers(1, 8)) for _ in range(t)]
    d = _columns(ring, data.draw(graded_rows(ring, shifts, degrees)))
    for q in (ring.p, ring.p ** 2):
        want = _bracket_reference(ring, d, q)
        first = _bracket(ring, d, q)
        assert _entries(ring, first) == want
        assert _bracket(ring, d, q) == first
        # a caller may change what it was given: no memo value is shared
        for col in first:
            col.clear()
            col[0] = 1
        assert _entries(ring, _bracket(ring, d, q)) == want


@pytest.mark.parametrize("ring", [RING_C, RING_D, RING_A],
                         ids=["C", "D", "A"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_trusted_columns_are_normal_forms(ring, data):
    # the constructor keeps trusted columns as given, so minimalize's
    # rewrite, the Frobenius bracket, the pushforward relations and its
    # blocks must hand it columns that _nf leaves unchanged
    _, D = data.draw(disguised_pair(ring))
    Dm = minimalize(D)
    n = data.draw(st.integers(1, 2))
    budget = Budget()
    pf = pushforward_presentation(ring, n)
    mods = [Dm, frobenius_module(Dm, n), pf.presentation]
    mods += [blk for blk, _ in pf.blocks()]
    for N in mods:
        assert [_nf(ring, col, budget) for col in N.columns] == \
            list(N.columns)


def test_bracket_past_the_degree_ceiling_raises():
    # q * wdeg(x^4096) = 8 * 4096 passes the ceiling 32767; 8 * 4095 not
    R = RingModel(2, ["x", "y"])
    ok = [packed(R.ctx, {(1, (4095, 0)): 1})]
    assert _entries(R, _bracket(R, ok, 8)) == \
        {(1, 0): R.variable(0) ** (8 * 4095)}
    bad = [packed(R.ctx, {(0, (4096, 0)): 1})]
    for _ in range(2):   # a raise stores nothing, so a second call raises
        with pytest.raises(BudgetExceededError, match="packed_degree"):
            _bracket(R, bad, 8)


def test_frobenius_complex_polls_cancel_on_an_empty_memo():
    # the resolution caches C's ideal basis, so only the bracket's
    # reductions of monomial powers it has not seen reach cancel_check
    ring = load_model("c.json").ring
    res = minimal_free_resolution(residue_field(ring), 2)
    assert ("bracket_nf", 5) not in ring._cache

    class Cancelled(Exception):
        pass

    def cancel():
        raise Cancelled()

    with pytest.raises(Cancelled):
        frobenius_complex(res, 1, Budget(cancel_check=cancel))


def test_frobenius_twist_of_corpus_resolutions_is_a_complex(corpus):
    for mf in corpus.values():
        for M in mf.modules.values():
            res = minimal_free_resolution(M, 4)
            for n in (1, 2, 3):
                assert _is_complex(frobenius_complex(res, n))


@pytest.mark.parametrize("ring", [WEIGHTED, RING_D], ids=["regular", "D"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_frobenius_twist_of_generated_resolutions_is_a_complex(ring, data):
    r, t = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    shifts = [data.draw(st.integers(0, 2)) for _ in range(r)]
    degrees = [data.draw(st.integers(2, 8)) for _ in range(t)]
    M = PresentedModule.from_rows(
        ring, data.draw(graded_rows(ring, shifts, degrees)))
    res = minimal_free_resolution(M, 3)
    for n in (1, 2, 3):
        assert _is_complex(frobenius_complex(res, n))


def test_window_twist_matches_the_full_twist(corpus, budget):
    # homology at i twists only the steps i-1, i, i+1 of the resolution;
    # it agrees with the twist of the whole resolution, whose differentials
    # come out in normal form, at every step, the ends included
    for mf in corpus.values():
        ring = mf.ring
        for M in mf.modules.values():
            res = minimal_free_resolution(M, 3)
            for n in (1, 2, 3):
                full = frobenius_complex(res, n)
                for d in full.differentials:
                    assert list(d) == [_nf(ring, col, budget) for col in d]
                for i in range(res.length + 1):
                    got = _twisted_homology(res, n, i, budget)
                    want = full.homology_at(i, budget)
                    assert got.is_zero() == want.is_zero()
                    assert module_length(got) == module_length(want)


def test_frobenius_complex_regular_ring_exact(model_a):
    res = minimal_free_resolution(residue_field(model_a.ring), 3)
    fc = frobenius_complex(res, 1)
    for i in range(1, fc.length + 1):
        assert fc.homology_at(i).is_zero()


def test_frobenius_complex_singular_ring_not_exact(model_e):
    res = minimal_free_resolution(residue_field(model_e.ring), 2)
    fc = frobenius_complex(res, 1)
    assert not fc.homology_at(1).is_zero()


# ---------------------------------------------------------------------------
# pushforward

def test_pushforward_univariate_free():
    R = __import__("frobcheck").RingModel(2, ["x"], is_domain=True,
                                          expected_CM=True)
    pf = pushforward_presentation(R, 1)
    assert pf.presentation.ambient_rank == 2
    assert pf.presentation.num_relations == 0
    assert pf.residues == ((0,), (1,))


def test_pushforward_node_relations(model_e):
    E = model_e.ring
    pf = pushforward_presentation(E, 1)
    # x*y is the only lead, so (1,1) is not a standard residue; in order
    # (0,0)=0, (0,1)=1, (1,0)=2. x*y*e_0 vanishes in R and is dropped.
    assert pf.residues == ((0, 0), (0, 1), (1, 0))
    assert pf.presentation.ambient_rank == 3
    rels = {tuple(sorted((i, str(e)) for i, e in enumerate(col)
                         if not e.is_zero()))
            for col in zip(*pf.presentation.rows())}
    assert rels == {((1, "x"),), ((2, "y"),)}


def test_pushforward_generator_count_is_standard_residues(corpus):
    # the residues of the box [0,q)^v that no lead of GB(I) divides
    for mf in corpus.values():
        R = mf.ring
        leads = R.ideal_groebner().leads_by_position()[0]
        for n in (1, 2):
            q = R.p ** n
            box = [a for a in product(range(q), repeat=len(R.variables))
                   if not any(all(map(le, m, a)) for m in leads)]
            pf = pushforward_presentation(R, n)
            assert pf.residues == tuple(box)
            assert pf.presentation.ambient_rank == len(box)
    assert len(pushforward_presentation(corpus["B"].ring, 1).residues) == 18


def test_pushforward_budget(model_c):
    # no generator limit: C at n = 2 needs 125 residues of 5^6; the walk
    # polls the cancel check once per residue, and the relation loop once
    # more per residue. Each call runs on a freshly loaded C, since the
    # result is memoized on the ring, with its ideal basis computed first,
    # so that the pushforward's own polls are the only ones
    pf = pushforward_presentation(model_c.ring, 2)
    assert pf.presentation.ambient_rank == 125

    class Cancelled(Exception):
        pass

    for fire_at in (1, len(pf.residues) + 1):
        calls = []

        def cancel():
            calls.append(1)
            if len(calls) == fire_at:
                raise Cancelled()

        ring = load_model("c.json").ring
        ring.ideal_groebner()
        with pytest.raises(Cancelled):
            pushforward_presentation(ring, 2, Budget(cancel_check=cancel))


def test_pushforward_is_mcm_over_cm_rings(model_c, model_d, budget):
    # f^n R is a maximal Cohen-Macaulay module whenever R is CM
    from frobcheck import is_mcm
    for mf in (model_d, model_c):
        pf = pushforward_presentation(mf.ring, 1, budget)
        assert is_mcm(minimalize(pf.presentation, budget), budget)


def test_pushforward_free_over_regular(model_a):
    # flatness of Frobenius over a regular ring: f^n A is free of rank q^v
    for n in (1, 2):
        pf = pushforward_presentation(model_a.ring, n)
        pm = minimalize(pf.presentation)
        assert pm.num_relations == 0
        assert pm.ambient_rank == (2 ** n) ** 2


@pytest.mark.parametrize("key,n", [("A", 1), ("A", 2), ("B", 1), ("B", 2),
                                   ("C", 1), ("C", 2), ("D", 1), ("D", 2)])
def test_pushforward_rank_through_the_blocks(corpus, key, n):
    # Kunz: over a domain R of dimension d, f^n R has rank q^d, and rank
    # is additive over the blocks
    ring = corpus[key].ring
    blocks = pushforward_presentation(ring, n).blocks()
    assert sum(k * rank_of_module(P) for P, k in blocks) == \
        ring.p ** (n * ring.dim())


def test_pushforward_minimal_generators(model_c, budget):
    # mu(f^1 R) = len(R/m^[q])
    C = model_c.ring
    pf = pushforward_presentation(C, 1, budget)
    q = 5
    gb = buchberger(list(C.ideal_gens)
                    + [C.variable(i) ** q for i in range(3)], C)
    assert minimalize(pf.presentation, budget).ambient_rank == \
        colength(gb) == len(box_standard_monomials(gb)) == 15


def test_pushforward_mu_is_hilbert_kunz_count(corpus):
    # mu(f^n R) = sum of count * mu(P) over the distinct blocks P equals
    # len(R/m^[q] R) (Monsky, Math. Ann. 263, 1983), read off the leads of
    # GB(I + m^[q]) with no pushforward code
    for mf in corpus.values():
        R = mf.ring
        v = len(R.variables)
        for n in (1, 2):
            q = R.p ** n
            gb = buchberger(list(R.ideal_gens)
                            + [R.variable(i) ** q for i in range(v)], R)
            blocks = pushforward_presentation(R, n).blocks()
            assert sum(c * blk.ambient_rank for blk, c in blocks) == \
                colength(gb)


def _box_pushforward(R, n):
    """Reference presentation of f^n R on all q^v residues a: for each
    ideal generator g, the terms x^e of g x^a give the relation
    sum c x^(e div q) e_(e mod q)."""
    q = R.p ** n
    residues = list(product(range(q), repeat=len(R.variables)))
    index = {a: k for k, a in enumerate(residues)}
    cols = [R.ctx.pack((index[tuple((x + y) % q for x, y in zip(m, a))],
                        tuple((x + y) // q for x, y in zip(m, a)), c)
                       for m, c in g.terms.items())
            for g in R.ideal_gens for a in residues]
    return minimalize(PresentedModule(R, len(residues), cols))


def test_pushforward_matches_box_reference(corpus):
    # equal mu and equal Tor lengths against the q^v presentation at n = 1
    for mf in corpus.values():
        R = mf.ring
        k = residue_field(R)
        ref = _box_pushforward(R, 1)
        pf = minimalize(pushforward_presentation(R, 1).presentation)
        assert pf.ambient_rank == ref.ambient_rank
        for i in (1, 2):
            assert module_length(tor(k, pf, i)) == module_length(tor(k, ref, i))


def _scratch_pushforward_columns(R, n, residues):
    """Reference relations of f^n R on ``residues``, with NF(x^(qd+a))
    reduced from x^(qd+a) itself and x^d always reduced; no memo involved.
    Returns the nonzero columns and the d of every relation."""
    q, p, ctx = R.p ** n, R.p, R.ctx
    gb = R.ideal_groebner().index
    leads = gb.lead_monos()
    index = {a: k for k, a in enumerate(residues)}
    cols, ds = [], []
    for k, a in enumerate(residues):
        for d in _minimal_monomials(tuple(max(-((a_i - m_i) // q), 0)
                                          for m_i, a_i in zip(m, a))
                                    for m in leads):
            e = tuple(q * d_i + a_i for d_i, a_i in zip(d, a))
            col = ctx.pack((index[tuple(x % q for x in m)],
                            tuple(x // q for x in m), p - c)
                           for _, m, c in ctx.unpack(reduce_full(
                               {ctx.mono_key(e): 1}, gb, ctx)))
            vec_axpy(col, 1, -(k << ctx.pb),
                     reduce_full({ctx.mono_key(d): 1}, gb, ctx), p)
            ds.append(d)
            if col:
                cols.append(col)
    return cols, ds


@pytest.mark.parametrize("name, n", [(r, n) for r in "BCDE" for n in (1, 2)]
                         + [("C", 3), ("D", 3)])
def test_pushforward_relations_from_the_bracket_memo(name, n):
    # NF(x^(qd+a)) is x^a times the memo's NF(x^(qd)), reduced: the same
    # columns as reducing x^(qd+a) from scratch, since normal forms are
    # unique; a fresh ring, so the memo holds what the relations put there
    R = load_model(f"{name.lower()}.json").ring
    q, ctx = R.p ** n, R.ctx
    pf = pushforward_presentation(R, n)
    cols, ds = _scratch_pushforward_columns(R, n, pf.residues)
    assert list(pf.presentation.columns) == cols
    memo = R._cache[("bracket_nf", q)]
    gb = R.ideal_groebner().index
    for d in ds:
        assert memo[ctx.mono_key(d)] == reduce_full(
            {ctx.mono_key(tuple(q * x for x in d)): 1}, gb, ctx)


def _residue_class(R, a, q):
    return sum(w * e for w, e in zip(R.weights, a)) % q


@pytest.mark.parametrize("name", "BCDE")
def test_pushforward_relations_lie_in_one_residue_class(name, corpus):
    # the (1/q)Z-grading: e_a has degree wdeg(a)/q, so every relation's
    # generators share wdeg(a) mod q
    R = corpus[name].ring
    for n in (1, 2):
        q = R.p ** n
        pf = pushforward_presentation(R, n)
        for col in pf.presentation.columns:
            assert len({_residue_class(R, pf.residues[i], q)
                        for i, _, _ in R.ctx.unpack(col)}) == 1


# (n, counts of the distinct blocks): C's 5 and 25 blocks are one module
BLOCK_COUNTS = {
    "B": [(1, [1, 1, 1]), (2, [1] * 9)],
    "C": [(1, [5]), (2, [25])],
    "D": [(1, [4, 1]), (2, [9, 16])],
    "E": [(1, [1, 1]), (2, [1, 3])],
}


@pytest.mark.parametrize("name", "BCDE")
def test_pushforward_blocks_sum_to_the_unsplit_tor(name, corpus):
    # sum of count * len Tor_i(k, P) against Tor_i(k, f^n R) on the unsplit
    # minimal presentation, a test-local reference; the counts add up to
    # the number of residue classes that occur
    R = corpus[name].ring
    k = residue_field(R)
    for n, counts in BLOCK_COUNTS[name]:
        pf = pushforward_presentation(R, n)
        blocks = pf.blocks()
        assert pf.blocks() is blocks
        assert [c for _, c in blocks] == counts
        assert sum(counts) == len({_residue_class(R, a, R.p ** n)
                                   for a in pf.residues})
        ref = minimalize(pf.presentation)
        for i in (1, 2, 3):
            want = module_length(tor(k, ref, i))
            assert sum(c * module_length(tor(k, blk, i))
                       for blk, c in blocks) == want
            parts = pushforward_tor(k, n, i)
            # one pair per count, in the order the counts first occur
            assert [c for _, c in parts] == list(dict.fromkeys(counts))
            assert sum(c * module_length(h) for h, c in parts) == want
            assert all(h.is_zero() for h, _ in parts) == \
                tor(k, ref, i).is_zero()


def test_pushforward_route_returns_the_sum_of_block_tors(model_d):
    # D's blocks occur 4 times and once; each block Tor's relation columns
    # present a module of its length
    D = model_d.ring
    parts = pushforward_tor(residue_field(D), 1, 2)
    assert [c for _, c in parts] == [4, 1]
    assert sum(c * module_length(h) for h, c in parts) == 10
    for h, _ in parts:
        assert module_length(PresentedModule(D, h.ambient_rank, h.columns)) \
            == module_length(h)


def test_pushforward_length_counts_each_distinct_position_once(
        model_c, monkeypatch):
    # Tor_3(k, f^2_*R) over C is 25 copies of the Tor of one block P, a
    # homology of F_3 (x) P; its length reads 24 positions whose pairs of
    # bounds and cycles leads repeat, and counts each distinct pair once
    from frobcheck import module_engine
    k = residue_field(model_c.ring)
    [(h, copies)] = pushforward_tor(k, 2, 3)
    cycles, bounds = h._cache["subquotient"]
    pairs = [(b, z) for b, z in zip(bounds.leads_by_position(),
                                    cycles.leads_by_position()) if b != z]
    calls = []
    count = module_engine.standard_monomials
    monkeypatch.setattr(module_engine, "standard_monomials",
                        lambda *a: calls.append(a) or count(*a))
    assert copies == 25 and module_length(h) == 24
    assert len(pairs) == 24
    assert len(calls) == len(set(pairs)) < 5
    assert module_length(tor_frobenius(k, 2, 3, "both")) == 600


def test_pushforward_blocks_reject_a_relation_across_classes(model_e):
    # e_0 and e_1 have classes 0 and 1 mod 2; a relation joining them is
    # not block-diagonal and is reported, not assumed away
    E = model_e.ring
    pf = pushforward_presentation(E, 1)
    bad = PresentedModule(E, 3, list(pf.presentation.columns) + [
        packed(E.ctx, {(0, (1, 0)): 1, (1, (1, 0)): 1})])
    with pytest.raises(InternalConsistencyError, match="residue classes"):
        PushforwardModule(bad, pf.residues, 1).blocks()


def test_tor_both_routes_on_c_at_n3_default_budget(capsys):
    # 125 blocks of one module: one Tor computation at the defaults
    code = run(["tor", model_path("c.json"), "-m", "k", "-n", "3", "-i", "3",
                "--method", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cross_oracle: agree" in out
    assert out.count("length: 3000") == 2


@pytest.mark.parametrize("name", ["b", "d", "e"])
def test_tor_both_routes_at_n2_default_budget(name, capsys):
    # once past the q^v generator limit, now at the defaults
    code = run(["tor", model_path(f"{name}.json"), "-m", "k", "-n", "2",
                "-i", "3", "--method", "both"])
    assert code == 0
    assert "cross_oracle: agree" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Tor against the Frobenius

def test_tor_frobenius_free_vanishes(model_b):
    free = PresentedModule.free(model_b.ring, 2)
    for i in (1, 2):
        assert tor_frobenius(free, 1, i, "functor").is_zero()
        assert all(h.is_zero() for h, _ in pushforward_tor(free, 1, i))


def test_tor_frobenius_regular_both_methods(model_a):
    k = residue_field(model_a.ring)
    for i in (1, 2, 3):
        for n in (1, 2):
            assert tor_frobenius(k, n, i, "both").is_zero()


def test_tor_frobenius_node_nonzero_agreement(model_e):
    k = residue_field(model_e.ring)
    h = tor_frobenius(k, 1, 1, "both")
    assert not h.is_zero() and module_length(h) == 2


def test_tor_frobenius_bad_method(model_a):
    # the pushforward route alone is pushforward_tor, not a method
    for method in ("magic", "pushforward"):
        with pytest.raises(ArgumentError):
            tor_frobenius(residue_field(model_a.ring), 1, 1, method)


# ---------------------------------------------------------------------------
# kappa

def test_kappa_regular_ring_is_zero(model_a):
    A = model_a.ring
    assert kappa_for_sop(A, [P(A, "x"), P(A, "y")]) == 0


def test_kappa_hypersurface(model_b):
    B = model_b.ring
    assert kappa_for_sop(B, [P(B, "y"), P(B, "z")]) == 1


def test_kappa_cusp_char2():
    # y^2 = x^3 in (x), y not in (x)
    from frobcheck import RingModel
    R0 = RingModel(2, ["x", "y"], weights=(2, 3))
    D2 = RingModel(2, ["x", "y"], weights=(2, 3),
                   ideal_gens=[P(R0, "y^2-x^3")], is_domain=True,
                   expected_CM=True)
    assert kappa_for_sop(D2, [D2.variable(0)]) == 1


def test_kappa_rejects_non_sop(model_b):
    B = model_b.ring
    with pytest.raises(PreconditionError):
        kappa_for_sop(B, [P(B, "y")])


@pytest.mark.parametrize("p, power, kappa", [
    # 5^6 = 15625 < 20000 < 5^7; the scan stops without packing x^(5^7)
    (5, 20000, 7),
    # 2^8 = 256 < 300 < 2^9
    (2, 300, 9),
])
def test_kappa_high_degree_sop(p, power, kappa):
    R = RingModel(p, ["x"])
    assert kappa_for_sop(R, [R.variable(0) ** power]) == kappa


def test_kappa_scan_polls_cancel_per_step(monkeypatch):
    # x^300 over F_2[x]: the scan tests t = 0, ..., 9. The s.o.p. basis is
    # computed without the counting budget, so every poll is the scan's.
    from frobcheck import frobenius, invariants
    monkeypatch.setattr(frobenius, "sop_basis",
                        lambda x, ring, budget: invariants.sop_basis(x, ring))
    polls = []
    R = RingModel(2, ["x"])
    budget = Budget(cancel_check=lambda: polls.append(1))
    assert kappa_for_sop(R, [R.variable(0) ** 300], budget) == 9
    assert len(polls) >= 10


@pytest.mark.parametrize("power, kappa", [
    # S/J vanishes past degree 2 * (power - 1); x^(2^15) = x^32768 is past
    # the packed ceiling but a multiple of the basis element x^20000
    (20000, 15),
    # 2^13 = 8192 < 16000 <= 2^14
    (16000, 14),
])
def test_kappa_monomial_sop_past_packed_ceiling(power, kappa):
    R = RingModel(2, ["x", "y"])
    x = [R.variable(0) ** power, R.variable(1) ** power]
    assert kappa_for_sop(R, x) == kappa


@pytest.mark.parametrize("text", ["x-1", "x+x^2"])
def test_kappa_rejects_unit_and_inhomogeneous(text):
    R = RingModel(3, ["x"])
    with pytest.raises(PreconditionError):
        kappa_for_sop(R, [P(R, text)])


def _reference_kappa(ring, x):
    """The scan without a degree bound: test every variable's p^t-th power
    for t = 0, 1, ... until all lie in I + (x) or the powers would pass the
    packed ceiling."""
    gb = buchberger(list(ring.ideal_gens) + list(x), ring)
    t = 0
    while ring.p ** t * max(ring.weights) < DEGREE_LIMIT:
        q = ring.p ** t
        if all(normal_form(ring.variable(i).frobenius_power(q), gb).is_zero()
               for i in range(len(ring.variables))):
            return t
        t += 1
    raise AssertionError("reference scan reached the packed ceiling")


_KAPPA_RINGS = [load_model(f"{k}.json").ring for k in "abcde"] + [
    RingModel(2, ["x", "y"], weights=(1, 2)),
    RingModel(3, ["x", "y", "z"], weights=(1, 1, 2)),
    RingModel(5, ["x"], weights=(2,)),
]


@st.composite
def _graded_elements(draw, ring, var):
    """A quasi-homogeneous element of positive degree: a power of variable
    ``var`` plus up to four monomials of its weighted degree, nonzero
    coefficients (a repeated monomial keeps its last one)."""
    lead = [0] * len(ring.variables)
    lead[var] = draw(st.integers(1, 4))
    deg = lead[var] * ring.weights[var]
    others = draw(st.lists(st.sampled_from(monomials_of_degree(ring, deg)),
                           max_size=4))
    return Polynomial.from_terms(ring, {
        m: draw(st.integers(1, ring.p - 1)) for m in [tuple(lead)] + others})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_kappa_matches_unbounded_scan(data):
    # element k leads with a power of variable start + k, so most draws are
    # an s.o.p.; the rest must be refused
    ring = data.draw(st.sampled_from(_KAPPA_RINGS))
    v = len(ring.variables)
    start = data.draw(st.integers(0, v - 1))
    x = [data.draw(_graded_elements(ring, (start + k) % v))
         for k in range(ring.dim())]
    if is_sop(x, ring):
        assert kappa_for_sop(ring, x) == _reference_kappa(ring, x)
    else:
        with pytest.raises(PreconditionError):
            kappa_for_sop(ring, x)


def test_kappa_upper_bound_minimum(model_b):
    B = model_b.ring
    cands = {"yz": [P(B, "y"), P(B, "z")], "sum": [P(B, "y+z"), P(B, "x")]}
    per = {name: kappa_for_sop(B, x) for name, x in cands.items()}
    assert kappa_upper_bound(B, cands) == (min(per.values()), per)
    assert min(per.values()) == 1
    # a candidate that is not a system of parameters is skipped
    assert kappa_upper_bound(B, {"yy": [P(B, "y"), P(B, "y")], **cands}) \
        == (1, per)
    for none_left in ({"yy": [P(B, "y"), P(B, "y")], "y": [P(B, "y")]}, {}):
        with pytest.raises(PreconditionError,
                           match="no valid s.o.p. candidate"):
            kappa_upper_bound(B, none_left)


def test_kappa_certificates_reverify(model_b, model_d):
    # every reported t re-verified by explicit membership of var^{p^t}
    for mf, sop_name in ((model_b, "yz"), (model_d, "x")):
        ring = mf.ring
        x = mf.sop(sop_name)
        t = kappa_for_sop(ring, x)
        gb = buchberger(list(ring.ideal_gens) + list(x), ring)
        q = ring.p ** t
        for i in range(len(ring.variables)):
            assert normal_form(ring.variable(i) ** q, gb).is_zero()
        if t > 0:
            qprev = ring.p ** (t - 1)
            assert any(
                not normal_form(ring.variable(i) ** qprev, gb).is_zero()
                for i in range(len(ring.variables)))
