"""Module layer: module bases, kernels, resolutions, Koszul homology,
lengths, Tor, Ext, minimal generators."""

from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_model, model_path, monomials_of_degree, packed
from frobcheck import (ArgumentError, INFINITE, InternalConsistencyError,
                       Polynomial, PresentedModule, RingModel, ext,
                       koszul_complex, min_generators,
                       minimal_free_resolution, minimalize, module_groebner,
                       module_length, residue_field, ring_as_module, tor)
from frobcheck import _engine, module_engine
from frobcheck._engine import reduce_full, vec_axpy, vec_scale
from frobcheck.algebra_kernel import GroebnerBasis
from frobcheck.budget import Budget
from frobcheck.cli import parse_polynomial, run
from frobcheck.criteria import pd_is_finite
from frobcheck.frobenius import pushforward_presentation
from frobcheck.invariants import (depth_of_module, depth_of_ring,
                                  euler_characteristic, quotient_by_sequence)
from frobcheck.module_engine import matmul
from test_engine import P as ENGINE_P, graded_module_gens


def P(ring, s):
    return parse_polynomial(ring, s)


@pytest.fixture(scope="module")
def A():
    return RingModel(2, ["x", "y"], is_domain=True, expected_CM=True)


@pytest.fixture(scope="module")
def node():
    R0 = RingModel(2, ["x", "y"])
    return RingModel(2, ["x", "y"], ideal_gens=[P(R0, "x*y")],
                     expected_CM=True, generically_gorenstein=True)


@pytest.fixture(scope="module")
def B():
    R0 = RingModel(3, ["x", "y", "z"])
    return RingModel(3, ["x", "y", "z"], ideal_gens=[P(R0, "x^2+y*z")],
                     is_domain=True, expected_CM=True)


def column(ring, vec):
    """The packed column of a Polynomial vector; a column passes as is."""
    if isinstance(vec, dict):
        return vec
    return packed(ring.ctx, {(i, m): c for i, e in enumerate(vec)
                             for m, c in e.terms.items()})


def in_span(gb, vec):
    return not reduce_full(dict(column(gb.ring, vec)), gb.index, gb.ring.ctx)


def vecs_equal_span(ring, rank, gens_a, gens_b):
    gb_a = module_groebner(gens_a, rank, ring)
    gb_b = module_groebner(gens_b, rank, ring)
    return all(in_span(gb_a, col) for col in gens_b) and \
        all(in_span(gb_b, col) for col in gens_a)


def kernel(ring, vecs, rank):
    """Kernel columns of the map R^len(vecs) -> R^rank; the target R^rank
    is given by its relation basis, the ideal padding."""
    free = GroebnerBasis(ring, rank,
                         module_engine._ideal_padding(ring, rank, Budget()))
    return module_engine._kernel_columns(
        ring, [column(ring, v) for v in vecs], [], free, Budget())[0]


# ---------------------------------------------------------------------------
# module Groebner bases

def test_module_groebner_distinct_positions(A):
    x, y = P(A, "x"), P(A, "y")
    gb = module_groebner([[x, A.zero()], [A.zero(), y]], 2, A)
    vs = gb.vectors()
    assert len(vs) == 2
    assert {tuple(str(e) for e in v) for v in vs} == {("x", "0"), ("0", "y")}


def test_module_groebner_identity_columns(A):
    one = A.one()
    gb = module_groebner([[one, A.zero()], [A.zero(), one]], 2, A)
    # any vector reduces to zero: full module
    assert in_span(gb, [P(A, "x^2"), P(A, "y")])


def test_module_groebner_lifts_ideal(node):
    x, y = P(node, "x"), P(node, "y")
    gb = module_groebner([[x, y]], 2, node)
    # padding adds xy*e_0 and xy*e_1 behind the scenes; the reduced basis
    # must contain an element at each position coming from the ideal
    assert all(gb.leads_by_position())
    assert len(gb) >= 3


def test_module_groebner_basis_is_reduced(node, B):
    from frobcheck._engine import mono_divides
    for ring, gens in ((node, [[P(node, "x"), P(node, "y")]]),
                       (B, [[P(B, "x"), P(B, "z")],
                            [P(B, "y"), P(B, "-x")]])):
        gb = module_groebner(gens, 2, ring)
        unpack = ring.ctx.unpack
        leads = [next(unpack({lead: 1}))[:2] for lead in gb.index.leads]
        for k, vec in enumerate(gb.index.elems):
            assert vec[gb.index.leads[k]] == 1   # monic
            for pos, m, _ in unpack(vec):
                for j, (pj, mj) in enumerate(leads):
                    if j != k and pj == pos:
                        assert not mono_divides(mj, m)


# ---------------------------------------------------------------------------
# kernels

def test_syzygy_koszul_relation(A):
    x, y = P(A, "x"), P(A, "y")
    syz = kernel(A, [[x], [y]], 1)
    # kernel generated by (y, x) and free on it
    assert vecs_equal_span(A, 2, syz, [[y, x]])
    assert syz and kernel(A, syz, 2) == []


def test_syzygy_identity_columns_zero_module(A):
    one = A.one()
    assert kernel(A, [[one, A.zero()], [A.zero(), one]], 2) == []


def test_syzygy_over_node_contains_split_relations(node):
    x, y = P(node, "x"), P(node, "y")
    gb = module_groebner(kernel(node, [[x], [y]], 1), 2, node)
    for col in ([y, node.zero()], [node.zero(), x]):
        assert in_span(gb, col)


def test_entry_points_reject_ungraded_matrices(A):
    # x + y^2 is not quasi-homogeneous; in [[x, y], [x, y^2]] every entry
    # is, but no degree shifts fit both columns
    inhom = [[P(A, "x+y^2")]]
    noshift = [[P(A, "x"), P(A, "y")], [P(A, "x"), P(A, "y^2")]]
    for rows in (inhom, noshift):
        cols = [[row[j] for row in rows] for j in range(len(rows[0]))]
        with pytest.raises(ArgumentError, match="graded structure"):
            PresentedModule.from_rows(A, rows)
        with pytest.raises(ArgumentError, match="graded structure"):
            module_groebner(cols, len(rows), A)
        with pytest.raises(ArgumentError, match="graded structure"):
            kernel(A, cols, len(rows))
        # columns given to the constructor are caught at the first kernel
        M = PresentedModule(A, len(rows), [column(A, c) for c in cols])
        with pytest.raises(ArgumentError, match="graded structure"):
            minimal_free_resolution(M, 2)
    K = koszul_complex([P(A, "x+y^2")], ring_as_module(A))
    with pytest.raises(ArgumentError, match="graded structure"):
        K.homology_at(1)


def test_homology_rejects_ungraded_coefficients(B):
    # homology reads N only through its relation basis, whose computation
    # checks N's columns; x + y^2 admits no degree shifts
    N = PresentedModule(B, 1, [column(B, [P(B, "x+y^2")])])
    k = residue_field(B)
    with pytest.raises(ArgumentError, match="graded structure"):
        tor(k, N, 1)
    with pytest.raises(ArgumentError, match="graded structure"):
        ext(k, N, 1)


def test_flat_columns_outside_ambient_rank_rejected(A):
    e1 = packed(A.ctx, {(1, A.ctx.zero_mono): 1})
    with pytest.raises(ArgumentError, match="outside ambient rank"):
        module_groebner([e1], 1, A)
    with pytest.raises(ArgumentError, match="outside ambient rank"):
        PresentedModule(A, 1, [e1])


# ---------------------------------------------------------------------------
# resolutions

def test_resolution_of_k_is_koszul(A):
    res = minimal_free_resolution(residue_field(A), 4)
    assert res.ranks == (1, 2, 1)
    # minimality: every entry in m
    for i in range(1, res.length + 1):
        d = PresentedModule(A, res.rank(i - 1), res.differential(i))
        for row in d.rows():
            for e in row:
                assert e.in_maximal_ideal()


def test_resolution_over_node_two_periodic(node):
    res = minimal_free_resolution(residue_field(node), 5)
    assert res.ranks == (1, 2, 2, 2, 2, 2)


def test_resolution_of_free_has_length_zero(A):
    res = minimal_free_resolution(PresentedModule.free(A, 1), 3)
    assert res.ranks == (1,)


def test_resolution_cache_extension_invisible(node):
    # resolving short and then long must equal resolving long directly
    x, y = P(node, "x"), P(node, "y")

    def fresh():
        return PresentedModule.from_rows(node, [[x, y]])

    staged = fresh()
    minimal_free_resolution(staged, 2)
    long_staged = minimal_free_resolution(staged, 5)
    long_fresh = minimal_free_resolution(fresh(), 5)
    assert long_staged.ranks == long_fresh.ranks
    for i in range(1, 6):
        assert long_staged.differential(i) == long_fresh.differential(i)


def test_resolution_resumes_from_cached_kernel(monkeypatch):
    # a longer request continues a cached resolution: the truncated last
    # kernel of the short one is redone up to its generators, then only the
    # new kernels are computed, and the differentials equal a fresh
    # resolution's
    ring = load_model("c.json").ring
    kernels = []
    orig = module_engine._kernel_columns

    def counting(*args, **kwargs):
        kernels.append(kwargs.get("part", "basis"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(module_engine, "_kernel_columns", counting)
    staged = residue_field(ring)
    minimal_free_resolution(staged, 3)
    steps = ["generators", "generators", "units"]
    assert kernels == steps
    minimal_free_resolution(staged, 2)
    assert len(kernels) == 3
    long_staged = minimal_free_resolution(staged, 5)
    assert kernels == steps + steps
    long_fresh = minimal_free_resolution(residue_field(ring), 5)
    assert long_staged.ranks == long_fresh.ranks
    for i in range(1, 6):
        assert long_staged.differential(i) == long_fresh.differential(i)


def test_resolution_checks_each_product_once(model_e, monkeypatch):
    # resuming 2 -> 3 -> 4 -> 5 multiplies d_1 d_2 first, then only the
    # one product with the new differential at each step
    products = []
    orig = module_engine.matmul

    def counting(*args, **kwargs):
        products.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module_engine, "matmul", counting)
    k = residue_field(model_e.ring)
    for L in range(2, 6):
        minimal_free_resolution(k, L)
    assert minimal_free_resolution(k, 5).length == 5
    assert len(products) == 4


def test_resolution_resume_checks_new_differentials(monkeypatch):
    # a kernel that is wrong on resuming makes the next differential
    # wrong, and its product with the cached one is still checked
    ring = load_model("c.json").ring
    k = residue_field(ring)
    minimal_free_resolution(k, 2)
    orig = module_engine._kernel_columns

    def corrupting(*args, **kwargs):
        cols, gb = orig(*args, **kwargs)
        for col in cols:
            t = next(iter(col))
            col[t] = col[t] * 2 % ring.p
        return cols, gb

    monkeypatch.setattr(module_engine, "_kernel_columns", corrupting)
    with pytest.raises(InternalConsistencyError,
                       match=r"d_2 \. d_3 is nonzero"):
        minimal_free_resolution(k, 4)


class Cancelled(Exception):
    pass


def test_cancel_polled_in_module_normal_forms(model_c):
    # with the ideal basis already cached, products and the constructor
    # reduce without a Groebner call; their normal forms poll cancel_check
    ring = model_c.ring
    res = minimal_free_resolution(residue_field(ring), 2)

    def cancel():
        raise Cancelled()

    budget = Budget(cancel_check=cancel)
    with pytest.raises(Cancelled):
        matmul(ring, res.differential(1), res.differential(2), budget)
    with pytest.raises(Cancelled):
        PresentedModule(ring, res.rank(0), res.differential(1), budget)


def _assert_last_step_exact(M, top):
    """For L = 1..top, a fresh resolution of M to L equals the first L
    steps of a fresh one to L + 1: ranks and differentials. The last kernel
    of the shorter one stops at the top degree of its generators, the
    longer one computes the same kernel in full."""
    res = [minimal_free_resolution(PresentedModule(
        M.ring, M.ambient_rank, M.columns), L) for L in range(1, top + 2)]
    for L, (short, longer) in enumerate(zip(res, res[1:]), start=1):
        assert longer.ranks[:L + 1] == short.ranks
        assert longer.differentials[:L] == short.differentials


def test_truncated_last_kernel_matches_longer_resolution(corpus):
    for mf in corpus.values():
        for M in mf.modules.values():
            _assert_last_step_exact(M, 6)
            res = minimal_free_resolution(M, 6)
            for i, d in enumerate(res.differentials, start=1):
                _assert_shifts_grade(M.ring, list(d), res.rank(i - 1))
    # over B, k's second kernel is generated by 4 columns: its full basis
    # has a fifth, redundant vector above the top degree of the pairs that
    # meet the image, which the generators-only run no longer makes (a
    # unit in the truncated last kernel used to cancel it)
    k = residue_field(corpus["B"].ring)
    res = minimal_free_resolution(k, 2)
    _, done, cur = k._cache["resolution"]
    assert (done, len(cur)) == (1, 4)
    assert res.ranks == (1, 3, 4)


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 3)])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncated_last_kernel_on_graded_modules(weights, data):
    ring = RingModel(ENGINE_P, ["x", "y", "z"][:len(weights)],
                     weights=weights)
    gens = data.draw(graded_module_gens(weights))
    M = PresentedModule(ring, 5, [packed(ring.ctx, g) for g in gens])
    _assert_shifts_grade(ring, M.columns, 5)
    _assert_last_step_exact(M, 4)


def _kernel_degree(ctx, degs, vec):
    """Degree of a homogeneous kernel vector: its lead's position takes the
    degree of that lead column."""
    pos, m, _ = next(ctx.unpack({max(vec): 1}))
    return degs[pos] + ctx.wdeg(m)


def _check_generator_kernel(ring, cols, rank, budget):
    """The generators-only kernel of ``cols`` (into R^rank) is the part of
    the full kernel basis up to its own top degree, in order, and generates
    what the full basis spans."""
    ctx = ring.ctx
    free = GroebnerBasis(ring, rank,
                         module_engine._ideal_padding(ring, rank, budget))
    full_cols, full = module_engine._kernel_columns(ring, cols, [], free,
                                                    budget)
    gens_cols, gens = module_engine._kernel_columns(ring, cols, [], free,
                                                    budget, part="generators")
    # only vectors whose lead an ideal lead divides are normal-formed
    for col in full_cols + gens_cols:
        assert col and module_engine._nf(ring, col, budget) == col
    shifts = module_engine._require_graded(ring, cols, rank)
    degs = []
    for col in cols:
        head = next(ctx.unpack(col), None)
        degs.append(0 if head is None else shifts[head[0]] + ctx.wdeg(head[1]))
    top = max((_kernel_degree(ctx, degs, z) for z in gens.index.elems),
              default=None)
    low = [k for k, z in enumerate(full.index.elems)
           if top is not None and _kernel_degree(ctx, degs, z) <= top]
    assert gens.index.elems == [full.index.elems[k] for k in low]
    assert gens.index.leads == [full.index.leads[k] for k in low]
    closure = _engine.buchberger_flat(
        gens.index.elems, ctx, budget,
        module_engine._ideal_padding(ring, len(cols), budget)).index
    for z in full.index.elems:
        assert not reduce_full(dict(z), closure, ctx)


def _full_kernel_resolution(M, length, budget):
    """``minimal_free_resolution`` with every kernel's full reduced basis,
    the last one included."""
    ring, Mmin = M.ring, minimalize(M, budget)
    ranks, diffs, cur = [Mmin.ambient_rank], [], list(Mmin.columns)
    while len(diffs) < length and cur:
        free = GroebnerBasis(ring, ranks[-1], module_engine._ideal_padding(
            ring, ranks[-1], budget))
        syz, _ = module_engine._kernel_columns(ring, cur, [], free, budget)
        syz, kept = module_engine._minimalize_columns(ring, syz, len(cur),
                                                      budget)
        diffs.append([cur[j] for j in kept])
        ranks.append(len(kept))
        cur = syz
    return tuple(ranks), diffs


def _check_against_full_kernels(M, length, budget):
    res = minimal_free_resolution(PresentedModule(
        M.ring, M.ambient_rank, M.columns), length, budget)
    ranks, diffs = _full_kernel_resolution(M, length, budget)
    assert res.ranks == ranks
    assert [list(d) for d in res.differentials] == diffs


def _kernel_test_rings():
    rings = []
    for names, weights, ideal in ((["x", "y", "z"], (1, 1, 1), "x^2+y*z"),
                                  (["x", "y"], (2, 3), "y^2-x^3")):
        plain = RingModel(ENGINE_P, names, weights=weights)
        rings += [plain, RingModel(ENGINE_P, names, weights=weights,
                                   ideal_gens=[P(plain, ideal)])]
    return rings


@pytest.mark.parametrize("ring", _kernel_test_rings(),
                         ids=["111", "111-ideal", "23", "23-ideal"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_generator_kernels_on_graded_modules(ring, data):
    # zero columns included: graded_module_gens inserts one now and then
    gens = data.draw(graded_module_gens(ring.weights))
    cols = [packed(ring.ctx, g) for g in gens]
    budget = Budget()
    _check_generator_kernel(ring, cols, 5, budget)
    _check_against_full_kernels(PresentedModule(ring, 5, cols), 3, budget)


def test_generator_kernels_on_corpus(corpus, budget):
    for mf in corpus.values():
        for M in [*mf.modules.values(), residue_field(mf.ring)]:
            _check_generator_kernel(M.ring, list(M.columns),
                                    M.ambient_rank, budget)
            _check_against_full_kernels(M, 4, budget)


def test_zero_lead_column_in_every_kernel_part(A):
    # a zero lead column j puts e_j in the kernel at degree 0
    x, y = P(A, "x"), P(A, "y")
    cols = [column(A, [x]), {}, column(A, [y])]
    free = GroebnerBasis(A, 1, module_engine._ideal_padding(A, 1, Budget()))
    unit = packed(A.ctx, {(1, (0, 0)): 1})
    koszul = column(A, [y, A.zero(), -x])
    # "units" stops at degree 1, the top degree of the lead columns, so
    # the Koszul vector y e_0 - x e_2 of degree 2 is left out
    for part, more in (("basis", [koszul]), ("generators", [koszul]),
                       ("units", [])):
        out, _ = module_engine._kernel_columns(A, cols, [], free, Budget(),
                                               part=part)
        assert sorted(out, key=max) == sorted([unit] + more, key=max), part


def test_generator_steps_still_cancel_redundant_columns(monkeypatch):
    # M = R/(x, y, xz, z^3): step 1 cancels the relation xz. Its image
    # pairs reach degree 4, so its generators-only kernel also keeps
    # xz e_1 - y e_2, of degree 3, from the pair of the kernel leads y e_0
    # and z e_0. Rewritten through e_2 = z e_0 it is z times another column,
    # so step 2 cancels it.
    ring = RingModel(ENGINE_P, ["x", "y", "z"])
    steps = []
    kernel_columns = module_engine._kernel_columns
    minimalize_columns = module_engine._minimalize_columns

    def kernel(*args, **kwargs):
        steps.append([kwargs.get("part", "basis")])
        return kernel_columns(*args, **kwargs)

    def sweep(ring, cols, nrows, budget):
        out, kept = minimalize_columns(ring, cols, nrows, budget)
        if steps:       # not minimalize's own sweep
            steps[-1].append((nrows, len(kept)))
        return out, kept

    monkeypatch.setattr(module_engine, "_kernel_columns", kernel)
    monkeypatch.setattr(module_engine, "_minimalize_columns", sweep)
    M = PresentedModule.from_rows(ring, [[P(ring, f) for f in
                                          ("x", "y", "x*z", "z^3")]])
    res = minimal_free_resolution(M, 4)
    assert res.ranks == (1, 3, 3, 1)
    assert steps[:2] == [["generators", (4, 3)], ["generators", (4, 3)]]
    monkeypatch.undo()
    _check_against_full_kernels(M, 4, Budget())


def test_resolution_betti_numbers_extend(capsys):
    for argv, want in ((["c.json", "k", "5"], "1 3 6 12 24 48"),
                       (["b.json", "k", "2"], "1 3 4")):
        model, module, length = argv
        assert run(["resolve", model_path(model), "-m", module,
                    "-L", length]) == 0
        assert f"  betti: {want}\n" in capsys.readouterr().out


def test_resolution_redundant_presentation_minimalizes(A):
    x, y = P(A, "x"), P(A, "y")
    # k presented with a redundant duplicate column
    M = PresentedModule.from_rows(A, [[x, y, x]])
    res = minimal_free_resolution(M, 2)
    assert res.rank(0) == 1 and res.rank(1) == 2


# ---------------------------------------------------------------------------
# Koszul complexes and homology

def test_koszul_regular_sequence(A):
    K = koszul_complex([P(A, "x"), P(A, "y")], ring_as_module(A))
    assert module_length(K.homology_at(0)) == 1
    assert K.homology_at(1).is_zero()
    assert K.homology_at(2).is_zero()


def test_koszul_annihilator(node):
    K = koszul_complex([P(node, "x")], ring_as_module(node))
    h1 = K.homology_at(1)
    assert not h1.is_zero()   # ann(x) = (y) != 0


def test_koszul_ranks_binomial(B):
    M = PresentedModule.free(B, 1)
    K = koszul_complex([P(B, "x"), P(B, "y"), P(B, "z")], M)
    assert list(K.ranks) == [1, 3, 3, 1]


def test_homology_of_exact_complex_is_zero(A):
    res = minimal_free_resolution(residue_field(A), 2)
    assert res.homology_at(1).is_zero()


def test_h0_recovers_module(B):
    M = PresentedModule.from_rows(B, [[P(B, "x"), P(B, "y")],
                                      [P(B, "z"), P(B, "-x")]])
    Mx = quotient_by_sequence(M, [P(B, "y"), P(B, "z")])
    res = minimal_free_resolution(Mx, 1)
    h0 = res.homology_at(0)
    assert module_length(h0) == module_length(Mx) == 2


def test_h1_of_koszul_on_k(A):
    K = koszul_complex([P(A, "x"), P(A, "y")], residue_field(A))
    assert module_length(K.homology_at(1)) == 2


def test_homology_takes_maps_out_of_normal_form(B):
    # elements e + g with g in the ideal give a Koszul complex whose maps
    # are not in normal form; homology reads them as given, and agrees with
    # the Koszul complex on the normal forms. The elements lie in m, so
    # over k the homology is the exterior algebra, of length binomial(3, i).
    g = P(B, "x^2+y*z")
    elements = [P(B, "x^2") + g, P(B, "y^2") + g, P(B, "z^2") + g]
    MF = PresentedModule.from_rows(B, [[P(B, "x"), P(B, "y")],
                                       [P(B, "z"), P(B, "-x")]])
    k = residue_field(B)
    for M in (ring_as_module(B), k, MF):
        raw = koszul_complex(elements, M)
        nf = koszul_complex([B.nf(e) for e in elements], M)
        assert raw.differentials != nf.differentials
        for i in range(4):
            h_raw, h_nf = raw.homology_at(i), nf.homology_at(i)
            assert h_raw.is_zero() == h_nf.is_zero()
            assert module_length(h_raw) == module_length(h_nf)
            if M is k:
                assert module_length(h_raw) == comb(3, i)


def test_homology_index_out_of_range(A):
    res = minimal_free_resolution(residue_field(A), 2)
    with pytest.raises(ArgumentError):
        res.homology_at(5)


# ---------------------------------------------------------------------------
# lengths

def test_module_length_examples(A):
    assert module_length(residue_field(A)) == 1
    m2 = PresentedModule.from_rows(A, [[P(A, "x^2"), P(A, "y^2")]])
    assert module_length(m2) == 4
    zero = PresentedModule.from_rows(A, [[A.one()]])
    assert module_length(zero) == 0
    assert module_length(ring_as_module(A)) is INFINITE


def test_length_of_k_is_one_over_every_model(A, node, B):
    for ring in (A, node, B):
        assert module_length(minimalize(residue_field(ring))) == 1


# ---------------------------------------------------------------------------
# Tor and Ext

def test_tor_examples(A):
    k = residue_field(A)
    assert module_length(tor(k, k, 0)) == 1
    assert module_length(tor(k, k, 1)) == 2
    Sx = PresentedModule.from_rows(A, [[P(A, "x")]])
    Sy = PresentedModule.from_rows(A, [[P(A, "y")]])
    assert tor(Sx, Sy, 1).is_zero()


def test_tor_symmetry_on_finite_length_pairs(A, node):
    pairs = [
        (residue_field(A),
         PresentedModule.from_rows(A, [[P(A, "x^2"), P(A, "y")]])),
        (residue_field(node),
         PresentedModule.from_rows(node, [[P(node, "x"), P(node, "y^2")]])),
    ]
    for M, N in pairs:
        for i in range(3):
            assert module_length(tor(M, N, i)) == module_length(tor(N, M, i))


def test_ext_examples(A):
    R = ring_as_module(A)
    h = ext(R, R, 0)
    assert not h.is_zero() and module_length(h) is INFINITE
    k = residue_field(A)
    results = [ext(k, R, i) for i in range(3)]
    assert results[0].is_zero() and results[1].is_zero()
    assert module_length(results[2]) == 1


def test_ext_type_of_semigroup_ring():
    R0 = RingModel(5, ["x", "y", "z"], weights=(3, 4, 5))
    C = RingModel(5, ["x", "y", "z"], weights=(3, 4, 5),
                  ideal_gens=[P(R0, "x*z-y^2"), P(R0, "x^3-y*z"),
                              P(R0, "x^2*y-z^2")],
                  is_domain=True, expected_CM=True)
    h = ext(residue_field(C), ring_as_module(C), 1)
    assert module_length(h) == 2


def test_tor_and_ext_at_the_ends_of_a_finite_resolution(A, node):
    # over A = F_2[x, y], pd k = 2: the resolution stops before step 3
    k, R = residue_field(A), ring_as_module(A)
    assert tor(k, k, 3).is_zero() and tor(k, k, 4).is_zero()
    assert module_length(ext(k, R, 2)) == 1
    assert ext(k, R, 3).is_zero()
    Sx = PresentedModule.from_rows(A, [[P(A, "x")]])
    Sy = PresentedModule.from_rows(A, [[P(A, "y")]])
    assert tor(Sx, Sy, 2).is_zero()
    # over the node pd k is infinite
    kn = residue_field(node)
    assert not tor(kn, kn, 3).is_zero()


def test_pairing_modules_over_different_quotients_rejected(B):
    # same p, variables and weights, different ideals: S/(x^2) is no B-module
    S = B.ambient()
    Sx2 = PresentedModule.from_rows(S, [[P(S, "x^2")]])
    k = residue_field(B)
    with pytest.raises(ArgumentError, match="different ring"):
        tor(k, Sx2, 1)
    with pytest.raises(ArgumentError, match="different ring"):
        ext(k, Sx2, 1)
    with pytest.raises(ArgumentError, match="different ring"):
        minimal_free_resolution(k, 1).tensor(Sx2)
    # the same ideal on another generator is the same ring
    twin = RingModel(3, ["x", "y", "z"], ideal_gens=[P(S, "2*x^2+2*y*z")])
    Bx = PresentedModule.from_rows(B, [[P(B, "x")]])
    twin_x = PresentedModule.from_rows(twin, [[P(twin, "x")]])
    assert module_length(tor(k, twin_x, 1)) == module_length(tor(k, Bx, 1))
    assert module_length(ext(k, twin_x, 1)) == module_length(ext(k, Bx, 1))


def test_tensor_powers_are_built_once(B):
    N = residue_field(B)
    assert module_engine._tensor_presented(N, 3) is \
        module_engine._tensor_presented(N, 3)
    K = koszul_complex([P(B, "x"), P(B, "y")], N)
    first = [K.homology_at(i).columns for i in range(3)]
    assert first == [K.homology_at(i).columns for i in range(3)]


def test_direct_sum_stacks_the_summands_columns(A, B):
    # homology summands Z/(B + K) beside plain ones, zero ones and rank 0:
    # the sum is the block-diagonal matrix of their relation columns (a
    # homology summand's built on demand), so its length is the summands'
    k = residue_field(B)
    h = tor(k, k, 1)    # k^3: beta_1(k) = 3
    unit = PresentedModule.from_rows(B, [[P(B, "1")]])
    S = module_engine.direct_sum(B, [h, PresentedModule.free(B, 0), k, h,
                                     unit])
    assert S.ambient_rank == 2 * h.ambient_rank + 2
    assert S.num_relations == 2 * h.num_relations + k.num_relations + 1
    assert module_length(S) == 2 * module_length(h) + 1 == 7
    assert not S.is_zero()
    assert module_engine.direct_sum(B, [unit, unit]).is_zero()
    exact = koszul_complex([P(A, "x"), P(A, "y")],
                           ring_as_module(A)).homology_at(1)
    assert exact.ambient_rank and exact.is_zero()
    Z = module_engine.direct_sum(A, [exact, PresentedModule.from_rows(
        A, [[P(A, "1")]]), exact])
    assert Z.is_zero() and module_length(Z) == 0
    assert module_engine.direct_sum(A, []).ambient_rank == 0


# Reference wiring: each complex as a list of presented terms N^rank with
# maps d (x) id, every term built eagerly, and Ext's indices wired by hand.

def _ref_homology(ring, terms, maps, i):
    out_map = list(maps[i - 1]) if i >= 1 else None
    out_target = terms[i - 1] if i >= 1 else None
    in_map = list(maps[i]) if i < len(maps) else None
    return module_engine.present_homology(ring, terms[i], out_map,
                                          out_target, in_map)


def _ref_tor(M, N, i):
    res = minimal_free_resolution(M, i + 1)
    terms = [module_engine._tensor_presented(N, res.rank(j))
             for j in range(i + 2)]
    maps = [module_engine.kron_identity(M.ring, res.differential(j),
                                        N.ambient_rank)
            for j in range(1, i + 2)]
    return _ref_homology(M.ring, terms, maps, i)


def _ref_ext(M, N, i):
    res = minimal_free_resolution(M, i + 1)
    terms = [module_engine._tensor_presented(N, res.rank(j))
             for j in range(i + 2)]
    maps = [module_engine.kron_identity(
                M.ring, module_engine.transpose(M.ring, res.differential(j),
                                                res.rank(j - 1)),
                N.ambient_rank)
            for j in range(1, i + 2)]
    out_map = maps[i] if res.rank(i + 1) else None
    out_target = terms[i + 1] if out_map is not None else None
    in_map = maps[i - 1] if i >= 1 and res.rank(i - 1) else None
    return module_engine.present_homology(M.ring, terms[i], out_map,
                                          out_target, in_map)


def _ref_koszul_homology(elements, M, i):
    ring, c, p = M.ring, len(elements), M.ring.p
    bases = [list(combinations(range(c), j)) for j in range(c + 1)]
    terms = [module_engine._tensor_presented(M, len(b)) for b in bases]
    maps = []
    for j in range(1, c + 1):
        index_prev = {s: k for k, s in enumerate(bases[j - 1])}
        koszul = []
        for s in bases[j]:
            col = {}
            for t, var in enumerate(s):
                row = index_prev[s[:t] + s[t + 1:]]
                sign = 1 if t % 2 == 0 else p - 1
                for m, coeff in elements[var].terms.items():
                    col[(row, m)] = coeff * sign % p
            koszul.append(packed(ring.ctx, col))
        maps.append(module_engine.kron_identity(ring, koszul,
                                                M.ambient_rank))
    return _ref_homology(ring, terms, maps, i)


def _same_homology(h, ref):
    assert h.is_zero() == ref.is_zero()
    assert h.ambient_rank == ref.ambient_rank
    assert h.columns == ref.columns


def test_homology_matches_the_eager_reference_wiring(corpus):
    non_free = {"A": "Rx", "B": "MF", "D": "MF", "E": "Ex"}
    for key, mf in sorted(corpus.items()):
        ring = mf.ring
        X = mf.module(non_free[key]) if key in non_free else \
            PresentedModule.from_rows(ring, [[ring.variable(0)]])
        mods = [mf.module("k"), X]
        for M, N in product(mods, mods):
            for i in range(3):
                _same_homology(tor(M, N, i), _ref_tor(M, N, i))
                _same_homology(ext(M, N, i), _ref_ext(M, N, i))
        xs = [ring.variable(j) for j in range(len(ring.variables))]
        for N in mods:
            K = koszul_complex(xs, N)
            for i in range(len(xs) + 1):
                _same_homology(K.homology_at(i),
                               _ref_koszul_homology(xs, N, i))


def _tensor_power(N, k):
    """N^k presented by shifted copies of N's columns, built here, with the
    relation basis ``_tensor_presented`` gives cached on it."""
    pb = N.ring.ctx.pb
    cols = [{t - ((b * N.ambient_rank) << pb): c for t, c in col.items()}
            for b in range(k) for col in N.columns]
    Nk = PresentedModule(N.ring, k * N.ambient_rank, cols)
    Nk._cache["gb"] = module_engine._tensor_presented(N, k)
    return Nk


def _seeded_basis_is_fresh(M):
    # a relation basis cached without a Buchberger call is the one a fresh
    # computation from the columns gives, and so are length and vanishing
    fresh = PresentedModule(M.ring, M.ambient_rank, M.columns)
    gb = M.relations_groebner()
    ref = module_groebner(list(M.columns), M.ambient_rank, M.ring)
    assert gb.index.leads == ref.index.leads
    assert gb.index.elems == ref.index.elems
    assert module_length(M) == module_length(fresh)
    assert M.is_zero() == fresh.is_zero()


def test_free_tensor_power_basis_is_the_padding(corpus):
    # a free N^k's basis is GB(I) at every position: the elements of a
    # fresh basis, listed by element and position rather than by lead
    for mf in corpus.values():
        free = PresentedModule.free(mf.ring, 2)
        for k in (0, 1, 3):
            pads = module_engine._tensor_presented(free, k).index
            ref = module_groebner([], 2 * k, mf.ring).index
            assert dict(zip(pads.leads, pads.elems)) == \
                dict(zip(ref.leads, ref.elems))
            assert len(pads.leads) == len(ref.leads)


def test_seeded_relation_bases_equal_fresh_ones(corpus):
    # N^k gets shifted copies of N's basis; a homology module gets the
    # basis of the kernel call that made it
    non_free = {"A": "Rx", "B": "MF", "D": "MF", "E": "Ex"}
    for key, mf in sorted(corpus.items()):
        ring = mf.ring
        X = mf.module(non_free[key]) if key in non_free else \
            PresentedModule.from_rows(ring, [[ring.variable(0)]])
        mods = [mf.module("k"), X]
        xs = [ring.variable(j) for j in range(len(ring.variables))]
        for N in mods:
            for k in (1, 2, 3):
                _seeded_basis_is_fresh(_tensor_power(N, k))
            K = koszul_complex(xs, N)
            for i in range(3):
                _seeded_basis_is_fresh(K.homology_at(i))
        for M, N in product(mods, mods):
            for i in range(3):
                _seeded_basis_is_fresh(tor(M, N, i))
                _seeded_basis_is_fresh(ext(M, N, i))


# ---------------------------------------------------------------------------
# minimal generators

def test_min_generators_examples(B):
    assert min_generators(PresentedModule.free(B, 4)) == 4
    assert min_generators(residue_field(B)) == 1
    MF = PresentedModule.from_rows(B, [[P(B, "x"), P(B, "y")],
                                       [P(B, "z"), P(B, "-x")]])
    assert min_generators(MF) == 2


def test_minimalize_returns_a_minimal_module_itself(B):
    k = residue_field(B)
    assert minimalize(k) is k
    MF = PresentedModule.from_rows(B, [[P(B, "x"), P(B, "y")],
                                       [P(B, "z"), P(B, "-x")]])
    assert minimalize(MF) is MF
    # a unit entry still gives a new, smaller module
    M = PresentedModule.from_rows(B, [[B.one(), B.zero()],
                                      [P(B, "x"), P(B, "y")]])
    Mm = minimalize(M)
    assert Mm is not M and Mm.ambient_rank == 1
    assert minimalize(Mm) is Mm


def test_minimalization_leaves_entries_in_m(B):
    one = B.one()
    M = PresentedModule.from_rows(B, [[one, B.zero()],
                                      [P(B, "x"), P(B, "y")]])
    Mm = minimalize(M)
    assert Mm.ambient_rank == 1
    for row in Mm.rows():
        for e in row:
            assert e.in_maximal_ideal()


# ---------------------------------------------------------------------------
# complex invariants

def test_differential_composition_vanishes(B):
    res = minimal_free_resolution(residue_field(B), 4)
    from frobcheck.module_engine import matmul
    for i in range(1, res.length):
        prod = matmul(B, res.differential(i), res.differential(i + 1))
        assert all(not col for col in prod)


def test_euler_consistency_with_koszul(B):
    MF = PresentedModule.from_rows(B, [[P(B, "x"), P(B, "y")],
                                       [P(B, "z"), P(B, "-x")]])
    x = [P(B, "y"), P(B, "z")]
    K = koszul_complex(x, minimalize(MF))
    alt = sum((-1) ** i * module_length(K.homology_at(i)) for i in range(3))
    chi = euler_characteristic(MF, x, 0)
    assert alt == chi.value == 2


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_modules_over_regular_ring_satisfy_ab(data):
    # over a regular ring every module has finite pd and the depth formula
    # depth M + pd M = depth R holds; resolutions stay complexes throughout.
    # Entries are drawn homogeneous with coherent degree shifts, matching
    # the locality convention the engine assumes.
    from frobcheck import Polynomial
    from frobcheck.criteria import pd_is_finite
    from frobcheck.invariants import depth_of_module, depth_of_ring
    ring = RingModel(2, ["x", "y"], is_domain=True, expected_CM=True)
    row_shift = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    col_deg = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            d = col_deg[j] - row_shift[i]
            if d < 1 or data.draw(st.booleans()):
                row.append(ring.zero())
            else:
                a = data.draw(st.integers(0, d))
                row.append(Polynomial.from_terms(ring, {(a, d - a): 1}))
        rows.append(row)
    M = PresentedModule.from_rows(ring, rows)
    if M.is_zero() or minimalize(M).ambient_rank == 0:
        return
    finite, pd = pd_is_finite(M)
    assert finite and pd <= 2
    assert depth_of_module(M) + pd == depth_of_ring(ring)


# ---------------------------------------------------------------------------
# homology as a subquotient: zero-ness and length from two bases

def _check_subquotient(H):
    """is_zero and module_length of a homology module, read off its bases
    of Z and B + K without building its columns, equal those of its cycle
    presentation; returns them."""
    got = H.is_zero(), module_length(H)
    if H.ambient_rank:
        assert callable(H._columns)
    cycles = PresentedModule(H.ring, H.ambient_rank, H.columns)
    assert got == (cycles.is_zero(), module_length(cycles))
    return got


def _homologies(M, xs):
    R = M.ring
    out = [h(M, N, i) for h in (tor, ext)
           for N in (residue_field(R), ring_as_module(R)) for i in range(3)]
    K = koszul_complex(xs, M)
    return out + [K.homology_at(i) for i in range(len(xs) + 1)]


def test_subquotient_matches_cycle_presentation_on_corpus(corpus):
    for mf in corpus.values():
        xs = [mf.ring.variable(j) for j in range(len(mf.ring.variables))]
        for M in mf.modules.values():
            for H in _homologies(M, xs):
                _check_subquotient(H)


def test_subquotient_zero_and_infinite(A, B):
    # x, y is a regular sequence on A: H_1 has cycles but vanishes
    H1 = koszul_complex([P(A, "x"), P(A, "y")], ring_as_module(A)) \
        .homology_at(1)
    assert H1.ambient_rank and _check_subquotient(H1) == (True, 0)
    # x alone is a partial s.o.p. of B (dim 2): H_0 = B/xB has dimension 1
    H0 = koszul_complex([P(B, "x")], ring_as_module(B)).homology_at(0)
    assert _check_subquotient(H0) == (False, INFINITE)


# property tests on weighted graded matrices

WEIGHTED = RingModel(5, ["x", "y"], weights=(2, 3), is_domain=True,
                     expected_CM=True)
RING_D = load_model("d.json").ring      # F_5[x,y]/(y^2-x^3), weights (2,3)
ALIEN_RINGS = (RingModel(7, ["x", "y"], weights=(2, 3)),
               RingModel(5, ["x", "y"]),
               RingModel(5, ["u", "v"], weights=(2, 3)))


@st.composite
def graded_rows(draw, ring, row_shifts, col_degrees):
    """Rows whose entry (i, j) is zero or quasi-homogeneous of weighted
    degree col_degrees[j] - row_shifts[i] (always positive)."""
    rows = []
    for shift in row_shifts:
        row = []
        for deg in col_degrees:
            terms = {}
            if deg > shift and draw(st.integers(0, 3)) < 3:
                for m in monomials_of_degree(ring, deg - shift):
                    terms[m] = draw(st.integers(1, ring.p - 1))
            row.append(Polynomial.from_terms(ring, terms))
        rows.append(row)
    return rows


@st.composite
def composable_pair(draw, ring):
    """Graded A (r x t) and B (t x s) with B's row shifts A's column degrees."""
    r, t, s = (draw(st.integers(1, 3)) for _ in range(3))
    row_a = [draw(st.integers(0, 3)) for _ in range(r)]
    col_a = [draw(st.integers(2, 10)) for _ in range(t)]
    col_b = [draw(st.integers(4, 16)) for _ in range(s)]
    return (draw(graded_rows(ring, row_a, col_a)),
            draw(graded_rows(ring, col_a, col_b)))


def _columns(ring, rows):
    return [column(ring, [row[j] for row in rows])
            for j in range(len(rows[0]))]


def _assert_shifts_grade(ring, cols, nrows):
    """The shifts ``_require_graded`` returns give each column one degree."""
    shifts = module_engine._require_graded(ring, cols, nrows)
    assert len(shifts) == nrows
    for col in cols:
        assert len({shifts[i] + ring.ctx.wdeg(m)
                    for i, m, _ in ring.ctx.unpack(col)}) <= 1


@pytest.mark.parametrize("ring", [WEIGHTED, RING_D], ids=["regular", "D"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_weighted_graded_matrices(ring, data):
    a, b = data.draw(composable_pair(ring))
    _assert_shifts_grade(ring, _columns(ring, a), len(a))
    _assert_shifts_grade(ring, _columns(ring, b), len(b))

    # flat matmul against entrywise Polynomial products reduced by ring.nf
    expected = []
    for k in range(len(b[0])):
        col = []
        for i in range(len(a)):
            acc = ring.zero()
            for j in range(len(b)):
                acc = acc + a[i][j] * b[j][k]
            col.append(ring.nf(acc))
        expected.append(column(ring, col))
    assert matmul(ring, _columns(ring, a), _columns(ring, b)) == expected

    M = PresentedModule.from_rows(ring, a)
    if ring is WEIGHTED and not M.is_zero():
        finite, pd = pd_is_finite(M)
        assert finite
        assert depth_of_module(M) + pd == depth_of_ring(ring)

    alien = data.draw(st.sampled_from(ALIEN_RINGS))
    bad = [list(row) for row in a]
    bad[0][0] = alien.variable(0)
    with pytest.raises(ArgumentError):
        PresentedModule.from_rows(ring, bad)


# ---------------------------------------------------------------------------
# the minimalization sweep

F5 = RingModel(5, ["x", "y"], is_domain=True, expected_CM=True)


def test_sweep_reads_units_after_the_rewrite():
    # e0 - e1 cancels row 0 (e0 = e1), so e0 + e1 becomes 2*e1: its only
    # unit is at row 1, not at the lowest unit row it started with
    M = PresentedModule.from_rows(F5, [[P(F5, "1"), P(F5, "1")],
                                       [P(F5, "-1"), P(F5, "1")]])
    assert module_engine._minimalize_columns(
        F5, list(M.columns), 2, Budget()) == ([], [])
    assert min_generators(M) == 0 and M.is_zero()


def test_sweep_rewrites_kept_columns_through_later_rows():
    # x*e0 is kept before e0 - y*e1 cancels row 0 (e0 = y*e1); the rows
    # have degree shifts (0, -1)
    M = PresentedModule.from_rows(F5, [[P(F5, "x"), P(F5, "1")],
                                       [F5.zero(), P(F5, "-y")]])
    assert module_engine._minimalize_columns(
        F5, list(M.columns), 2, Budget()) == \
        ([packed(F5.ctx, {(0, (1, 1)): 1})], [1])
    assert min_generators(M) == 1


def _disguised(M, like, ops, scales, flip):
    """A presentation of a module isomorphic to M.

    One trivial summand (a generator and the relation setting it to zero)
    per entry of ``like``; the new generator r + t gets the degree of
    generator like[t]. Then the row operations ``ops`` (row i += c * row
    j, for generators of equal degree), each column scaled by a unit from
    ``scales`` (cycled) and, with ``flip``, the column order reversed.
    """
    ring, r = M.ring, M.ambient_rank
    ctx = ring.ctx
    cols = [dict(col) for col in M.columns]
    cols += [packed(ctx, {(r + t, ctx.zero_mono): 1})
             for t in range(len(like))]
    for i, j, c in ops:
        for col in cols:
            row_j = {(pos, m): a for pos, m, a in ctx.unpack(col) if pos == j}
            vec_axpy(col, c, 0,
                     packed(ctx, {(i, m): a for (_, m), a in row_j.items()}),
                     ring.p)
    cols = [vec_scale(col, scales[k % len(scales)], ring.p)
            for k, col in enumerate(cols)]
    return PresentedModule(ring, r + len(like), cols[::-1] if flip else cols)


def _check_minimalization(M, D, budget):
    """minimalize on D, a disguised presentation of M."""
    ring = M.ring
    Dm = minimalize(D, budget)
    mD = quotient_by_sequence(
        D, [ring.variable(i) for i in range(len(ring.variables))])
    assert Dm.ambient_rank == module_length(mD, budget) == \
        min_generators(M, budget)
    assert all(any(m) for col in Dm.columns
               for _, m, _ in ring.ctx.unpack(col))
    assert module_engine._minimalize_columns(
        ring, list(Dm.columns), Dm.ambient_rank, budget) == \
        (list(Dm.columns), list(range(Dm.ambient_rank)))
    assert module_length(Dm, budget) == module_length(D, budget) == \
        module_length(M, budget)
    assert minimal_free_resolution(D, 2, budget).ranks == \
        minimal_free_resolution(M, 2, budget).ranks


def _generic_disguises(M):
    """Two disguises that need no degrees: the trivial generator takes the
    degree of generator 0 and is mixed with it, columns in either order."""
    r, p = M.ambient_rank, M.ring.p
    ops = [(r, 0, 1), (0, r, 1)] if r else []
    return [_disguised(M, [0] if r else [], ops, [1, p - 1], flip)
            for flip in (False, True)]


def test_minimalization_sweep_on_corpus_modules(corpus, budget):
    for mf in corpus.values():
        for M in mf.modules.values():
            for D in _generic_disguises(M):
                _check_minimalization(M, D, budget)


def test_minimalization_sweep_on_tor_ext_and_pushforwards(corpus,
                                                          budget):
    mods = []
    for name, mf in corpus.items():
        M = mf.module("MF" if name in "BD" else "k")
        k = residue_field(mf.ring)
        for i in (0, 1, 2):
            mods += [tor(M, k, i, budget),
                     ext(M, ring_as_module(mf.ring), i, budget)]
        mods.append(pushforward_presentation(mf.ring, 1, budget).presentation)
    for M in mods:
        for D in [M] + _generic_disguises(M):
            _check_minimalization(M, D, budget)


@st.composite
def disguised_pair(draw, ring):
    """A graded module and a disguise of it: trivial summands, row
    operations within equal degrees, unit column scalings, a column order."""
    r, t = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shifts = [draw(st.integers(0, 2)) for _ in range(r)]
    degrees = [draw(st.integers(2, 8)) for _ in range(t)]
    M = PresentedModule.from_rows(ring,
                                  draw(graded_rows(ring, shifts, degrees)))
    like = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=3))
    deg = shifts + [shifts[k] for k in like]
    pairs = [(i, j) for i in range(len(deg)) for j in range(len(deg))
             if i != j and deg[i] == deg[j]]
    ops = [(i, j, draw(st.integers(1, ring.p - 1)))
           for i, j in draw(st.lists(st.sampled_from(pairs), max_size=6))
           ] if pairs else []
    scales = draw(st.lists(st.integers(1, ring.p - 1), min_size=1,
                           max_size=4))
    return M, _disguised(M, like, ops, scales, draw(st.booleans()))


@pytest.mark.parametrize("ring", [WEIGHTED, RING_D], ids=["regular", "D"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_minimalization_sweep_on_disguised_presentations(ring, data):
    M, D = data.draw(disguised_pair(ring))
    _check_minimalization(M, D, Budget())


@pytest.mark.parametrize("ring", [WEIGHTED, RING_D], ids=["regular", "D"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_subquotient_matches_cycle_presentation_on_generated(ring, data):
    M, _ = data.draw(disguised_pair(ring))
    for H in _homologies(M, [ring.variable(0)]):
        _check_subquotient(H)
