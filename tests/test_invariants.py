"""Dimension, depth, regular sequences, Euler characteristics, rank,
canonical module, type."""

import warnings
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from frobcheck import (DEFAULT_BUDGET, Polynomial, PresentedModule,
                       PreconditionError, RingModel, buchberger,
                       canonical_module, cm_type_and_gorenstein,
                       depth_of_module, depth_of_ring, dimension_of_module,
                       euler_characteristic, is_mcm, is_regular_sequence,
                       is_sop, krull_dimension, min_generators, minimalize,
                       module_groebner, module_length, rank_of_module,
                       pushforward_presentation, residue_field,
                       ring_as_module, tor)
from frobcheck.cli import parse_polynomial
from frobcheck.criteria import pd_is_finite
from frobcheck.invariants import _multiplicities, quotient_by_sequence
from frobcheck.module_engine import direct_sum
from conftest import load_model, monomials_of_degree, packed


def P(ring, s):
    return parse_polynomial(ring, s)


def MF_of(model_b):
    return model_b.module("MF")


# ---------------------------------------------------------------------------
# dimension / depth

def test_dimension_examples(model_b):
    B = model_b.ring
    assert dimension_of_module(ring_as_module(B)) == 2
    assert dimension_of_module(residue_field(B)) == 0
    assert dimension_of_module(PresentedModule.from_rows(B, [[P(B, "x")]])) == 1
    zero = PresentedModule.from_rows(B, [[B.one()]])
    assert dimension_of_module(zero) == -1


def _determinant(ring, entries, rows, cols):
    """Cofactor expansion along the first remaining column."""
    if not rows:
        return ring.one()
    acc = ring.zero()
    for t, r in enumerate(rows):
        entry = entries[r][cols[0]]
        if entry.is_zero():
            continue
        minor = _determinant(ring, entries, rows[:t] + rows[t + 1:], cols[1:])
        acc = acc + (entry * minor).scale(1 if t % 2 == 0 else ring.p - 1)
    return acc


def _minors(M, size):
    """Every size x size minor of the relations matrix of M."""
    entries = M.rows()
    return [_determinant(M.ring, entries, rset, cset)
            for cset in combinations(range(M.num_relations), size)
            for rset in combinations(range(M.ambient_rank), size)]


def _ref_rank(M):
    """Rank over a domain by minors: the ambient rank minus the largest
    size of a minor that is nonzero modulo I."""
    Mmin = minimalize(M)
    r = Mmin.ambient_rank
    for s in range(min(r, Mmin.num_relations), 0, -1):
        if any(not M.ring.nf(m).is_zero() for m in _minors(Mmin, s)):
            return r - s
    return r


def _ref_dimension(M):
    """dim M by the zeroth Fitting ideal: Supp M = V(I + Fitt_0(M))."""
    Mmin = minimalize(M)
    r = Mmin.ambient_rank
    if r == 0:
        return -1
    if Mmin.num_relations < r:
        return M.ring.dim()
    minors = _minors(Mmin, r)
    gens = list(M.ring.ideal_gens) + [m for m in minors if not m.is_zero()]
    return krull_dimension(buchberger(gens, M.ring))


def test_dimension_matches_fitting_route_on_the_corpus(corpus):
    checked = 0
    for key, mf in sorted(corpus.items()):
        k = mf.module("k")
        for name, M in sorted(mf.modules.items()):
            mods = [M] + [tor(M, k, i) for i in range(3)]
            for X in mods:
                assert dimension_of_module(X) == _ref_dimension(X), (key, name)
                checked += 1
    assert checked >= 80


def test_dimension_of_finite_length_power_past_the_minors_budget():
    # (S/m^3)^5 over F_2[x,y,z]: the Fitting route needs C(50, 5) minors
    S = RingModel(2, ["x", "y", "z"])
    cubes = [tuple(c.count(i) for i in range(3))
             for c in combinations_with_replacement(range(3), 3)]
    cols = [packed(S.ctx, {(j, m): 1}) for j in range(5) for m in cubes]
    M = PresentedModule(S, 5, cols)
    assert dimension_of_module(M, DEFAULT_BUDGET) == 0
    assert module_length(M, DEFAULT_BUDGET) == 50


def test_krull_dimension_of_a_module_basis_is_the_largest_position():
    S = RingModel(2, ["x", "y", "z"])

    def direct_sum(*ideals):
        """Basis of the relations of S/J_0 (+) S/J_1 (+) ..."""
        gens = [packed(S.ctx, {(j, tuple(int(c == v) for c in "xyz")): 1})
                for j, ideal in enumerate(ideals) for v in ideal]
        return module_groebner(gens, len(ideals), S)

    # S/(x), S/(y, z), S/(x, y), S and S/(1) have dimensions 2, 1, 1, 3, -1
    assert krull_dimension(direct_sum("x", "yz", "")) == 3
    assert krull_dimension(direct_sum("x", "yz")) == 2
    assert krull_dimension(direct_sum("yz", "xy")) == 1
    units = [packed(S.ctx, {(j, S.ctx.zero_mono): 1}) for j in range(2)]
    assert krull_dimension(module_groebner(units, 2, S)) == -1


HYPOTHESIS_RINGS = {key: load_model(f"{key.lower()}.json").ring
                    for key in "ABCDE"}
# a weighted domain of dimension 2, the quadric cone xz = y^2: the corpus'
# weighted rings C and D have dimension 1
_S = RingModel(3, ["x", "y", "z"], [1, 2, 3])
CONE = RingModel(3, ["x", "y", "z"], [1, 2, 3], [P(_S, "x*z-y^2")],
                 is_domain=True)


@st.composite
def graded_module(draw, ring):
    """Up to 3 x 4 relations; entry (i, j) is zero or quasi-homogeneous of
    weighted degree col_deg[j] - row_shift[i] >= 0 (units included)."""
    row_shifts = [draw(st.integers(0, 2))
                  for _ in range(draw(st.integers(1, 3)))]
    col_degs = [draw(st.integers(1, 5))
                for _ in range(draw(st.integers(1, 4)))]
    rows = []
    for shift in row_shifts:
        row = []
        for deg in col_degs:
            terms = {}
            if deg >= shift and draw(st.integers(0, 3)) < 3:
                for m in monomials_of_degree(ring, deg - shift):
                    terms[m] = draw(st.integers(1, ring.p - 1))
            row.append(Polynomial.from_terms(ring, terms))
        rows.append(row)
    return PresentedModule.from_rows(ring, rows)


@pytest.mark.parametrize("key", sorted(HYPOTHESIS_RINGS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_dimension_matches_fitting_route_on_graded_modules(key, data):
    M = data.draw(graded_module(HYPOTHESIS_RINGS[key]))
    assert dimension_of_module(M) == _ref_dimension(M)


def test_depth_examples(model_a, model_b):
    assert depth_of_ring(model_a.ring) == 2
    T = RingModel(2, ["x", "y"],
                  ideal_gens=[P(RingModel(2, ["x", "y"]), "x^2"),
                              P(RingModel(2, ["x", "y"]), "x*y")])
    assert depth_of_ring(T) == 0
    assert depth_of_module(MF_of(model_b)) == 2


def test_depth_of_zero_module_raises(model_a):
    zero = PresentedModule.from_rows(model_a.ring, [[model_a.ring.one()]])
    with pytest.raises(PreconditionError):
        depth_of_module(zero)


def test_is_mcm_examples(model_b):
    B = model_b.ring
    assert is_mcm(ring_as_module(B))
    assert not is_mcm(residue_field(B))
    assert is_mcm(MF_of(model_b))
    zero = PresentedModule.from_rows(B, [[B.one()]])
    with warnings.catch_warnings(record=True) as recorded:
        warnings.simplefilter("always")
        assert not is_mcm(zero)
    assert recorded


# ---------------------------------------------------------------------------
# sequences

def test_regular_sequence_examples(model_b):
    B = model_b.ring
    assert is_regular_sequence([P(B, "y"), P(B, "z")], ring_as_module(B))
    assert is_sop([P(B, "y"), P(B, "z")], B)
    assert not is_regular_sequence([P(B, "x"), P(B, "x")], ring_as_module(B))
    T = RingModel(2, ["x", "y"],
                  ideal_gens=[P(RingModel(2, ["x", "y"]), "x^2"),
                              P(RingModel(2, ["x", "y"]), "x*y")])
    assert not is_regular_sequence([T.variable(0)], ring_as_module(T))


def test_sop_requires_full_length(model_b):
    B = model_b.ring
    assert not is_sop([P(B, "y")], B)
    assert is_sop([P(B, "y+z"), P(B, "x")], B)


def test_sop_rejects_units_and_inhomogeneous():
    # x - 1 generates the unit ideal locally; the graded model refuses it
    # rather than read dim R/(x - 1) = 0 off the global quotient
    R = RingModel(3, ["x"])
    assert is_sop([P(R, "x")], R)
    assert not is_sop([P(R, "x-1")], R)
    assert not is_sop([P(R, "x+x^2")], R)


# ---------------------------------------------------------------------------
# Euler characteristics

def test_chi_of_ring_is_colength(model_b):
    B = model_b.ring
    e = euler_characteristic(ring_as_module(B), [P(B, "y"), P(B, "z")])
    assert e.value == 2
    assert e.homology_lengths == (2, 0, 0)


def test_chi_vanishes_below_codimension():
    S = RingModel(3, ["x", "y"], is_domain=True, expected_CM=True)
    M = PresentedModule.from_rows(S, [[P(S, "x")]])
    e = euler_characteristic(M, [P(S, "x"), P(S, "y")])
    assert e.value == 0
    assert e.homology_lengths == (1, 1, 0)


def test_chi1_vanishes_for_mcm(model_b):
    B = model_b.ring
    e = euler_characteristic(MF_of(model_b), [P(B, "y"), P(B, "z")], i=1)
    assert e.value == 0
    assert e.homology_lengths[1] == 0 and e.homology_lengths[2] == 0


def test_chi_rejects_irregular_sequence(model_b):
    B = model_b.ring
    with pytest.raises(PreconditionError):
        euler_characteristic(ring_as_module(B), [P(B, "x"), P(B, "x")])


# ---------------------------------------------------------------------------
# rank

def test_rank_examples(model_b):
    B = model_b.ring
    assert rank_of_module(PresentedModule.free(B, 3)) == 3
    assert rank_of_module(MF_of(model_b)) == 1
    assert rank_of_module(residue_field(B)) == 0


def test_rank_of_finite_length_power_past_the_minors_budget():
    # (S/m^3)^5 over the domain F_2[x,y,z] has dimension 0 < 3, so its rank
    # is 0; the minors route would need C(50, 5) minors
    S = RingModel(2, ["x", "y", "z"], is_domain=True)
    cubes = [tuple(c.count(i) for i in range(3))
             for c in combinations_with_replacement(range(3), 3)]
    cols = [packed(S.ctx, {(j, m): 1}) for j in range(5) for m in cubes]
    M = PresentedModule(S, 5, cols)
    assert rank_of_module(M, DEFAULT_BUDGET) == 0


@pytest.mark.parametrize("key", "ABCD")
def test_rank_matches_minors_on_the_corpus(corpus, key):
    # the series rank e(M)/e(R) against the minors rank, on the model's
    # modules, the residue field and the blocks of f_*R
    mf = corpus[key]
    blocks = pushforward_presentation(mf.ring, 1).blocks()
    mods = ([residue_field(mf.ring)] + [M for _, M in sorted(mf.modules.items())]
            + [blk for blk, _ in blocks])
    for M in mods:
        assert rank_of_module(M) == _ref_rank(M), M


@pytest.mark.parametrize("key", ["A", "B", "C", "D", "cone"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_matches_minors_on_graded_modules(key, data):
    M = data.draw(graded_module(HYPOTHESIS_RINGS.get(key, CONE)))
    assert rank_of_module(M) == _ref_rank(M)


def test_rank_of_pushforward_over_the_weighted_cone():
    # Kunz: f^n R has rank 3^(2n); at n = 1 each block's rank is also the
    # minors rank
    for n in (1, 2):
        blocks = pushforward_presentation(CONE, n).blocks()
        assert sum(k * rank_of_module(blk) for blk, k in blocks) == 9 ** n
    for blk, _ in pushforward_presentation(CONE, 1).blocks():
        assert rank_of_module(blk) == _ref_rank(blk)


def test_rank_none_for_non_domain(model_e):
    assert rank_of_module(residue_field(model_e.ring)) is None


def test_rank_equals_mu_implies_free(model_b, model_d):
    # corpus instances of the rank lemma
    for mf in (model_b, model_d):
        for name, M in sorted(mf.modules.items()):
            if M.ambient_rank == 0:
                continue
            r = rank_of_module(M)
            mu = min_generators(M)
            if r is not None and r == mu:
                assert minimalize(M).num_relations == 0, name


# ---------------------------------------------------------------------------
# canonical module and type

def test_canonical_of_hypersurface_is_free(model_b):
    om = canonical_module(model_b.ring)
    assert min_generators(om) == 1
    assert minimalize(om).num_relations == 0


def test_canonical_of_semigroup_ring(model_c):
    om = canonical_module(model_c.ring)
    assert min_generators(om) == 2


def test_canonical_artinian_hypersurface():
    R0 = RingModel(2, ["x"])
    H = RingModel(2, ["x"], ideal_gens=[P(R0, "x^2")], expected_CM=True)
    om = canonical_module(H)
    assert min_generators(om) == 1
    assert minimalize(om).num_relations == 0


def test_type_examples(model_a, model_c, model_d):
    assert cm_type_and_gorenstein(model_a.ring) == (1, True)
    assert cm_type_and_gorenstein(model_d.ring) == (1, True)
    assert cm_type_and_gorenstein(model_c.ring) == (2, False)


def test_type_matches_mu_omega(corpus):
    for key, mf in sorted(corpus.items()):
        t, _ = cm_type_and_gorenstein(mf.ring)
        assert t == min_generators(canonical_module(mf.ring)), key


def test_type_of_artinian_complete_intersection():
    # k[x,y]/(x^2, y^2): socle spanned by xy, type 1
    R0 = RingModel(2, ["x", "y"])
    H = RingModel(2, ["x", "y"],
                  ideal_gens=[P(R0, "x^2"), P(R0, "y^2")], expected_CM=True)
    assert cm_type_and_gorenstein(H) == (1, True)


def test_type_of_fat_point():
    # k[x,y]/(x^2, xy, y^2): socle is all of m, type 2
    R0 = RingModel(3, ["x", "y"])
    H = RingModel(3, ["x", "y"],
                  ideal_gens=[P(R0, "x^2"), P(R0, "x*y"), P(R0, "y^2")],
                  expected_CM=True)
    assert cm_type_and_gorenstein(H) == (2, False)


def test_canonical_requires_cm():
    R0 = RingModel(2, ["x", "y"])
    T = RingModel(2, ["x", "y"],
                  ideal_gens=[P(R0, "x^2"), P(R0, "x*y")])
    with pytest.raises(PreconditionError):
        canonical_module(T)


# ---------------------------------------------------------------------------
# Auslander-Buchsbaum and bundles

def test_auslander_buchsbaum(corpus):
    checked = 0
    for key, mf in sorted(corpus.items()):
        ring = mf.ring
        for name, M in sorted(mf.modules.items()):
            finite, pd = pd_is_finite(M)
            if finite and not M.is_zero():
                assert depth_of_module(M) + pd == depth_of_ring(ring), \
                    (key, name)
                checked += 1
    assert checked >= 8


def _wdeg(f):
    """Weighted degree of a quasi-homogeneous element."""
    return sum(w * e for w, e in zip(f.ring.weights, next(iter(f.terms))))


def test_series_multiplicity_decides_mcm(corpus):
    # Serre: for an s.o.p. x of R and M with dim M = dim R,
    # len(M/xM) >= e(x; M) = prod deg(x_i) * e_w(M), with equality iff M is
    # MCM; e_w(M) = sum(_multiplicities(M)) / prod(w_i)
    cases = []
    for key, mf in sorted(corpus.items()):
        R = mf.ring
        cases += sorted(mf.modules.items())
        cases += [(f"f_*R block {j}", blk) for j, (blk, _) in
                  enumerate(pushforward_presentation(R, 1).blocks())]
        cases.append(("R+k", direct_sum(R, [ring_as_module(R),
                                            residue_field(R)])))
    B = corpus["B"].ring
    cases.append(("R+R/(y)",
                  PresentedModule.from_rows(B, [[B.zero()], [P(B, "y")]])))
    seen = []
    for name, M in cases:
        ring = M.ring
        d = ring.dim()
        if dimension_of_module(M) != d:
            continue
        e = sum(_multiplicities(ring, M.relations_groebner(),
                                len(ring.variables) - d))
        key = next(k for k, mf in corpus.items() if mf.ring is ring)
        for sop_name, x in sorted(corpus[key].sops.items()):
            if not is_sop(x, ring):
                continue
            length = module_length(quotient_by_sequence(M, x))
            bound = Fraction(prod(map(_wdeg, x)) * e, prod(ring.weights))
            mcm = is_mcm(M)
            assert length >= bound and (length == bound) == mcm, \
                (key, name, sop_name, length, bound, mcm)
            seen.append((key, name, sop_name, length, bound, mcm))
    assert ("B", "R+R/(y)", "yz", 4, 2, False) in seen
    assert len(seen) >= 30
    assert sum(not mcm for *_, mcm in seen) >= 8


def test_length_identity_for_modules_with_rank(corpus):
    # chi(M, R/x) = rank(M) * len(R/x); for MCM M also len(M/xM) equals it
    sop_for = {"A": "xy", "B": "yz", "C": "x", "D": "x"}
    checked_chi = checked_mcm = 0
    for key, sop_name in sorted(sop_for.items()):
        mf = corpus[key]
        ring = mf.ring
        x = mf.sop(sop_name)
        len_rx = euler_characteristic(ring_as_module(ring), x).value
        for name in sorted(mf.modules):
            M = mf.module(name)
            if M.ambient_rank == 0:
                continue
            r = rank_of_module(M)
            if r is None:
                continue
            chi = euler_characteristic(M, x).value
            assert chi == r * len_rx, (key, name, chi, r, len_rx)
            checked_chi += 1
            if is_mcm(M):
                lm = module_length(quotient_by_sequence(minimalize(M), x))
                assert lm == r * len_rx, (key, name, lm)
                checked_mcm += 1
    assert checked_chi >= 10 and checked_mcm >= 5
