"""Criterion checkers: verdict logic, skip reasons, rigidity scans."""

import pytest

from frobcheck import (PresentedModule, PreconditionError, check_cor_codim1,
                       check_cor_free, check_gorenstein, check_thm_kl,
                       check_thm_main1, minimal_free_resolution,
                       module_length, pd_is_finite, residue_field,
                       rigidity_scan)
from frobcheck.criteria import CONSISTENT, SKIPPED
from frobcheck.cli import parse_polynomial


def P(ring, s):
    return parse_polynomial(ring, s)


# ---------------------------------------------------------------------------
# projective dimension

def test_pd_free(model_b):
    assert pd_is_finite(PresentedModule.free(model_b.ring, 1)) == (True, 0)


def test_pd_residue_field_regular(model_a):
    assert pd_is_finite(residue_field(model_a.ring)) == (True, 2)


def test_pd_residue_field_node(model_e):
    finite, pd = pd_is_finite(residue_field(model_e.ring))
    assert not finite and pd is None
    res = minimal_free_resolution(residue_field(model_e.ring), 2)
    assert res.ranks == (1, 2, 2)


# ---------------------------------------------------------------------------
# main freeness theorem

def test_main1_free_module(model_b):
    r = check_thm_main1(model_b.module("R2"), 1, 1, module_name="R2")
    assert r.verdict == CONSISTENT
    assert r.conditions["premise_fn_mcm"] and r.conditions["conclusion_free"]


def test_main1_matrix_factorization(model_b):
    r = check_thm_main1(model_b.module("MF"), 1, 1, module_name="MF")
    assert r.verdict == CONSISTENT
    # contrapositive: MF not free, so F^1(MF) must fail to be MCM
    assert not r.conditions["premise_fn_mcm"]
    assert not r.conditions["conclusion_free"]


def test_main1_residue_field(model_b):
    r = check_thm_main1(model_b.module("k"), 1, 1, module_name="k")
    assert r.verdict == CONSISTENT
    assert not r.conditions["premise_fn_mcm"]


def test_main1_refuses_n_below_bound(model_b):
    with pytest.raises(PreconditionError):
        check_thm_main1(model_b.module("MF"), 0, 1)


def test_main1_skip_without_rank(model_e):
    r = check_thm_main1(model_e.module("k"), 1, 1, module_name="k")
    assert r.verdict == SKIPPED
    assert "rank" in r.skip_reason


def test_main1_rank_override_runs(model_e):
    r = check_thm_main1(model_e.module("Es"), 1, 1, rank_override=1,
                        module_name="Es")
    assert r.verdict == CONSISTENT


# ---------------------------------------------------------------------------
# depth-window criterion for finite projective dimension

def test_kl_free(model_b):
    r = check_thm_kl(PresentedModule.free(model_b.ring, 1), 1, 1)
    assert r.verdict == CONSISTENT
    assert r.conditions["conclusion_pd_finite"]


def test_kl_matrix_factorization(model_b):
    r = check_thm_kl(model_b.module("MF"), 1, 1, module_name="MF")
    assert r.verdict == CONSISTENT
    assert not r.conditions["premise_window_vanishes"]
    assert not r.conditions["conclusion_pd_finite"]


def test_kl_mcm_case_reduces_to_main1(model_b):
    # depth F^n(M) = d makes the window empty, so the premise is vacuous
    # and the conclusion must hold, matching the freeness theorem
    r = check_thm_kl(model_b.module("R2"), 1, 1, module_name="R2")
    assert r.verdict == CONSISTENT
    assert r.quantities["depth_FnM"] == 2
    assert r.conditions["premise_window_vanishes"]
    assert r.conditions["conclusion_pd_finite"]


# ---------------------------------------------------------------------------
# four-condition freeness corollary

def test_cor_free_positive(model_b):
    x = model_b.sop("yz")
    r = check_cor_free(model_b.module("R2"), x, 1, 1, module_name="R2",
                       sop_name="yz")
    assert r.verdict == CONSISTENT
    assert all(r.conditions.values())
    assert r.quantities["len_M_mod_x"] == 4
    assert r.quantities["len_Fn_M_mod_x"] == 36


def test_cor_free_negative(model_b):
    x = model_b.sop("yz")
    r = check_cor_free(model_b.module("MF"), x, 1, 1, module_name="MF",
                       sop_name="yz")
    assert r.verdict == CONSISTENT
    assert not any(r.conditions.values())
    assert r.quantities["len_M_mod_x"] == 2
    assert r.quantities["len_Fn_M_mod_x"] > 18


def test_cor_free_ring_itself(model_b):
    x = model_b.sop("yz")
    r = check_cor_free(model_b.module("R1"), x, 1, 1, module_name="R1",
                       sop_name="yz")
    assert r.verdict == CONSISTENT
    assert all(r.conditions.values())
    # len F^n(R/x) = len R/x^[q]
    assert r.quantities["len_Fn_M_mod_x"] == \
        r.quantities["q^d_times_len"] == 18


def test_cor_free_skips_non_mcm(model_b):
    x = model_b.sop("yz")
    r = check_cor_free(model_b.module("k"), x, 1, 1, module_name="k")
    assert r.verdict == SKIPPED and "Cohen-Macaulay" in r.skip_reason


# ---------------------------------------------------------------------------
# codimension-1 corollary

def test_codim1_finite_pd(model_b):
    r = check_cor_codim1(model_b.module("Ry"), model_b.sop("z"), 1, 1,
                         module_name="Ry", sop_name="z")
    assert r.verdict == CONSISTENT
    assert all(r.conditions.values())


def test_codim1_infinite_pd(model_b):
    r = check_cor_codim1(model_b.module("Rxy"), model_b.sop("z"), 1, 1,
                         module_name="Rxy", sop_name="z")
    assert r.verdict == CONSISTENT
    assert not any(r.conditions.values())


def test_codim1_skips_wrong_codimension(model_b):
    r = check_cor_codim1(model_b.module("R1"), model_b.sop("yz"), 1, 1)
    assert r.verdict == SKIPPED and "codimension" in r.skip_reason


def test_codim1_empty_sequence_for_finite_length_module(model_e):
    # k over the node: codim 1, dim 0, empty s.o.p.
    r = check_cor_codim1(model_e.module("k"), [], 1, 1, module_name="k",
                         sop_name="(empty)")
    assert r.verdict == CONSISTENT
    assert not r.conditions["c1_pd_finite"]
    assert not r.conditions["c2_all_tor_vanish"]


# ---------------------------------------------------------------------------
# Gorensteinness

def test_gorenstein_cusp_all_methods(model_d):
    D = model_d.ring
    x = model_d.sop("x")
    for method in ("canonical_frobenius", "ext_pushforward", "tor_omega"):
        r = check_gorenstein(D, method, x=x, n=1, kappa_bound=1)
        assert r.verdict == CONSISTENT, method
        assert r.conditions["premise"], method
        assert r.conditions["conclusion_gorenstein"], method


def test_gorenstein_semigroup_all_methods_fail_premise(model_c, budget):
    C = model_c.ring
    x = model_c.sop("x")
    for method in ("canonical_frobenius", "ext_pushforward", "tor_omega"):
        r = check_gorenstein(C, method, x=x, n=1, kappa_bound=1,
                             budget=budget)
        assert r.verdict == CONSISTENT, method
        assert not r.conditions["premise"], method
        assert not r.conditions["conclusion_gorenstein"], method
    assert r.quantities["cm_type"] == 2


def test_gorenstein_regular_ring_pushforward_free(model_a):
    r = check_gorenstein(model_a.ring, "ext_pushforward", n=1, kappa_bound=0)
    assert r.verdict == CONSISTENT
    assert r.conditions["premise"] and r.conditions["conclusion_gorenstein"]


def test_gorenstein_node_via_assertion(model_e):
    # not a domain; generically_gorenstein flag carries the rank hypothesis
    r = check_gorenstein(model_e.ring, "canonical_frobenius", n=1,
                         kappa_bound=1)
    assert r.verdict == CONSISTENT
    assert r.inputs["rank_source"] == "assertion"
    assert r.conditions["premise"] and r.conditions["conclusion_gorenstein"]


def test_gorenstein_skip_without_assertion():
    from frobcheck import RingModel
    R0 = RingModel(2, ["x", "y"])
    E2 = RingModel(2, ["x", "y"], ideal_gens=[P(R0, "x*y")], expected_CM=True)
    r = check_gorenstein(E2, "canonical_frobenius", n=1, kappa_bound=1)
    assert r.verdict == SKIPPED


# ---------------------------------------------------------------------------
# rigidity scans

def test_rigidity_free_module(model_b):
    v = rigidity_scan(PresentedModule.free(model_b.ring, 1), (1, 2), (1, 3))
    assert v.classification == "RIGID_WITNESSED" and v.pd_finite


def test_rigidity_k_over_node(model_e):
    v = rigidity_scan(model_e.module("k"), (1, 2), (1, 3), module_id="k")
    assert v.classification == "RIGID_WITNESSED"
    assert not v.pd_finite
    assert not any(v.table.values())


def test_rigidity_omega_semigroup_never_claims_gorenstein(model_c, budget):
    from frobcheck import canonical_module
    om = canonical_module(model_c.ring, budget)
    v = rigidity_scan(om, (1, 2), (1, 3), budget=budget,
                      module_id="omega")
    assert v.classification in ("RIGID_WITNESSED", "VANISHING_FOUND",
                                "INCONCLUSIVE")
    assert not v.pd_finite
    text = v.render()
    assert "gorenstein" not in text.lower()


# ---------------------------------------------------------------------------
# syzygy shift: Tor_i(M/xM, fR) = Tor_1(S/xS, fR) with S the (i-1)-th syzygy

@pytest.mark.parametrize("model_key,sop_name", [("model_b", "yz"),
                                                ("model_d", "x")])
def test_syzygy_shift_for_mcm(model_key, sop_name, request):
    from frobcheck import minimalize, tor_frobenius
    from frobcheck.invariants import quotient_by_sequence
    from frobcheck.module_engine import minimal_free_resolution
    mf = request.getfixturevalue(model_key)
    M = mf.module("MF")
    x = mf.sop(sop_name)
    res = minimal_free_resolution(M, 2)
    # first syzygy module of M, presented by d_2
    S1 = PresentedModule(M.ring, res.rank(1), res.differential(2))
    mxm = quotient_by_sequence(minimalize(M), x)
    s1x = quotient_by_sequence(minimalize(S1), x)
    lhs = module_length(tor_frobenius(mxm, 1, 2, "functor"))
    rhs = module_length(tor_frobenius(s1x, 1, 1, "functor"))
    assert lhs == rhs
