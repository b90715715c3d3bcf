"""Acceptance suite.

One test per acceptance criterion, exact integer tolerances throughout.
Each test prints `[acceptance] criterion N: PASS ...` on success (run
pytest with -s to see the lines). The fixed corpus:

  A = F_2[x,y]                                  regular
  B = F_3[x,y,z]/(x^2+yz)                       hypersurface domain, d=2
  C = F_5[x,y,z]/(xz-y^2, x^3-yz, x^2y-z^2)     weights (3,4,5), CM domain, d=1
  D = F_5[x,y]/(y^2-x^3)                        weights (2,3), cusp, Gorenstein
  E = F_2[x,y]/(xy)                             node, not a domain

Every criterion runs at the default budget, passed explicitly through the
budget arguments.
"""

from frobcheck import (buchberger, canonical_module, check_cor_codim1,
                       check_cor_free, check_gorenstein, check_thm_kl,
                       check_thm_main1, cm_type_and_gorenstein,
                       depth_of_module, depth_of_ring, dimension_of_module, ext,
                       euler_characteristic, frobenius_module,
                       is_regular_sequence, kappa_for_sop, koszul_complex,
                       min_generators, minimal_free_resolution, minimalize,
                       module_length, normal_form, pd_is_finite,
                       pushforward_presentation,
                       rigidity_scan, ring_as_module, tor_frobenius)
from frobcheck.criteria import PAPER_VIOLATION
from frobcheck.cli import run
from frobcheck.invariants import quotient_by_sequence
from conftest import box_standard_monomials, colength, model_path


def _pass(n, msg):
    print(f"[acceptance] criterion {n}: PASS - {msg}")


def _corpus_modules(corpus, budget):
    """Per-ring module registry used by criteria 5, 8, 9 and 10."""
    reg = {}
    for key, mf in sorted(corpus.items()):
        entries = [(name, mf.module(name)) for name in sorted(mf.modules)]
        if key == "C":
            entries.append(("omega", canonical_module(mf.ring, budget)))
        reg[key] = entries
    return reg


# ---------------------------------------------------------------------------

def test_criterion_01_kunz_regular(corpus):
    A = corpus["A"].ring
    m = [A.variable(0), A.variable(1)]
    for q in (2, 4, 8):
        gb = buchberger([g.frobenius_power(q) for g in m], A)
        assert colength(gb) == len(box_standard_monomials(gb)) == q ** 2
    k = corpus["A"].module("k")
    for i in (1, 2, 3):
        for n in (1, 2):
            assert tor_frobenius(k, n, i, "both").is_zero()
    _pass(1, "len(A/m^[q]) = q^2 for q=2,4,8; Tor_i(k, f^nA) = 0 both routes")


def test_criterion_02_cor_free_positive(corpus):
    mf = corpus["B"]
    r = check_cor_free(mf.module("R2"), mf.sop("yz"), 1, 1,
                       module_name="R2", sop_name="yz")
    assert r.quantities["len_M_mod_x"] == 4
    assert r.quantities["len_Fn_M_mod_x"] == 36 == (3 ** 2) * 4
    assert all(r.conditions.values())
    assert r.verdict != PAPER_VIOLATION
    _pass(2, "B, M = R^2: lengths 4 and 36 = 3^2*4, conditions (1)-(4) true")


def test_criterion_03_cor_free_negative(corpus, capsys):
    mf = corpus["B"]
    r = check_cor_free(mf.module("MF"), mf.sop("yz"), 1, 1,
                       module_name="MF", sop_name="yz")
    assert r.quantities["len_M_mod_x"] == 2     # rank * len(R/x) exactly
    assert r.quantities["len_Fn_M_mod_x"] > 18  # strict
    assert not any(r.conditions.values())
    assert r.verdict != PAPER_VIOLATION
    mxm = quotient_by_sequence(minimalize(mf.module("MF")), mf.sop("yz"))
    assert not tor_frobenius(mxm, 1, 1, "functor").is_zero()
    code = run(["check", "free", model_path("b.json"), "-m", "MF",
                "-s", "yz", "-n", "1"])
    capsys.readouterr()
    assert code == 0
    _pass(3, "B, M = MF: len 2, F-length > 18 strictly, Tor_1 nonzero, "
             "all conditions false, exit 0")


def _chi_pairs(corpus):
    A, B, C, D, E = (corpus[k] for k in "ABCDE")
    ax, ay = (A.ring.variable(i) for i in range(2))
    pairs = [
        (A, "R1", A.sop("xy")),
        (A, "k", A.sop("xy")),
        (A, "Rx", (ay,)),
        (B, "R2", B.sop("yz")),
        (B, "MF", B.sop("yz")),
        (B, "k", B.sop("yz")),
        (B, "Ry", B.sop("z")),
        (C, "R1", C.sop("x")),
        (C, "k", C.sop("x")),
        (D, "R1", D.sop("x")),
        (D, "MF", D.sop("x")),
        (D, "k", D.sop("x")),
        (E, "R1", E.sop("s")),
        (E, "k", E.sop("s")),
        (E, "Ex", E.sop("s")),
    ]
    return pairs


def test_criterion_04_serre_lichtenbaum(corpus):
    pairs = _chi_pairs(corpus)
    assert len(pairs) >= 10
    for mf, name, x in pairs:
        ring = mf.ring
        M = mf.module(name)
        assert is_regular_sequence(x, ring_as_module(ring)), (name,)
        c = len(x)
        e0 = euler_characteristic(M, x, 0)
        dim_m = dimension_of_module(M)
        assert e0.value >= 0, (name, e0)
        assert (e0.value == 0) == (dim_m < c), (name, e0, dim_m, c)
        for i in (1, 2):
            ei = euler_characteristic(M, x, i)
            hi = ei.homology_lengths[i] if i < len(ei.homology_lengths) else 0
            assert ei.value >= 0, (name, i, ei)
            assert (ei.value == 0) == (hi == 0), (name, i, ei)
            if hi == 0:
                assert all(l == 0 for l in ei.homology_lengths[i:]), (name, i)
    _pass(4, f"chi/chi_i positivity and equality cases over "
             f"{len(pairs)} corpus pairs, exact")


def test_criterion_05_cross_oracle_tor(corpus, budget):
    reg = _corpus_modules(corpus, budget)
    checked = 0
    for key, entries in sorted(reg.items()):
        for name, M in entries:
            for i in range(0, 4):
                h = tor_frobenius(M, 1, i, "both", budget)
                checked += 1
                assert h is not None, (key, name, i)
    _pass(5, f"functor and pushforward Tor lengths agree on {checked} "
             "(module, i) instances, n = 1, exact")


def test_criterion_06_gorenstein_detection(corpus, budget):
    D = corpus["D"]
    t, gor = cm_type_and_gorenstein(D.ring)
    assert (t, gor) == (1, True)
    for method in ("canonical_frobenius", "ext_pushforward", "tor_omega"):
        r = check_gorenstein(D.ring, method, x=D.sop("x"), n=1,
                             kappa_bound=1)
        assert r.conditions["premise"], method
        assert r.verdict != PAPER_VIOLATION

    C = corpus["C"]
    t, gor = cm_type_and_gorenstein(C.ring, budget)
    assert (t, gor) == (2, False)
    omega = canonical_module(C.ring, budget)
    assert min_generators(omega) == 2 == t
    for method in ("canonical_frobenius", "ext_pushforward", "tor_omega"):
        r = check_gorenstein(C.ring, method, x=C.sop("x"), n=1,
                             kappa_bound=1, budget=budget)
        assert not r.conditions["premise"], method
        assert r.verdict != PAPER_VIOLATION
    omega_x = quotient_by_sequence(omega, C.sop("x"))
    assert not tor_frobenius(omega_x, 1, 1, "functor",
                             budget).is_zero(budget)
    pf = pushforward_presentation(C.ring, 1, budget)
    assert not ext(minimalize(pf.presentation, budget),
                   ring_as_module(C.ring), 1, budget).is_zero(budget)
    _pass(6, "D: type 1, all premises hold; C: type 2, all premises fail, "
             "Tor_1(omega/x, f^1R) != 0, Ext^1(f^1R, R) != 0, mu(omega) = 2")


def test_criterion_07_kappa_certificates(corpus):
    cases = [
        (corpus["B"], "yz", 1),
        (corpus["D"], "x", 1),
        (corpus["A"], "xy", 0),
    ]
    for mf, sop_name, expected in cases:
        ring = mf.ring
        x = mf.sop(sop_name)
        assert kappa_for_sop(ring, x) == expected
        # explicit membership re-verification, independent of the search
        gb = buchberger(list(ring.ideal_gens) + list(x), ring)
        q = ring.p ** expected
        for i in range(len(ring.variables)):
            assert normal_form(ring.variable(i) ** q, gb).is_zero()
        if expected > 0:
            qprev = ring.p ** (expected - 1)
            assert any(
                not normal_form(ring.variable(i) ** qprev, gb).is_zero()
                for i in range(len(ring.variables)))
    _pass(7, "kappa bounds 1, 1, 0 on B, D, A re-verified by membership")


def _mcm_pairs(corpus, budget):
    out = []
    for key, sop_name in (("A", "xy"), ("B", "yz"), ("C", "x"),
                          ("D", "x"), ("E", "s")):
        mf = corpus[key]
        for name in sorted(mf.modules):
            M = mf.module(name)
            if M.ambient_rank and depth_of_module(M, budget) == \
                    mf.ring.dim():
                out.append((key, name, M, mf.sop(sop_name)))
    mfc = corpus["C"]
    out.append(("C", "omega", canonical_module(mfc.ring, budget),
                mfc.sop("x")))
    return out


def test_criterion_08_low_degree_inequality(corpus, budget):
    checked = 0
    for key, name, M, x in _mcm_pairs(corpus, budget):
        ring = M.ring
        q = ring.p
        Mmin = minimalize(M, budget)
        mxm = quotient_by_sequence(Mmin, x)
        lhs = module_length(tor_frobenius(mxm, 1, 1, "functor", budget),
                            budget)
        fnm = frobenius_module(Mmin, 1, budget)
        xq = [g.frobenius_power(q) for g in x]
        K = koszul_complex(xq, fnm)
        rhs = module_length(K.homology_at(1, budget), budget)
        assert lhs >= rhs, (key, name, lhs, rhs)
        checked += 1
    assert checked >= 6
    _pass(8, f"len Tor_1(M/xM, f R) >= len Tor_1(F(M), R/x^[q]) on "
             f"{checked} MCM corpus instances")


def test_criterion_09_auslander_buchsbaum(corpus):
    checked = 0
    for key, mf in sorted(corpus.items()):
        for name in sorted(mf.modules):
            M = mf.module(name)
            if M.ambient_rank == 0:
                continue
            finite, pd = pd_is_finite(M)
            if finite:
                assert depth_of_module(M) + pd == depth_of_ring(mf.ring), \
                    (key, name)
                checked += 1
    assert checked >= 8
    kE = corpus["E"].module("k")
    finite, _ = pd_is_finite(kE)
    assert not finite
    assert minimal_free_resolution(kE, 2).ranks == (1, 2, 2)
    _pass(9, f"depth + pd = depth R on {checked} finite-pd modules; "
             "pd(k over E) infinite with Betti (1, 2, 2)")


def test_criterion_10_no_paper_violations(corpus, budget):
    kappa = {"A": 0, "B": 1, "C": 1, "D": 1, "E": 1}
    sop_for = {"A": "xy", "B": "yz", "C": "x", "D": "x", "E": "s"}
    # ranks for modules over E, constant at both minimal primes; Ex has
    # different local ranks and therefore no rank at all
    e_ranks = {"R1": 1, "k": 0, "Es": 0}
    reg = _corpus_modules(corpus, budget)
    verdicts = []

    def note(label, report):
        verdicts.append((label, report.verdict))

    for key, entries in sorted(reg.items()):
        mf = corpus[key]
        ring = mf.ring
        bound = kappa[key]
        x = mf.sop(sop_for[key])
        for name, M in entries:
            rank_override = e_ranks.get(name) if key == "E" else None
            note(f"{key}.main1.{name}",
                 check_thm_main1(M, 1, bound, budget,
                                 rank_override=rank_override,
                                 module_name=name))
            note(f"{key}.kl.{name}",
                 check_thm_kl(M, 1, bound, budget,
                              rank_override=rank_override, module_name=name))
            if M.ambient_rank and depth_of_module(M, budget) == ring.dim():
                note(f"{key}.free.{name}",
                     check_cor_free(M, x, 1, bound, budget=budget,
                                    rank_override=rank_override,
                                    module_name=name,
                                    sop_name=sop_for[key]))
        for method in ("canonical_frobenius", "ext_pushforward", "tor_omega"):
            note(f"{key}.gorenstein.{method}",
                 check_gorenstein(ring, method, x=x, n=1, kappa_bound=bound,
                                  budget=budget, sop_name=sop_for[key]))

    B = corpus["B"]
    note("B.codim1.Ry", check_cor_codim1(B.module("Ry"), B.sop("z"), 1, 1,
                                         budget=budget,
                                         module_name="Ry", sop_name="z"))
    note("B.codim1.Rxy", check_cor_codim1(B.module("Rxy"), B.sop("z"), 1, 1,
                                          budget=budget,
                                          module_name="Rxy", sop_name="z"))
    note("E.codim1.k", check_cor_codim1(corpus["E"].module("k"), [], 1, 1,
                                        budget=budget, module_name="k",
                                        sop_name="(empty)"))
    note("D.codim1.Rx", check_cor_codim1(corpus["D"].module("Rx"), [], 1, 1,
                                         budget=budget, module_name="Rx",
                                         sop_name="(empty)"))

    scans = 0
    for key, entries in sorted(reg.items()):
        for name, M in entries:
            if M.ambient_rank == 0:
                continue
            v = rigidity_scan(M, (1, 2), (1, 3), budget, module_id=name)
            assert v.classification in ("RIGID_WITNESSED", "VANISHING_FOUND",
                                        "INCONCLUSIVE"), (key, name)
            scans += 1

    bad = [(label, v) for label, v in verdicts if v == PAPER_VIOLATION]
    assert not bad, bad
    ran = len(verdicts)
    _pass(10, f"{ran} checker runs and {scans} rigidity scans across the "
              "corpus, zero PAPER_VIOLATION verdicts")
