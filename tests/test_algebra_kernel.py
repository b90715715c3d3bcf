"""Kernel-level oracles: Groebner bases, normal forms, colengths,
dimensions, Frobenius powers of ring elements."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from frobcheck import (ArgumentError, INFINITE, Polynomial, RingModel,
                       buchberger, krull_dimension, module_length,
                       normal_form, tor)
from frobcheck.algebra_kernel import _k_polynomial, standard_monomials
from frobcheck.cli import parse_polynomial
from conftest import box_standard_monomials, colength


def ring2():
    return RingModel(2, ["x", "y"])


def ring3():
    return RingModel(3, ["x", "y", "z"])


def P(ring, s):
    return parse_polynomial(ring, s)


def bracket(gens, q):
    """Generators g^q of the bracket power (gens)^[q]."""
    return [g.frobenius_power(q) for g in gens]


# ---------------------------------------------------------------------------
# independent oracle: graded dimension count by row reduction

def _rank_mod_p(rows, p, width):
    rank = 0
    rows = [list(r) for r in rows]
    col = 0
    while rows and col < width:
        piv = next((i for i, r in enumerate(rows) if r[col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        head = rows[0]
        inv = pow(head[col], p - 2, p)
        for r in rows[1:]:
            if r[col] % p:
                f = (r[col] * inv) % p
                for j in range(col, width):
                    r[j] = (r[j] - f * head[j]) % p
        rows = rows[1:]
        rank += 1
        col += 1
    return rank


def brute_force_colength(ring, gens, maxdeg):
    """Sum over degrees of dim S_d - dim J_d.

    Complete once the quotient vanishes in max(weights)-many consecutive
    degrees: any later monomial is a variable times a monomial from that
    zero window, hence already in the ideal.
    """
    p = ring.p
    monos_by_deg = {}
    ranges = [range(maxdeg // w + 1) for w in ring.weights]
    for e in product(*ranges):
        d = sum(w * ei for w, ei in zip(ring.weights, e))
        if d <= maxdeg:
            monos_by_deg.setdefault(d, []).append(e)
    total = 0
    top_zero = 0
    for d in range(maxdeg + 1):
        monos = sorted(monos_by_deg.get(d, []))
        if not monos:
            top_zero += 1
            continue
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for g in gens:
            gdeg = max(map(ring.ctx.wdeg, g.terms), default=0)
            if gdeg > d:
                continue
            for m in monos_by_deg.get(d - gdeg, []):
                row = [0] * len(monos)
                for gm, c in g.terms.items():
                    row[index[tuple(a + b for a, b in zip(m, gm))]] = c
                rows.append(row)
        quotient = len(monos) - _rank_mod_p(rows, p, len(monos))
        total += quotient
        top_zero = top_zero + 1 if quotient == 0 else 0
    assert top_zero >= max(ring.weights), \
        "increase maxdeg: quotient not yet exhausted"
    return total


# ---------------------------------------------------------------------------
# buchberger

def test_single_monic_generator_is_its_own_basis():
    R = ring2()
    gb = buchberger([P(R, "x")], R)
    assert [str(g) for g in gb.polynomials()] == ["x"]


def test_x2_xy_is_already_a_basis():
    # the single S-pair y*x^2 - x*xy reduces to 0 by hand
    R = ring2()
    gb = buchberger([P(R, "x^2"), P(R, "x*y")], R)
    assert sorted(str(g) for g in gb.polynomials()) == ["x*y", "x^2"]


def test_colength_18_against_brute_force():
    R = ring3()
    gens = [P(R, "x^2+y*z"), P(R, "y^3"), P(R, "z^3")]
    oracle = brute_force_colength(R, gens, maxdeg=9)
    assert oracle == 18
    gb = buchberger(gens, R)
    assert colength(gb) == 18
    assert len(box_standard_monomials(gb)) == 18


def test_colength_18_against_sympy():
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    sgb = sympy.groebner([x**2 + y * z, y**3, z**3], x, y, z,
                         order="grevlex", modulus=3)
    R = ring3()
    mine = buchberger([P(R, "x^2+y*z"), P(R, "y^3"), P(R, "z^3")], R)
    mine_exprs = []
    for g in mine.polynomials():
        e = sympy.Integer(0)
        for m, c in g.terms.items():
            e += c * x ** m[0] * y ** m[1] * z ** m[2]
        mine_exprs.append(sympy.Poly(e, x, y, z, modulus=3))
    assert len(mine_exprs) == len(sgb.exprs)
    for g in mine_exprs:
        assert sgb.reduce(g.as_expr())[1] == 0
    theirs = sympy.groebner([g.as_expr() for g in mine_exprs], x, y, z,
                            order="grevlex", modulus=3)
    for g in sgb.exprs:
        assert theirs.reduce(g)[1] == 0


def test_weighted_colengths_match_sympy_unweighted():
    # vector-space dimension of the quotient is order-independent, so the
    # weighted-grevlex engine must agree with sympy's plain grevlex
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import grevlex as sym_grevlex

    def sympy_colength(gens, syms, p):
        gb = sympy.groebner(gens, *syms, order="grevlex", modulus=p)
        lt = [max(g.monoms(), key=sym_grevlex) for g in gb.polys]
        v = len(syms)
        bounds = []
        for i in range(v):
            pure = [m[i] for m in lt
                    if m[i] > 0 and all(m[j] == 0 for j in range(v) if j != i)]
            bounds.append(min(pure))
        count = 0
        for e in product(*(range(b) for b in bounds)):
            if not any(all(e[j] >= m[j] for j in range(v)) for m in lt):
                count += 1
        return count

    xs = sympy.symbols("x y z")
    x, y, z = xs
    C = RingModel(5, ["x", "y", "z"], weights=(3, 4, 5))
    mine = colength(buchberger(
        [P(C, "x*z-y^2"), P(C, "x^3-y*z"), P(C, "x^2*y-z^2"),
         P(C, "x^5"), P(C, "y^5"), P(C, "z^5")], C))
    theirs = sympy_colength(
        [x*z - y**2, x**3 - y*z, x**2*y - z**2, x**5, y**5, z**5], xs, 5)
    assert mine == theirs == 15

    D = RingModel(5, ["x", "y"], weights=(2, 3))
    mine = colength(buchberger(
        [P(D, "y^2-x^3"), P(D, "x^5"), P(D, "y^5")], D))
    theirs = sympy_colength([y**2 - x**3, x**5, y**5], (x, y), 5)
    assert mine == theirs == 10


def test_determinism_under_generator_permutation():
    R = ring3()
    gens = [P(R, "x^2+y*z"), P(R, "y^3"), P(R, "z^3")]
    base = [str(g) for g in buchberger(gens, R).polynomials()]
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        permuted = [gens[i] for i in perm]
        assert [str(g) for g in buchberger(permuted, R).polynomials()] == base


# ---------------------------------------------------------------------------
# normal form

def test_normal_form_one_step():
    R = ring3()
    gb = buchberger([P(R, "x^2+y*z")], R)
    assert str(normal_form(P(R, "x^2"), gb)) == "2*y*z"   # -yz mod 3


def test_normal_form_ideal_member_and_irreducible():
    R = ring3()
    gb = buchberger([P(R, "x^2+y*z")], R)
    assert normal_form(P(R, "y") * P(R, "x^2+y*z"), gb).is_zero()
    R2 = ring2()
    gbx = buchberger([P(R2, "x")], R2)
    assert str(normal_form(P(R2, "y"), gbx)) == "y"


def test_normal_form_ring_mismatch():
    R2, R3 = ring2(), ring3()
    gb = buchberger([P(R2, "x")], R2)
    with pytest.raises(ArgumentError):
        normal_form(P(R3, "x"), gb)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_normal_form_idempotent(data):
    ring = RingModel(3, ["x", "y"])
    gens = [data.draw(_poly_strategy(ring, max_exp=3, max_terms=3))
            for _ in range(2)]
    f = data.draw(_poly_strategy(ring))
    gb = buchberger(gens, ring)
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf


def test_membership_soundness_hand_instances():
    R = ring3()
    gens = [P(R, "x^2+y*z"), P(R, "y^3")]
    gb = buchberger(gens, R)
    inside = gens[0] * P(R, "z^2") + gens[1] * P(R, "x+y")
    assert normal_form(inside, gb).is_zero()
    assert not normal_form(P(R, "x"), gb).is_zero()
    assert not normal_form(P(R, "y^2"), gb).is_zero()


# ---------------------------------------------------------------------------
# colength / dimension

def test_colength_bracket_square_of_m():
    R = ring2()
    gb = buchberger(bracket([P(R, "x"), P(R, "y")], 2), R)
    assert colength(gb) == 4
    assert set(box_standard_monomials(gb)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_colength_maximal_ideal():
    R = ring2()
    gb = buchberger([P(R, "x"), P(R, "y")], R)
    assert colength(gb) == 1
    assert box_standard_monomials(gb) == [(0, 0)]


def test_colength_infinite_for_zero_ideal():
    R = ring2()
    gb = buchberger([], R)
    assert colength(gb) is INFINITE
    assert box_standard_monomials(gb) is None


@pytest.mark.parametrize("q", [2, 4])
def test_colength_of_bracket_power_is_q_to_v(q):
    R = ring2()
    gb = buchberger(bracket([P(R, "x"), P(R, "y")], q), R)
    assert colength(gb) == q ** 2


def test_node_bracket_colengths_known_values():
    # len(k[x,y]/(xy, x^q, y^q)) = 2q - 1
    R = ring2()
    for q in (2, 4, 8):
        gens = [P(R, "x*y")] + bracket([P(R, "x"), P(R, "y")], q)
        gb = buchberger(gens, R)
        assert colength(gb) == 2 * q - 1
        assert brute_force_colength(R, gens, maxdeg=2 * q + 2) == 2 * q - 1


def test_quadric_bracket_colength_against_brute_force():
    R = ring3()
    gens = [P(R, "x^2+y*z"), P(R, "x^3"), P(R, "y^3"), P(R, "z^3")]
    gb = buchberger(gens, R)
    engine = colength(gb)
    assert engine == brute_force_colength(R, gens, maxdeg=10)


def test_weighted_cusp_colength_against_brute_force():
    C = RingModel(5, ["x", "y"], weights=(2, 3))
    gens = [P(C, "y^2-x^3"), P(C, "x^5"), P(C, "y^5")]
    gb = buchberger(gens, C)
    engine = colength(gb)
    assert engine == brute_force_colength(C, gens, maxdeg=40)


def test_krull_dimension_examples():
    R2, R3 = ring2(), ring3()
    assert krull_dimension(buchberger([], R2)) == 2
    assert krull_dimension(buchberger([P(R3, "x^2+y*z")], R3)) == 2
    C = RingModel(5, ["x", "y", "z"], weights=(3, 4, 5))
    gens = [P(C, "x*z-y^2"), P(C, "x^3-y*z"), P(C, "x^2*y-z^2")]
    assert krull_dimension(buchberger(gens, C)) == 1


# ---------------------------------------------------------------------------
# lengths and dimensions from the Hilbert series, against direct counts

def _box_count(leads, nvars):
    """Standard monomials counted in the box the pure powers bound."""
    if any(not any(m) for m in leads):
        return 0
    bounds = []
    for i in range(nvars):
        powers = [m[i] for m in leads if m[i] and sum(map(bool, m)) == 1]
        if not powers:
            return INFINITE
        bounds.append(min(powers))
    return sum(1 for e in product(*(range(b) for b in bounds))
               if not any(all(a <= c for a, c in zip(m, e)) for m in leads))


def _independent_set_dimension(leads, nvars):
    """Most variables a set can hold with no lead supported inside it.

    -1 for a unit lead (the quotient is zero).
    """
    if any(not any(m) for m in leads):
        return -1
    supports = [{i for i, e in enumerate(m) if e} for m in leads]
    return max(size for size in range(nvars + 1)
               for U in combinations(range(nvars), size)
               if not any(s <= set(U) for s in supports))


def _monomial_ideal_basis(nvars, leads):
    ring = RingModel(2, ["x", "y", "z", "w"][:nvars])
    return buchberger([ring.monomial(m) for m in leads], ring)


@pytest.mark.parametrize("nvars, leads, count, dim", [
    (2, [], INFINITE, 2),
    (3, [(0, 0, 0), (1, 0, 0)], 0, -1),
    (2, [(2, 0), (1, 1), (0, 3)], 4, 0),
    (3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)], 19, 0),
    (3, [(1, 1, 0), (0, 1, 1)], INFINITE, 2),
    (4, [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0)], INFINITE, 2),
])
def test_series_on_named_monomial_ideals(nvars, leads, count, dim):
    assert standard_monomials(leads, nvars) == count == \
        _box_count(leads, nvars)
    assert krull_dimension(_monomial_ideal_basis(nvars, leads)) == dim == \
        _independent_set_dimension(leads, nvars)


@st.composite
def _monomial_ideals(draw):
    """Leads in 1-4 variables; about half carry a pure power of each
    variable, so Artinian and non-Artinian ideals both occur."""
    nvars = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 4)] * nvars).filter(any)
    leads = draw(st.lists(mono, max_size=6))
    if draw(st.booleans()):
        leads += [tuple(draw(st.integers(1, 6)) if j == i else 0
                        for j in range(nvars)) for i in range(nvars)]
    return nvars, leads


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ideal=_monomial_ideals())
def test_series_count_and_dimension_match_direct_counts(ideal):
    nvars, leads = ideal
    assert standard_monomials(leads, nvars) == _box_count(leads, nvars)
    assert krull_dimension(_monomial_ideal_basis(nvars, leads)) == \
        _independent_set_dimension(leads, nvars)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ideal=_monomial_ideals().filter(lambda ideal: ideal[0] <= 3),
       data=st.data())
def test_weighted_k_polynomial_matches_a_direct_count(ideal, data):
    # K(t) = prod(1 - t^w_i) sum_j h_j t^j, h_j the number of monomials of
    # weighted degree j outside J; compared up to the degree of K
    nvars, leads = ideal
    weights = data.draw(st.tuples(*[st.integers(1, 3)] * nvars))
    k = _k_polynomial(leads, weights)
    top = len(k) - 1
    h = [0] * (top + 1)
    for e in product(*(range(top // w + 1) for w in weights)):
        d = sum(w * a for w, a in zip(weights, e))
        if d <= top and not any(all(a <= c for a, c in zip(m, e))
                                for m in leads):
            h[d] += 1
    for w in weights:
        h = [c - (h[j - w] if j >= w else 0) for j, c in enumerate(h)]
    assert h == k


def test_series_on_corpus_relation_bases_over_weighted_rings(model_c,
                                                             model_d):
    # C has weights (3, 4, 5) and D (2, 3); the references ignore weights
    multi = 0
    for mf in (model_c, model_d):
        k = mf.module("k")
        nvars = len(mf.ring.variables)
        modules = [M for _, M in sorted(mf.modules.items())]
        for M in modules + [tor(k, k, 1), tor(k, k, 2)]:
            gb = M.relations_groebner()
            per_position = gb.leads_by_position()
            counts = [_box_count(leads, nvars) for leads in per_position]
            assert [standard_monomials(leads, nvars)
                    for leads in per_position] == counts
            assert module_length(M) == (
                INFINITE if INFINITE in counts else sum(counts))
            assert krull_dimension(gb) == max(
                [_independent_set_dimension(leads, nvars)
                 for leads in per_position] + [-1])
            multi += gb.ambient_rank > 1
    assert multi >= 4


# ---------------------------------------------------------------------------
# Frobenius powers of ring elements

def test_bracket_power_monomials():
    R = ring2()
    out = bracket([P(R, "x"), P(R, "y")], 2)
    assert [str(g) for g in out] == ["x^2", "y^2"]


def test_bracket_power_freshmans_dream():
    R = RingModel(3, ["x", "y"])
    assert str(P(R, "x+y").frobenius_power(3)) == "x^3+y^3"
    assert P(R, "x+y").frobenius_power(3) == P(R, "x+y") ** 3
    R3 = ring3()
    f = P(R3, "2*x^2+y*z")
    assert str(f.frobenius_power(3)) == "2*x^6+y^3*z^3"
    assert f.frobenius_power(9) == f ** 9


def _poly_strategy(ring, max_exp=4, max_terms=5):
    mono = st.tuples(*[st.integers(0, max_exp)
                       for _ in ring.variables])
    coeff = st.integers(1, ring.p - 1)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda t: Polynomial.from_terms(ring, t))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_buchberger_matches_sympy_on_unit_weights(data):
    sympy = pytest.importorskip("sympy")
    ring = RingModel(3, ["x", "y"], is_domain=True)
    gens = [data.draw(_poly_strategy(ring, max_exp=3, max_terms=3))
            for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    mine = buchberger(gens, ring)
    xs = sympy.symbols("x y")

    def to_expr(g):
        e = sympy.Integer(0)
        for m, c in g.terms.items():
            e += c * xs[0] ** m[0] * xs[1] ** m[1]
        return e

    sym_gens = [to_expr(g) for g in gens]
    if not sym_gens:
        assert len(mine) == 0
        return
    sgb = sympy.groebner(sym_gens, *xs, order="grevlex", modulus=3)
    # mutual membership: the two bases generate the same ideal
    for g in mine.polynomials():
        assert sgb.reduce(to_expr(g))[1] == 0
    theirs = [sympy.Poly(e, *xs, modulus=3) for e in sgb.exprs]
    for tp in theirs:
        f = Polynomial.from_terms(
            ring, {m: int(c) % 3 for m, c in zip(tp.monoms(), tp.coeffs())})
        assert normal_form(f, mine).is_zero()
    # same leading-term ideal size: both reduced, so same element count
    assert len(mine) == len(theirs)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_buchberger_permutation_determinism_random(data):
    ring = RingModel(2, ["x", "y"])
    gens = [data.draw(_poly_strategy(ring, max_exp=3, max_terms=3))
            for _ in range(3)]
    perm = data.draw(st.permutations(range(3)))
    a = buchberger(gens, ring)
    b = buchberger([gens[i] for i in perm], ring)
    assert [str(g) for g in a.polynomials()] == \
        [str(g) for g in b.polynomials()]


# ---------------------------------------------------------------------------
# ring model validation

def test_ring_rejects_non_prime():
    with pytest.raises(ArgumentError):
        RingModel(6, ["x"])


def test_ring_rejects_bad_weights():
    with pytest.raises(ArgumentError):
        RingModel(2, ["x", "y"], weights=(1, 0))


def test_ring_rejects_inhomogeneous_generator():
    R0 = ring2()
    with pytest.raises(ArgumentError):
        RingModel(2, ["x", "y"], ideal_gens=[P(R0, "x^2+y")])


def test_ring_rejects_constant_term_generator():
    R0 = ring2()
    with pytest.raises(ArgumentError):
        RingModel(2, ["x", "y"], ideal_gens=[P(R0, "1+x") + P(R0, "x")])


def test_weighted_homogeneity_accepted():
    # y^2 - x^3 is quasi-homogeneous exactly for weights (2, 3)
    R0 = RingModel(5, ["x", "y"], weights=(2, 3))
    RingModel(5, ["x", "y"], weights=(2, 3), ideal_gens=[P(R0, "y^2-x^3")])
    with pytest.raises(ArgumentError):
        RingModel(5, ["x", "y"], ideal_gens=[
            parse_polynomial(RingModel(5, ["x", "y"]), "y^2-x^3")])


def test_render_parse_round_trip():
    R = ring3()
    for s in ["x^2+y*z", "2*x*y+z^2", "x", "1", "x^2+2*y*z+z^2"]:
        f = P(R, s)
        assert P(R, str(f)) == f


def test_buchberger_budget_error_names_budget():
    from frobcheck.budget import Budget
    from frobcheck.errors import BudgetExceededError
    R = ring3()
    # leading terms x^2 and x*z^2 share x, so one S-pair survives the
    # coprime filter and trips a zero budget
    gens = [P(R, "x^2+y*z"), P(R, "x*z^2")]
    with pytest.raises(BudgetExceededError) as exc:
        buchberger(gens, R, Budget(max_spairs=0))
    assert exc.value.budget_name == "max_spairs"


def test_cancel_token_polled_between_spair_reductions():
    from frobcheck.budget import Budget

    class Cancelled(Exception):
        pass

    calls = []

    def cancel():
        calls.append(1)
        if len(calls) >= 2:
            raise Cancelled()

    R = ring3()
    gens = [P(R, "x^2+y*z"), P(R, "x*z^2"), P(R, "x*y^2+z^3")]
    with pytest.raises(Cancelled):
        buchberger(gens, R, Budget(cancel_check=cancel))
    assert calls


def test_memoization_is_invisible():
    # a fresh model must produce results identical to a cached one
    def build():
        R0 = ring3()
        return RingModel(3, ["x", "y", "z"],
                         ideal_gens=[P(R0, "x^2+y*z")],
                         is_domain=True, expected_CM=True)

    R1, R2 = build(), build()
    first = [str(g) for g in R1.ideal_groebner().polynomials()]
    assert R1.dim() == R2.dim() == 2
    # R1's basis is now cached, R2's is fresh
    assert [str(g) for g in R2.ideal_groebner().polynomials()] == first
    assert [str(g) for g in R1.ideal_groebner().polynomials()] == first
