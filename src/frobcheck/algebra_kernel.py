"""Exact arithmetic in F_p[x_1..x_v] and Groebner machinery for ideals.

The ambient polynomial ring S carries a weighted graded reverse
lexicographic order (weighted grevlex). A RingModel is S together with a
list of quasi-homogeneous ideal generators contained in the irrelevant
maximal ideal m = (x_1..x_v); the quotient R = S/I stands in for the local
ring at the origin, which is faithful because every ideal and matrix entry
in the pipeline is graded. Lengths are therefore F_p-dimensions.

All values are immutable after construction and every operation is a pure
function of its inputs; internal memoization is keyed on immutable data and
cannot change results.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import _engine
from ._engine import EngineContext, GIndex, Mono, reduce_full
from .budget import DEFAULT_BUDGET, Budget
from .errors import ArgumentError

INFINITE = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Polynomial:
    """Sparse polynomial over F_p: a map from exponent tuples to residues.

    No zero coefficients are stored and coefficients live in [1, p).
    Iteration order for rendering is decreasing weighted grevlex, which
    makes the text form canonical.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "RingModel", terms: Dict[Mono, int]):
        self.ring = ring
        self.terms = terms

    @classmethod
    def from_terms(cls, ring: "RingModel", terms: Dict[Mono, int]) -> "Polynomial":
        p = ring.p
        clean = {}
        for m, c in terms.items():
            c %= p
            if c:
                clean[tuple(m)] = c
        return cls(ring, clean)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get(self.ring.ctx.zero_mono, 0)

    def in_maximal_ideal(self) -> bool:
        return self.constant_term() == 0

    def is_quasi_homogeneous(self) -> bool:
        degs = {self.ring.ctx.wdeg(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if not self.ring.compatible(other.ring):
            raise ArgumentError("ring mismatch between polynomial operands")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        p = self.ring.p
        out: Dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return Polynomial(self.ring, {})
        if c == 1:
            return self
        return Polynomial(self.ring,
                          {m: (c * a) % self.ring.p for m, a in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ArgumentError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def frobenius_power(self, q: int) -> "Polynomial":
        """The q-th power for q a power of p: exponents scale by q.

        Valid because coefficients lie in F_p (c^q = c) and the freshman's
        dream holds in characteristic p.
        """
        return Polynomial(self.ring,
                          {tuple(q * e for e in m): c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.ring.compatible(other.ring)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.ring.signature(), tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        return self.ring.render_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.ring.render_poly(self)!r})"


class RingModel:
    """Characteristic-p quotient ring presented as S/I with positive weights.

    ``ideal_gens`` must be quasi-homogeneous with all terms of positive
    weighted degree; inputs violating this are rejected so that graded and
    local behavior agree. ``is_domain`` and ``expected_CM`` are user
    assertions (the second is verified on demand by the invariants layer);
    ``generically_gorenstein`` is the assertion consumed by the
    Gorensteinness checkers when ``is_domain`` is false.
    """

    __slots__ = ("p", "variables", "weights", "ideal_gens", "is_domain",
                 "expected_CM", "generically_gorenstein", "ctx", "_cache")

    def __init__(self, p: int, variables: Sequence[str],
                 weights: Optional[Sequence[int]] = None,
                 ideal_gens: Iterable[Polynomial] = (),
                 is_domain: bool = False,
                 expected_CM: Optional[bool] = None,
                 generically_gorenstein: Optional[bool] = None):
        if not _is_prime(p):
            raise ArgumentError(f"characteristic {p} is not prime")
        variables = tuple(variables)
        if len(set(variables)) != len(variables) or not variables:
            raise ArgumentError("variables must be distinct and nonempty")
        if weights is None:
            weights = (1,) * len(variables)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(variables) or any(w <= 0 for w in weights):
            raise ArgumentError("weights must be positive, one per variable")
        self.p = p
        self.variables = variables
        self.weights = weights
        self.ctx = EngineContext(p, weights)
        self.is_domain = bool(is_domain)
        self.expected_CM = expected_CM
        self.generically_gorenstein = generically_gorenstein
        self._cache: dict = {}
        gens = []
        for g in ideal_gens:
            if not isinstance(g, Polynomial):
                raise ArgumentError("ideal generators must be Polynomial values")
            if g.is_zero():
                continue
            if not g.is_quasi_homogeneous():
                raise ArgumentError(
                    f"ideal generator {g.ring.render_poly(g)} is not "
                    "quasi-homogeneous for the declared weights")
            terms = dict(g.terms)
            reb = Polynomial(self, terms)
            if not reb.in_maximal_ideal():
                raise ArgumentError(
                    f"ideal generator {self.render_poly(reb)} has a constant "
                    "term; generators must lie in the maximal ideal")
            gens.append(reb)
        self.ideal_gens = tuple(gens)

    # -- identity --------------------------------------------------------

    def signature(self) -> tuple:
        return (self.p, self.variables, self.weights)

    def compatible(self, other: "RingModel") -> bool:
        return self is other or self.signature() == other.signature()

    def same_quotient(self, other: "RingModel", budget: Budget) -> bool:
        """Same S and the same ideal: reduced Groebner bases are unique."""
        return self is other or (
            self.compatible(other)
            and self.ideal_groebner(budget).index.elems
            == other.ideal_groebner(budget).index.elems)

    def __repr__(self) -> str:
        gens = ", ".join(self.render_poly(g) for g in self.ideal_gens)
        return (f"RingModel(F_{self.p}[{', '.join(self.variables)}], "
                f"weights={self.weights}, ideal=({gens}))")

    # -- element constructors ---------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return Polynomial(self, {self.ctx.zero_mono: 1})

    def constant(self, c: int) -> Polynomial:
        return Polynomial.from_terms(self, {self.ctx.zero_mono: c})

    def variable(self, which) -> Polynomial:
        if isinstance(which, str):
            which = self.variables.index(which)
        mono = tuple(1 if i == which else 0 for i in range(len(self.variables)))
        return Polynomial(self, {mono: 1})

    def monomial(self, mono: Sequence[int], coeff: int = 1) -> Polynomial:
        return Polynomial.from_terms(self, {tuple(mono): coeff})

    # -- quotient structure ------------------------------------------------

    def ideal_groebner(self, budget: Budget = DEFAULT_BUDGET) -> "GroebnerBasis":
        gb = self._cache.get("ideal_gb")
        if gb is None:
            gb = buchberger(list(self.ideal_gens), self, budget)
            self._cache["ideal_gb"] = gb
        return gb

    def nf(self, f: Polynomial, budget: Budget = DEFAULT_BUDGET) -> Polynomial:
        """Normal form of f modulo the ideal (canonical coset representative)."""
        return normal_form(f, self.ideal_groebner(budget))

    def dim(self, budget: Budget = DEFAULT_BUDGET) -> int:
        d = self._cache.get("dim")
        if d is None:
            d = krull_dimension(self.ideal_groebner(budget))
            self._cache["dim"] = d
        return d

    def ambient(self) -> "RingModel":
        """The polynomial ring S itself (no ideal), same order data."""
        amb = self._cache.get("ambient")
        if amb is None:
            if not self.ideal_gens:
                amb = self
            else:
                amb = RingModel(self.p, self.variables, self.weights, (),
                                is_domain=True, expected_CM=True)
            self._cache["ambient"] = amb
        return amb

    # -- rendering ---------------------------------------------------------

    def render_terms(self, terms: Iterable[Tuple[int, int]]) -> str:
        """Text of the terms (k(m), c), given in descending order; each
        monomial's text is made once per ring."""
        names = self._cache.setdefault("names", {})
        chunks = []
        for k, c in terms:
            mono = names.get(k)
            if mono is None:
                mono = names[k] = "*".join(
                    f"{x}^{e}" if e > 1 else x
                    for x, e in zip(self.variables, self.ctx.mono_of(k)) if e)
            chunks.append(mono if c == 1 and mono else
                          f"{c}*{mono}" if mono else str(c))
        return "+".join(chunks) or "0"

    def render_poly(self, f: Polynomial) -> str:
        key = self.ctx.mono_key
        return self.render_terms(sorted(
            ((key(m), c) for m, c in f.terms.items()), reverse=True))


class GroebnerBasis:
    """Reduced Groebner basis of an ideal or of a submodule of R^r.

    ``ambient_rank`` is 1 for ideals. Iteration and rendering order is by
    increasing leading term; reducedness (no term divisible by another lead,
    monic elements) is guaranteed by construction. The basis is held
    packed in ``index``; the views below decode it.
    """

    __slots__ = ("ring", "ambient_rank", "index")

    def __init__(self, ring: RingModel, ambient_rank: int, index: GIndex):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.index = index

    def __len__(self) -> int:
        return len(self.index.elems)

    def leads_by_position(self) -> List[Tuple[Mono, ...]]:
        """Generators of the leading ideal at each ambient position."""
        idx = self.index
        monos = idx.lead_monos()
        return [tuple(monos[k] for k in idx.by_pos.get(j, ()))
                for j in range(self.ambient_rank)]

    def polynomials(self) -> List[Polynomial]:
        if self.ambient_rank != 1:
            raise ArgumentError("polynomials() requires an ideal basis")
        unpack = self.ring.ctx.unpack
        return [Polynomial(self.ring, {m: c for _, m, c in unpack(vec)})
                for vec in self.index.elems]

    def vectors(self) -> List[Tuple[Polynomial, ...]]:
        out = []
        for vec in self.index.elems:
            cols: List[Dict[Mono, int]] = [dict() for _ in range(self.ambient_rank)]
            for pos, m, c in self.ring.ctx.unpack(vec):
                cols[pos][m] = c
            out.append(tuple(Polynomial(self.ring, t) for t in cols))
        return out


def buchberger(gens: Sequence[Polynomial], ring: RingModel,
               budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Unique reduced Groebner basis of the ideal generated by ``gens``.

    Deterministic: normal strategy S-pair selection with index tie-breaks;
    permuting the generators cannot change the result.
    """
    for g in gens:
        if not ring.compatible(g.ring):
            raise ArgumentError("generator does not lie in the model's ring")
    pack = ring.ctx.pack
    gbd = _engine.buchberger_flat(
        [pack((0, m, c) for m, c in g.terms.items()) for g in gens],
        ring.ctx, budget)
    return GroebnerBasis(ring, 1, gbd.index)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo gb; zero iff f lies in the ideal."""
    if not gb.ring.compatible(f.ring):
        raise ArgumentError("ring mismatch between polynomial and basis")
    if gb.ambient_rank != 1:
        raise ArgumentError("normal_form on polynomials needs an ideal basis")
    ctx = gb.ring.ctx
    out = reduce_full(ctx.pack((0, m, c) for m, c in f.terms.items()),
                      gb.index, ctx)
    return Polynomial(gb.ring, {m: c for _, m, c in ctx.unpack(out)})


def _minimal_monomials(monos: Iterable[Mono]) -> List[Mono]:
    """Minimal generators of the monomial ideal generated by ``monos``.

    Sorted by total degree, so a divisor is always seen before its
    multiples and a unit, if present, comes first.
    """
    out: List[Mono] = []
    for m in sorted(set(monos), key=sum):
        if not any(_engine.mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _add_shifted(a: List[int], b: List[int], shift: int) -> List[int]:
    """Coefficients of a(t) + t^shift * b(t)."""
    out = a + [0] * max(0, shift + len(b) - len(a))
    for j, c in enumerate(b, shift):
        out[j] += c
    return out


def _k_polynomial(leads: Sequence[Mono], weights: Sequence[int]
                  ) -> List[int]:
    """Coefficients of K(t) = prod(1 - t^w_i) H(t), H the Hilbert series of
    S/J.

    J is the monomial ideal generated by ``leads`` and x_i has degree
    ``weights[i]``. Pairwise coprime minimal generators give
    K = prod(1 - t^(w.g)). Otherwise Bigatti's pivot recursion (JPAA 119,
    1997) applies to a monomial x_i^e outside J:
    K(J) = K(J + x_i^e) + t^(w_i e) K(J : x_i^e), both ideals strictly
    larger than J, so the recursion ends. x_i is the variable in the most
    generators, at least two, so it is in a generator that is not a pure
    power; e is the median of its exponents in those. Each is below the
    exponent of a pure power of x_i in J, if there is one, so x_i^e is
    outside J.
    """
    gens = _minimal_monomials(leads)
    if not gens:
        return [1]
    if not any(gens[0]):
        return [0]
    nvars = len(gens[0])
    occurs = [sum(1 for m in gens if m[i]) for i in range(nvars)]
    i = max(range(nvars), key=occurs.__getitem__)
    if occurs[i] <= 1:
        k = [1]
        for m in gens:
            k = _add_shifted(k, [-c for c in k], sum(map(mul, weights, m)))
        return k
    exps = sorted(m[i] for m in gens if m[i] and sum(map(bool, m)) > 1)
    e = exps[len(exps) // 2]
    pivot = tuple(e if j == i else 0 for j in range(nvars))
    plus = [m for m in gens if m[i] < e] + [pivot]
    colon = _minimal_monomials(
        m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens)
    return _add_shifted(_k_polynomial(plus, weights),
                        _k_polynomial(colon, weights), weights[i] * e)


def _divide_one_minus_t(k: List[int]) -> Optional[List[int]]:
    """K / (1 - t) when (1 - t) divides K, that is K(1) = 0; else None."""
    if sum(k):
        return None
    return list(accumulate(k[:-1]))


def standard_monomials(leads: Sequence[Mono], nvars: int,
                       inside: Optional[Sequence[Mono]] = None):
    """Number of monomials outside the ideal J generated by ``leads`` or,
    with ``inside``, outside J but inside the ideal J' >= J it generates.

    Returns INFINITE when there are infinitely many. The count is the
    value at t = 1 of the Hilbert series K(t) / (1 - t)^nvars of S/J, or
    of J'/J with K = K(J) - K(J'); it is a polynomial exactly when
    (1 - t)^nvars divides K. The unit grading suffices: the monomials
    counted, and hence their number, do not depend on the weights.
    """
    units = (1,) * nvars
    k = _k_polynomial(leads, units)
    if inside is not None:
        k = _add_shifted(k, [-c for c in _k_polynomial(inside, units)], 0)
    for _ in range(nvars):
        k = _divide_one_minus_t(k)
        if k is None:
            return INFINITE
    return sum(k)


def krull_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of S^r/J from its leading terms.

    S^r/J and S^r/in(J) share a Hilbert function (Macaulay), and in(J) is
    a direct sum of monomial ideals, one per position; the dimension is the
    largest over positions. At one position it is v minus the number of
    times (1 - t) divides the K-polynomial of the lead ideal: the order of
    the pole of the Hilbert series at t = 1. The unit grading suffices,
    since the dimension is the growth order of the number of standard
    monomials, which does not depend on the weights. Returns -1 when every
    position has a unit lead (J is everything).
    """
    nvars = len(gb.ring.variables)
    best = -1
    for leads in gb.leads_by_position():
        k = _k_polynomial(leads, (1,) * nvars)
        if not any(k):
            continue
        order = 0
        while (k := _divide_one_minus_t(k)) is not None:
            order += 1
        best = max(best, nvars - order)
    return best

