"""Frobenius base-change functor on modules and complexes, pushforward
presentation, and certified upper bounds for the kappa invariant.

The functor raises every entry of a presentation matrix to the q-th power
(q = p^n); on a minimal presentation this is again a minimal presentation
of the base-changed module. The q-th power is additive over F_p, so it is
put in normal form from a per-ring memo of the monomials' powers. The
pushforward realizes R viewed through the n-th Frobenius as a finite
R-module on generators indexed by its standard residues, with relations
read off from normal forms of monomials. Over the graded R it splits into
blocks, one per class of wdeg(a) mod q of its residues a; many blocks are
isomorphic, and the pushforward route of Tor, like the Ext criterion,
computes once per distinct block and weights by its count. Tor against
the Frobenius has the two spec'd realizations; their lengths must agree,
which tor_frobenius can enforce in one call.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Dict, Sequence, Tuple

from ._engine import (DEGREE_LIMIT, Mono, mono_divides, past_ceiling,
                      reduce_full, vec_axpy)
from .algebra_kernel import (Polynomial, RingModel, _minimal_monomials,
                             normal_form)
from .budget import DEFAULT_BUDGET, Budget
from .errors import (ArgumentError, InternalConsistencyError,
                     PreconditionError)
from .invariants import sop_basis
from .module_engine import (FreeComplex, Matrix, PresentedModule,
                            direct_sum, minimal_free_resolution, minimalize,
                            module_length, tor)


def _power(ring: RingModel, n: int) -> int:
    """q = p^n for an iteration count n >= 0."""
    if n < 0:
        raise ArgumentError("Frobenius iteration count must be >= 0")
    return ring.p ** n


def _check_minimal(M: PresentedModule) -> None:
    top = M.ring.ctx.top
    if any(not t & top for col in M.columns for t in col):
        raise PreconditionError(
            "presentation has a unit entry; minimalize first")


def _bracket(ring: RingModel, cols: Matrix, q: int,
             budget: Budget = DEFAULT_BUDGET) -> Matrix:
    """Entrywise q-th powers in normal form. Over F_p, c^q = c and
    [sum c m]^q = sum c m^q; normal forms are linear, so each term
    (row, m, c) adds c * NF(m^q) at its row. NF(m^q) is reduced once per
    ring, memoized by k(m) under ("bracket_nf", q); k(m^q) = q * k(m), and
    its degree is checked against the ceiling before anything is packed or
    stored. Memo values are shared, so never handed out.
    """
    ctx, p = ring.ctx, ring.p
    top, mask, shift = ctx.top, ctx.mask, ctx.shift
    memo = ring._cache.setdefault(("bracket_nf", q), {})
    out: Matrix = []
    for col in cols:
        new = {}
        for t, c in col.items():
            k = t & top
            nf = memo.get(k)
            if nf is None:
                d = q * (k + mask >> shift)
                if d >= DEGREE_LIMIT:
                    raise past_ceiling(d)
                budget.check_cancel()
                nf = {q * k: 1}
                if ring.ideal_gens:
                    nf = reduce_full(nf, ring.ideal_groebner(budget).index,
                                     ctx)
                memo[k] = nf
            vec_axpy(new, c, t - k, nf, p)
        out.append(new)
    return out


def frobenius_module(M: PresentedModule, n: int,
                     budget: Budget = DEFAULT_BUDGET) -> PresentedModule:
    """F^n(M): every relation entry raised to the q-th power.

    Requires a minimal presentation (checked: no unit entries); the result
    is then the minimal presentation of the base change, since q-th powers
    stay inside the maximal ideal.
    """
    _check_minimal(M)
    return PresentedModule(M.ring, M.ambient_rank,
                           _bracket(M.ring, M.columns, _power(M.ring, n),
                                    budget), budget, trusted=True)


def frobenius_complex(G: FreeComplex, n: int,
                      budget: Budget = DEFAULT_BUDGET) -> FreeComplex:
    """F^n applied to a free complex: entrywise q-th powers of differentials,
    in normal form, as homology reads them.

    Built unverified: Frobenius is a ring map of S fixing F_p, so
    [d_i][d_(i+1)] = [d_i d_(i+1)] lies in I^[q], inside I, once d_i d_(i+1)
    does, as G's resolution checked. Homology at i presents Tor_i(M, f^n R)
    when G is a minimal resolution of M.
    """
    q = _power(G.ring, n)
    diffs = [_bracket(G.ring, d, q, budget) for d in G.differentials]
    return FreeComplex(G.ring, G.ranks, diffs, verify=False)


def _twisted_homology(G: FreeComplex, n: int, i: int,
                      budget: Budget = DEFAULT_BUDGET) -> PresentedModule:
    """H_i of F^n(G), twisting only the steps i-1, i, i+1 that it reads."""
    window = FreeComplex(G.ring, [G.rank(i - 1), G.rank(i), G.rank(i + 1)],
                         [G.differential(i), G.differential(i + 1)],
                         verify=False)
    return frobenius_complex(window, n, budget).homology_at(1, budget)


class PushforwardModule:
    """f^n R presented on generators e_a, one per standard residue a in
    [0,q)^v (x^a outside in(I)); ``n`` is the iteration count.

    With e_a of degree wdeg(a)/q every relation is homogeneous, so the
    generators of its terms x^(e div q) e_(e mod q) share wdeg(a) mod q:
    f^n R is the direct sum of the blocks P_c spanned by the e_a with
    wdeg(a) = c mod q, the (1/q)Z-grading of F_*R.
    """

    __slots__ = ("presentation", "residues", "n", "_blocks")

    def __init__(self, presentation: PresentedModule,
                 residues: Tuple[Mono, ...], n: int):
        self.presentation = presentation
        self.residues = residues
        self.n = n
        self._blocks = None

    def blocks(self, budget: Budget = DEFAULT_BUDGET
               ) -> Tuple[Tuple[PresentedModule, int], ...]:
        """(P, count) per distinct block P_c, P minimal; raises if a
        relation spans two classes. Blocks are keyed by their minimal
        presentation, ambient rank and sorted columns: equal keys are
        isomorphic up to a degree shift, which lengths and zero-ness
        ignore, and Tor and Ext are additive. Cached."""
        if self._blocks is None:
            pres = self.presentation
            ring, q = pres.ring, _power(pres.ring, self.n)
            pb, top = ring.ctx.pb, ring.ctx.top
            cls = [ring.ctx.wdeg(a) % q for a in self.residues]
            local, size = [], {}
            for c in cls:
                local.append(size.get(c, 0))
                size[c] = local[-1] + 1
            cols = {c: [] for c in size}
            for col in pres.columns:
                c = {cls[-(t >> pb)] for t in col}
                if len(c) != 1:
                    raise InternalConsistencyError(
                        "pushforward relation spans residue classes "
                        f"{sorted(c)} mod {q}")
                cols[c.pop()].append({(t & top) - (local[-(t >> pb)] << pb): v
                                      for t, v in col.items()})
            counts = {}
            for c in sorted(size):
                P = minimalize(PresentedModule(ring, size[c], cols[c], budget,
                                               trusted=True), budget)
                key = P.ambient_rank, tuple(sorted(tuple(sorted(col.items()))
                                                   for col in P.columns))
                counts.setdefault(key, [P, 0])[1] += 1
            self._blocks = tuple((P, k) for P, k in counts.values())
        return self._blocks

    def __repr__(self) -> str:
        return (f"PushforwardModule(n={self.n}, "
                f"generators={len(self.residues)}, "
                f"relations={self.presentation.num_relations})")


def pushforward_presentation(ring: RingModel, n: int,
                             budget: Budget = DEFAULT_BUDGET
                             ) -> PushforwardModule:
    """Present f^n R on its standard residues a, e_a standing for x^a.

    A standard x^e is x^(e div q) e_(e mod q), so these generate. Each
    standard a and minimal d with x^(qd+a) in in(I) give the relation
    x^d e_a - sum c_e x^(e div q) e_(e mod q) over NF(x^(qd+a)) = sum c_e
    x^e. Rewriting by them lowers x^(qd+a), down to terms with distinct
    standard images, so they generate the kernel. The relations are built
    in normal form: each x^(e div q) divides a standard x^e, so is
    standard, and x^d is reduced when a lead of GB(I) divides it (x*y e_0
    over x*y = 0). Memoized on the ring under ("pushforward", n); the
    walk and the relation loop each poll the cancel check once per residue.
    """
    if n < 1:
        raise ArgumentError("pushforward needs n >= 1")
    key = ("pushforward", n)
    if key in ring._cache:
        return ring._cache[key]
    q, p, ctx = _power(ring, n), ring.p, ring.ctx
    gb = ring.ideal_groebner(budget).index
    leads = gb.lead_monos()
    # a tree walk of the standard residues, not of the box: a child raises
    # an entry at or after its parent's last nonzero one
    residues = [(0,) * len(ring.variables)]
    for a in residues:
        budget.check_cancel()
        for i in range(max((i for i, e in enumerate(a) if e), default=0),
                       len(a)):
            b = a[:i] + (a[i] + 1,) + a[i + 1:]
            if b[i] < q and not any(mono_divides(m, b) for m in leads):
                residues.append(b)
    residues.sort()
    index = {a: k for k, a in enumerate(residues)}
    cols: Matrix = []
    for k, a in enumerate(residues):
        budget.check_cancel()
        # x^(qd + a) is in in(I) iff d >= ceil((m - a) / q) for a lead m
        for d in _minimal_monomials(tuple(max(-((a_i - m_i) // q), 0)
                                          for m_i, a_i in zip(m, a))
                                    for m in leads):
            e = tuple(q * d_i + a_i for d_i, a_i in zip(d, a))
            col = ctx.pack((index[tuple(x % q for x in m)],
                            tuple(x // q for x in m), p - c)
                           for _, m, c in ctx.unpack(reduce_full(
                               {ctx.mono_key(e): 1}, gb, ctx)))
            head = {ctx.mono_key(d): 1}
            if any(mono_divides(m, d) for m in leads):
                head = reduce_full(head, gb, ctx)
            vec_axpy(col, 1, -(k << ctx.pb), head, p)
            cols.append(col)
    pres = PresentedModule(ring, len(residues), cols, budget, trusted=True)
    ring._cache[key] = PushforwardModule(pres, tuple(residues), n)
    return ring._cache[key]


def tor_frobenius(M: PresentedModule, n: int, i: int, method: str = "functor",
                  budget: Budget = DEFAULT_BUDGET) -> PresentedModule:
    """Tor_i(M, f^n R) by the chosen route.

    method="functor" takes homology at i of the Frobenius-twisted minimal
    resolution; method="pushforward" resolves M and tensors with the
    distinct blocks of the pushforward (``PushforwardModule.blocks``): for
    each count k, Tor_i(M, P) on the sum P of the blocks that occur k times
    is computed once, and the result is the direct sum of k copies of each;
    method="both" runs the two and insists that the functor length equals
    the sum of k * len Tor_i(M, P) (a cross-oracle; disagreement is an
    engine bug).
    """
    if i < 0:
        raise ArgumentError("Tor index must be nonnegative")
    if method not in ("functor", "pushforward", "both"):
        raise ArgumentError(f"unknown Tor method {method!r}")
    out_f = parts = None
    if method in ("functor", "both"):
        res = minimal_free_resolution(M, i + 1, budget)
        if i > res.length:
            # resolution stopped before step i, so Tor_i vanishes
            out_f = PresentedModule.free(M.ring, 0)
        else:
            out_f = _twisted_homology(res, n, i, budget)
    if method in ("pushforward", "both"):
        # one engine call per count: splitting the distinct blocks further
        # would add per-call work and save none
        by_count = {}
        for P, k in pushforward_presentation(M.ring, n, budget).blocks(budget):
            by_count.setdefault(k, []).append(P)
        parts = [(tor(M, direct_sum(M.ring, Ps, budget), i, budget), k)
                 for k, Ps in by_count.items()]
    if method == "functor":
        return out_f
    if method == "pushforward":
        return direct_sum(M.ring, [h for h, k in parts for _ in range(k)],
                          budget)
    len_f = module_length(out_f, budget)
    len_p = sum(k * module_length(h, budget) for h, k in parts)
    if len_f != len_p:
        raise InternalConsistencyError(
            f"Tor_{i}(M, f^{n}R) cross-oracle mismatch: functor gives "
            f"length {len_f}, pushforward {len_p}")
    return out_f


# ---------------------------------------------------------------------------
# kappa

def kappa_for_sop(ring: RingModel, x: Sequence[Polynomial],
                  budget: Budget = DEFAULT_BUDGET) -> int:
    """Least t >= 0 with m^[p^t] inside (x), for a verified s.o.p. x.

    Found by ideal membership of each variable's p^t-th power; the value is
    an upper bound for kappa(R) since kappa is an infimum over all systems
    of parameters. J = I + (x) is graded and m-primary, so each x_j has a
    least pure power x_j^(b_j) among the leads of GB(J) and S/J vanishes
    past the weighted degree top = sum_j w_j (b_j - 1). Powers of degree
    above top lie in J untested, so the scan ends by the first t with
    p^t * min(w) > top. When x_j^(b_j) is itself an element of GB(J), every
    power x_j^N with N >= b_j lies in J too, and is taken as in J without
    being packed, however far past the degree ceiling it lies.
    """
    gb = sop_basis(x, ring, budget)
    if gb is None:
        raise PreconditionError("sequence is not a system of parameters")
    v = len(ring.weights)
    least = [0] * v            # b_j
    whole = [math.inf] * v     # b_j where x_j^(b_j) is a whole element
    for vec, m in zip(gb.index.elems, gb.index.lead_monos()):
        if v - m.count(0) == 1:
            j = next(k for k, e in enumerate(m) if e)
            least[j] = m[j]
            if len(vec) == 1:
                whole[j] = m[j]
    top = sum(w * (b - 1) for w, b in zip(ring.weights, least))

    def in_J(i: int, q: int) -> bool:
        return (q * ring.weights[i] > top or whole[i] <= q
                or normal_form(ring.variable(i).frobenius_power(q),
                               gb).is_zero())

    for t in count():
        budget.check_cancel()
        if all(in_J(i, ring.p ** t) for i in range(v)):
            return t


def kappa_upper_bound(ring: RingModel,
                      candidates: Dict[str, Sequence[Polynomial]],
                      budget: Budget = DEFAULT_BUDGET
                      ) -> Tuple[int, Dict[str, int]]:
    """(least kappa_for_sop, kappa_for_sop per candidate) over the named
    candidates that are a system of parameters; the others are skipped.

    Any n >= this bound satisfies the theorems' hypothesis n >= kappa(R);
    the true infimum may be smaller, so the value is only ever consumed as
    an upper bound. Raises PreconditionError when no candidate is an s.o.p.
    """
    per = {}
    for name, x in candidates.items():
        try:
            per[name] = kappa_for_sop(ring, x, budget)
        except PreconditionError:
            continue
    if not per:
        raise PreconditionError(
            "no valid s.o.p. candidate available for a kappa upper bound; "
            "add one to the model's sops")
    return min(per.values()), per
