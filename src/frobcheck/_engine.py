"""Flat sparse Groebner engine (internal).

Elements of a free module S^r over S = F_p[x_1..x_v] are "flat vectors":
dicts mapping a term key ``(position, exponent_tuple)`` to a nonzero residue
in [1, p). The term order is position-over-term: lower position dominates,
ties broken by weighted graded reverse lexicographic order on the monomial.
Rank-1 vectors (all keys at position 0) are plain polynomials.

Everything here is deterministic: pair selection is the normal strategy
(smallest lcm in the monomial order, ties by generator index), reducers are
chosen by lowest index, and reduced bases are sorted by leading term. The
reduced Groebner basis of a submodule is unique, so permuting the input
generators cannot change the output.

Kernels of module maps come from the same Buchberger call by eliminating
module components (``syzygies_flat``), with no record kept of how each
basis element arose from the generators.
"""

from __future__ import annotations

import heapq
from operator import add, le, mul, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .budget import Budget

Mono = Tuple[int, ...]
TermKey = Tuple[int, Mono]
FlatVec = Dict[TermKey, int]


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_sub(a: Mono, b: Mono) -> Mono:
    # caller guarantees b | a
    return tuple(map(sub, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_coprime(a: Mono, b: Mono) -> bool:
    # exponents are nonnegative, so x * y == 0 iff one of them is 0
    return not any(map(mul, a, b))


class EngineContext:
    """Field and order data: modulus, weights, key caches, inverse table."""

    __slots__ = ("p", "weights", "nvars", "zero_mono", "_inv", "_mkey")

    def __init__(self, p: int, weights: Tuple[int, ...]):
        self.p = p
        self.weights = tuple(weights)
        self.nvars = len(weights)
        self.zero_mono = (0,) * self.nvars
        self._inv = [0] + [pow(c, p - 2, p) for c in range(1, p)]
        self._mkey: Dict[Mono, tuple] = {}

    def inv(self, c: int) -> int:
        return self._inv[c % self.p]

    def mono_key(self, m: Mono) -> tuple:
        k = self._mkey.get(m)
        if k is None:
            w = self.weights
            k = (sum(w[i] * e for i, e in enumerate(m)),) + tuple(
                -e for e in reversed(m))
            self._mkey[m] = k
        return k

    def term_key(self, t: TermKey) -> tuple:
        return (-t[0],) + self.mono_key(t[1])

    def wdeg(self, m: Mono) -> int:
        return self.mono_key(m)[0]


def vec_axpy(target: FlatVec, c: int, shift: Mono, src: FlatVec, p: int) -> None:
    """target += c * x^shift * src, in place; c taken mod p."""
    c %= p
    if not c:
        return
    for (pos, m), a in src.items():
        key = (pos, mono_mul(shift, m))
        v = (target.get(key, 0) + c * a) % p
        if v:
            target[key] = v
        else:
            target.pop(key, None)


def vec_scale(vec: FlatVec, c: int, p: int) -> FlatVec:
    c %= p
    return {k: (c * a) % p for k, a in vec.items()}


def lead_term(vec: FlatVec, ctx: EngineContext) -> TermKey:
    return max(vec, key=ctx.term_key)


class GIndex:
    """A list of monic flat vectors with a per-position index.

    ``by_pos[pos]`` lists, in ascending order, the indices of the elements
    whose lead sits at ``pos``. Under position-over-term only those leads
    can divide a term at ``pos`` or form an S-pair with a lead there, so
    divisor lookups, pair updates and minimalization all scan one
    position's list, never the whole basis.
    """

    __slots__ = ("ctx", "elems", "leads", "by_pos")

    def __init__(self, ctx: EngineContext):
        self.ctx = ctx
        self.elems: List[FlatVec] = []
        self.leads: List[TermKey] = []
        self.by_pos: Dict[int, List[int]] = {}

    def add(self, vec: FlatVec, lead: TermKey) -> int:
        idx = len(self.elems)
        self.elems.append(vec)
        self.leads.append(lead)
        self.by_pos.setdefault(lead[0], []).append(idx)
        return idx

    def find_divisor(self, pos: int, m: Mono) -> int:
        # lowest index wins: fixed reducer choice keeps reductions reproducible
        for idx in self.by_pos.get(pos, ()):
            if mono_divides(self.leads[idx][1], m):
                return idx
        return -1


def reduce_full(vec: FlatVec, G: GIndex, ctx: EngineContext,
                on_reduce: Optional[Callable[[int, Mono, int], None]] = None
                ) -> FlatVec:
    """Full normal form of ``vec`` against the monic vectors in ``G``.

    Consumes ``vec`` (a private dict). Each reduction step subtracts
    c * x^delta * G.elems[t] and is reported as on_reduce(t, delta, c) to
    an observer that counts or records steps. Terms moved to the output are
    irreducible and, in a multiplicative order, strictly decreasing, so the
    loop terminates.
    """
    p = ctx.p
    out: FlatVec = {}
    while vec:
        t = max(vec, key=ctx.term_key)
        pos, m = t
        gi = G.find_divisor(pos, m)
        if gi < 0:
            out[t] = vec.pop(t)
        else:
            c = vec[t]
            delta = mono_sub(m, G.leads[gi][1])
            vec_axpy(vec, p - c, delta, G.elems[gi], p)
            if on_reduce is not None:
                on_reduce(gi, delta, c)
    return out


class GBData:
    """A reduced Groebner basis and the number of S-pairs it took."""

    __slots__ = ("index", "spairs_reduced")

    def __init__(self, index: GIndex, spairs_reduced: int):
        self.index = index
        self.spairs_reduced = spairs_reduced


def _is_rank1(gens: List[FlatVec]) -> bool:
    return all(k[0] == 0 for g in gens for k in g)


def buchberger_flat(gens: List[FlatVec], ctx: EngineContext,
                    budget: Budget, seed: Sequence[FlatVec] = ()) -> GBData:
    """Reduced Groebner basis of the submodule generated by ``gens`` and
    ``seed``.

    Pair management follows Gebauer-Moeller: the chain filter on old pairs,
    the M and F rules on new pairs, and the product criterion only in the
    rank-1 (ideal) case, where it is valid. S-pairs form only between
    leads at one position, so new pairs are drawn from ``idx.by_pos`` and
    live pairs are kept per position: an insert touches only the leads and
    pairs at its own position, and so does the final minimalization.

    ``seed`` is a block already known to be a Groebner basis (the qring
    strategy of Greuel-Pfister, ch. 2): its vectors must be monic and form
    a reduced Groebner basis of their span. They are trusted, not checked.
    They enter the index before the generators, no S-pair is ever formed
    between two of them (each reduces to zero), and pairs between a seed
    vector and any other element form as usual. The output equals that of
    ``gens + seed`` unseeded, since the reduced basis is unique.
    """
    p = ctx.p
    idx = GIndex(ctx)
    heap: list = []
    alive_pairs: Dict[int, Dict[Tuple[int, int], Mono]] = {}
    rank1 = _is_rank1(gens) and _is_rank1(seed)
    spairs = 0

    def gm_update(t: int) -> None:
        pt, mt = idx.leads[t]
        by_lcm: Dict[Mono, List[int]] = {}
        for i in idx.by_pos[pt][:-1]:
            by_lcm.setdefault(mono_lcm(idx.leads[i][1], mt), []).append(i)
        # chain filter: drop old pairs strictly covered through the new lead
        pairs = alive_pairs.setdefault(pt, {})
        for (i, j), l in list(pairs.items()):
            if mono_divides(mt, l) and \
               mono_lcm(idx.leads[i][1], mt) != l and \
               mono_lcm(idx.leads[j][1], mt) != l:
                del pairs[(i, j)]
        for l in sorted(by_lcm):
            # M rule: keep only lcm-minimal candidates
            if any(l2 != l and mono_divides(l2, l) for l2 in by_lcm):
                continue
            # F rule: one pair per lcm; product criterion kills a whole class
            members = by_lcm[l]
            if rank1 and any(mono_coprime(idx.leads[i][1], mt)
                             for i in members):
                continue
            i = members[0]
            pairs[(i, t)] = l
            heapq.heappush(heap, (ctx.mono_key(l), i, t))

    def add_elem(vec: FlatVec) -> None:
        lead = lead_term(vec, ctx)
        c = vec[lead]
        if c != 1:
            vec = vec_scale(vec, ctx.inv(c), p)
        idx.add(vec, lead)
        budget.check_basis(len(idx.elems))
        gm_update(len(idx.elems) - 1)

    for vec in seed:
        idx.add(vec, lead_term(vec, ctx))
    budget.check_basis(len(idx.elems))
    for g in gens:
        if g:
            add_elem(dict(g))

    while heap:
        key, i, j = heapq.heappop(heap)
        l = alive_pairs[idx.leads[i][0]].pop((i, j), None)
        if l is None:
            continue
        spairs += 1
        budget.check_spairs(spairs)
        budget.check_degree(key[0])
        di = mono_sub(l, idx.leads[i][1])
        dj = mono_sub(l, idx.leads[j][1])
        u: FlatVec = {}
        vec_axpy(u, 1, di, idx.elems[i], p)
        vec_axpy(u, p - 1, dj, idx.elems[j], p)
        h = reduce_full(u, idx, ctx)
        if h:
            add_elem(h)

    # minimalize: drop elements whose lead is covered by another survivor
    alive = []
    for i, (pi, mi) in enumerate(idx.leads):
        for j in idx.by_pos[pi]:
            mj = idx.leads[j][1]
            if j != i and mono_divides(mj, mi) and (mj != mi or j < i):
                break
        else:
            alive.append(i)
    alive.sort(key=lambda k: ctx.term_key(idx.leads[k]))

    final = GIndex(ctx)
    for i in alive:
        final.add(idx.elems[i], idx.leads[i])

    # tail reduction: leads are pairwise non-divisible so irreducibility of
    # tail terms depends on leads only; one pass yields the reduced basis
    for k in range(len(final.elems)):
        lead = final.leads[k]
        vec = dict(final.elems[k])
        del vec[lead]
        if not vec:
            continue
        budget.check_cancel()
        nf = reduce_full(vec, final, ctx)
        nf[lead] = 1
        final.elems[k] = nf

    return GBData(final, spairs)


def syzygies_flat(gens: List[FlatVec], rank: int, nlead: int,
                  ctx: EngineContext, budget: Budget,
                  seed: Sequence[FlatVec] = ()) -> List[FlatVec]:
    """Vectors a in S^nlead with sum a_j gens[j] in the span of the rest.

    ``gens`` lie in S^rank; the first ``nlead`` of them form the lead block,
    and "the rest" is the other generators together with ``seed``, a
    reduced Groebner basis inside S^rank passed on to ``buchberger_flat``
    (no S-pair forms inside it). Each lead generator g_j is extended to
    g_j + e_{rank+j} and one reduced Groebner basis is computed. Under
    position-over-term the basis elements whose lead sits at a position >=
    ``rank`` have no term below ``rank`` and form the reduced Groebner basis
    of the kernel (elimination of module components; Greuel-Pfister, A
    Singular Introduction to Commutative Algebra, ch. 2). They are returned
    shifted down by ``rank``, keyed by ``(lead_index, mono)``, in basis
    order.

    ``gens`` must be graded (some degree shift per position makes each
    generator homogeneous), so that the extended generators and the whole
    computation stay homogeneous; on other input the reduced kernel basis
    can be far larger than any generating set. The module layer rejects
    such matrices before they get here (``module_engine._require_graded``).
    """
    ext = [{**g, (rank + j, ctx.zero_mono): 1}
           for j, g in enumerate(gens[:nlead])]
    G = buchberger_flat(ext + gens[nlead:], ctx, budget, seed).index
    return [{(pos - rank, m): c for (pos, m), c in g.items()}
            for g, lead in zip(G.elems, G.leads) if lead[0] >= rank]
