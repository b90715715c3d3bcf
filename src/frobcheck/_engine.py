"""Flat sparse Groebner engine (internal), on packed integer terms.

Elements of a free module S^r over S = F_p[x_1..x_v] are vectors, dicts
mapping a packed term to a nonzero residue in [1, p). A term is one int
(Monagan-Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007):

- a monomial packs to k(m) = wdeg(m) * 2^S - sum_i e_i * 2^(F*i), with one
  F-bit field per variable whose top bit is a guard bit and S = F*v;
- a term packs to T = k(m) - pos * 2^PB, with PB = S + F.

The module layer's columns are the same vectors, so they enter the engine
as they are. ``EngineContext.pack`` and ``unpack`` are the one codec
between (position, exponent tuple, coefficient) triples and packed terms.

k is linear, k(mn) = k(m) + k(n), so a shift by a monomial is one int
addition, and the int order is the term order: position-over-term (lower
position dominates), ties broken by weighted graded reverse lexicographic
order, the key (wdeg, -e_v, ..., -e_1). The exponent fields of T are
E(T) = (-T) & (2^S - 1), and a lead L at the same position divides T iff
((E(T) | GUARD) - E(L)) & GUARD == GUARD, GUARD holding every guard bit.
Pair bookkeeping reads the same words: lcms are fieldwise maxima
(``exp_lcm``), and a, b are coprime iff their lcm is E(a) + E(b).
Rank-1 vectors (all terms at position 0) are plain polynomials.

The packing needs every weighted degree below DEGREE_LIMIT = 2^(F-1). So do
all exponents, since weights are positive. Packing a monomial checks it.
Every term ``reduce_full`` picks is checked too. No setting lifts this
ceiling; a computation that passes it raises ``BudgetExceededError``. Terms
in flight stay exact below 2^F, one shift past the ceiling, so a check on
the picked term is enough.

Everything here is deterministic: pair selection is the normal strategy
(smallest lcm in the monomial order, ties by generator index), or, when the
caller gives degree shifts, the smallest degree first and then the normal
strategy. Reducers are chosen by lowest index, and reduced bases are
sorted by leading term. The reduced Groebner basis of a submodule is
unique, so permuting the input generators cannot change the output.

Kernels of module maps come from the same Buchberger call by eliminating
module components (``syzygies_flat``), with no record kept of how each
basis element arose from the generators. Such a run goes degree by degree
and can stop once the pairs that meet the map's target are done, when the
caller needs only generators of the kernel.
"""

from __future__ import annotations

import heapq
from math import inf as INF
from operator import le, mul
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .budget import Budget
from .errors import BudgetExceededError

Mono = Tuple[int, ...]
PackedVec = Dict[int, int]

F = 16                        # bits per exponent field, the top a guard bit
DEGREE_LIMIT = 1 << (F - 1)   # every weighted degree stays below this


def past_ceiling(deg: int) -> BudgetExceededError:
    return BudgetExceededError(
        "packed_degree", DEGREE_LIMIT - 1,
        f"weighted degree {deg} does not fit the packed term encoding; "
        "no setting raises this limit")


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def exp_lcm(a: int, b: int, guard: int) -> int:
    """E(lcm) of two exponent words, a fieldwise max (Lamport, CACM 18(8),
    1975): the guard bits left in (a | guard) - b mark the fields a >= b."""
    d = (a | guard) - b & guard
    m = d - (d >> (F - 1))
    return a & m | b & ~m


class EngineContext:
    """Field and order data: modulus, weights, packing layout, key caches
    and the inverse table.

    ``shift`` is S, ``mask`` is 2^S - 1, ``guard`` holds the guard bits
    and ``pb`` is PB. A term T sits at position -(T >> pb), its monomial
    key is T & top, and that key exceeds ``ceiling`` iff the weighted
    degree is DEGREE_LIMIT or more.
    """

    __slots__ = ("p", "weights", "nvars", "zero_mono", "shift", "mask",
                 "guard", "pb", "top", "ceiling", "_fields", "_inv", "_mkey",
                 "_mono")

    def __init__(self, p: int, weights: Tuple[int, ...]):
        self.p = p
        self.weights = tuple(weights)
        self.nvars = len(weights)
        self.zero_mono = (0,) * self.nvars
        self._fields = [F * i for i in range(self.nvars)]
        self.shift = F * self.nvars
        self.mask = (1 << self.shift) - 1
        self.guard = sum(1 << (s + F - 1) for s in self._fields)
        self.pb = self.shift + F
        self.top = (1 << self.pb) - 1
        self.ceiling = (DEGREE_LIMIT - 1) << self.shift
        self._inv = [0] + [pow(c, p - 2, p) for c in range(1, p)]
        self._mkey: Dict[Mono, int] = {}
        self._mono: Dict[int, Mono] = {}

    def inv(self, c: int) -> int:
        return self._inv[c % self.p]

    def mono_key(self, m: Mono) -> int:
        """k(m); raises past the packed degree ceiling."""
        k = self._mkey.get(m)
        if k is None:
            d = sum(map(mul, self.weights, m))
            if d >= DEGREE_LIMIT:
                raise past_ceiling(d)
            k = (d << self.shift) - sum(e << s
                                        for e, s in zip(m, self._fields))
            self._mkey[m] = k
        return k

    def wdeg(self, m: Mono) -> int:
        return (self.mono_key(m) + self.mask) >> self.shift

    def mono_of(self, k: int) -> Mono:
        """The monomial m with k(m) == k (a term at position 0)."""
        m = self._mono.get(k)
        if m is None:
            e = -k & self.mask
            fmask = (1 << F) - 1
            m = tuple((e >> s) & fmask for s in self._fields)
            self._mono[k] = m
        return m

    def pack(self, terms: Iterable[Tuple[int, Mono, int]]) -> PackedVec:
        """The vector of the terms (position, monomial, coefficient): each
        monomial is checked against the degree ceiling, each (position,
        monomial) pair must occur once and each coefficient lie in [1, p)."""
        key, pb = self.mono_key, self.pb
        return {key(m) - (pos << pb): c for pos, m, c in terms}

    def unpack(self, vec: PackedVec) -> Iterator[Tuple[int, Mono, int]]:
        """The terms of ``vec`` as (position, monomial, coefficient)."""
        pb, top, mono_of = self.pb, self.top, self.mono_of
        for t, c in vec.items():
            yield -(t >> pb), mono_of(t & top), c


def vec_axpy(target: PackedVec, c: int, shift: int, src: PackedVec,
             p: int) -> None:
    """target += c * x^shift * src, in place; c taken mod p, shift a
    packed monomial (or a difference of two terms at one position)."""
    c %= p
    if not c:
        return
    get = target.get
    for t, a in src.items():
        t += shift
        v = (get(t, 0) + c * a) % p
        if v:
            target[t] = v
        else:
            target.pop(t, None)


def vec_scale(vec: dict, c: int, p: int) -> dict:
    c %= p
    return {k: (c * a) % p for k, a in vec.items()}


class GIndex:
    """A list of monic packed vectors with a per-position index.

    ``leads[k]`` is the packed lead term of ``elems[k]`` and ``exps[k]``
    its exponent fields, E(lead). ``by_pos[pos]`` lists, in ascending
    order, the indices of the elements whose lead sits at ``pos``. Under
    position-over-term only those leads can divide a term at ``pos`` or
    form an S-pair with a lead there, so divisor lookups, pair updates and
    minimalization all scan one position's list, never the whole basis.
    """

    __slots__ = ("ctx", "elems", "leads", "exps", "by_pos")

    def __init__(self, ctx: EngineContext):
        self.ctx = ctx
        self.elems: List[PackedVec] = []
        self.leads: List[int] = []
        self.exps: List[int] = []
        self.by_pos: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return len(self.elems)

    def add(self, vec: PackedVec, lead: int) -> int:
        idx = len(self.elems)
        self.elems.append(vec)
        self.leads.append(lead)
        self.exps.append(-lead & self.ctx.mask)
        self.by_pos.setdefault(-(lead >> self.ctx.pb), []).append(idx)
        return idx

    def copy(self) -> "GIndex":
        out = GIndex(self.ctx)
        out.elems, out.leads = list(self.elems), list(self.leads)
        out.exps = list(self.exps)
        out.by_pos = {pos: list(ids) for pos, ids in self.by_pos.items()}
        return out

    def lead_monos(self) -> List[Mono]:
        """The lead monomials, decoded."""
        top, mono_of = self.ctx.top, self.ctx.mono_of
        return [mono_of(lead & top) for lead in self.leads]



def reduce_full(vec: PackedVec, G: GIndex, ctx: EngineContext,
                on_reduce: Optional[Callable[[int, int, int], None]] = None
                ) -> PackedVec:
    """Full normal form of the packed ``vec`` against the monic vectors in
    ``G``.

    Consumes ``vec`` (a private dict). Each step takes the largest term t,
    which is the largest int, and looks for the lowest-index lead L at its
    position with E(L) <= E(t) field by field (the guard-bit test). It then
    subtracts c * x^delta * G.elems[gi], delta = t - L, and reports it as
    on_reduce(gi, delta, c) to an observer that counts or records steps.
    Terms moved to the output are irreducible and, in a multiplicative
    order, strictly decreasing, so the loop terminates. A picked term past
    the degree ceiling raises ``BudgetExceededError``.
    """
    p, pb, mask, guard = ctx.p, ctx.pb, ctx.mask, ctx.guard
    top, ceiling = ctx.top, ctx.ceiling
    leads, exps, elems, by_pos = G.leads, G.exps, G.elems, G.by_pos
    out: PackedVec = {}
    while vec:
        t = max(vec)
        if t & top > ceiling:
            raise past_ceiling(((t & top) + mask) >> ctx.shift)
        r = -t & mask | guard
        for gi in by_pos.get(-(t >> pb), ()):
            # lowest index wins: a fixed reducer keeps reductions reproducible
            if r - exps[gi] & guard == guard:
                break
        else:
            out[t] = vec.pop(t)
            continue
        c = vec[t]
        delta = t - leads[gi]
        vec_axpy(vec, p - c, delta, elems[gi], p)
        if on_reduce is not None:
            on_reduce(gi, delta, c)
    return out


class GBData:
    """A reduced Groebner basis and the number of S-pairs it took."""

    __slots__ = ("index", "spairs_reduced")

    def __init__(self, index: GIndex, spairs_reduced: int):
        self.index = index
        self.spairs_reduced = spairs_reduced


def _is_rank1(vecs: Sequence[PackedVec]) -> bool:
    # a term at position 0 is k(m) >= 0; every later position is negative
    return all(t >= 0 for g in vecs for t in g)


def buchberger_flat(gens: Sequence[PackedVec], ctx: EngineContext,
                    budget: Budget, seed: Optional[GIndex] = None,
                    cap: Optional[Tuple[Sequence[int],
                                        Optional[float]]] = None,
                    elim: int = 0) -> GBData:
    """Reduced Groebner basis of the submodule generated by ``gens`` (packed
    vectors, read and never modified) and ``seed``.

    Pairs follow Gebauer-Moeller: the chain filter on old pairs, the M and
    F rules on new ones, and the product criterion only in the rank-1
    (ideal) case, where it is valid. Pairs form only between leads at one
    position, so an insert touches only its position's leads
    (``idx.by_pos``) and live pairs, and so does the final minimalization.
    The bookkeeping reads the exponent words E(lead); each distinct lcm's
    key is computed once per run and checked against the degree ceiling as
    its pair is made.

    ``seed`` is an index known to be a monic reduced Groebner basis of its
    span (the qring strategy of Greuel-Pfister, ch. 2), trusted, not
    checked. It enters the index first, and no S-pair forms between two of
    its vectors; the output equals that of ``gens + seed`` unseeded, since
    the reduced basis is unique.

    ``cap = (shifts, D)`` runs a homogeneous computation degree by degree:
    ``shifts[pos]``, the degree shift of position pos, must make every
    generator and seed vector homogeneous, and pairs are taken by degree
    shifts[pos] + wdeg(lcm), then by lcm. The run stops at the first pair
    above degree D. An element of degree at most D needs no pair, reducer
    or chain criterion of higher degree, so the result's elements of degree
    at most D are those of the full reduced basis, in order
    (Kreuzer-Robbiano, Computational Commutative Algebra 2, 4.5); D = inf
    gives the full basis. D = None takes for D the degree of the last pair
    at a position below ``elim`` and stops only once no such pair is left.

    Only the elements with a lead at a position ``elim`` or above are
    minimalized, tail-reduced and returned; under position-over-term they
    have no term below ``elim``.
    """
    p, pb, guard, mask = ctx.p, ctx.pb, ctx.guard, ctx.mask
    shift, ceiling, fmask = ctx.shift, ctx.ceiling, (1 << F) - 1
    fields = list(zip(ctx.weights, ctx._fields))
    # sh: degree shifts in key units; dmax: the degree kept; the live pairs
    # below gate keep a D = None run going; limk: a fixed D's lcm key caps
    sh, dmax, gate, limk = None, INF, 0, None
    if cap is not None:
        sh, dmax = [s << shift for s in cap[0]], cap[1]
        if dmax is None:
            dmax, gate = -INF, elim
        elif dmax < INF:
            limk = [dmax - s << shift for s in cap[0]]
    # seed vectors enter the index first
    idx = GIndex(ctx) if seed is None else seed.copy()
    exps = idx.exps
    key_of = {}     # k(l) per lcm word l, once per run
    heap: list = []
    alive_pairs: Dict[int, Dict[Tuple[int, int], int]] = {}
    live = 0    # live pairs at positions below gate
    rank1 = _is_rank1(gens) and _is_rank1(idx.elems)
    spairs = 0

    def gm_update(t: int) -> None:
        nonlocal live
        pt, et = -(idx.leads[t] >> pb), exps[t]
        base = 0 if sh is None else sh[pt]
        lcm_of, by_lcm = {}, {}
        for i in idx.by_pos[pt][:-1]:
            lcm_of[i] = l = exp_lcm(exps[i], et, guard)
            by_lcm.setdefault(l, []).append(i)
        # chain filter: drop old pairs strictly covered through the new lead
        pairs = alive_pairs.setdefault(pt, {})
        before = len(pairs)
        for (i, j), l in list(pairs.items()):
            if (l | guard) - et & guard == guard and \
               lcm_of[i] != l and lcm_of[j] != l:
                del pairs[(i, j)]
        # a pair above the cap can neither feed nor cancel one below it
        cut = INF if limk is None else limk[pt]
        cands = []
        for l in by_lcm:
            k = key_of.get(l)
            if k is None:
                k = key_of[l] = (sum(w * (l >> s & fmask) for w, s in fields)
                                 << shift) - l
            if k <= cut:
                cands.append((k, l))
        cands.sort()
        # M rule: keep only lcm-minimal candidates; by ascending degree only
        # an earlier minimal one can divide a candidate
        minimal = []
        for k, l in cands:
            r = l | guard
            if any(r - l2 & guard == guard for l2 in minimal):
                continue
            minimal.append(l)
            # F rule: one pair per lcm; product criterion kills a whole class
            members = by_lcm[l]
            if rank1 and any(l == exps[i] + et for i in members):
                continue
            if k > ceiling:
                raise past_ceiling(k + mask >> shift)
            i = members[0]
            pairs[(i, t)] = l
            heapq.heappush(heap, (k + base, i, t))
        if pt < gate:
            live += len(pairs) - before

    def add_elem(vec: PackedVec) -> None:
        lead = max(vec)
        c = vec[lead]
        if c != 1:
            vec = vec_scale(vec, ctx.inv(c), p)
        idx.add(vec, lead)
        budget.check_basis(len(idx.elems))
        gm_update(len(idx.elems) - 1)

    budget.check_basis(len(idx.elems))
    for g in gens:
        if g:
            add_elem(g)

    while heap:
        key, i, j = heapq.heappop(heap)
        pos = -(idx.leads[i] >> pb)
        if alive_pairs[pos].pop((i, j), None) is None:
            continue
        if sh is not None:
            deg = key + mask >> ctx.shift
            if pos < gate:
                live -= 1
                dmax = deg    # pairs come in ascending degree
            elif deg > dmax and not live:
                break
            key -= sh[pos]
        spairs += 1
        budget.check_spairs(spairs)
        lcm = key - (pos << pb)
        u: PackedVec = {}
        vec_axpy(u, 1, lcm - idx.leads[i], idx.elems[i], p)
        vec_axpy(u, p - 1, lcm - idx.leads[j], idx.elems[j], p)
        h = reduce_full(u, idx, ctx)
        if h:
            add_elem(h)

    # minimalize: drop elements whose lead is covered by another survivor
    leads, exps = idx.leads, idx.exps
    alive = []
    for pos, ids in idx.by_pos.items():
        if pos < elim:
            continue
        for i in ids:
            ri, li = exps[i] | guard, leads[i]
            for j in ids:
                if j != i and ri - exps[j] & guard == guard and \
                   (leads[j] != li or j < i):
                    break
            else:
                alive.append(i)
    alive.sort(key=leads.__getitem__)

    final = GIndex(ctx)
    for i in alive:
        final.add(idx.elems[i], leads[i])

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


def syzygies_flat(gens: Sequence[PackedVec], rank: int, nlead: int,
                  ctx: EngineContext, budget: Budget,
                  seed: Optional[GIndex] = None,
                  cap: Optional[Tuple[Sequence[int], Optional[float]]] = None
                  ) -> GIndex:
    """Vectors a in S^nlead with sum a_j gens[j] in the span of the rest.

    ``gens`` lie in S^rank; the first ``nlead`` of them form the lead block,
    and "the rest" is the other generators together with ``seed``, a
    reduced Groebner basis inside S^rank passed on to ``buchberger_flat``
    (no S-pair forms inside it). Each lead generator g_j is extended to
    g_j + e_{rank+j} and one Groebner basis is computed. Under
    position-over-term the basis elements whose lead sits at a position >=
    ``rank`` have no term below ``rank`` and form the reduced Groebner basis
    of the kernel (elimination of module components; Greuel-Pfister, A
    Singular Introduction to Commutative Algebra, ch. 2); only they are
    finished (``elim = rank``). They are returned shifted down by
    ``rank``, positions indexing the lead block, as a packed index in basis
    order.

    ``gens`` must be graded (some degree shift per position makes each
    generator homogeneous), so that the extended generators and the whole
    computation stay homogeneous; on other input the reduced kernel basis
    can be far larger than any generating set. The module layer rejects
    such matrices before they get here (``module_engine._require_graded``).

    ``cap = (shifts, D)`` is passed on to ``buchberger_flat``: ``shifts``
    covers the rank positions and then the lead block, where position
    rank + j takes the degree of g_j (any degree for g_j = 0). The result is
    the part of degree at most D of the kernel basis. With D = None it
    generates the kernel: every pair after the stop lies at kernel
    positions, so its S-vector and reducers are kernel vectors found.
    """
    ext = [{**g, -((rank + j) << ctx.pb): 1}
           for j, g in enumerate(gens[:nlead])]
    G = buchberger_flat(ext + list(gens[nlead:]), ctx, budget, seed,
                        cap, rank).index
    down = rank << ctx.pb
    kernel = GIndex(ctx)
    for vec, lead in zip(G.elems, G.leads):
        kernel.add({t + down: c for t, c in vec.items()}, lead + down)
    return kernel
