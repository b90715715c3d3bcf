"""Finitely presented modules over R = S/I and their homological algebra.

A module is the cokernel of a relations matrix into a free module R^r.
Matrices are lists of columns; a map R^t -> R^r is the list of images of
the t source basis vectors. A column is a packed vector of the engine
(``_engine``), {T: coeff} with T = k(m) - row * 2^PB, so columns enter
Buchberger and kernel calls as they are. Computation over R is realized in
S by adjoining the ideal's Groebner basis times each ambient unit vector,
so one engine serves both layers; every reported presentation is over R
with entries in normal form.

On packed terms the module layer needs no exponent: a monomial product is
one addition (``matmul``), a monomial's q-th power has key q * k(m)
(``frobenius._bracket`` reduces it once per ring and adds its normal form
by linearity), moving a term to row j subtracts j << PB, and its weighted
degree is one shift. T & top is k(m), and it is 0 exactly
for a unit entry. Every product is checked against the packed degree
ceiling: ``reduce_full`` checks each term it picks, and over an ideal-free
ring, where nothing is reduced, ``_nf`` checks each term itself.

Polynomials are packed only at the entry points (``PresentedModule.
from_rows``, Polynomial vectors given to ``module_groebner``, the ring
elements of ``koszul_complex``) and unpacked only where exponents are read
(``rows()``, ``GroebnerBasis.vectors()``, each monomial the CLI renders).
Matrices must be graded (``_require_graded``): the entry points and every
kernel computation reject those that admit no degree shifts.

Minimal free resolutions take kernel generators step by step; redundant
ones surface as unit entries of the next kernel and are cancelled by a
change of basis, which splits off a trivial exact summand and so keeps
exactness. Each d_i d_(i+1) is checked once, not again on complexes built
from it (``minimal_free_resolution``).
Homology reads a module N only through relation bases (N^k's is shifted
copies of N's), so N's columns are checked once, with its basis. A direct
sum is built the same way, from its summands' bases.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import _engine
from ._engine import (GIndex, PackedVec, past_ceiling, reduce_full,
                      vec_axpy)
from .algebra_kernel import (GroebnerBasis, INFINITE, Polynomial, RingModel,
                             standard_monomials)
from .budget import DEFAULT_BUDGET, Budget
from .errors import ArgumentError, InternalConsistencyError

Matrix = List[PackedVec]


# ---------------------------------------------------------------------------
# column/matrix helpers

def _nf(ring: RingModel, vec: PackedVec, budget: Budget) -> PackedVec:
    """Normal form of a column modulo the ideal, one row at a time.

    Each row's part moves to position 0 and is reduced on its own:
    ``reduce_full`` looks for the largest term of the whole vector on every
    step, so one reduction of a wide column would rescan all rows. It
    checks each term against the degree ceiling; with no ideal nothing is
    reduced, so each term is checked here.
    """
    ctx = ring.ctx
    pb, top = ctx.pb, ctx.top
    if not ring.ideal_gens:
        for t in vec:
            if t & top > ctx.ceiling:
                raise past_ceiling((t & top) + ctx.mask >> ctx.shift)
        return dict(vec)
    G = ring.ideal_groebner(budget).index
    parts: Dict[int, PackedVec] = {}
    for t, c in vec.items():
        parts.setdefault(t >> pb, {})[t & top] = c
    out: PackedVec = {}
    for hi, part in parts.items():
        budget.check_cancel()
        s = hi << pb    # -(row << pb)
        for k, c in reduce_full(part, G, ctx).items():
            out[k + s] = c
    return out


def _column(ring: RingModel, vec: Sequence[Polynomial]) -> PackedVec:
    """The column of a vector of ring elements (a Polynomial entry point)."""
    if not all(ring.compatible(entry.ring) for entry in vec):
        raise ArgumentError("entry does not lie in the module's ring")
    return ring.ctx.pack((i, m, c) for i, entry in enumerate(vec)
                         for m, c in entry.terms.items())


def _in_rows(ring: RingModel, col: PackedVec, nrows: int) -> bool:
    """Whether every term of ``col`` lies in rows 0..nrows-1: the largest
    term is at the lowest row, the smallest at the highest."""
    return not col or (max(col) <= ring.ctx.top
                       and min(col) >= -((nrows - 1) << ring.ctx.pb))


def _require_graded(ring: RingModel, cols: Matrix, nrows: int
                    ) -> List[int]:
    """Row degree shifts that make a matrix graded; reject a matrix that
    has none.

    Graded means row shifts s_i exist with wdeg(m) + s_i constant over the
    terms (i, m) of each column; that constant is the column's degree.
    Kernels by elimination (``_engine.syzygies_flat``) stay homogeneous on
    graded matrices; on others their reduced bases can grow without bound,
    and unit entries are no longer exact (``_minimalize_columns``). Shifts
    are solved by a union-find over rows: ``off[i]`` is s_i minus the shift
    of its parent. Rows linked through columns form a component, solved up
    to a constant; its root gets shift 0.
    """
    ctx = ring.ctx
    pb, top, mask, shift = ctx.pb, ctx.top, ctx.mask, ctx.shift
    parent = list(range(nrows))
    off = [0] * nrows

    def find(i: int) -> Tuple[int, int]:
        r, o = i, 0
        while parent[r] != r:
            o += off[r]
            r = parent[r]
        parent[i], off[i] = r, o
        return r, o

    for j, col in enumerate(cols):
        head = None
        for t in col:
            i = -(t >> pb)
            r, o = find(i)
            d = ((t & top) + mask >> shift) + o
            if head is None:
                head = r, d
            elif r != head[0]:
                parent[r], off[r] = head[0], head[1] - d
            elif d != head[1]:
                raise ArgumentError(
                    f"entry at row {i + 1}, column {j + 1} breaks the "
                    "graded structure (no consistent degree shifts exist)")
    return [find(i)[1] for i in range(nrows)]


def _ideal_padding(ring: RingModel, rank: int, budget: Budget) -> GIndex:
    """GB(I) times each unit vector of S^rank: the reduced Groebner basis of
    I S^rank, so it enters ``buchberger_flat`` as a seed. The packed
    vectors of GB(I) move to position j by subtracting j << pb. They are
    in lead order within each position only, as seeds and leads read them."""
    pads = GIndex(ring.ctx)
    if not ring.ideal_gens:
        return pads
    gb = ring.ideal_groebner(budget).index
    pb = ring.ctx.pb
    for g, lead in zip(gb.elems, gb.leads):
        for j in range(rank):
            s = j << pb
            pads.add({t - s: c for t, c in g.items()}, lead - s)
    return pads


def matmul(ring: RingModel, a: Matrix, b: Matrix, budget: Budget = DEFAULT_BUDGET
           ) -> Matrix:
    """Columns of A*B where B's rows index A's columns: a term of B at row
    k shifts column k of A by its monomial."""
    p, pb, top = ring.p, ring.ctx.pb, ring.ctx.top
    out: Matrix = []
    for bcol in b:
        acc: PackedVec = {}
        for t, c in bcol.items():
            vec_axpy(acc, c, t & top, a[-(t >> pb)], p)
        out.append(_nf(ring, acc, budget))
    return out


def kron_identity(ring: RingModel, matrix: Matrix, n: int) -> Matrix:
    """The map d (x) id on N^rank blocks: source index (c, j) -> c*n + j,
    and a term at row r moves to row r*n + j."""
    pb, top = ring.ctx.pb, ring.ctx.top
    return [{(t & top) + ((t >> pb) * n - j << pb): c
             for t, c in col.items()}
            for col in matrix for j in range(n)]


def transpose(ring: RingModel, matrix: Matrix, nrows: int) -> Matrix:
    pb, top = ring.ctx.pb, ring.ctx.top
    out: Matrix = [dict() for _ in range(nrows)]
    for c, col in enumerate(matrix):
        s = c << pb
        for t, coeff in col.items():
            out[-(t >> pb)][(t & top) - s] = coeff
    return out


# ---------------------------------------------------------------------------
# presented modules

class PresentedModule:
    """Cokernel of a relations matrix inside R^ambient_rank.

    ``columns`` are packed vectors (see the module docstring). Entries are
    normal forms modulo the ring ideal; identically zero relation columns
    are dropped. With ``trusted`` the columns are the module layer's own,
    already in normal form, and are kept as given, uncopied. Instances are
    immutable; homological caches (Groebner basis of the relation
    submodule, minimal form, length, resolution) are invisible memoization.
    """

    __slots__ = ("ring", "ambient_rank", "_columns", "_cache")

    def __init__(self, ring: RingModel, ambient_rank: int,
                 columns: Sequence[PackedVec], budget: Budget = DEFAULT_BUDGET,
                 trusted: bool = False):
        self.ring = ring
        self.ambient_rank = int(ambient_rank)
        cleaned: List[PackedVec] = []
        for col in columns:
            if not _in_rows(ring, col, self.ambient_rank):
                raise ArgumentError("relation entry outside ambient rank")
            nf = col if trusted else _nf(ring, col, budget)
            if nf:
                cleaned.append(nf)
        self._columns = tuple(cleaned)
        self._cache: dict = {}

    @property
    def columns(self) -> Tuple[PackedVec, ...]:
        if callable(self._columns):   # a homology module's, built on demand
            self._columns = self._columns()
        return self._columns

    @classmethod
    def free(cls, ring: RingModel, rank: int) -> "PresentedModule":
        return cls(ring, rank, [])

    @classmethod
    def from_rows(cls, ring: RingModel, rows: Sequence[Sequence[Polynomial]],
                  ambient_rank: Optional[int] = None) -> "PresentedModule":
        r = len(rows) if ambient_rank is None else ambient_rank
        if rows:
            t = len(rows[0])
            if any(len(row) != t for row in rows):
                raise ArgumentError("ragged relations matrix")
        else:
            t = 0
        cols = [_column(ring, [rows[i][j] for i in range(r)])
                for j in range(t)]
        _require_graded(ring, cols, r)
        return cls(ring, r, cols)

    def rows(self) -> List[List[Polynomial]]:
        terms = [[{} for _ in self.columns] for _ in range(self.ambient_rank)]
        for j, col in enumerate(self.columns):
            for i, m, c in self.ring.ctx.unpack(col):
                terms[i][j][m] = c
        return [[Polynomial(self.ring, t) for t in row] for row in terms]

    @property
    def num_relations(self) -> int:
        return len(self.columns)

    def relations_groebner(self, budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
        cols = self.columns   # a homology module caches its basis with them
        gb = self._cache.get("gb")
        if gb is None:
            gb = module_groebner(cols, self.ambient_rank, self.ring, budget)
            self._cache["gb"] = gb
        return gb

    def is_zero(self, budget: Budget = DEFAULT_BUDGET) -> bool:
        """M = 0 iff every position j has the unit term, packed as
        -(j << pb), among the leads of the relation basis (else some e_j is
        its own normal form), for a plain module Z = S^r. A homology module
        Z/(B + K) is zero iff the bases of Z and B + K have the same leads,
        since B + K lies in Z."""
        if self.ambient_rank == 0:
            return True
        cycles, bounds = self._cache.get("subquotient") or (
            None, self.relations_groebner(budget))
        leads, pb = set(bounds.index.leads), self.ring.ctx.pb
        if cycles is not None:
            return set(cycles.index.leads) == leads
        return all(-(j << pb) in leads for j in range(bounds.ambient_rank))

    def __repr__(self) -> str:
        return (f"PresentedModule(rank={self.ambient_rank}, "
                f"relations={self.num_relations})")


def module_groebner(gens, ambient_rank: int, ring: Optional[RingModel] = None,
                    budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of a submodule of R^ambient_rank.

    ``gens`` are vectors of ring elements (length ambient_rank), over one
    ring (inferred from the entries when not given), or packed columns;
    they must form a graded matrix. The computation lifts to S by
    appending the ideal basis times each unit vector (a seed of the
    Buchberger call, since it is already a reduced basis), so normal forms
    against the result are canonical representatives of R-module cosets.
    """
    cols: Matrix = []
    for v in gens:
        if isinstance(v, dict):
            cols.append(v)
            continue
        if len(v) != ambient_rank:
            raise ArgumentError("vector length differs from ambient rank")
        if ring is None and v:
            ring = v[0].ring
        cols.append(_column(ring, v))
    if ring is None:
        raise ArgumentError("ring required when generators are empty")
    if not all(_in_rows(ring, col, ambient_rank) for col in cols):
        raise ArgumentError("column entry outside ambient rank")
    _require_graded(ring, cols, ambient_rank)
    gbd = _engine.buchberger_flat(cols, ring.ctx, budget,
                                  _ideal_padding(ring, ambient_rank, budget))
    return GroebnerBasis(ring, ambient_rank, gbd.index)


def _kernel_columns(ring: RingModel, lead_cols: Matrix, rest_cols: Matrix,
                    target: GroebnerBasis, budget: Budget,
                    part: str = "basis") -> Tuple[Matrix, GroebnerBasis]:
    """Vectors v with (lead_cols)v in the R-span of rest_cols and of
    ``target``, the relation basis (padding included) of a module in R^rank.

    The kernel K over S of [lead | rest | target] eliminated onto the lead
    block (``syzygies_flat``), degree by degree; lead column j has the
    degree of its terms, 0 if it is zero. ``target`` is a reduced Groebner
    basis, so it is the seed of that call and no S-pair forms inside it.
    [lead | rest] must be graded; ``target`` was checked when computed.

    Returns the kernel vectors read in R, those that vanish in R dropped,
    and the kernel basis itself. K contains I S^nlead, so a reduced basis
    vector is in normal form unless an ideal lead divides its lead; only
    those are normal-formed. ``part`` is how much of K's basis is made:

    - ``"basis"``: all. The vectors generate the kernel read in R, not
      always minimally, and the basis is the relation basis of R^nlead
      modulo them.
    - ``"generators"``: degree at most D, the degree of the last pair at a
      position below rank. The vectors generate the kernel; the basis is
      no Groebner basis.
    - ``"units"``: degree at most D, the top degree of the lead columns,
      for a caller that reads only unit entries: a homogeneous kernel
      vector with a unit at position j has the degree of lead column j.
      Neither the vectors nor the basis need generate the kernel.
    """
    ctx = ring.ctx
    pb, top, mask, shift = ctx.pb, ctx.top, ctx.mask, ctx.shift
    rank, cols = target.ambient_rank, list(lead_cols) + list(rest_cols)
    shifts = _require_graded(ring, cols, rank)
    degs = []
    for col in lead_cols:
        t = next(iter(col), None)
        degs.append(0 if t is None else
                    shifts[-(t >> pb)] + ((t & top) + mask >> shift))
    upto = {"basis": INFINITE, "generators": None,
            "units": max(degs, default=0)}[part]
    kernel = _engine.syzygies_flat(cols, rank, len(lead_cols), ctx, budget,
                                   target.index, (shifts + degs, upto))
    ideal = ring.ideal_groebner(budget).index.exps if ring.ideal_gens else ()
    guard = ctx.guard
    out: Matrix = []
    for z, lead in zip(kernel.elems, kernel.leads):
        r = -lead & mask | guard
        if any(r - e & guard == guard for e in ideal):
            z = _nf(ring, z, budget)
        if z:
            out.append(z)
    return out, GroebnerBasis(ring, len(lead_cols), kernel)


# ---------------------------------------------------------------------------
# minimalization

def _minimalize_columns(ring: RingModel, cols: Matrix, nrows: int,
                        budget: Budget) -> Tuple[Matrix, List[int]]:
    """Cancel unit entries; return (new columns, surviving original rows).

    One sweep from the left. Each column is rewritten through the rows
    already cancelled, in the order they were cancelled, and then its
    units are read: with a unit u at its lowest unit row r0 it is a pivot,
    generator r0 becomes -(1/u) times the rest of the column, and row r0
    and the column are removed. Kept columns get one more rewrite for the
    rows cancelled after them.

    A rescan after every cancellation would find the same pivots: a column
    without a constant term never gains one, since a substitution
    multiplies only its positive-degree terms and reduction modulo the
    quasi-homogeneous ideal keeps degrees. A substitute holds no row
    cancelled before its own, so each column meets the pivots in order.
    """
    ctx = ring.ctx
    p, pb, top = ring.p, ctx.pb, ctx.top
    # row -> (order, substitute)
    subst: Dict[int, Tuple[int, PackedVec]] = {}

    def rewrite(col: PackedVec) -> None:
        due = {-(t >> pb) for t in col} & subst.keys()
        while due:
            r0 = min(due, key=lambda i: subst[i][0])
            # entries of col and the substitute are normal forms, so only
            # the correction needs reducing
            delta: PackedVec = {}
            for t in [t for t in col if t >> pb == -r0]:
                vec_axpy(delta, col.pop(t), t & top, subst[r0][1], p)
            vec_axpy(col, 1, 0, _nf(ring, delta, budget), p)
            due = {-(t >> pb) for t in col} & subst.keys()

    work: Matrix = []
    for col in cols:
        col = dict(col)
        if subst:
            rewrite(col)
        units = [-(t >> pb) for t in col if not t & top]
        if not units:
            work.append(col)
            continue
        r0 = min(units)
        entry = [t for t in col if t >> pb == -r0]
        if len(entry) != 1:
            # exact unit detection needs graded entries; either the
            # caller fed non-quasi-homogeneous relations (locality
            # convention violated) or an engine step lost gradedness
            poly = Polynomial(ring, {ctx.mono_of(t & top): col[t]
                                     for t in entry})
            raise InternalConsistencyError(
                "matrix entry mixes a constant with positive-degree "
                f"terms ({ring.render_poly(poly)}); "
                "relation entries must be quasi-homogeneous for the "
                "declared weights")
        f = -ctx.inv(col[entry[0]])
        subst[r0] = len(subst), {t: c * f % p for t, c in col.items()
                                 if t >> pb != -r0}
    if not subst:
        return [col for col in work if col], list(range(nrows))
    kept = [i for i in range(nrows) if i not in subst]
    remap = {old: new for new, old in enumerate(kept)}
    out: Matrix = []
    for col in work:
        rewrite(col)
        if col:
            out.append({(t & top) - (remap[-(t >> pb)] << pb): c
                        for t, c in col.items()})
    return out, kept


def minimalize(M: PresentedModule, budget: Budget = DEFAULT_BUDGET
               ) -> PresentedModule:
    """Minimal presentation of M: all relation entries in the maximal ideal.
    M itself when it has no unit entry."""
    cached = M._cache.get("minimal")
    if cached is None:
        cols, kept = _minimalize_columns(M.ring, list(M.columns),
                                         M.ambient_rank, budget)
        cached = M
        if len(kept) < M.ambient_rank:
            cached = PresentedModule(M.ring, len(kept), cols, budget,
                                     trusted=True)
            cached._cache["minimal"] = cached
        M._cache["minimal"] = cached
    return cached


def min_generators(M: PresentedModule, budget: Budget = DEFAULT_BUDGET) -> int:
    """mu(M): ambient rank once unit entries are cancelled (Nakayama)."""
    return minimalize(M, budget).ambient_rank


def module_length(M: PresentedModule, budget: Budget = DEFAULT_BUDGET):
    """F_p-dimension of M, or INFINITE.

    M and the quotient by the leading submodule of its relation basis share
    a Hilbert function (Macaulay), and that leading submodule is a direct
    sum of monomial ideals, one per position. So the length is the sum
    over positions of the standard monomial counts, each read off the
    Hilbert series of the lead ideal (``standard_monomials``). The ideal
    padding inside the relation basis makes each position's leading ideal
    contain the leading ideal of I. The unit grading suffices: the count
    does not depend on the weights, nor on the positions' degree shifts.
    Likewise a homology module Z/(B + K) counts, per position, the
    monomials of in(Z) outside in(B + K). Equal positions (copies in a
    direct sum) are counted once.
    """
    if M.ambient_rank == 0:
        return 0
    cached = M._cache.get("length")
    if cached is None:
        nvars = len(M.ring.variables)
        cycles, bounds = M._cache.get("subquotient") or (
            None, M.relations_groebner(budget))
        insides = cycles.leads_by_position() if cycles is not None \
            else [None] * bounds.ambient_rank
        total, counts = 0, {}
        for leads, inside in zip(bounds.leads_by_position(), insides):
            if leads == inside:     # both sorted by lead
                continue
            count = counts.get((leads, inside))
            if count is None:
                count = standard_monomials(leads, nvars, inside)
                counts[leads, inside] = count
            if count is INFINITE:
                total = INFINITE
                break
            total += count
        cached = total
        M._cache["length"] = cached
    return cached


# ---------------------------------------------------------------------------
# complexes

class FreeComplex:
    """Chain complex F (x) N: free R-modules F_i tensored with a module N.

    ranks[i] is the rank of F_i; differentials[i-1] holds d_i, which maps
    step i to step i-1. Without coefficients N is R itself, so the complex
    is F. ``tensor(N)`` gives coefficients; step i of F (x) N is then
    N^ranks[i] and its differential d_i (x) id. Construction checks that
    matrix shapes chain and, with ``verify``, that consecutive differentials
    compose to zero modulo the ring ideal. The library's complexes come from
    resolutions, which check each d_i d_(i+1) once, so it skips ``verify``.
    The complex keeps the columns it is given, uncopied: like a module's
    columns they are read, never changed.
    """

    __slots__ = ("ring", "ranks", "differentials", "coefficients")

    def __init__(self, ring: RingModel, ranks: Sequence[int],
                 differentials: Sequence[Matrix], verify: bool = True,
                 budget: Budget = DEFAULT_BUDGET):
        self.ring = ring
        self.ranks = tuple(int(r) for r in ranks)
        self.differentials = tuple(tuple(d) for d in differentials)
        self.coefficients: Optional[PresentedModule] = None
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise ArgumentError("rank list and differential list lengths differ")
        for i, d in enumerate(self.differentials, start=1):
            if len(d) != self.ranks[i]:
                raise ArgumentError(f"d_{i} has wrong column count")
            if not all(_in_rows(ring, col, self.ranks[i - 1]) for col in d):
                raise ArgumentError(f"d_{i} row index out of range")
        if verify:
            _check_composites(ring, self.differentials, 1, budget)

    def tensor(self, N: PresentedModule) -> "FreeComplex":
        """F (x) N, an unverified copy carrying N as its coefficients."""
        if self.coefficients is not None:
            raise ArgumentError("complex already has coefficients")
        if not self.ring.same_quotient(N.ring, DEFAULT_BUDGET):
            raise ArgumentError("coefficients live over a different ring")
        out = FreeComplex(self.ring, self.ranks, self.differentials,
                          verify=False)
        out.coefficients = N
        return out

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def rank(self, i: int) -> int:
        if i < 0:
            return 0
        return self.ranks[i] if i < len(self.ranks) else 0

    def differential(self, i: int) -> Matrix:
        """d_i as a list of columns, shared with the complex (read them, do
        not change them); zero map beyond the recorded length."""
        if 1 <= i <= len(self.differentials):
            return list(self.differentials[i - 1])
        return [dict() for _ in range(self.rank(i))]

    def homology_at(self, i: int, budget: Budget = DEFAULT_BUDGET
                    ) -> PresentedModule:
        """H_i(F (x) N) = ker(d_i (x) id) / im(d_{i+1} (x) id).

        Builds only what it reads: the relation bases of N^rank(i) and
        N^rank(i-1) (each built once per N) and the two maps. A zero
        neighbouring step contributes no map.
        """
        if not (0 <= i <= max(self.length, 0)):
            raise ArgumentError(f"homology index {i} out of range")
        N = self.coefficients
        if N is None:
            N = PresentedModule.free(self.ring, 1)
        rn = N.ambient_rank
        out_map = out_target = in_map = None
        if i >= 1 and self.rank(i - 1):
            out_map = kron_identity(self.ring, self.differential(i), rn)
            out_target = _tensor_presented(N, self.rank(i - 1), budget)
        if self.rank(i + 1):
            in_map = kron_identity(self.ring, self.differential(i + 1), rn)
        return present_homology(self.ring,
                                _tensor_presented(N, self.rank(i), budget),
                                out_map, out_target, in_map, budget)

    def __repr__(self) -> str:
        return f"FreeComplex(ranks={self.ranks})"


def _check_composites(ring: RingModel, diffs: Sequence[Sequence[PackedVec]],
                      first: int, budget: Budget) -> None:
    """Raise unless d_i d_(i+1) vanishes modulo the ideal for every i >=
    ``first``; diffs[i - 1] holds d_i."""
    for i in range(max(first, 1), len(diffs)):
        if any(matmul(ring, diffs[i - 1], diffs[i], budget)):
            raise InternalConsistencyError(
                f"d_{i} . d_{i + 1} is nonzero modulo the ideal")


def present_homology(ring: RingModel, mid: GroebnerBasis,
                     out_map: Optional[Matrix],
                     out_target: Optional[GroebnerBasis],
                     in_map: Optional[Matrix],
                     budget: Budget = DEFAULT_BUDGET) -> PresentedModule:
    """H = Z/(B + K): Z = ker(out_map), B = im(in_map), K the relations
    in ``mid`` (padding included); ``out_target`` is the relation basis of
    out_map's target. Z is a preimage, one kernel call; B + K one Buchberger
    call seeded with ``mid``. Both are seeded with the ideal padding, so
    the maps are taken as given: normal forms would change neither result.
    ``is_zero`` and ``module_length`` read the leads of both; the
    presentation on the cycles takes a second kernel call, made when
    ``columns`` is first read. The complex's builder checked
    out_map * in_map, so B lies in Z.
    """
    rm, ctx = mid.ambient_rank, ring.ctx
    if out_map is None or rm == 0:     # Z is all of S^rm
        kcols, cycles = [{-(j << ctx.pb): 1} for j in range(rm)], None
    else:
        kcols, cycles = _kernel_columns(ring, out_map, [], out_target, budget)
    if not kcols:
        return PresentedModule.free(ring, 0)
    in_cols = in_map or []
    bounds = mid
    if in_cols:
        _require_graded(ring, in_cols, rm)
        bounds = GroebnerBasis(ring, rm, _engine.buchberger_flat(
            in_cols, ctx, budget, mid.index).index)
    H = PresentedModule.free(ring, len(kcols))
    H._cache["subquotient"] = cycles, bounds

    def build() -> Tuple[PackedVec, ...]:
        rels, H._cache["gb"] = _kernel_columns(ring, kcols, in_cols, mid,
                                               budget)
        return tuple(rels)

    H._columns = build
    return H


# ---------------------------------------------------------------------------
# resolutions

def minimal_free_resolution(M: PresentedModule, length: int,
                            budget: Budget = DEFAULT_BUDGET) -> FreeComplex:
    """Minimal free resolution of M out to homological degree ``length``.

    Obtained by iterated kernels with unit cancellation: generators of
    the kernel of each generator set are computed (``_kernel_columns`` with
    ``part="generators"``), and their unit entries cancel redundant columns
    of that set, which then becomes the differential. So every
    differential has all entries in the maximal ideal and the recorded
    ranks are the Betti numbers. The last step needs only the units of its
    kernel, so that kernel is computed only up to the top degree of the
    last generators (``part="units"``) and is not kept. The cache holds the
    resolution and the generators of the first step not computed in full,
    so a longer request redoes a truncated last step up to its generators
    and goes on as a fresh resolution would. Each product
    d_i d_(i+1) is checked to vanish once: an extension checks only those
    with d_(i+1) past the cached length. If a kernel is
    zero the resolution stops early (finite projective dimension); callers
    read rank(i) = 0 beyond the recorded length.
    """
    if length < 0:
        raise ArgumentError("resolution length must be nonnegative")
    cached = M._cache.get("resolution")
    if cached is None:
        Mmin = minimalize(M, budget)
        cached = (FreeComplex(M.ring, [Mmin.ambient_rank], []), 0,
                  list(Mmin.columns))
    # steps 1..done are computed in full; cur is what step done + 1 prunes
    res, done, cur = cached
    if res.length < length and cur:
        ranks = list(res.ranks[:done + 1])
        diffs: List[Matrix] = [list(d) for d in res.differentials[:done]]
        while len(diffs) < length and cur:
            last = len(diffs) + 1 == length
            free = GroebnerBasis(M.ring, ranks[-1],
                                 _ideal_padding(M.ring, ranks[-1], budget))
            syz, _ = _kernel_columns(M.ring, cur, [], free, budget,
                                     part="units" if last else "generators")
            # unit entries in the kernel mean cur's columns were a redundant
            # generating set; cancelling them drops matching columns of cur
            syz, kept = _minimalize_columns(M.ring, syz, len(cur), budget)
            diffs.append([cur[j] for j in kept])
            ranks.append(len(kept))
            if not last:
                cur = syz
        done = len(diffs) - 1 if last else len(diffs)
        checked = res.length
        res = FreeComplex(M.ring, ranks, diffs, verify=False)
        _check_composites(M.ring, res.differentials, checked, budget)
    M._cache["resolution"] = (res, done, cur)
    if res.length <= length:
        return res
    return FreeComplex(res.ring, res.ranks[:length + 1],
                       res.differentials[:length], verify=False)


# ---------------------------------------------------------------------------
# Koszul complexes, Tor, Ext

def _tensor_presented(N: PresentedModule, k: int,
                      budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    """The relation basis of N^k, generator (free index b, N index j) at
    position b*rN + j, cached on N.

    It is k shifted copies of N's basis (``_stacked``). Only N's own basis
    costs a Buchberger call, and it checks that N is graded. A free N^k's
    basis is the ideal padding.
    """
    key = ("tensor", k)
    gb = N._cache.get(key)
    if gb is None:
        ring, rn = N.ring, N.ambient_rank
        if k and N.columns:
            copies = _stacked(ring,
                              [(N.relations_groebner(budget).index, rn)] * k)
        else:
            copies = _ideal_padding(ring, k * rn, budget)
        gb = N._cache[key] = GroebnerBasis(ring, k * rn, copies)
    return gb


def _stacked(ring: RingModel, bases: Sequence[Tuple[GIndex, int]]) -> GIndex:
    """The reduced basis of a direct sum: each (basis, rank) moved past the
    positions of those before it, by subtracting its offset << pb from
    every packed term, and listed last block first, the order by lead that
    ``buchberger_flat`` returns. No S-pair or reduction mixes blocks."""
    offsets = list(accumulate([r for _, r in bases], initial=0))
    out = GIndex(ring.ctx)
    for (base, _), off in zip(reversed(bases), reversed(offsets[:-1])):
        s = off << ring.ctx.pb
        for vec, lead in zip(base.elems, base.leads):
            out.add({t - s: c for t, c in vec.items()}, lead - s)
    return out


def _unit_basis(ring: RingModel, rank: int) -> GIndex:
    """The reduced basis of all of S^rank: its unit vectors, by lead."""
    out = GIndex(ring.ctx)
    for j in reversed(range(rank)):
        out.add({-(j << ring.ctx.pb): 1}, -(j << ring.ctx.pb))
    return out


def _stacked_columns(ring: RingModel, mods: Sequence[PresentedModule]
                     ) -> Matrix:
    """The modules' relation columns side by side, each module's rows
    after those of the modules before it."""
    cols: Matrix = []
    off = 0
    for M in mods:
        s = off << ring.ctx.pb
        cols += [{t - s: c for t, c in col.items()} for col in M.columns]
        off += M.ambient_rank
    return cols


def direct_sum(ring: RingModel, summands: Sequence[PresentedModule],
               budget: Budget = DEFAULT_BUDGET) -> PresentedModule:
    """M_1 (+) ... (+) M_k, each on the generators after those before it.

    Plain summands give their block-diagonal presentation. With a homology
    summand Z/(B + K) the sum is built like N^k (``_tensor_presented``),
    from shifted copies of the summands' bases (S^r is a plain one's Z),
    so ``is_zero`` and ``module_length`` need no new Buchberger call; its
    columns are built when first read.
    """
    parts = [M for M in summands if M.ambient_rank]
    rank = sum(M.ambient_rank for M in parts)
    if not any("subquotient" in M._cache for M in parts):
        return PresentedModule(ring, rank, _stacked_columns(ring, parts),
                               budget, trusted=True)
    subs = [M._cache.get("subquotient") or (None, M.relations_groebner(budget))
            for M in parts]
    mid = sum(b.ambient_rank for _, b in subs)
    cycles = GroebnerBasis(ring, mid, _stacked(ring, [
        (z.index if z is not None else _unit_basis(ring, b.ambient_rank),
         b.ambient_rank) for z, b in subs]))
    bounds = GroebnerBasis(ring, mid, _stacked(
        ring, [(b.index, b.ambient_rank) for _, b in subs]))
    S = PresentedModule.free(ring, rank)
    S._cache["subquotient"] = cycles, bounds

    def build() -> Tuple[PackedVec, ...]:
        S._cache["gb"] = GroebnerBasis(ring, rank, _stacked(
            ring, [(M.relations_groebner(budget).index, M.ambient_rank)
                   for M in parts]))
        return tuple(_stacked_columns(ring, parts))

    S._columns = build
    return S


def koszul_complex(elements: Sequence[Polynomial], M: PresentedModule
                   ) -> FreeComplex:
    """Koszul complex on the given elements, tensored with M.

    Step i of the free complex has rank binomial(c, i), its basis indexed
    by the sorted i-subsets of the elements; the result carries M as its
    coefficients, so homology_at(i) is the Koszul homology H_i(elements; M).
    """
    ring = M.ring
    for e in elements:
        if not ring.compatible(e.ring):
            raise ArgumentError("Koszul element outside the module's ring")
    c = len(elements)
    bases = [list(combinations(range(c), i)) for i in range(c + 1)]
    p = ring.p
    diffs: List[Matrix] = []
    for i in range(1, c + 1):
        index_prev = {s: k for k, s in enumerate(bases[i - 1])}
        koszul: Matrix = []
        for s in bases[i]:
            terms = []
            for t, var in enumerate(s):
                row = index_prev[s[:t] + s[t + 1:]]
                sign = 1 if t % 2 == 0 else p - 1
                terms += [(row, m, coeff * sign % p)
                          for m, coeff in elements[var].terms.items()]
            koszul.append(ring.ctx.pack(terms))
        diffs.append(koszul)
    return FreeComplex(ring, [len(b) for b in bases], diffs,
                       verify=False).tensor(M)


def tor(M: PresentedModule, N: PresentedModule, i: int,
        budget: Budget = DEFAULT_BUDGET) -> PresentedModule:
    """Tor_i over R: H_i of (minimal resolution of M) (x) N.

    Zero when the resolution stops before step i (pd M < i).
    """
    if i < 0:
        raise ArgumentError("Tor index must be nonnegative")
    if not M.ring.same_quotient(N.ring, budget):
        raise ArgumentError("Tor arguments live over different rings")
    res = minimal_free_resolution(M, i + 1, budget)
    if i > res.length:
        return PresentedModule.free(M.ring, 0)
    return res.tensor(N).homology_at(i, budget)


def ext(M: PresentedModule, N: PresentedModule, i: int,
        budget: Budget = DEFAULT_BUDGET) -> PresentedModule:
    """Ext^i over R: cohomology of Hom(minimal resolution G of M, N).

    Hom(G_j, N) is G_j* (x) N, so Ext^i is H_1 of the three-step dual
    complex G_{i+1}* <- G_i* <- G_{i-1}* (transposed differentials)
    tensored with N.
    """
    if i < 0:
        raise ArgumentError("Ext index must be nonnegative")
    if not M.ring.same_quotient(N.ring, budget):
        raise ArgumentError("Ext arguments live over different rings")
    res = minimal_free_resolution(M, i + 1, budget)
    dual = FreeComplex(
        M.ring, [res.rank(i + 1), res.rank(i), res.rank(i - 1)],
        [transpose(M.ring, res.differential(i + 1), res.rank(i)),
         transpose(M.ring, res.differential(i), res.rank(i - 1))],
        verify=False)
    return dual.tensor(N).homology_at(1, budget)
