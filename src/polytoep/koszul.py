"""Truncated Koszul complexes of Toeplitz tuples on monomial windows.

The Hardy space H²(𝔻ⁿ) has the monomials as an orthonormal basis, and for an
analytic polynomial symbol the Toeplitz operator is plain multiplication.  A
monomial window (all exponents below a per-variable cap) therefore carries an
exact finite section of the Koszul complex: the codomain cap of every boundary
map is the domain cap enlarged by the tuple degree, so multiplication never
truncates and consecutive boundary matrices compose to the exact zero matrix.
The chain property is checked against the rounding bound of the float matrix
product, formed on the nonzeros (``chain_check``); rank decisions carry the
only tolerance, ``DEFAULT_RANK_TOL`` relative to the largest singular value.

Homology dimensions:

* h₀ and the rank of d₁ come from a theorem, not a factorization.  d₁
  multiplies by the symbols into a window that does not truncate, and ℂ[z]
  has no zero divisors, so d₁ is injective once some symbol is nonzero
  (Eisenbud, *Commutative Algebra*, 1995, §17): h₀ = 0 and its rank is its
  column count.  If every symbol is zero, d₁ = 0 and h₀ is the dimension
  of stage 0.
* middle h_k compares the nullity of the next map against the image of the
  previous map *with an enlarged domain window*, intersected back into the
  stage.  The naive rank subtraction overcounts h_k by window-boundary
  syzygies whose cofactors exceed the stage cap; the enlarged-domain
  intersection removes exactly those, while genuine non-Fredholm growth (e.g.
  the repeated-symbol tuple) still shows up as growth in N.  The stage sits
  in the enlarged codomain as a set V of coordinate rows, so
  dim(im A ∩ V) = rank(A) − rank(A with the rows of V deleted).
* the top dimension h_p is NOT read off the window cokernel (corner monomials
  of the window are never reachable and would inflate it); it comes from
  ``ideal_codim_window`` below.

``ideal_codim_window`` counts codim = dim H²/Σ T_fᵢH² on the finite sections
A_N = P_N [T_f₁ … T_f_p] P_N of the top Koszul map, P_N the projection onto
the box window of cap N.  Finite sections of Toeplitz operators split their
singular values into ones bounded below and ones that decay geometrically,
one per common zero λ in the open polydisc, at the rate max_v|λ_v|
(Roch–Silbermann, J. Math. Anal. Appl. 1998; Böttcher–Silbermann,
*Introduction to Large Truncated Toeplitz Matrices*, 1999): A_N* maps the
kernel function of λ, cut to the window, almost to zero.  A zero outside
the closed polydisc leaves no decaying value, so 1 = (z₁−2)·(−Σ z₁^k/2^{k+1})
costs nothing although its cofactor is no polynomial.  Level N is compared
with level N − D, D the largest degree (the values of (z₁² − ¼, z₂)
alternate with the parity of N), and a value decays when it shrank by more
than ρ^D: after a certificate at r every interior zero decays at a rate
below r < ρ = (1+r)/2.

A route builds each boundary map once and factors each whole map once
(``TupleGrading.boundary`` and ``TupleGrading.svdvals``): when every
variable has degree D, the enlarged d_k of level N is the d_k of level
N + D, and a finite section A_N is a row subset of a top map the sweep
already holds.  The one whole d₁ a route factors is the last level's, for
its σ_min.  What
does not depend on the symbols, the monomial windows (``monomial_window``)
and the block pattern of each boundary map (``_stage_blocks``), is made
once per process as read-only arrays.

Weight-homogeneous tuples factor their boundary maps grade by grade.  If an
integer weight w takes one value w·cᵢ on the support of every symbol fᵢ, the
Koszul complex is w-graded (Eisenbud, *Commutative Algebra*, 1995, §17):
coordinate (S, a) of stage k has grade w·a − Σ_{i∈S} w·cᵢ, and multiplying
by fᵢ into S ∪ {i} keeps it.  ``TupleGrading`` takes as weights a basis W of
the rational kernel of the within-symbol exponent differences (so (z₁, z₂,
z₃) is graded by every exponent, (z₁+z₂, z₂+z₃, z₃−z₁/2) by total degree,
(z₁−2, z₂) by the z₂ exponent).  Every boundary matrix, and every row subset
of one, is then block-diagonal by grade up to a permutation, so its singular
values are the union of its blocks' ones (``graded_svdvals``).  A tuple with
no weight, such as (z₁ − a, z₂ − b) with a, b ≠ 0 or the products of the
benchmark workloads, is the one-grade case: W has no rows, every key is 0
and each map is a single block.  Ranks keep their tolerance relative to the
largest singular value of the whole map.

Every boundary map is held sparse, as a ``SparseMap``: coordinate triplets
(row, column, value) and a shape.  The route reads the tuple as
``kernels.pack_tuple`` packs it, tiny exact coefficients included, and one
scatter (in ``_boundary_matrix``) emits the nonzeros of z^a·fᵢ for every
shift a and symbol i with the signs of the Koszul blocks: it builds every
boundary map and every finite section.  Deleting rows (the stage window of
an enlarged map, the rows of a finite section) filters triplets, and
``chain_check`` joins the columns of d_{k+1} with the rows of d_k.  A map
becomes dense only as a grade block with at least two rows and two columns
handed to LAPACK; a block with one row or one column has one singular
value, its 2-norm, summed from the triplets.  For a tuple with no weight
the one block is the whole map, so memory and time follow the nonzeros and
the grade blocks.  Arithmetic is real when it can be.  Every
boundary map is ``float64`` when each packed coefficient has imaginary part
exactly 0 (exact for exact tuples: a zero ``ExactComplex.im`` converts to
0.0), and ``complex128`` otherwise; the choice is made once per tuple and
the code path is the same.  A real LAPACK factorization costs a fraction of
the complex one, and the real matrices are the complex ones with their
imaginary parts dropped, so ranks and section singular values agree up to
rounding.

Index convention: Ind = Σ_k (−1)^{p+1−k} h_k, i.e. the alternating sum
anchored with coefficient −1 at the top (quotient) stage.  For a pair this is
−h₀ + h₁ − h₂; for a single operator it is dim ker − dim coker; in every
arity the coprime case gives Ind = −codim.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import echelon, kernel_vector
from .kernels import PackedTuple, pack_tuple
from .poly import SymbolTuple

DEFAULT_RANK_TOL = 1e-8
MATRIX_BUDGET = 20_000          # hard cap on columns of any assembled matrix


class MatrixBudgetError(RuntimeError):
    """Raised when a requested window would exceed the matrix-size budget."""


class MonomialWindow:
    """Exponents under per-variable caps: ``exps`` (dim × nvars, int64) in
    graded-lex order, and ``row[e]``, shape cap + 1, the position of e.  Both
    arrays are read-only, so one window can serve every tuple."""

    __slots__ = ("nvars", "cap", "exps", "row")

    def __init__(self, nvars: int, cap):
        if isinstance(cap, int):
            cap = (cap,) * nvars
        cap = tuple(int(c) for c in cap)
        if len(cap) != nvars or any(c < 0 for c in cap):
            raise ValueError(f"bad cap {cap} for nvars={nvars}")
        self.nvars = nvars
        self.cap = cap
        lex = np.indices([c + 1 for c in cap]).reshape(nvars, -1).T
        # a stable sort of the lexicographic list by total degree is graded-lex
        order = np.argsort(lex.sum(axis=1), kind="stable")
        self.exps = lex[order]
        row = np.empty(len(lex), dtype=np.int64)
        row[order] = np.arange(len(lex))
        self.row = row.reshape([c + 1 for c in cap])
        self.exps.flags.writeable = self.row.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.exps)

    def __repr__(self):
        return f"MonomialWindow(nvars={self.nvars}, cap={self.cap}, dim={self.dim})"


# windows by cap, shared by every tuple; only windows within MATRIX_BUDGET
# are kept (no assembled matrix has a larger one), so the cache is bounded
_WINDOWS: dict = {}


def monomial_window(cap: Tuple[int, ...]) -> MonomialWindow:
    """The monomial window of per-variable caps ``cap``, made once per
    process when it has at most ``MATRIX_BUDGET`` monomials."""
    win = _WINDOWS.get(cap)
    if win is None:
        win = MonomialWindow(len(cap), cap)
        if win.dim <= MATRIX_BUDGET:
            _WINDOWS[cap] = win
    return win


def matrix_dtype(pk: PackedTuple) -> type:
    """``float64`` when every packed coefficient is real, else ``complex128``:
    the dtype of the tuple's boundary matrices."""
    return np.complex128 if pk.cim.any() else np.float64


# ---- boundary map block structure --------------------------------------------

def _subsets(p: int, k: int) -> List[Tuple[int, ...]]:
    return list(combinations(range(p), k))


@functools.cache
def _stage_blocks(p: int, k: int) -> np.ndarray:
    """(row_subset, col_subset, symbol, sign) rows of the k-th boundary map,
    with the exterior-algebra signs: d(ξ·e_S) = Σ_{i∉S} (−1)^j·Tᵢξ·e_{S∪{i}},
    where j is the position of i in the sorted S ∪ {i}.  For a pair this is
    d₁ξ = (T₁ξ, T₂ξ) and d₂(ξ₁,ξ₂) = −T₂ξ₁ + T₁ξ₂.  Made once per process,
    as a read-only int64 array of shape (blocks, 4).
    """
    rows = _subsets(p, k)
    cols = _subsets(p, k - 1)
    out = []
    for ci, r_set in enumerate(cols):
        for i in range(p):
            if i in r_set:
                continue
            s_set = tuple(sorted(r_set + (i,)))
            out.append((rows.index(s_set), ci, i, (-1) ** s_set.index(i)))
    blocks = np.array(out, dtype=np.int64).reshape(-1, 4)
    blocks.flags.writeable = False
    return blocks


@dataclass(frozen=True)
class SparseMap:
    """A matrix as coordinate triplets: ``vals[t]`` sits at (``rows[t]``,
    ``cols[t]``), no position twice, and every other entry is 0."""

    rows: np.ndarray             # int64
    cols: np.ndarray             # int64
    vals: np.ndarray             # float64 or complex128
    shape: Tuple[int, int]

    @property
    def dtype(self) -> np.dtype:
        return self.vals.dtype

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def take_rows(self, rows: np.ndarray) -> "SparseMap":
        """The map's rows ``rows`` (distinct indices), in that order."""
        at = np.full(self.shape[0], -1, dtype=np.int64)
        at[rows] = np.arange(len(rows))
        at = at[self.rows]
        keep = at >= 0
        return SparseMap(at[keep], self.cols[keep], self.vals[keep],
                         (len(rows), self.shape[1]))


def _boundary_matrix(pk: PackedTuple, k: int, win_in: MonomialWindow,
                     win_out: MonomialWindow, dtype: type) -> SparseMap:
    """d_k from ``win_in`` into ``win_out``: block (S, R) is ±T_i, with the
    sign and symbol of ``_stage_blocks``, and every other block is 0.  One
    scatter emits z^a·fᵢ for every monomial a of ``win_in`` and every block:
    packed term t of fᵢ, exponent e, puts its coefficient (formed as the
    kernels form it) times the block's sign in row ``win_out.row[a + e]`` of
    the block."""
    p, m, n = pk.npolys, win_out.dim, win_in.dim
    coeffs = pk.cre if np.dtype(dtype).kind == "f" else pk.cre + 1j * pk.cim
    symbol = np.repeat(np.arange(p), np.diff(pk.offs))
    shifted = win_out.row[tuple((win_in.exps + pk.exps[:, None]).transpose(2, 0, 1))]
    blocks = _stage_blocks(p, k)
    # every (block, term of the block's symbol) pair, then every monomial a
    b, t = np.nonzero(blocks[:, 2, None] == symbol)
    ri, ci, _, sign = blocks[b].T
    rows = (ri * m)[:, None] + shifted[t]
    cols = (ci * n)[:, None] + np.arange(n)
    return SparseMap(rows.ravel(), cols.ravel(), np.repeat(sign * coeffs[t], n),
                     (math.comb(p, k) * m, math.comb(p, k - 1) * n))


@dataclass(frozen=True)
class KoszulTruncation:
    """Boundary matrices of the windowed Koszul complex at domain cap N."""

    tuple: SymbolTuple
    packed: PackedTuple            # the tuple as ``kernels.pack_tuple`` reads it
    N: int
    deg_vec: tuple
    windows: tuple                 # stage 0..p monomial windows
    boundary_matrices: tuple       # d_1..d_p, each a ``SparseMap``

    @property
    def arity(self) -> int:
        return len(self.tuple)


def build_koszul(st: SymbolTuple, N: int,
                 grading: Optional[TupleGrading] = None) -> KoszulTruncation:
    """Assemble the truncated complex 0 → Λ⁰W → Λ¹W → … → ΛᵖW → 0.

    Stage k lives on the window with cap N·1 + k·D where D is the per-variable
    degree vector of the tuple, so no boundary map truncates.  ``grading``
    is the tuple's ``TupleGrading``, whose packed tuple and boundary maps are
    used (made here when not given; a sweep passes one through its levels).
    """
    p = len(st)
    if p not in (1, 2, 3):
        raise ValueError(f"unsupported tuple arity {p} (1, 2 or 3 supported)")
    if st.nvars not in (1, 2, 3):
        raise ValueError(f"unsupported variable count {st.nvars}")
    if N < 0:
        raise ValueError("N must be non-negative")
    deg = st.degree_vec()
    grading = TupleGrading(st) if grading is None else grading
    wins = [monomial_window(tuple(N + k * d for d in deg)) for k in range(p + 1)]
    widest = max(math.comb(p, k) * wins[k].dim for k in range(p + 1))
    if widest > MATRIX_BUDGET:
        raise MatrixBudgetError(
            f"window overflow: stage would need {widest} columns (budget {MATRIX_BUDGET})")
    mats = tuple(grading.boundary(k, wins[k - 1], wins[k]) for k in range(1, p + 1))
    return KoszulTruncation(st, grading.packed, N, deg, tuple(wins), mats)


def _nonzero_product(a: SparseMap, b: SparseMap) -> Tuple[SparseMap, np.ndarray]:
    """a @ b formed on the nonzeros, and Σ|a_ic·b_cj| at each of its
    entries: every entry (i, c) of ``a`` meets the entries (c, j) of ``b``,
    and the terms are summed per (i, j).  Positions no pair reaches are
    left out; the product is exactly 0 there."""
    # entry i of a makes one pair with each entry of b in row a.cols[i]:
    # pair q belongs to entry ai[q], and ``skip`` is, per entry of a, where
    # its row starts in b's row order less where its pairs start
    in_row = np.bincount(b.rows, minlength=b.shape[0])
    count = in_row[a.cols]
    ai = np.repeat(np.arange(a.rows.size), count)
    skip = (np.cumsum(in_row) - in_row)[a.cols] - np.cumsum(count) + count
    bi = np.argsort(b.rows, kind="stable")[np.arange(ai.size) + skip[ai]]
    # the pairs sorted by product position, one run per entry
    cell = a.rows[ai] * b.shape[1] + b.cols[bi]
    order = np.argsort(cell, kind="stable")
    terms = (a.vals[ai] * b.vals[bi])[order]
    cell = cell[order]
    first = np.flatnonzero(np.concatenate((cell[:1] >= 0, cell[1:] != cell[:-1])))
    rows, cols = np.divmod(cell[first], b.shape[1])
    return (SparseMap(rows, cols, np.add.reduceat(terms, first), (a.shape[0], b.shape[1])),
            np.add.reduceat(np.abs(terms), first))


def chain_check(kt: KoszulTruncation) -> bool:
    """Consecutive boundary maps compose to zero up to the rounding of the
    float product: entrywise |d_{k+1} d_k| ≤ γ·(|d_{k+1}| |d_k|) with
    γ = 4(n+4)·2⁻⁵³ for inner dimension n (a Higham-style bound that covers
    complex arithmetic, fused multiply-adds and any summation order).
    Exact products are zero by construction, so any wrong entry in an
    assembled map leaves a residual of the size of the products it enters
    and fails the check.  The products are formed on the nonzeros
    (``_nonzero_product``)."""
    d = kt.boundary_matrices
    for a, b in zip(d[1:], d[:-1]):
        prod, bound = _nonzero_product(a, b)
        gamma = 4 * (b.shape[0] + 4) * 2.0 ** -53
        if np.any(np.abs(prod.vals) > gamma * bound):
            return False
    return True


# ---- weight grading -------------------------------------------------------------

def _rational_kernel(rows: Sequence[Sequence[int]], n: int) -> List[List[int]]:
    """Primitive integer basis of {w ∈ ℚⁿ : w·v = 0 for every v in ``rows``},
    read off the reduced echelon form of ``rows``: one vector per free column,
    1 there, so clearing its denominators leaves it primitive."""
    pivots: dict = {}
    echelon(({j: Fraction(x) for j, x in enumerate(v) if x} for v in rows), pivots)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        w = kernel_vector(pivots, free)
        scale = math.lcm(*(x.denominator for x in w.values()))
        basis.append([int(w.get(c, 0) * scale) for c in range(n)])
    return basis


class TupleGrading:
    """Integer weight grading of a tuple's Koszul complex.

    ``weights`` is an integer basis W of the rational kernel of the
    within-symbol exponent differences, so W·e takes one value W·cᵢ on the
    support of symbol i (cᵢ, its anchor, is the first packed exponent of
    that support).  Coordinate (S, a) of stage k then has grade W·a − Σ_{i∈S} W·cᵢ,
    and every boundary map sends each grade into itself.  Grades are stored
    as integer keys: the key of a grade g is Σⱼ gⱼ·Mⱼ for the mixed radix M
    of the bounds |gⱼ| ≤ bⱼ that every window within ``MATRIX_BUDGET``
    satisfies, so distinct grades get distinct keys and no key leaves int64.
    A tuple with no weight has W of shape (0, n), and every key is 0.

    A route makes one grading per tuple and passes it to every level, so it
    also holds what the levels share: ``packed``, the tuple as
    ``kernels.pack_tuple`` packs it, ``dtype`` (``matrix_dtype``), every
    boundary map it was asked for (``boundary``) and the singular values of
    every whole map it factored (``svdvals``), each keyed by (stage, domain
    cap, codomain cap).  So the enlarged d_k of level N is level N + D's d_k
    whenever the caps agree, and a finite section is a row subset of a top
    map the sweep already holds.  ``work`` counts the route's work: maps
    built, batched LAPACK calls and the grade blocks they factored, and
    blocks taken by their norm (``graded_svdvals``).  The grading lives as
    long as the route that made it.
    """

    def __init__(self, st: SymbolTuple):
        n, p = st.nvars, len(st)
        pk = pack_tuple(st)
        supports = np.split(pk.exps, pk.offs[1:-1])
        anchors = np.array([sup[0] if len(sup) else np.zeros(n, dtype=np.int64)
                            for sup in supports])
        diffs = np.concatenate([sup[1:] - c for sup, c in zip(supports, anchors)])
        rows = _rational_kernel(diffs.tolist(), n)
        radix = []
        for w in rows:
            bound = (sum(map(abs, w)) * (MATRIX_BUDGET - 1)
                     + int(np.abs(anchors @ np.array(w, dtype=np.int64)).sum()))
            radix.append(2 * bound + 1)
        # keep the leading rows whose keys fit in int64: fewer rows grade
        # more coarsely, never wrongly (a guard; n ≤ 3 within the budget
        # drops none)
        while rows and math.prod(radix) >= 2 ** 63:
            rows, radix = rows[:-1], radix[:-1]
        mult = [math.prod(radix[:j]) for j in range(len(rows))]
        omega = [sum(m * w[v] for m, w in zip(mult, rows)) for v in range(n)]
        self.nsymbols, self.packed = p, pk
        self.dtype = matrix_dtype(pk)
        self.weights = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        self.work = new_work()
        self._omega = np.array(omega, dtype=np.int64)
        anchor_keys = anchors @ self._omega
        # per stage, the anchor keys summed over each subset, in ``_subsets`` order
        self._subset_keys = [np.array([anchor_keys[list(sub)].sum() for sub in _subsets(p, k)],
                                      dtype=np.int64) for k in range(p + 1)]
        self._keys: dict = {}
        self._maps: dict = {}
        self._sigmas: dict = {}

    def keys(self, k: int, win: MonomialWindow) -> np.ndarray:
        """Grade keys of the coordinates of stage k on ``win`` (subset blocks
        in ``_subsets`` order, monomials in window order), computed once per
        window."""
        if (k, win.cap) not in self._keys:
            self._keys[(k, win.cap)] = (win.exps @ self._omega
                                        - self._subset_keys[k][:, None]).ravel()
        return self._keys[(k, win.cap)]

    def boundary(self, k: int, win_in: MonomialWindow,
                 win_out: MonomialWindow) -> SparseMap:
        """d_k from ``win_in`` into ``win_out`` (``_boundary_matrix``), built
        once."""
        key = (k, win_in.cap, win_out.cap)
        if key not in self._maps:
            self._maps[key] = _boundary_matrix(self.packed, k, win_in, win_out, self.dtype)
            self.work["maps_built"] += 1
        return self._maps[key]

    def svdvals(self, k: int, win_in: MonomialWindow,
                win_out: MonomialWindow) -> np.ndarray:
        """Singular values of d_k from ``win_in`` into ``win_out``, descending,
        factored once through ``graded_svdvals`` with the grade keys."""
        key = (k, win_in.cap, win_out.cap)
        if key not in self._sigmas:
            self._sigmas[key] = graded_svdvals(self.boundary(k, win_in, win_out),
                                               self.keys(k, win_out),
                                               self.keys(k - 1, win_in), self.work)
        return self._sigmas[key]


# the route's deterministic work counters (``TupleGrading.work``)
WORK_COUNTERS = ("maps_built", "lapack_calls", "lapack_blocks", "norm_blocks")


def new_work() -> dict:
    """Every work counter at 0."""
    return dict.fromkeys(WORK_COUNTERS, 0)


def graded_svdvals(mat: SparseMap, row_keys: np.ndarray, col_keys: np.ndarray,
                   work: Optional[dict] = None) -> np.ndarray:
    """The min(m, n) singular values of ``mat``, descending.

    ``mat`` must vanish wherever the row key differs from the column key, so
    up to a permutation it is block-diagonal by key and its singular values
    are the union of the blocks' ones, padded with zeros.  A block with one
    row or one column has one singular value, its 2-norm: those norms come
    from one ``np.bincount`` of the squared moduli over the triplets.  Each
    block with at least two rows and two columns is scattered straight from
    the triplets, rows and columns each in their own order, and blocks of
    one shape are factored in one batched ``np.linalg.svd`` call.  When
    every key is the same (always so for a tuple with no weight) the one
    block is the whole matrix, factored as it is.  ``work`` (``new_work``)
    counts the LAPACK calls, the blocks they factored and the blocks taken
    by their norm.
    """
    work = new_work() if work is None else work
    m, n = mat.shape
    if m and n and (row_keys == row_keys[0]).all() and (col_keys == row_keys[0]).all():
        work["lapack_calls"] += 1
        work["lapack_blocks"] += 1
        return np.linalg.svd(mat.dense(), compute_uv=False)
    keys, label = np.unique(np.concatenate([row_keys, col_keys]), return_inverse=True)
    nrows = np.bincount(label[:m], minlength=keys.size)
    ncols = np.bincount(label[m:], minlength=keys.size)
    small = np.minimum(nrows, ncols)
    # every triplet lies in a block of positive size: its row and column
    # share a label
    block = label[mat.rows]
    thin = small == 1
    sumsq = np.bincount(block, weights=np.abs(mat.vals) ** 2, minlength=keys.size)
    vals = [np.zeros(min(m, n) - int(small.sum())), np.sqrt(sumsq[thin])]
    work["norm_blocks"] += int(thin.sum())
    fat = np.flatnonzero(small > 1)
    if fat.size:
        # one stable sort of rows and columns together: rows come first
        # within a label, each side in its own order; ``at`` is each row's
        # and each column's place within its block
        order = np.argsort(label, kind="stable")
        start = np.cumsum(nrows + ncols) - nrows - ncols
        at = np.empty(m + n, dtype=np.int64)
        at[order] = np.arange(m + n) - start[label[order]]
        at[m:] -= nrows[label[m:]]
        shape = nrows * (n + 1) + ncols
        block_shape = shape[block]
        for s in np.unique(shape[fat]):
            g = fat[shape[fat] == s]
            slot = np.full(keys.size, -1, dtype=np.int64)
            slot[g] = np.arange(g.size)
            t = np.flatnonzero(block_shape == s)
            blocks = np.zeros((g.size, nrows[g[0]], ncols[g[0]]), dtype=mat.dtype)
            blocks[slot[block[t]], at[mat.rows[t]], at[m + mat.cols[t]]] = mat.vals[t]
            vals.append(np.linalg.svd(blocks, compute_uv=False).ravel())
            work["lapack_calls"] += 1
            work["lapack_blocks"] += g.size
    return np.sort(np.concatenate(vals))[::-1]


# ---- numerical rank ------------------------------------------------------------

def _rank_of(sv: np.ndarray, tol: float) -> int:
    """Number of singular values above ``tol`` relative to the largest."""
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def numerical_rank(mat: np.ndarray, tol: float) -> int:
    return _rank_of(np.linalg.svd(mat, compute_uv=False), tol) if mat.size else 0


def range_sum_check(matrices: Sequence[np.ndarray],
                    rank_tolerance: float = DEFAULT_RANK_TOL) -> bool:
    """Finite-dimensional closed-range identity: col-space(Σ TᵢTᵢ*) equals
    Σ col-space(Tᵢ), decided by comparing ranks of the two assemblies."""
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    if not mats:
        raise ValueError("empty matrix list")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError("matrices must be square and share one size")
    gram = sum(m @ m.conj().T for m in mats)
    return numerical_rank(gram, rank_tolerance) == numerical_rank(np.hstack(mats), rank_tolerance)


# ---- homology dimensions --------------------------------------------------------

def homology_kernel_dims(kt: KoszulTruncation,
                         grading: Optional[TupleGrading] = None) -> List[int]:
    """[h₀, …, h_{p−1}] of the truncation (everything except the top stage).

    d₁, the enlarged one too, is injective when some symbol is nonzero and 0
    otherwise (module docstring), so its rank needs no factorization.  Middle
    stages subtract dim(im(d_k with domain enlarged to the stage-k cap) ∩
    stage k) from the nullity of d_{k+1}.  The stage-k window is a set V of
    coordinate rows of the enlarged codomain, so the intersection dimension
    is rank(A) − rank(A with the rows of V deleted).

    ``grading`` is the tuple's ``TupleGrading`` (made here when not given; a
    sweep passes one through its levels).  Every map comes from it and every
    whole map is factored by it (``TupleGrading.svdvals``) once: when every
    variable has degree D, the enlarged d_k of level N is, entry for entry,
    the d_k of level N + D, so it is neither built nor factored twice.
    """
    p, tol = kt.arity, DEFAULT_RANK_TOL
    wins = kt.windows
    grading = TupleGrading(kt.tuple) if grading is None else grading
    injective = kt.boundary_matrices[0].vals.any()

    def rank(k, win_in, win_out):
        if k == 1:
            return win_in.dim if injective else 0
        return _rank_of(grading.svdvals(k, win_in, win_out), tol)

    def nullity(k):
        return wins[k - 1].dim * math.comb(p, k - 1) - rank(k, wins[k - 1], wins[k])

    dims = [nullity(1)]
    for k in range(1, p):
        out = wins[k + 1]
        outside = np.ones(out.dim, dtype=bool)
        outside[out.row[tuple(wins[k].exps.T)]] = False
        outside = np.flatnonzero(np.tile(outside, math.comb(p, k)))
        rows_kept = graded_svdvals(grading.boundary(k, wins[k], out).take_rows(outside),
                                   grading.keys(k, out)[outside],
                                   grading.keys(k - 1, wins[k]), grading.work)
        dim_intersect = rank(k, wins[k], out) - _rank_of(rows_kept, tol)
        dims.append(max(nullity(k + 1) - dim_intersect, 0))
    return dims


@dataclass(frozen=True)
class HomologyDims:
    """Stabilized homology dimensions [h₀ … h_p] and the index estimate."""

    dims: tuple
    stabilized: bool
    index_estimate: Union[int, str]


def euler_index(dims: Sequence[int]) -> int:
    """Σ (−1)^{p+1−k} h_k — alternating sum with −1 at the top stage."""
    p = len(dims) - 1
    return sum((-1) ** (p + 1 - k) * int(h) for k, h in enumerate(dims))


# ---- ideal codimension from finite sections of the top map ------------------------

# Largest cap N of the finite sections, by variable count (A_N has (N+1)ⁿ
# rows).  Pairs (z₁ − a, z₂ − b) with max(|a|, |b|) up to 0.88, certified at
# r = 0.9, need levels up to 20: a cap of 16 loses 7 of 20 drawn such pairs.
SECTION_CAP = {1: 64, 2: 20, 3: 8}


def _section_svdvals(grading: TupleGrading, N: int, deg: Sequence[int]) -> np.ndarray:
    """Ascending singular values of A_N = P_N [T_f₁ … T_f_p] P_N, the top
    boundary map from the box window of cap N, restricted to the rows of
    that window."""
    p = grading.nsymbols
    win = monomial_window((N,) * len(deg))
    out = monomial_window(tuple(N + d for d in deg))
    rows = out.row[tuple(win.exps.T)]
    mat = grading.boundary(p, win, out).take_rows(rows)
    return graded_svdvals(mat, grading.keys(p, out)[rows], grading.keys(p - 1, win),
                          grading.work)[::-1]


def ideal_codim_window(st: SymbolTuple, *, rho: float,
                       grading: Optional[TupleGrading] = None) -> Union[int, str]:
    """Codimension of the symbol ideal in H²(𝔻ⁿ), counted on the finite
    sections A_N of the top Koszul map, or "unstable".

    Levels run N = 1, 2, … up to ``SECTION_CAP``, and from N = D + 1 on, D
    the largest degree, level N compares its ascending singular values with
    those of level N − D.  c(N) is the length of the leading run of values
    that are rank-zero (at most ``DEFAULT_RANK_TOL`` of the largest) or that
    shrank by more than ρ^D.  A level is clear when c = 0, when every value
    is counted, or when the next value is at least ten times the last
    counted one; three consecutive clear levels with one c give the
    codimension.  ``rho`` is the decay bound: with a boundary certificate at
    r and ρ = (1+r)/2, every common zero in the polydisc decays at a rate
    below r < ρ.  ``grading`` is the tuple's ``TupleGrading`` (made here
    when not given).
    """
    if not 0 < rho < 1:
        raise ValueError("decay bound rho must lie in (0, 1)")
    deg = st.degree_vec()
    step = max(deg, default=0)
    grading = TupleGrading(st) if grading is None else grading
    levels: List[np.ndarray] = []
    counts: List[Optional[int]] = []     # c of each compared level, None if not clear
    for N in range(1, SECTION_CAP[st.nvars] + 1):
        sv = _section_svdvals(grading, N, deg)
        levels.append(sv)
        if N <= step:
            continue
        before = levels[N - 1 - step]
        tiny = DEFAULT_RANK_TOL * sv[-1]
        c = 0
        while c < sv.size and (sv[c] <= tiny or (c < before.size
                                                 and sv[c] < rho ** step * before[c])):
            c += 1
        clear = c == 0 or c == sv.size or sv[c] >= 10 * sv[c - 1]
        counts.append(c if clear else None)
        if counts[-3:] == [c] * 3:
            return c
    return "unstable"


# ---- full route ---------------------------------------------------------------------

@dataclass(frozen=True)
class KoszulRouteResult:
    per_n: tuple                 # ({"N": n, "kernel_dims": [...]}, ...)
    codim: Union[int, str]
    homology: HomologyDims
    sigma_min_first: float
    chain_exact: bool
    work: dict                   # ``TupleGrading.work``; no part of a report body

    @property
    def index(self) -> Union[int, str]:
        return self.homology.index_estimate


def default_levels(nvars: int) -> range:
    """The levels ``koszul_route`` sweeps unless told otherwise: 2..8, and
    1..3 in three variables."""
    return range(2, 9) if nvars <= 2 else range(1, 4)


def koszul_route(st: SymbolTuple, n_range: Sequence[int] = None, *,
                 rho: float) -> KoszulRouteResult:
    """Sweep the levels of ``n_range`` (by default ``default_levels``) and
    stop at the first three consecutive ones with the same kernel-side
    homology vector (``per_n`` ends there, and ``sigma_min_first`` is read
    on its last level), attach the stabilized ideal codimension at decay
    bound ``rho`` as the top dimension, and form the Euler index.  Emits
    "unstable" rather than any integer when stabilization fails.

    Precondition: every common zero of the tuple in the closed polydisc has
    max_v|z_v| < 2ρ − 1, as a boundary certificate at r = 2ρ − 1 proves.
    The codimension count is sound only then; on a tuple with a zero on or
    near the torus it may emit any integer."""
    p = len(st)
    if n_range is None:
        n_range = default_levels(st.nvars)
    n_values = list(n_range)
    if not n_values:
        raise ValueError("empty truncation range")
    per_n = []
    history = []
    grading = TupleGrading(st)
    stabilized_at = None
    kt = None
    chain_ok = True
    for n in n_values:
        try:
            kt = build_koszul(st, n, grading)
        except MatrixBudgetError:
            break
        dims = homology_kernel_dims(kt, grading)
        chain_ok = chain_ok and chain_check(kt)
        per_n.append({"N": n, "kernel_dims": list(dims)})
        history.append(tuple(dims))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            stabilized_at = tuple(dims)
            break
    sigma_min = 0.0 if kt is None else float(
        grading.svdvals(1, kt.windows[0], kt.windows[1])[-1])
    codim = ideal_codim_window(st, rho=rho, grading=grading)
    if stabilized_at is not None and isinstance(codim, int) and chain_ok:
        full = stabilized_at + (codim,)
        hom = HomologyDims(full, True, euler_index(full))
    else:
        last = history[-1] if history else tuple([0] * p)
        hom = HomologyDims(last + (codim,), False, "unstable")
    return KoszulRouteResult(tuple(per_n), codim, hom, sigma_min, chain_ok, grading.work)


def dump_matrices(kt: KoszulTruncation) -> str:
    """Dense text dump (row-major, re/im pairs) of every boundary matrix.

    The signs are those of ``_stage_blocks``: for a pair, d1 is the block
    column [T₁; T₂] and d2 the block row [−T₂, T₁].  The matrices are
    written as complex ones whatever dtype the route used: a real matrix
    carries no sign on its zero imaginary parts, and the text keeps the one
    the complex arithmetic gives to a negated coefficient.  Entries off the
    triplets are written as 0."""
    out = []
    for k in range(1, kt.arity + 1):
        m = _boundary_matrix(kt.packed, k, kt.windows[k - 1], kt.windows[k],
                             np.complex128).dense()
        out.append(f"# d{k} shape {m.shape[0]} {m.shape[1]}")
        for row in m:
            out.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    return "\n".join(out) + "\n"
