"""Algebraic route: locate and count joint zeros of a bivariate symbol pair.

The index of a Fredholm pair equals minus the number of common zeros inside
the open bidisc, counted with multiplicity.  Multiplicities come from the
quotient algebra C[z₁,z₂]/(p,q): its dimension is the total zero count, and
the eigenvalues of the multiplication operators z₁·, z₂· are the zero
coordinates.

Everything structural is exact.  The quotient basis is read off a Macaulay
window matrix (rows = monomial shifts z^γ·fᵢ, columns = monomials keyed by
graded-lex rank) reduced to row echelon form; the window is enlarged until
its normal set passes the border-basis criterion, which proves it a basis
of the quotient (see ``quotient_basis``).  The scalars are
rationals (``Fraction``) when every coefficient is real and exact complex
rationals otherwise.  One reduced echelon form is grown per call: each
larger cofactor window only adds its new shift rows, and since the reduced
echelon form of a row space is unique for a fixed column order, the result
equals a fresh elimination entry for entry.  The criterion multiplies
sparse columns, touching stored entries only.  Only
the final eigensolve is floating point: one complex Schur decomposition of a
random unit-modulus combination M₁ + τM₂ triangularizes both matrices at
once, and the paired diagonals are the zero coordinates.  A zero is inside
or outside by the gap of the caller's certificate (``certify.inside_by_gap``).

Eigenvalues are clustered at radius 1e-7 (multiplicity = cluster size).  A
cluster of a μ-fold zero spreads like ε^(1/μ), so very high multiplicities
may resolve as that many nearby simple zeros; locations and the inside count
are unaffected.  Ambiguous clusterings retry once with a fresh combination
before raising.  Each cluster center z must be a zero of the pair to working
precision: its relative residual maxᵢ |fᵢ(z)| / max(P̂ᵢ(|z|), P̂ᵢ(1)) above
RESIDUAL_TOL raises, P̂ᵢ(x) = Σ|c|·x^e being fᵢ with every coefficient
replaced by its modulus.  The floor P̂ᵢ(1) = Σ|c| keeps the scale from
shrinking with z: near a zero coordinate P̂ᵢ(|z|) falls to the size of the
lowest terms, and so does |fᵢ(z)| at a misplaced point, so without the
floor the ratio reads about 1 at true and misplaced zeros alike.  An
ill-conditioned basis (two zeros that share a coordinate to within 1e-9,
say) misplaces the eigenvalues, and the residual is how that shows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import schur

from .certify import BoundaryCertificate, boundary_lower_bound, inside_by_gap
from .exact import EXACT_ZERO, ExactComplex, Scalar, axpy, echelon
from .kernels import majorant, pack_tuple, values_block
from .poly import (
    MultiPoly,
    SymbolTuple,
    divexact,
    gcd,
    symbols,
)

CLUSTER_RADIUS = 1e-7
RESIDUAL_TOL = 1e-8
_MAX_ROUNDS = 6
_WINDOW_COL_BUDGET = 3200


class ClusterAmbiguityError(RuntimeError):
    """Two located zeros fell within cluster radius of each other; results
    would need refined eigensolving to separate."""


@dataclass(frozen=True)
class Zero:
    point: Tuple[complex, complex]
    multiplicity: int
    location: str                 # inside | outside


@dataclass(frozen=True)
class ZeroSet:
    zeros: Tuple[Zero, ...]
    total_inside: int
    quotient_dim: int


@dataclass(frozen=True)
class GcdReduction:
    common_factor: Optional[MultiPoly]
    reduced: SymbolTuple
    factor_zero_free: bool        # certified nonvanishing on the closed bidisc
    certificate: Optional[BoundaryCertificate]


def _require_pair(st: SymbolTuple) -> Tuple[MultiPoly, MultiPoly]:
    if len(st) != 2 or st.nvars != 2:
        raise ValueError("algebraic route handles pairs in two variables")
    return st.symbols


# ---- exact quotient algebra ---------------------------------------------------


def _key(e: Tuple[int, int]) -> int:
    """Column key of monomial ``e``: minus its graded-lex rank, so the
    smallest key is the largest monomial whatever the window."""
    s = e[0] + e[1]
    return -(s * (s + 1) // 2 + e[0])


def _shift_rows(terms, lo: int, hi: int):
    """Rows z^γ·f for the shifts γ in the box [0, hi]² but not in [0, lo]²."""
    for f in terms:
        for g0 in range(hi + 1):
            for g1 in range(hi + 1):
                if g0 > lo or g1 > lo:
                    yield {_key((g0 + e0, g1 + e1)): c for (e0, e1), c in f.items()}


def _commute(c1, c2) -> bool:
    """Exact test of M₁M₂ = M₂M₁ for matrices stored as sparse columns."""
    return all(_apply(c1, b) == _apply(c2, a) for a, b in zip(c1, c2))


def _apply(cols, x: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """The sparse column M·x, for M stored as sparse columns."""
    out: Dict[int, Scalar] = {}
    for k, xk in x.items():
        axpy(out, -xk, cols[k])          # out += xk · column k
    return out


def quotient_basis(st: SymbolTuple):
    """Monomial basis of C[z]/(p, q) plus exact multiplication matrices
    (M₁, M₂) for the two coordinate actions.

    Returns (basis exponent list, M1, M2) with matrices as nested lists of
    exact complex entries, entry [i][j] = coefficient of basis[i] in the
    reduction of z_v · basis[j].

    Each round grows the cofactor window M by 2 and returns at the first
    candidate normal set N (the non-pivot monomials of degree below
    K = max(2, deg p·deg q)) that passes the border-basis criterion
    (Mourrain, AAECC 1999; Cox–Little–O'Shea, *Using Algebraic Geometry*,
    ch. 2 §4):
    - N holds 1 and is connected to it: each b ≠ 1 in N is z_v·b′, b′ in N;
    - every border monomial z_v·b ∉ N reduces into N by a pivot row;
    - M₁M₂ = M₂M₁;
    - p(M)·e₁ = q(M)·e₁ = 0, e₁ the coordinate of 1.

    Then N is a basis of C[z]/(p, q) and M_v multiplies by z_v on it.  Let
    φ(f) = f(M₁, M₂)·e₁, read as a combination of N.  Commuting matrices make
    φ a module map; f − φ(f) lies in (p, q) by induction over monomials, as
    every border row is an echelon row of shifts; with the generator test,
    ker φ = (p, q); and connectivity gives φ(b) = e_b for b in N, so φ is
    onto.  By Bézout the quotient has dimension at most deg p·deg q, so a
    connected basis stays below degree K.  A pair with a common factor has
    an infinite-dimensional quotient and never passes: the round or column
    budget ends it.
    """
    p, q = _require_pair(st)
    real = all(c.im == 0 for f in (p, q) for c in f.terms.values())
    terms = [{e: c.re if real else c for e, c in f.terms.items()} for f in (p, q)]
    d0, d1 = st.degree_vec()
    K = max(2, p.degree() * q.degree())
    pivots: Dict[int, Dict[int, Scalar]] = {}
    built = -1                    # cofactor window the pivots hold
    for M in range(K + 2, K + 2 + 2 * _MAX_ROUNDS, 2):
        cols = (M + d0 + 1) * (M + d1 + 1)
        if cols > _WINDOW_COL_BUDGET:    # both texts are in report bodies: keep them
            raise ValueError(
                f"quotient window needs {cols} columns (budget "
                f"{_WINDOW_COL_BUDGET}): degrees too large, or a pair with a "
                f"common factor, which has infinitely many common zeros and "
                f"never stabilizes")
        echelon(_shift_rows(terms, built, M), pivots)
        built = M
        if _key((0, 0)) in pivots:          # 1 lies in the ideal: no zeros
            return [], [], []
        ns = [(e0, s - e0) for s in range(K) for e0 in range(s, -1, -1)
              if _key((e0, s - e0)) not in pivots]
        mats = _border_basis(ns, pivots, terms)
        if mats is not None:
            return ns, _dense(mats[0]), _dense(mats[1])
    raise RuntimeError(f"quotient basis used up its budget of {_MAX_ROUNDS} "
                       f"rounds (last cofactor window M = {built}) for {st}; a "
                       f"pair with a common factor has infinitely many common "
                       f"zeros and never stabilizes")


def _border_basis(ns, pivots, terms):
    """Sparse columns of (M₁, M₂) when ``ns`` passes the border-basis
    criterion of ``quotient_basis``, else None.  ``ns`` runs by degree, so
    it holds 1 first: 1 is no pivot once the unit test fails."""
    have = set(ns)
    if any((b[0] - 1, b[1]) not in have and (b[0], b[1] - 1) not in have for b in ns[1:]):
        return None               # not connected to 1
    mats = _mult_matrices(ns, pivots)
    if mats is None or not _commute(*mats) or any(_at_one(mats, f) for f in terms):
        return None
    return mats


def _at_one(mats, f) -> Dict[int, Scalar]:
    """The sparse column f(M₁, M₂)·e₁, e₁ the coordinate of 1 (index 0)."""
    out: Dict[int, Scalar] = {}
    for e, c in f.items():
        v = {0: 1}
        for cols, k in zip(mats, e):
            for _ in range(k):
                v = _apply(cols, v)
        axpy(out, -c, v)
    return out


def _mult_matrices(ns, pivots):
    """Sparse columns of the two multiplication matrices on the candidate
    basis ``ns``, or None when a reduction is missing or escapes it."""
    index = {_key(e): i for i, e in enumerate(ns)}
    out = []
    for var in (0, 1):
        cols = []
        for b in ns:
            k = _key((b[0] + 1, b[1]) if var == 0 else (b[0], b[1] + 1))
            i = index.get(k)
            if i is not None:
                cols.append({i: 1})
                continue
            tail = pivots.get(k)
            if tail is None:
                return None       # window misses this border monomial
            col = {}
            for k2, c in tail.items():
                i = index.get(k2)
                if i is None:
                    return None   # reduction escapes the candidate basis
                col[i] = -c
            cols.append(col)
        out.append(cols)
    return out


def _dense(cols) -> List[List[ExactComplex]]:
    """Nested lists of exact complex entries from sparse columns."""
    dim = len(cols)
    mat = [[EXACT_ZERO] * dim for _ in range(dim)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            mat[i][j] = v if isinstance(v, ExactComplex) else ExactComplex(v)
    return mat


# ---- floating eigensolve ------------------------------------------------------


def _joint_points(m1: np.ndarray, m2: np.ndarray, seed: int, trial: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    theta = rng.uniform(0.0, 2 * np.pi)
    tau = (0.75 + 0.5 * rng.uniform()) * complex(np.cos(theta), np.sin(theta))
    _, u = schur(m1 + tau * m2, output="complex")
    d1 = np.diag(u.conj().T @ m1 @ u)
    d2 = np.diag(u.conj().T @ m2 @ u)
    return np.stack([d1, d2], axis=1)


def _cluster(points: np.ndarray, radius: float) -> List[np.ndarray]:
    """Transitive clustering in the max metric: the components of the graph
    joining points within ``radius``, labelled by their least index (each
    point takes the least label among its neighbours until none changes).
    Clusters come in order of least index, members in index order."""
    near = np.max(np.abs(points[:, None] - points[None]), axis=2) <= radius
    np.fill_diagonal(near, True)                  # a NaN point is its own cluster
    label = np.arange(points.shape[0])
    while True:
        least = np.min(np.where(near, label, label.size), axis=1)
        if np.array_equal(least, label):
            return [points[label == k] for k in np.unique(label)]
        label = least


def _relative_residuals(st: SymbolTuple, points: np.ndarray) -> np.ndarray:
    """maxᵢ |fᵢ(z)| / max(P̂ᵢ(|z|), P̂ᵢ(1)) at each point z, P̂ᵢ the
    majorant of fᵢ (module docstring; 0 for a zero symbol)."""
    pk = pack_tuple(st)
    hat = majorant(pk)
    num = np.abs(values_block(pk, points))
    den = np.maximum(values_block(hat, np.abs(points)),
                     values_block(hat, np.ones((1, pk.nvars))))
    return np.max(np.divide(num, den, out=np.zeros_like(num), where=den > 0), axis=1)


def common_zeros(st: SymbolTuple, r: float, *, seed: int = 0) -> ZeroSet:
    """Locate all common zeros with multiplicities; the multiplicity sum
    always equals the quotient dimension.  Precondition: a boundary
    certificate at r holds for ``st`` (see ``certify.inside_by_gap``); with
    a zero on or near the torus a location may be wrong.  The pair must be
    coprime: with a common factor (a zero symbol included) the quotient is
    infinite-dimensional, no finite normal set passes the border-basis
    criterion, and ``quotient_basis`` raises when its round or column budget
    runs out, as it also does for a coprime pair whose basis needs a larger
    window.  (0, c) with c a nonzero constant has 1 in its ideal and rightly
    no zeros."""
    ns, m1, m2 = quotient_basis(st)
    dim = len(ns)
    if dim == 0:
        return ZeroSet((), 0, 0)
    a1 = np.array([[c.to_complex() for c in row] for row in m1])
    a2 = np.array([[c.to_complex() for c in row] for row in m2])
    for trial in range(2):
        pts = _joint_points(a1, a2, seed, trial)
        clusters = _cluster(pts, CLUSTER_RADIUS)
        centers = np.array([np.mean(cl, axis=0) for cl in clusters])
        # centres closer than 3 radii in the max metric; a NaN gap compares false
        gap = np.abs(centers[:, None] - centers[None]).max(axis=2)
        if not np.triu(gap < 3 * CLUSTER_RADIUS, 1).any():
            residuals = _relative_residuals(st, centers)
            worst = int(np.argmax(residuals))
            if residuals[worst] > RESIDUAL_TOL:
                raise RuntimeError(
                    f"located zero ({complex(centers[worst][0]):.6g}, "
                    f"{complex(centers[worst][1]):.6g}) has relative residual "
                    f"{residuals[worst]:.2g} (tolerance {RESIDUAL_TOL:g}): the "
                    f"eigensolve of the quotient basis is ill-conditioned")
            inside = inside_by_gap(centers, r)
            zeros = [Zero(point=(complex(ctr[0]), complex(ctr[1])),
                          multiplicity=cl.shape[0],
                          location="inside" if ins else "outside")
                     for cl, ctr, ins in zip(clusters, centers, inside)]
            zeros.sort(key=lambda z: (abs(z.point[0]), abs(z.point[1]),
                                      z.point[0].real, z.point[1].real))
            return ZeroSet(tuple(zeros), sum(z.multiplicity for z in zeros
                                             if z.location == "inside"), dim)
    raise ClusterAmbiguityError(
        "zero clusters closer than the cluster radius persisted after a "
        "retry; refine the eigensolve or perturb the tuple")


def gcd_reduce(st: SymbolTuple) -> GcdReduction:
    """Split off the gcd of the pair.  The reduced pair together with the
    factor satisfies p = g·p', q = g·q' exactly; the factor is additionally
    certified zero-free on the closed bidisc when possible (if it is not,
    the original tuple is not Fredholm).  Only that verdict is read, so the
    certificate is refined to bare positivity (``target=0``)."""
    p, q = _require_pair(st)
    g = gcd(p, q)
    if g.degree() == 0:
        return GcdReduction(None, st, True, None)
    reduced = symbols(2, divexact(p, g), divexact(q, g))
    cert = boundary_lower_bound(symbols(2, g), 0.0, target=0.0)
    return GcdReduction(g, reduced, cert.verdict == "certified", cert)
