"""Certified lower bounds for Σ|fᵢ|² on boundary regions of the polydisc.

The region for the Fredholm criterion is the closure of 𝕌ᵣⁿ = 𝔻ⁿ ∖ 𝔻ᵣⁿ,
covered by the n faces on which one coordinate has modulus in [r, 1] and the
others range over the whole closed disc.  Its limiting cases need no code
of their own: in one variable the region is the annulus r ≤ |z| ≤ 1, and at
r = 0 the faces coincide in the closed polydisc (the zero-freeness check for
a factored-out divisor), which is then covered once.

Certification is by adaptive subdivision.  Each cell is a product of polar
rectangles with per-variable covering radii δ_v (hypot of the radial and
tangential half-widths) around its center c.  On a cell each |fᵢ| stays
above |fᵢ(c)| − dropᵢ, and the squares of the clipped values bound Σ|fᵢ|²
from below.  dropᵢ is the smaller of two bounds on |fᵢ(z) − fᵢ(c)|:

* the directional bound Σ_v G_iv·δ_v, with G_iv the coefficient bound for
  sup|∂fᵢ/∂z_v| on the polydisc, and
* the centered form P̂ᵢ(|c|+δ) − P̂ᵢ(|c|), where P̂ᵢ is fᵢ with every
  coefficient replaced by its modulus (Neumaier, *Interval Methods for
  Systems of Equations*, 1990).  Near a coordinate axis it is far below the
  global derivative bound: for z₁⁴ at |c₁| = 0.1 it is about 0.004·δ, not 4·δ.

Both cost a symbol nothing for variables it does not involve.

A symbol with a monomial factor gets a second bound, and keeps the larger.
Write fᵢ = z^{mᵢ}·gᵢ with mᵢ the componentwise least exponent of its terms.
On a polar cell |z^{mᵢ}| ≥ ∏_v r_lo,v^{m_iv} holds exactly, r_lo,v being
the cell's lower radius in z_v, and |gᵢ| stays above |gᵢ(c)| − drop_gᵢ,
with drop_gᵢ the smaller of Σ_v G^g_iv·δ_v (G^g the coefficient bounds of
gᵢ's partials) and the centered form ĝᵢ(|c|+δ) − ĝᵢ(|c|).  The majorant
factors the same way, P̂ᵢ(x) = x^{mᵢ}·ĝᵢ(x) for x ≥ 0, and |fᵢ(c)| =
|c|^{mᵢ}·|gᵢ(c)|, so every gᵢ quantity is an fᵢ quantity divided by
|c|^{mᵢ} or (|c|+δ)^{mᵢ}: no evaluation is added.  On the face |z₂| ≥ ½ of
(z₁⁴, z₂⁴) it gives |z₂⁴| ≥ r_lo⁴ ≥ 1/16 on every cell, where the centered
form alone needs the angles of z₂ cut until its drop is below |z₂|⁴.

A cell is pruned once its bound exceeds min(target, ½·min_val), where
min_val is the smallest center value seen so far (the Moore–Skelboe
best-first target of Hansen–Walster, *Global Optimization Using Interval
Analysis*, 2004) and ``target`` is the largest c the caller reads (∞ by
default, 0 for bare positivity), or is merely positive once the cell nears
the depth floor.  The running minimum only falls, so the bound of every
target-pruned cell stays above min(target, 0.5·min_sample).  Other cells are
halved along the parameter with the largest extent·w_v, where the cell's
own weight w_v = Σᵢ|fᵢ(c)|·G_iv is half the bound on |∂Σ|fᵢ|²/∂z_v| at its
center (rule C of Csendes–Ratz, "Subdivision direction selection in interval
methods for global optimization", SIAM J. Numer. Anal. 34, 1997).  On the
face |z₂| ≥ r of (z₁⁴, z₂⁴) near z₁ = 0 the weight of z₁ is far below that
of z₂, so the disc of z₁ is cut far less often than the annulus of z₂.  A
used variable keeps at least 1/16 of its cell's largest weight, so no cell
is cut along one variable without limit; a cell centered on a common zero
(weights all 0) takes the global Σᵢ G_iv instead.  Any split keeps every
bound valid.  A variable no symbol uses has weight 0 and is never cut, and
the depth floor, the target mesh ``_DEFAULT_MESH[n]`` over 2**MAX_HALVINGS,
measures only the used variables.  The start grid is four times coarser
than the target mesh (an unused variable gets one cell); the floor is
unchanged.

The bound stays a proof under floating-point rounding.  Every computed
|fᵢ(c)| loses 2γₖ·P̂ᵢ(|c|) (Higham's γₖ = ku/(1 − ku), u = 2⁻⁵³, with k
covering the complex products and sums of the kernel and the rounding of the
packed coefficients); P̂ᵢ(|c|+δ) is inflated and P̂ᵢ(|c|) deflated by
(1 ± γₖ); δ, |c|, G and the coefficient bounds are rounded upward; and the
summed bound is rounded down.  The monomial factor's powers x^{mᵢ} are
products of |mᵢ| factors, |mᵢ| − 1 roundings, so they and the quotients
and products that use them are each within a factor 1 ± γ_{|m|+8} of their
exact values, |m| the largest |mᵢ|; every such quotient is inflated or
deflated by that factor on the safe side, as is the product with
∏_v r_lo,v^{m_iv}.  The
divisors are the majorant's own rounded-up arguments a ≥ |c| and
b ≥ a + δ: |gᵢ(c)| − 2γₖ·ĝᵢ(|c|) ≥ (|fᵢ(c)| − 2γₖ·P̂ᵢ(a))/a^{mᵢ} when the
dividend is positive (the bound is 0 otherwise), and the centered form
ĝᵢ(b) − ĝᵢ(a) covers ĝᵢ(|c|+δ) − ĝᵢ(|c|) because ĝᵢ has nonnegative
coefficients, so it and x ↦ ĝᵢ(x+δ) − ĝᵢ(x) only grow with x.

Certified ``c`` is the minimum bound over pruned cells; the reported
``mesh`` is the effective uniform step, defined by
min_sample − lipschitz·mesh = c with the global constant, so the classical
sampled-grid reading of the certificate remains exactly valid.

Failed certificates carry an explicit witness: a region point whose value is
below the failure threshold, found by a damped Gauss–Newton search on the
symbols from the best center seen (each step is the minimum-norm solution of
J·s = −f for the complex Jacobian, halved until Σ|fᵢ|² decreases at the
radially projected point; see ``_witness_search``).

Essential-spectrum membership reads the same certificates (see
``essential_spectrum_membership``); only the point cloud samples a polar
grid of its own, capped at GRID_POINT_BUDGET points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import exact
from .kernels import PackedTuple, majorant, pack_partials, pack_tuple, values_block
from .poly import (MultiPoly, SymbolTuple, coefficient_bounds, constant,
                   directional_gradient_bounds)

WITNESS_THRESHOLD = 1e-3
WITNESS_STEPS = 50               # Gauss–Newton steps per witness search
WITNESS_HALVINGS = 60            # step lengths tried per Gauss–Newton step
DISTANCE_TOLERANCE = 1e-3
DEFAULT_R_SCHEDULE = (0.5, 0.75, 0.9)
CELL_BUDGET = 6_000_000          # centers evaluated per certification attempt
MAX_HALVINGS = 4                 # depth floor: _DEFAULT_MESH[n] / 2**MAX_HALVINGS
_SPLIT_WEIGHT_FLOOR = 1 / 16     # a used variable's least split weight, per cell max
_UNIT_ROUNDOFF = 2.0 ** -53
GRID_POINT_BUDGET = 2_000_000    # spectrum grid points; 553³ (n = 3, res 24) take ~16 GB

_DEFAULT_MESH = {1: 0.05, 2: 0.15, 3: 0.5}


@dataclass(frozen=True)
class BoundaryCertificate:
    """Outcome of one certified lower-bound attempt on closure(𝔻ⁿ ∖ 𝔻ᵣⁿ)."""

    r: float                      # inner radius; 0 is the closed polydisc
    c: float                      # certified lower bound (0.0 unless certified)
    mesh: float                   # finest covering radius used
    lipschitz: float
    verdict: str                  # certified | failed | inconclusive
    min_sample: float             # smallest value sampled (centers, a failed witness)
    min_point: tuple              # where it was seen
    witness: Optional[tuple] = None
    witness_value: Optional[float] = None
    cells_evaluated: int = 0          # centers evaluated
    budget_hit: bool = False          # stopped by the cell budget
    split_depth: int = 0              # most split rounds any face needed
    rounds: int = 0                   # cell batches evaluated (work counter)
    witness_searches: int = 0         # witness searches run (work counter)


@dataclass(frozen=True)
class SpectrumQuery:
    lam: tuple
    r: float
    verdict: str                  # inside | outside | inconclusive
    distance_estimate: float


def lipschitz_sumsq(st: SymbolTuple) -> float:
    """Gradient bound for Σ|fᵢ|² on the closed polydisc: 2·Σ supᵢ·gradᵢ."""
    total = 0.0
    for s in st.symbols:
        sup, grad = coefficient_bounds(s)
        total += 2.0 * sup * grad
    return total


# ---- adaptive cell engine -----------------------------------------------------


class _CellSet:
    """Vectorized batch of polar product cells (one face): ``lo`` and ``hi``,
    shape (cells, 2n), bound the n radii, then the n angles."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    @property
    def count(self) -> int:
        return self.lo.shape[0]

    def centers(self) -> np.ndarray:
        mid = 0.5 * (self.lo + self.hi)
        nv = mid.shape[1] // 2
        return mid[:, :nv] * np.exp(1j * mid[:, nv:])

    def extents(self) -> np.ndarray:
        """Radial half-widths, then angular half-extents (½·Δθ)·r_hi."""
        half = 0.5 * (self.hi - self.lo)
        nv = half.shape[1] // 2
        half[:, nv:] *= self.hi[:, :nv]
        return half

    @staticmethod
    def deltas(extents: np.ndarray) -> np.ndarray:
        """Per-variable covering radii from ``extents()``, shape (ncells, nvars)."""
        nv = extents.shape[1] // 2
        return np.hypot(extents[:, :nv], extents[:, nv:])

    def select(self, mask) -> "_CellSet":
        return _CellSet(self.lo[mask], self.hi[mask])

    def split_widest(self, weight: np.ndarray, extents: np.ndarray) -> "_CellSet":
        """Split every cell in two along the parameter whose extent times its
        variable's weight in the cell's row of ``weight`` (cells, nvars) is
        largest; a variable of weight 0 is never cut.  The first halves come
        first, then the second halves."""
        rows = np.arange(self.count)
        pick = np.argmax(extents * np.concatenate([weight, weight], axis=1), axis=1)
        mid = 0.5 * (self.lo[rows, pick] + self.hi[rows, pick])
        first_hi, second_lo = self.hi.copy(), self.lo.copy()
        first_hi[rows, pick] = second_lo[rows, pick] = mid
        return _CellSet(np.concatenate([self.lo, second_lo]),
                        np.concatenate([first_hi, self.hi]))


def _split_weights(absv: np.ndarray, gmat: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per-cell split weights Σᵢ|fᵢ(c)|·G_iv, shape (cells, nvars): half the
    bound on |∂Σ|fᵢ|²/∂z_v| at the center.  A used variable keeps at least
    _SPLIT_WEIGHT_FLOOR of its row's largest weight, an unused one stays 0,
    and a row that is 0 throughout (a common zero at the center) takes the
    global ``weight``."""
    w = absv @ gmat
    top = np.max(w, axis=1, keepdims=True)
    w = np.where(weight > 0, np.maximum(w, _SPLIT_WEIGHT_FLOOR * top), 0.0)
    w[top[:, 0] == 0] = weight
    return w


def _initial_cells(bounds: Sequence[Tuple[float, float]], step_mesh: float,
                   used: np.ndarray) -> _CellSet:
    """Product subdivision of one face, aiming cells at step_mesh; a variable
    no symbol uses stays one cell."""
    nv = len(bounds)
    step = step_mesh * math.sqrt(2.0 / nv)
    radii, angles = [], []
    for v, (lo, hi) in enumerate(bounds):
        nr = max(1, math.ceil((hi - lo) / step)) if used[v] else 1
        nt = max(4, math.ceil(2 * math.pi * hi / step)) if hi > 0 and used[v] else 1
        radii.append(np.linspace(lo, hi, nr + 1))
        angles.append(np.linspace(0.0, 2 * math.pi, nt + 1))
    # cells in C order over (r₁, θ₁, r₂, θ₂, …): the first variable varies
    # slowest, and within a variable the radius before the angle
    idx = np.indices([len(e) - 1 for pair in zip(radii, angles) for e in pair])
    idx = idx.reshape(nv, 2, -1).transpose(1, 0, 2).reshape(2 * nv, -1)
    edges = radii + angles
    return _CellSet(np.stack([e[i] for e, i in zip(edges, idx)], axis=1),
                    np.stack([e[i + 1] for e, i in zip(edges, idx)], axis=1))


def _gamma(k: int) -> float:
    """Higham's γₖ = ku / (1 − ku)."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


@dataclass(frozen=True)
class _MonomialFactor:
    """fᵢ = z^{mᵢ}·gᵢ for the symbols ``rows`` whose least exponent mᵢ is
    not 0: ``factors`` lists, per such symbol, the variable of each of the
    |mᵢ| factors of z^{mᵢ}, ``gmat`` holds the directional gradient bounds
    of the gᵢ, and ``gamma`` is γ_{|m|+8} for the largest |mᵢ|."""

    rows: np.ndarray              # int64[q]
    factors: Tuple[np.ndarray, ...]
    gmat: np.ndarray              # float64[q, nvars]
    gamma: float


def _monomial_factor(st: SymbolTuple) -> Optional[_MonomialFactor]:
    """Each symbol's componentwise least exponent mᵢ and the gradient bounds
    of its cofactor gᵢ = fᵢ / z^{mᵢ}; None when no symbol has one."""
    rows, factors, gmat = [], [], []
    for i, s in enumerate(st.symbols):
        m = tuple(min((e[v] for e in s.terms), default=0) for v in range(st.nvars))
        if any(m):
            g = MultiPoly(st.nvars, {tuple(x - y for x, y in zip(e, m)): c
                                     for e, c in s.terms.items()})
            rows.append(i)
            factors.append(np.repeat(np.arange(st.nvars), m))
            gmat.append(directional_gradient_bounds(g))
    if not rows:
        return None
    degree = max(len(f) for f in factors)
    return _MonomialFactor(np.array(rows), tuple(factors), np.array(gmat),
                           _gamma(degree + 8))


def _monomial(x: np.ndarray, factor: _MonomialFactor) -> np.ndarray:
    """x^{mᵢ} for each row of x (cells, nvars) and each factored symbol, as
    |mᵢ| − 1 rounded products: shape (cells, len(factor.rows))."""
    return np.stack([np.prod(x[:, f], axis=1) for f in factor.factors], axis=1)


def _cell_bounds(pk_abs: PackedTuple, gmat: np.ndarray, gamma: float,
                 centers: np.ndarray, absv: np.ndarray, deltas: np.ndarray,
                 r_lo: np.ndarray, factor: Optional[_MonomialFactor]) -> np.ndarray:
    """Lower bound of Σ|fᵢ|² on each cell from the computed |fᵢ(center)|,
    rounded so that it holds for the exact symbols (module docstring);
    ``r_lo`` holds the cells' lower radii, which bound |z^{mᵢ}| below."""
    u = _UNIT_ROUNDOFF
    # the computed center is a few ulps off the cell's own, and the start
    # grid's 2·math.pi falls short of 2π: the absolute term covers both
    d = deltas * (1 + 8 * u) + 32 * u
    a = np.abs(centers) * (1 + 4 * u)
    b = (a + d) * (1 + 4 * u)
    n = len(a)
    hat = values_block(pk_abs, np.concatenate([a, b]))
    hat_c, hat_up = hat[:n], hat[n:]
    value = absv - 2 * gamma * hat_c
    centered = hat_up * (1 + gamma) - hat_c * (1 - gamma)
    directional = (d @ gmat.T) * (1 + gamma)
    low = np.maximum(value - np.minimum(centered, directional), 0.0)
    if factor is not None:
        # the same bound for gᵢ = fᵢ / z^{mᵢ}, whose majorant is P̂ᵢ(x)/x^{mᵢ}
        # exactly, times |z^{mᵢ}| ≥ r_lo^{mᵢ}
        k, gm = factor.rows, factor.gamma
        power = _monomial(np.concatenate([a, b, r_lo]), factor)
        inv_a = (1 - gm) / power[:n]
        g_value = value[:, k] * inv_a
        g_centered = (hat_up[:, k] * ((1 + gamma) * (1 + gm)) / power[n:2 * n]
                      - hat_c[:, k] * ((1 - gamma) * inv_a))
        g_directional = (d @ factor.gmat.T) * (1 + gamma)
        g_low = np.maximum(g_value - np.minimum(g_centered, g_directional), 0.0)
        low[:, k] = np.maximum(low[:, k], g_low * power[2 * n:] * (1 - gm) ** 2)
    return np.sum(low * low, axis=1) * (1 - _gamma(low.shape[1] + 2))


def _boundary_faces(nvars: int, r: float) -> List[List[Tuple[float, float]]]:
    """The n faces covering closure(𝔻ⁿ ∖ 𝔻ᵣⁿ): face j has |z_j| in [r, 1]
    and every other coordinate in the closed disc.  At r = 0 they are all
    the closed polydisc, returned once."""
    if r == 0:
        return [[(0.0, 1.0)] * nvars]
    return [[(r, 1.0) if v == j else (0.0, 1.0) for v in range(nvars)]
            for j in range(nvars)]


def _project_region(z: np.ndarray, faces: List[Sequence[Tuple[float, float]]]) -> np.ndarray:
    """Radially project a point into the closest face; every |w_v| ≤ hi of
    that face holds in floating point."""
    best = None
    best_move = None
    for face in faces:
        w = z.copy()
        move = 0.0
        for v, (lo, hi) in enumerate(face):
            rad = abs(w[v])
            tgt = min(max(rad, lo), hi)
            if rad == 0.0:
                if tgt > 0.0:
                    w[v] = tgt
                    move += tgt
            elif tgt != rad:
                # the rounded rescale can land an ulp past hi: step the
                # factor down until |w_v| ≤ hi holds in floating point
                scale = tgt / rad
                while abs(w[v] * scale) > hi:
                    scale = np.nextafter(scale, 0.0)
                w[v] = w[v] * scale
                move += abs(tgt - rad)
        if best is None or move < best_move:
            best, best_move = w, move
    return best


def _witness_search(st: SymbolTuple, pk: PackedTuple, start: np.ndarray,
                    faces: List[Sequence[Tuple[float, float]]]) -> Tuple[np.ndarray, float]:
    """Damped Gauss–Newton descent of Σ|fᵢ|² inside the region closure.

    The step is the minimum-norm solution of J·s = −f, with J the complex
    p × n Jacobian ∂fᵢ/∂z_v.  The fᵢ are holomorphic, so this is the
    Gauss–Newton step for Σ|fᵢ|² in the real coordinates; the minimum norm
    covers p ≠ n and a rank-deficient J (on a shared-factor curve).  The step
    is halved until the value at the radially projected point decreases.  The
    search stops at value 0, after WITNESS_STEPS steps, or when no step
    length lowers the value: the halved step no longer moves the point,
    before or after projection, or WITNESS_HALVINGS lengths were tried (the
    projection is not bitwise idempotent, so on a face it can move a point
    by an ulp without lowering the value).  Same start, same witness.
    """
    partials = pack_partials(st)
    z = _project_region(start, faces)
    f = values_block(pk, z[None, :])[0]
    val = float(np.sum(f.real ** 2 + f.imag ** 2))
    for _ in range(WITNESS_STEPS):
        if val == 0.0:
            break
        jac = values_block(partials, z[None, :])[0].reshape(pk.npolys, pk.nvars)
        step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        for k in range(WITNESS_HALVINGS):
            moved = z + 0.5 ** k * step
            trial = _project_region(moved, faces)
            if np.array_equal(moved, z) or np.array_equal(trial, z):
                return z, val
            ft = values_block(pk, trial[None, :])[0]
            vt = float(np.sum(ft.real ** 2 + ft.imag ** 2))
            if vt < val:
                z, f, val = trial, ft, vt
                break
        else:
            return z, val
    return z, val


def _certify_region(st: SymbolTuple, r: float, target: float) -> BoundaryCertificate:
    target_mesh = _DEFAULT_MESH[st.nvars]
    faces = _boundary_faces(st.nvars, r)
    pk = pack_tuple(st)
    pk_abs = majorant(pk)
    terms = int(np.max(np.diff(pk.offs)))
    gamma = _gamma(3 * (pk.nvars * pk.maxdeg + terms + 4))
    lip = lipschitz_sumsq(st)
    gmat = np.array([directional_gradient_bounds(s) for s in st.symbols])
    factor = _monomial_factor(st)
    weight = gmat.sum(axis=0)
    used = weight > 0
    cells = [_initial_cells(face, 4 * target_mesh, used) for face in faces]
    delta_floor = target_mesh / (2 ** MAX_HALVINGS)
    evaluated = 0
    batches = 0
    searches = 0
    split_depth = 0
    c_min = math.inf
    mesh_finest = math.inf
    min_val = math.inf
    min_pt = None
    stuck_best: Optional[Tuple[float, np.ndarray]] = None

    def witness_result(pt0: np.ndarray) -> Optional[BoundaryCertificate]:
        nonlocal searches
        searches += 1
        w, val = _witness_search(st, pk, pt0, faces)
        if val < WITNESS_THRESHOLD:
            return BoundaryCertificate(
                r=r, c=0.0, mesh=float(min(mesh_finest, target_mesh)),
                lipschitz=lip, verdict="failed",
                min_sample=float(min(min_val, val)),
                min_point=tuple(w.tolist()), witness=tuple(w.tolist()),
                witness_value=val, cells_evaluated=evaluated,
                budget_hit=budget_hit, split_depth=split_depth,
                rounds=batches, witness_searches=searches)
        return None

    budget_hit = False
    while cells and not budget_hit:
        batch = cells.pop()
        rounds = 0
        while batch.count:
            if evaluated + batch.count > CELL_BUDGET:
                budget_hit = True
                break
            centers = batch.centers()
            absv = np.abs(values_block(pk, centers))
            vals = np.sum(absv * absv, axis=1)
            evaluated += batch.count
            batches += 1
            i = int(np.argmin(vals))
            if vals[i] < min_val:
                min_val = float(vals[i])
                min_pt = centers[i].copy()
            if vals[i] < WITNESS_THRESHOLD:
                got = witness_result(centers[i])
                if got is not None:
                    return got
            ext = batch.extents()
            d = _CellSet.deltas(ext)
            rad = np.sqrt(np.sum(d[:, used] ** 2, axis=1))
            bound = _cell_bounds(pk_abs, gmat, gamma, centers, absv, d,
                                 batch.lo[:, :pk.nvars], factor)
            # aim for slack under half the smallest value seen, so c tracks
            # the infimum, unless the caller reads no more than target; settle
            # for bare positivity near the depth floor
            aim = min(target, 0.5 * min_val)
            pruned = (bound > aim) | ((bound > 0) & (rad <= 4 * delta_floor))
            if np.any(pruned):
                c_min = min(c_min, float(np.min(bound[pruned])))
                mesh_finest = min(mesh_finest, float(np.min(rad[pruned])))
            stuck = ~pruned & (rad <= delta_floor)
            if np.any(stuck):
                j = int(np.argmin(np.where(stuck, vals, np.inf)))
                if stuck_best is None or vals[j] < stuck_best[0]:
                    stuck_best = (float(vals[j]), centers[j].copy())
            keep = ~pruned & ~stuck
            batch = batch.select(keep)
            if batch.count:
                batch = batch.split_widest(_split_weights(absv[keep], gmat, weight), ext[keep])
                rounds += 1
                split_depth = max(split_depth, rounds)

    if stuck_best is None and not cells and not budget_hit and c_min < math.inf:
        # effective uniform step: min_sample - lipschitz * mesh == c exactly
        mesh_eff = (min_val - c_min) / lip if lip > 0 else float(mesh_finest)
        return BoundaryCertificate(
            r=r, c=float(c_min), mesh=float(mesh_eff), lipschitz=lip,
            verdict="certified", min_sample=float(min_val),
            min_point=_pt(min_pt), cells_evaluated=evaluated,
            split_depth=split_depth, rounds=batches, witness_searches=searches)
    # could not prune everything: hunt for a witness from the best center
    if min_pt is not None:
        got = witness_result(min_pt)
        if got is not None:
            return got
    if stuck_best is not None:
        got = witness_result(stuck_best[1])
        if got is not None:
            return got
    return BoundaryCertificate(
        r=r, c=0.0, mesh=float(min(mesh_finest, delta_floor)), lipschitz=lip,
        verdict="inconclusive", min_sample=float(min_val),
        min_point=_pt(min_pt), cells_evaluated=evaluated,
        budget_hit=budget_hit, split_depth=split_depth, rounds=batches,
        witness_searches=searches)


def _pt(z) -> tuple:
    if z is None:
        return ()
    arr = np.atleast_1d(z)
    return tuple(complex(v) for v in arr)


# ---- public certification entry points -----------------------------------------


def boundary_lower_bound(st: SymbolTuple, r: float, *,
                         target: float = math.inf) -> BoundaryCertificate:
    """Certified positive lower bound for Σ|fᵢ|² on closure(𝔻ⁿ ∖ 𝔻ᵣⁿ),
    0 ≤ r < 1: the closed polydisc at r = 0, the annulus r ≤ |z| ≤ 1 in one
    variable.

    A cell is pruned once its bound exceeds min(target, ½·min_val), min_val
    being the smallest center value seen so far, or is positive near the
    depth floor.  The default ∞ refines c to within half of the sampled
    minimum; a finite ``target`` stops refining where c passes it (0 asks
    for bare positivity), so c may then be far below the infimum, but it
    is a proof at every target."""
    if not 0 <= r < 1:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    return _certify_region(st, r, target)


def inside_by_gap(points: np.ndarray, r: float) -> np.ndarray:
    """Which computed common zeros (rows of ``points``) lie in the open
    polydisc: those with max_v|z_v| < (1 + r)/2, the Koszul route's ρ.

    Precondition: a boundary certificate at r holds for their tuple.  It
    proves Σ|fᵢ|² > 0 on r ≤ max_v|z_v| ≤ 1, so every common zero has
    max_v|z_v| < r or > 1, and a zero computed to within (1 − r)/2 in the
    max metric falls on its true side of the midpoint: no margin around the
    torus is needed (Taylor, Acta Math. 1970, for why the boundary alone
    decides Fredholmness)."""
    if not 0 <= r < 1:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    return np.max(np.abs(points), axis=1) < (1 + r) / 2


# ---- essential spectrum ----------------------------------------------------------


def shifted_tuple(st: SymbolTuple, lam: Sequence[complex]) -> SymbolTuple:
    """(f₁ − λ₁, …), each λᵢ subtracted exactly."""
    if len(lam) != len(st):
        raise ValueError("shift length must match the tuple length")
    return SymbolTuple(tuple(s - constant(st.nvars, l) for s, l in zip(st.symbols, lam)),
                       st.nvars)


def max_grid_resolution(nvars: int) -> int:
    """The largest resolution res whose polar grid, (res·(res − 1) + 1)ⁿ
    points before the radius cut, fits GRID_POINT_BUDGET: 1414, 38 and 11
    for n = 1, 2, 3."""
    def fits(k: int) -> bool:
        return (k * (k - 1) + 1) ** nvars <= GRID_POINT_BUDGET

    # k(k − 1) + 1 > (k − 1)², so no k past isqrt(budget) + 1 fits
    return max(filter(fits, range(math.isqrt(GRID_POINT_BUDGET) + 2)))


def _region_grid(nvars: int, r: float, resolution: int) -> np.ndarray:
    """Deterministic polar product grid over the closed polydisc, restricted
    to max |z_i| ≥ r (the closure of 𝕌ᵣⁿ).  Past GRID_POINT_BUDGET points
    a ValueError names the largest resolution allowed."""
    top = max_grid_resolution(nvars)
    if resolution > top:
        raise ValueError(f"resolution {resolution} in {nvars} variables exceeds "
                         f"{GRID_POINT_BUDGET} points; the largest resolution allowed is {top}")
    radii = np.linspace(0.0, 1.0, resolution)
    angles = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
    ring = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    ring = np.concatenate([[0.0 + 0.0j], ring[ring != 0]])
    grids = np.meshgrid(*([ring] * nvars), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.max(np.abs(pts), axis=1) >= r
    return pts[keep]


def essential_spectrum_membership(st: SymbolTuple, lam: Sequence,
                                  r_schedule: Sequence[float] = DEFAULT_R_SCHEDULE
                                  ) -> SpectrumQuery:
    """Decide λ, each component read by ``exact``, against the essential
    spectrum of the tuple from the boundary certificates of the λ-shifted
    tuple at the scheduled radii.

    outside: some scheduled r certifies, at distance √c (certificate-backed).
    Otherwise the distance at r is √min_sample, the smallest value the
    certificate sampled in the region (cell centers, and the witness of a
    failed attempt).  inside: that distance is below DISTANCE_TOLERANCE at
    every scheduled r (approximate); inconclusive otherwise.  The distance
    estimate is the largest of them.
    """
    if not r_schedule:
        raise ValueError("empty r schedule")
    lam = tuple(map(exact, lam))
    shifted = shifted_tuple(st, lam)
    worst = 0.0
    for r in r_schedule:
        cert = boundary_lower_bound(shifted, r)
        if cert.verdict == "certified":
            return SpectrumQuery(lam, r, "outside", float(math.sqrt(cert.c)))
        worst = max(worst, math.sqrt(cert.min_sample))
    verdict = "inside" if worst < DISTANCE_TOLERANCE else "inconclusive"
    return SpectrumQuery(lam, float(r_schedule[-1]), verdict, worst)


def essential_spectrum_cloud(st: SymbolTuple, r: float, resolution: int) -> np.ndarray:
    """Images F(grid over closure 𝕌ᵣⁿ): an outer approximation of the
    essential spectrum at this r (the true set is the intersection over
    r → 1).  Deterministic point list, shape (npts, len(tuple))."""
    if not 0 < r < 1:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if resolution < 2 or resolution > 64:
        raise ValueError("resolution must lie in [2, 64]")
    pts = _region_grid(st.nvars, r, resolution)
    return values_block(pack_tuple(st), pts)
