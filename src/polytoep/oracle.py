"""Degree oracle: the index of a bivariate pair by perturbation counting.

Independent of both the operator-theoretic route and the quotient-algebra
route.  The index of a Fredholm pair is a topological invariant, so adding
random constants of magnitude ≤ ε to each symbol leaves the count of zeros
inside the bidisc unchanged while splitting multiple zeros into simple ones;
the count is then read off a resultant-plus-lifting solve and put to a
majority vote across trials.

The solve eliminates z₂ when either symbol depends on it and z₁ otherwise;
a pair in z₁ alone then has a constant resultant and no common zero.  When
one symbol is constant in the eliminated variable, the resultant is a power
of it, so its own squarefree roots are taken without forming the resultant.
Perturbations are exact rational constants (every float is one), so the
resultant (a fraction-free determinant, ``poly.resultant``) stays exact.
Whether it is squarefree is decided modulo a prime, with the exact gcd
(``poly.gcd``, the echelon kernel every exact gcd uses) as the fallback
(``_squarefree_roots``), so its squarefree part is exact too;
only companion-matrix root-finding floats.  A perturbed zero is inside or
outside by the gap of the caller's certificate (``certify.inside_by_gap``).
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .certify import inside_by_gap
from .exact import ExactComplex
from .kernels import PackedTuple, pack_partials, values_block
from .poly import (
    MultiPoly,
    SymbolTuple,
    constant,
    divexact,
    gcd,
    resultant,
    symbols,
    univariate_coeffs,
)

EPSILON = 1e-3                  # largest perturbation; ``report`` halves it to fit c
TRIALS = 5                      # trials of the majority vote
_LIFT_TOL = 1e-6
_DUPLICATE_TOL = 1e-9
# the prime 2³¹ − 19 ≡ 5 (mod 8), where 2 is no square, so 2^((P−1)/4) is a
# square root of −1: the image of i
_P = 2 ** 31 - 19
_I = pow(2, (_P - 1) // 4, _P)


class NoMajorityError(RuntimeError):
    pass


def _perturbed(st: SymbolTuple, rng: np.random.Generator, epsilon: float) -> SymbolTuple:
    out = []
    for f in st.symbols:
        rho = epsilon * (0.25 + 0.75 * rng.uniform())
        ang = rng.uniform(0.0, 2 * np.pi)
        out.append(f + constant(st.nvars, complex(rho * np.cos(ang), rho * np.sin(ang))))
    return symbols(st.nvars, *out)


def _mod_p(c: ExactComplex) -> int | None:
    """The image of c in F_P, i sent to ``_I``; None when P divides a
    denominator."""
    if c.re.denominator % _P == 0 or c.im.denominator % _P == 0:
        return None
    return (c.re.numerator * pow(c.re.denominator, -1, _P)
            + c.im.numerator * pow(c.im.denominator, -1, _P) * _I) % _P


def _coprime_mod_p(a: list, b: list) -> bool:
    """gcd(a, b) = 1 in F_P[x], by Euclid on ascending coefficient lists."""
    while b and not b[-1]:
        b = b[:-1]
    while b:
        a = list(a)
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            f = a[-1] * inv % _P
            off = len(a) - len(b)
            for j, c in enumerate(b):
                a[off + j] = (a[off + j] - f * c) % _P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _squarefree_mod_p(p: MultiPoly) -> bool:
    """True only when the exact univariate p of positive degree is
    squarefree: its image p̄ in F_P[x] keeps its degree and gcd(p̄, p̄′) = 1.

    Let φ send the Gaussian rationals whose denominators P does not divide
    to F_P, with i ↦ ``_I`` (reduction modulo a prime of ℤ[i] over P, which
    splits since P ≡ 1 (mod 4)).  The resultant Res(p, p′) is a polynomial
    in the coefficients, so φ(Res(p, p′)) is the resultant of φ(p) = p̄ and
    φ(p′) = p̄′ at the formal degrees n and n − 1; as p̄ keeps degree n, that
    is a power of lc(p̄) times Res(p̄, p̄′), which gcd(p̄, p̄′) = 1 makes
    nonzero.  So Res(p, p′) ≠ 0 and p has no repeated root (Brown, J. ACM
    18, 1971).  False decides nothing: p may still be squarefree."""
    coeffs = [_mod_p(c) for c in univariate_coeffs(p)]
    if None in coeffs or not coeffs[-1]:
        return False
    return _coprime_mod_p(coeffs, [k * c % _P for k, c in enumerate(coeffs)][1:])


def _squarefree_roots(p: MultiPoly) -> np.ndarray:
    """Distinct roots of a nonzero exact univariate polynomial (a resultant):
    unless p is squarefree modulo a prime (``_squarefree_mod_p``), its
    squarefree part p/gcd(p, p′) is computed exactly, so the companion
    solve only ever sees simple roots.  A constant has none."""
    if p.degree() == 0:
        return np.empty(0, dtype=complex)
    if not _squarefree_mod_p(p):
        g = gcd(p, p.diff(0))
        if g.degree() > 0:
            p = divexact(p, g)
    arr = np.array([c.to_complex() for c in univariate_coeffs(p)])
    return np.roots(arr[::-1])


def _specialize(p: MultiPoly, var: int, value: complex) -> np.ndarray:
    """Dense ascending coefficients of p with one variable fixed."""
    other = 1 - var
    deg = p.degree_in(other)
    out = np.zeros(deg + 1, dtype=complex)
    for e, c in p.terms.items():
        out[e[other]] += c.to_complex() * (value ** e[var])
    return out


def _base_roots(p: MultiPoly, q: MultiPoly) -> tuple[np.ndarray | None, int]:
    """Distinct values of the kept variable at the common zeros of an exact
    pair, and that variable; None for a vanishing resultant.  z₂ is
    eliminated when either symbol depends on it, z₁ otherwise.  A symbol
    constant in the eliminated variable gives them directly: the resultant
    is then a power of it, with the same distinct roots."""
    elim = 1 if p.degree_in(1) > 0 or q.degree_in(1) > 0 else 0
    keep = 1 - elim
    for s in (p, q):
        if s.degree_in(elim) <= 0:
            return _squarefree_roots(
                MultiPoly(1, {(e[keep],): c for e, c in s.terms.items()})), keep
    r = resultant(p, q, eliminate=elim)
    return (None if r.is_zero() else _squarefree_roots(r)), keep


def _has_duplicate(pts: np.ndarray) -> bool:
    """Two of the points (rows) lie within ``_DUPLICATE_TOL`` of each other
    in the max metric; a NaN distance compares false."""
    gap = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    return bool(np.triu(gap < _DUPLICATE_TOL, 1).any())


def _solve_pair(p: MultiPoly, q: MultiPoly, partials: PackedTuple) -> np.ndarray | None:
    """All common zeros of a generic exact pair; None if the trial is bad
    (vanishing resultant or an ambiguous lift).  ``partials`` packs
    ∂₁p, ∂₂p, ∂₁q, ∂₂q (``pack_partials``); a perturbation by constants
    leaves them unchanged, so every trial shares the unperturbed pair's."""
    base, keep = _base_roots(p, q)
    if base is None:
        return None
    points = []
    for a in base:
        pa = _specialize(p, keep, a)
        qa = _specialize(q, keep, a)
        lead, other = (pa, qa) if len(pa) >= len(qa) else (qa, pa)
        scale = max(np.max(np.abs(lead)), np.max(np.abs(other)), 1.0)
        if len(lead) == 1:
            continue   # both specialize to constants: no finite partner
        for b in np.roots(lead[::-1]):
            res = abs(np.polyval(other[::-1], b))
            if res <= _LIFT_TOL * scale * max(1.0, abs(b)) ** max(len(other) - 1, 1):
                pt = (a, b) if keep == 0 else (b, a)
                points.append(pt)
    if not points:
        return np.empty((0, 2), dtype=complex)
    pts = np.array(points, dtype=complex)
    if _has_duplicate(pts):
        return None   # perturbation failed to split a zero
    jac = values_block(partials, pts)   # ∂₁p, ∂₂p, ∂₁q, ∂₂q
    det = jac[:, 0] * jac[:, 3] - jac[:, 1] * jac[:, 2]
    if np.any(np.abs(det) < 1e-10):
        return None   # a zero failed to split into simple ones
    return pts


def perturbed_count_details(st: SymbolTuple, r: float, epsilon: float = EPSILON,
                            *, seed: int = 0) -> dict:
    """Zeros of an ε-perturbed copy strictly inside the bidisc, majority-voted
    across TRIALS independent perturbation trials drawn from ``seed``, with
    the evidence: the per-trial counts and the number of attempts spent.
    Precondition: a boundary certificate at r with bound c holds for ``st``,
    and 4·p·ε² ≤ c (``report._oracle_need``), so every perturbed tuple keeps
    Σ|fᵢ + δᵢ|² ≥ c/4 on r ≤ max_v|z_v| ≤ 1 and has as many zeros inside
    as ``st``; otherwise a zero may be counted wrongly."""
    if len(st) != 2 or st.nvars != 2:
        raise ValueError("perturbed counting handles pairs in two variables")
    partials = pack_partials(st)
    counts = []
    attempt = 0
    while len(counts) < TRIALS and attempt < 3 * TRIALS:
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        attempt += 1
        pts = _solve_pair(*_perturbed(st, rng, epsilon).symbols, partials)
        if pts is None:
            continue
        counts.append(int(np.sum(inside_by_gap(pts, r))))
    if not counts:
        raise RuntimeError("no usable perturbation trial: every perturbed "
                           "pair had a vanishing resultant or an unsplit zero")
    if len(counts) < TRIALS:
        raise RuntimeError(f"only {len(counts)} of {TRIALS} perturbation "
                           "trials were usable")
    value, hits = Counter(counts).most_common(1)[0]
    if hits * 2 <= len(counts):
        raise NoMajorityError(f"no majority among trial counts {counts}")
    return {"count": value, "trial_counts": counts, "attempts": attempt,
            "epsilon": epsilon}
