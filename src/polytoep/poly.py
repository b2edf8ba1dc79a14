"""Sparse polynomials in up to three complex variables.

A polynomial is a mapping from exponent tuples to coefficients, and every
coefficient is an :class:`~polytoep.exact.ExactComplex` (rational real and
imaginary parts), so "is zero" is decidable and the elimination algebra
is exact: the Sylvester resultant by Bareiss elimination, and the GCD, in
any number of variables, as one null vector of the reduced echelon form of
``exact.echelon``, which also builds the quotient bases.  Every
value that enters from outside is read by :func:`~polytoep.exact.exact`:
ints, Fractions, ``"p/q"`` strings, (re, im) pairs, and finite floats and
complex numbers, each of which is the dyadic rational it holds.  The
numerical routes convert each coefficient to float once, when they pack the
tuple.

Construction canonicalizes: zero coefficients are dropped, and exponent
tuples must be non-negative integers of length ``nvars``: a value with a
fractional part is a ValueError, never truncated.

JSON form (shared with the CLI): ``{"nvars": n, "terms": [{"exp": [i, j],
"re": ..., "im": ...}]}``.  re/im are read exactly, whether JSON numbers or
``"p/q"`` strings, and written as ``"p/q"`` strings, so a round trip gives
the same polynomial back.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from math import sqrt
from operator import add
from typing import Mapping, Sequence

from .exact import EXACT_ONE, EXACT_ZERO, ExactComplex, echelon, exact, kernel_vector

Exponent = tuple  # tuple[int, ...]


class NotEliminableError(ValueError):
    """Raised when a resultant is requested in a variable both inputs lack."""


def integral(x, what: str) -> int:
    """x as an int.  A value with a fractional part, with no numeric value,
    or a bool (an ``int`` subclass, but JSON ``true`` is no number) is a
    ValueError: it is never truncated."""
    if isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be an integer, got {x!r}") from exc
    if k != x:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return k


def _grlex_key(e: Exponent):
    return (sum(e), e)


class MultiPoly:
    """Immutable sparse polynomial.  Use module helpers or operators."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, object]):
        if nvars not in (1, 2, 3):
            raise ValueError(f"nvars must be 1, 2 or 3, got {nvars}")
        clean: dict[Exponent, ExactComplex] = {}
        for e, c in terms.items():
            e = tuple(integral(x, "exponent") for x in e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for nvars={nvars}")
            c = exact(c)
            if e in clean:
                clean[e] = clean[e] + c
            else:
                clean[e] = c
        self.nvars = nvars
        self.terms = {e: c for e, c in clean.items() if c}

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial has degree -1 by convention."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_vec(self) -> tuple:
        """Per-variable maximum exponents (all zeros for the zero poly)."""
        d = [0] * self.nvars
        for e in self.terms:
            for i, x in enumerate(e):
                if x > d[i]:
                    d[i] = x
        return tuple(d)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.nvars, self.terms) == (other.nvars, other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        body = ", ".join(f"{e}: {c}" for e, c in self.sorted_terms())
        return f"MultiPoly({self.nvars}, {{{body}}})"

    # ---- ring operations ------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Exponent, ExactComplex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return MultiPoly(self.nvars, out)

    def scale(self, c) -> "MultiPoly":
        c = exact(c)
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def diff(self, var: int) -> "MultiPoly":
        """Partial derivative with respect to variable index ``var``."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range for nvars={self.nvars}")
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            e2 = e[:var] + (k - 1,) + e[var + 1:]
            cc = c * k
            out[e2] = out[e2] + cc if e2 in out else cc
        return MultiPoly(self.nvars, out)

    # ---- evaluation ------------------------------------------------------

    def eval(self, point: Sequence[complex]) -> complex:
        """Value at a float point, through the batch kernel
        ``kernels.values_block`` (one point, one polynomial)."""
        from .kernels import pack_tuple, values_block   # kernels imports this module
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        pk = pack_tuple(SymbolTuple((self,), self.nvars))
        return complex(values_block(pk, [point])[0, 0])


# ---- constructors ---------------------------------------------------------

def exact_poly(nvars: int, terms: Mapping[Exponent, object]) -> MultiPoly:
    """Build a polynomial; each value is read by :func:`~polytoep.exact.exact`
    (ints, Fractions, 'p/q' strings, finite floats and complex numbers,
    (re, im) pairs, or ExactComplex)."""
    return MultiPoly(nvars, terms)


def constant(nvars: int, c) -> MultiPoly:
    return MultiPoly(nvars, {(0,) * nvars: c})


# ---- coefficient bounds ----------------------------------------------------

def _abs_coeff(c: ExactComplex) -> float:
    return sqrt(float(c.abs2()))


def _rounded_up(total: float, nterms: int) -> float:
    """A float sum of nterms nonnegative terms, each a few roundings off the
    exact |c|·e, enlarged past its accumulated rounding error."""
    return total * (1.0 + 2 * (nterms + 4) * 2.0 ** -53)


def coefficient_bounds(p: MultiPoly) -> tuple:
    """(sup_bound, gradient_bound) on the closed unit polydisc.

    sup_bound = Σ|c| bounds |p|; gradient_bound = Σ_v Σ_terms e_v·|c| bounds
    the sum over variables of sup|∂p/∂z_v|.  Both are rounded upward, so they
    stay bounds of the exact sums.
    """
    sup = 0.0
    grad = 0.0
    for e, c in p.terms.items():
        a = _abs_coeff(c)
        sup += a
        grad += a * sum(e)
    n = len(p.terms)
    return _rounded_up(sup, n), _rounded_up(grad, n)


def directional_gradient_bounds(p: MultiPoly) -> tuple:
    """Per-variable bounds sup|∂p/∂z_v| ≤ Σ_terms e_v·|c| on the closed unit
    polydisc, rounded upward; they sum to the gradient_bound of
    coefficient_bounds up to rounding."""
    out = [0.0] * p.nvars
    for e, c in p.terms.items():
        a = _abs_coeff(c)
        for v, ev in enumerate(e):
            if ev:
                out[v] += a * ev
    return tuple(_rounded_up(g, len(p.terms)) for g in out)


# ---- univariate helpers ----------------------------------------------------

def univariate_coeffs(p: MultiPoly) -> list:
    """Dense ascending coefficient list of a 1-variable polynomial."""
    if p.nvars != 1:
        raise ValueError("univariate_coeffs needs nvars=1")
    out = [EXACT_ZERO] * (p.degree_in(0) + 1)
    for (k,), c in p.terms.items():
        out[k] = c
    return out


def divexact(p: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient p/g; raises ValueError when g does not divide p."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = dict(p.terms)
    quo: dict[Exponent, ExactComplex] = {}
    ge, gc = max(g.terms.items(), key=lambda kv: _grlex_key(kv[0]))
    while rem:
        e, c = max(rem.items(), key=lambda kv: _grlex_key(kv[0]))
        d = tuple(a - b for a, b in zip(e, ge))
        if any(x < 0 for x in d):
            raise ValueError("polynomial division is not exact")
        f = c / gc
        quo[d] = quo.get(d, EXACT_ZERO) + f
        for e2, c2 in g.terms.items():
            t = tuple(a + b for a, b in zip(d, e2))
            val = rem.get(t, EXACT_ZERO) - f * c2
            if val:
                rem[t] = val
            else:
                rem.pop(t, None)
    return MultiPoly(p.nvars, quo)


def disc_zero_count(p: MultiPoly) -> tuple:
    """(inside, on_circle): the zeros of a nonzero univariate polynomial in
    the open unit disc and on the unit circle, with multiplicity, exactly,
    by the Schur–Cohn recursion (Henrici, *Applied and Computational Complex
    Analysis* I, §6.8).  If δ = |c₀|² − |cₙ|² ≠ 0 and p has no zero on the
    circle, Tp = c̄₀·p − cₙ·p*, p*(z) = zⁿ·p̄(1/z), has degree below n and as
    many zeros inside as p (δ > 0) or n minus as many (δ < 0).  Each step
    keeps g = gcd(p, p*), which holds the circle zeros and the pairs
    (w, 1/w̄) and has δ = 0, so the recursion meets δ = 0 if g ≠ 1.  Then the
    count restarts on p/g, and g, being self-inversive, has as many zeros
    inside the disc as outside, and as many outside as g′ (Bonsall–Marden,
    Proc. AMS 1952).  If g = 1, a disc automorphism removes the singularity."""
    c = univariate_coeffs(p)
    if not c:
        raise ValueError("the zero polynomial has no zero count")
    g, base, sign, on_circle, shifts = None, 0, 1, 0, 0
    while len(c) > 1:
        delta = c[0].abs2() - c[-1].abs2()
        if delta == 0 and g is None:
            star = {(p.degree() - k,): a.conjugate() for (k,), a in p.terms.items()}
            g = gcd(p, MultiPoly(1, star))
            m = g.degree()
            if m > 0:
                d_inside, d_on = disc_zero_count(g.diff(0))
                base = m - 1 - d_inside - d_on             # zeros of g outside
                c, sign, on_circle = univariate_coeffs(divexact(p, g)), 1, m - 2 * base
                continue
        if delta == 0:
            if shifts == len(_DISC_SHIFTS):
                raise ValueError("Schur–Cohn: singular at every disc automorphism tried")
            c, shifts = _compose_automorphism(c, _DISC_SHIFTS[shifts]), shifts + 1
            continue
        n, a0, an = len(c) - 1, c[0].conjugate(), c[-1]
        c = [a0 * x - an * y.conjugate() for x, y in zip(c[:-1], c[:0:-1])]
        while not c[-1]:
            c.pop()
        if delta < 0:
            base, sign = base + sign * n, -sign
        shifts = 0
    return base, on_circle


# no t is real: |p(t)| = |p*(t)| at every real t if p*(z) = p(−z), as for z² − (3/2)i·z + 1
_DISC_SHIFTS = (ExactComplex("1/3", "1/2"), ExactComplex("-2/7", "1/5"))


def _compose_automorphism(c: list, t: ExactComplex) -> list:
    """Ascending coefficients of Σ cₖ(z + t)ᵏ(1 + t̄z)ⁿ⁻ᵏ = (1 + t̄z)ⁿ·p((z + t)/(1 + t̄z)),
    n = deg p, whose zeros are those of p moved by a disc automorphism."""
    u, v = MultiPoly(1, {(0,): t, (1,): 1}), MultiPoly(1, {(0,): 1, (1,): t.conjugate()})
    q = MultiPoly(1, {})
    for k, a in enumerate(c):
        q = q + (_pow_poly1(u, k) * _pow_poly1(v, len(c) - 1 - k)).scale(a)
    return univariate_coeffs(q)


# ---- bivariate structure ---------------------------------------------------

def _as_univariate_in(p: MultiPoly, var: int) -> list:
    """Coefficients of p as a polynomial in z_var; each is univariate in the
    other variable (nvars=2 only)."""
    if p.nvars != 2:
        raise ValueError("expected nvars=2")
    other = 1 - var
    d = p.degree_in(var)
    out = [dict() for _ in range(d + 1)]
    for e, c in p.terms.items():
        out[e[var]][(e[other],)] = c
    return [MultiPoly(1, t) for t in out]


def resultant(p: MultiPoly, q: MultiPoly, eliminate: int) -> MultiPoly:
    """Sylvester resultant of two exact bivariate polynomials, eliminating
    the given variable.  Returns a univariate exact polynomial in the kept
    variable.

    The determinant of the Sylvester matrix is taken over ℚ(i)[z_keep] by
    fraction-free Gaussian elimination with row swaps (Bareiss, Math. Comp.
    22, 1968): every update (a_kk·a_ij − a_ik·a_kj) / (previous pivot) is an
    exact polynomial division by Sylvester's identity.
    """
    if p.nvars != 2 or q.nvars != 2:
        raise ValueError("resultant is defined for nvars=2")
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    if eliminate not in (0, 1):
        raise ValueError("eliminate must be 0 or 1")
    m = p.degree_in(eliminate)
    n = q.degree_in(eliminate)
    if m <= 0 and n <= 0:
        raise NotEliminableError(
            f"not eliminable: both polynomials are constant in variable {eliminate}")
    return _sylvester_det(_as_univariate_in(p, eliminate), _as_univariate_in(q, eliminate))


def _pow_poly1(base: MultiPoly, k: int) -> MultiPoly:
    out = constant(1, EXACT_ONE)
    for _ in range(k):
        out = out * base
    return out


def _sylvester_det(pc: list, qc: list) -> MultiPoly:
    """Determinant of the Sylvester matrix of two polynomials given by their
    ascending univariate coefficients, by Bareiss elimination."""
    m = len(pc) - 1
    n = len(qc) - 1
    size = m + n
    zero = MultiPoly(1, {})
    mat = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(reversed(pc)):
            mat[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(reversed(qc)):
            mat[n + i][i + j] = c
    sign = 1
    prev = constant(1, EXACT_ONE)
    for k in range(size - 1):
        piv = next((r for r in range(k, size) if not mat[r][k].is_zero()), None)
        if piv is None:
            return zero
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top = mat[k]
        for row in mat[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                v = top[k] * row[j]
                if not lead.is_zero():
                    v = v - lead * top[j]
                row[j] = divexact(v, prev)
        prev = top[k]
    det = mat[-1][-1]
    return det if sign > 0 else -det


def gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD of two exact polynomials in the same variables, as one kernel of
    the exact echelon, normalized so the graded-lex leading coefficient is 1
    (the zero polynomial when both are zero).

    Write p = g·p̄ and q = g·q̄ with p̄, q̄ coprime.  The pairs (a, b) with
    a·p = b·q, a within q's degree box and b within p's (boxes over
    ``degree_vec``), are exactly h·(q̄, p̄) with deg_v h ≤ deg_v g in each
    variable: a·p̄ = b·q̄ makes q̄ divide a.  The unknowns are b's
    coefficients, then a's in increasing graded-lex order of their
    monomials.  In the reduced echelon form (pivot = least column) the null
    vector of a non-pivot column has its last nonzero entry there, so the
    non-pivot columns are the leading monomials LM(h)·LM(q̄) of the a's of
    the kernel, and the least of them holds h constant: a = q̄/lc(q̄), and
    g = q/a.  Real pairs eliminate over ``Fraction``, as
    ``zeros.quotient_basis`` does."""
    p._check(q)
    if p.is_zero() or q.is_zero():
        return _normalize_lead(p + q)
    real = all(c.im == 0 for f in (p, q) for c in f.terms.values())
    b_box = list(product(*(range(d + 1) for d in p.degree_vec())))
    a_box = sorted(product(*(range(d + 1) for d in q.degree_vec())), key=_grlex_key)
    nb = len(b_box)
    rows: dict = {}                     # monomial of a·p − b·q -> its row
    for col, (e, f) in enumerate([(e, -q) for e in b_box] + [(e, p) for e in a_box]):
        for fe, c in f.terms.items():
            rows.setdefault(tuple(map(add, e, fe)), {})[col] = c.re if real else c
    pivots: dict = {}
    # rows in increasing graded-lex order of their monomials: on pairs with a
    # shared factor this fills in far less than the order they were built in
    echelon((rows[m] for m in sorted(rows, key=_grlex_key)), pivots)
    free = min(c for c in range(nb, nb + len(a_box)) if c not in pivots)
    a = {a_box[c - nb]: v for c, v in kernel_vector(pivots, free).items() if c >= nb}
    return _normalize_lead(divexact(q, MultiPoly(p.nvars, a)))


def _normalize_lead(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    _, lead = max(p.terms.items(), key=lambda kv: _grlex_key(kv[0]))
    return p.scale(EXACT_ONE / lead)


# ---- symbol tuples ---------------------------------------------------------

@dataclass(frozen=True)
class SymbolTuple:
    """Ordered tuple of polynomial symbols sharing one variable count."""
    symbols: tuple
    nvars: int

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("empty symbol tuple")
        for s in self.symbols:
            if s.nvars != self.nvars:
                raise ValueError("all symbols must share nvars")

    def __len__(self) -> int:
        return len(self.symbols)

    def degree_vec(self) -> tuple:
        d = [0] * self.nvars
        for s in self.symbols:
            for i, x in enumerate(s.degree_vec()):
                if x > d[i]:
                    d[i] = x
        return tuple(d)


def symbols(nvars: int, *polys: MultiPoly) -> SymbolTuple:
    return SymbolTuple(tuple(polys), nvars)


# ---- JSON ------------------------------------------------------------------

def poly_to_json(p: MultiPoly) -> dict:
    terms = []
    for e, c in p.sorted_terms():
        terms.append({"exp": list(e), "re": str(c.re), "im": str(c.im)})
    return {"nvars": p.nvars, "terms": terms}


def poly_from_json(obj: Mapping) -> MultiPoly:
    try:
        nvars = integral(obj["nvars"], "nvars")
        raw = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial object: {exc}") from exc
    terms: dict[Exponent, ExactComplex] = {}
    for t in raw:
        e = tuple(integral(x, "exponent") for x in t["exp"])
        if e in terms:
            raise ValueError(f"duplicate exponent {e} in polynomial JSON")
        try:
            terms[e] = exact((t["re"], t["im"]))
        except ValueError as exc:
            raise ValueError(f"the coefficient of {e}: {exc}") from exc
    return MultiPoly(nvars, terms)


def tuple_to_json(st: SymbolTuple) -> dict:
    return {"nvars": st.nvars, "symbols": [poly_to_json(s) for s in st.symbols]}


def tuple_from_json(obj: Mapping) -> SymbolTuple:
    try:
        nvars = integral(obj["nvars"], "nvars")
        polys = tuple(poly_from_json(o) for o in obj["symbols"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed symbol-tuple object: {exc}") from exc
    return SymbolTuple(polys, nvars)


def canonical_tuple_json(st: SymbolTuple) -> str:
    """Canonical serialization used for cache keys and report echoes."""
    return json.dumps(tuple_to_json(st), sort_keys=True, separators=(",", ":"))
