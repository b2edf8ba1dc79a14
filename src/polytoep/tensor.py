"""Product-formula route for tuples whose symbols each use one variable.

A tuple (f₁(z₁), …, fₙ(zₙ)) acts as a tensor product of one-variable
Toeplitz operators, and when every factor is Fredholm and none is
invertible, the tuple index is (−1)^{n+1}·∏ ind(T_{fᵢ}).  Symbols are
trigonometric polynomials on the circle (negative Fourier indices allowed,
so z̄ is in scope); Fredholmness of a factor is decided by a certified
winding number (``fourier_winding``), and ind(T_f) = −winding(f).  At
n = 1 the formula is the classical criterion for one Toeplitz operator:
T_f is Fredholm exactly when f has no zero on the circle, of index
−winding(f).

A factor is invertible exactly when its winding number is 0: by Coburn's
lemma a Fredholm Toeplitz operator with continuous symbol and index 0 is
invertible (Böttcher–Silbermann, *Analysis of Toeplitz Operators*).  An
invertible factor puts the tuple outside the product formula's hypothesis;
the reported tuple index is then 0 whatever the other factors are (the
Koszul complex of a tuple with an invertible member is exact), carried with
an explicit note.  A tuple with no invertible factor and a factor that
vanishes on the circle is not Fredholm: its index is "undefined".

For tuples of analytic polynomials in one *shared* variable the index is 0
whenever the tuple is Fredholm at all.  disc_tuple_index is a call into
``report.run_index`` with the one-radius schedule (s,): the pipeline
certifies the joint nonvanishing condition on the annulus s ≤ |z| ≤ 1, then
its koszul and disc routes must agree.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import exact
from .poly import MultiPoly, SymbolTuple, integral

QUADRATURE_POINTS = 256          # first node count of ``fourier_winding``


class TrigPoly:
    """Trigonometric polynomial Σ c_k e^{ikθ} with finitely many terms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, complex]):
        clean = {integral(k, "Fourier index"): complex(c)
                 for k, c in coeffs.items() if c != 0}
        if not all(map(cmath.isfinite, clean.values())):
            raise ValueError("non-finite Fourier coefficient")
        if not clean:
            raise ValueError("zero trigonometric polynomial")
        object.__setattr__(self, "coeffs", clean)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {c}" for k, c in sorted(self.coeffs.items()))
        return f"TrigPoly({{{items}}})"


def trig_from_poly(p: MultiPoly, var: int = 0) -> TrigPoly:
    """Analytic polynomial in one variable, viewed on the circle."""
    coeffs: Dict[int, complex] = {}
    for e, c in p.terms.items():
        for v, k in enumerate(e):
            if k and v != var:
                raise ValueError(f"symbol uses variable {v}, expected only {var}")
        coeffs[e[var]] = coeffs.get(e[var], 0) + c.to_complex()
    return TrigPoly(coeffs)


def trig_from_json(obj: dict) -> TrigPoly:
    coeffs: Dict[int, complex] = {}
    try:
        for t in obj["fourier"]:
            k = integral(t["k"], "Fourier index")
            if k in coeffs:
                raise ValueError(f"duplicate Fourier index {k}")
            coeffs[k] = exact((t["re"], t.get("im", 0))).to_complex()
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed Fourier factor: {exc!r}") from exc
    return TrigPoly(coeffs)


@dataclass(frozen=True)
class FactorIndex:
    fredholm: bool
    index: Optional[int]          # None when not Fredholm
    invertible_flag: bool         # winding 0 (Coburn), see module docstring


@dataclass(frozen=True)
class TensorIndexReport:
    per_factor: Tuple[FactorIndex, ...]
    tuple_fredholm: bool
    tuple_index: Union[int, str]  # integer or "undefined"
    note: str = ""


def fourier_winding(coeffs: Mapping[int, complex], npts: int) -> Optional[int]:
    """Winding of f(θ) = Σ c_k e^{ikθ} around 0, by trapezoidal quadrature of
    f′/f on npts nodes (doubled once if needed); None when f may vanish on
    the circle or the quadrature does not settle.  The contour is certified
    nonvanishing by sampling plus a Lipschitz bound before the quadrature is
    trusted."""
    ks = np.array(sorted(coeffs))
    cs = np.array([coeffs[int(k)] for k in ks], dtype=complex)
    lip = float(np.sum(np.abs(ks) * np.abs(cs)))   # sup |f′| on the circle
    for _ in range(2):
        theta = np.linspace(0.0, 2 * np.pi, npts, endpoint=False)
        modes = np.exp(1j * np.outer(theta, ks))
        vals = modes @ cs
        if np.min(np.abs(vals)) <= lip * np.pi / npts:
            npts *= 2
            continue
        w = np.mean((modes @ (1j * ks * cs)) / vals) / 1j
        k = round(w.real)
        if abs(w - k) <= 0.25:
            return int(k)
        npts *= 2
    return None


def trig_toeplitz_index(f: TrigPoly) -> FactorIndex:
    """Fredholm data of one Toeplitz factor: winding-certified Fredholmness,
    index = −winding, and invertibility (winding 0, by Coburn's lemma)."""
    w = fourier_winding(f.coeffs, QUADRATURE_POINTS)
    if w is None:
        return FactorIndex(fredholm=False, index=None, invertible_flag=False)
    return FactorIndex(fredholm=True, index=-w, invertible_flag=w == 0)


def tensor_tuple_index(factors: Sequence[TrigPoly],
                       variables: Optional[Sequence[int]] = None) -> TensorIndexReport:
    """Index of (T_{f₁} ⊗ …, …) with each factor acting in its own variable;
    one factor is one Toeplitz operator."""
    n = len(factors)
    if n == 0:
        raise ValueError("tensor route needs at least one factor")
    variables = list(range(n)) if variables is None else variables
    if not (isinstance(variables, (list, tuple)) and len(variables) == n
            and all(type(v) is int and v >= 0 for v in variables) and len(set(variables)) == n):
        raise ValueError("variables must be distinct non-negative integers, one per factor")
    per = tuple(trig_toeplitz_index(f) for f in factors)
    if any(fi.invertible_flag for fi in per):
        return TensorIndexReport(
            per, True, 0,
            "an invertible factor makes the tuple exact; index 0 lies outside "
            "the product formula's non-invertibility hypothesis")
    if not all(fi.fredholm for fi in per):
        return TensorIndexReport(per, False, "undefined",
                                 "a factor vanishes on the circle")
    sign = 1 if n % 2 else -1     # (−1)^(n+1)
    prod = 1
    for fi in per:
        prod *= fi.index
    return TensorIndexReport(per, True, sign * prod)


def disc_tuple_index(st: SymbolTuple, s: float = 0.5) -> int:
    """Index of a tuple of analytic polynomials in one shared variable.

    Runs ``run_index`` with the schedule (s,): once Σ|fᵢ|² > 0 is certified
    on s ≤ |z| ≤ 1 the tuple is Fredholm and its index is 0 regardless of
    interior common zeros, and the koszul and disc routes must say so.
    Raises RuntimeError, carrying the verdict, on anything but ``agree``.
    """
    if st.nvars != 1:
        raise ValueError("disc route applies to one shared variable")
    if len(st) < 2:
        raise ValueError("disc route needs a tuple of at least 2 symbols")
    from .report import JobConfig, run_index     # report imports this module
    verdict = run_index(JobConfig(input=st, r_schedule=(s,)))["body"]["verdict"]
    if verdict["kind"] == "agree":
        return verdict["index"]
    if verdict["kind"] == "not_fredholm":
        near = tuple(complex(float(z["re"]), float(z["im"])) for z in verdict["witness"])
        raise RuntimeError(
            f"not Fredholm: joint zero of the symbols near {near} "
            f"(value {verdict['witness_value']:.3g})")
    raise RuntimeError(f"annulus condition at s={s} gave no index: {verdict}")
