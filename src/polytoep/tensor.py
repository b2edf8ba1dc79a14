"""Product-formula route for tuples whose symbols each use one variable.

A tuple (f₁(z₁), …, fₙ(zₙ)) acts as a tensor product of one-variable
Toeplitz operators, and when every factor is Fredholm and none is
invertible, the tuple index is (−1)^{n+1}·∏ ind(T_{fᵢ}).  Symbols are
trigonometric polynomials on the circle (negative Fourier indices allowed,
so z̄ is in scope) with exact coefficients.  With lo the lowest Fourier
index, q = z^(−lo)·f is a polynomial whose zeros ``poly.disc_zero_count``
counts exactly: T_f is Fredholm exactly when q has no zero on the circle,
and then ind(T_f) = −winding(f) = −(lo + the zeros of q in the disc).  At
n = 1 this is the classical criterion for one Toeplitz operator.

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

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .exact import ExactComplex, exact
from .poly import MultiPoly, SymbolTuple, disc_zero_count, integral


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial Σ c_k e^{ikθ} with finitely many terms; each
    c_k is read by ``exact``, so NaN and ±inf are a ValueError."""
    coeffs: Mapping[int, ExactComplex]

    def __post_init__(self):
        exacts = {integral(k, "Fourier index"): exact(c) for k, c in self.coeffs.items()}
        clean = {k: c for k, c in exacts.items() if c}
        if not clean:
            raise ValueError("zero trigonometric polynomial")
        object.__setattr__(self, "coeffs", clean)


def trig_from_poly(p: MultiPoly, var: int = 0) -> TrigPoly:
    """Analytic polynomial in one variable, viewed on the circle."""
    for e in p.terms:
        for v, k in enumerate(e):
            if k and v != var:
                raise ValueError(f"symbol uses variable {v}, expected only {var}")
    return TrigPoly({e[var]: c for e, c in p.terms.items()})


def trig_from_json(obj: dict) -> TrigPoly:
    coeffs: Dict[int, ExactComplex] = {}
    try:
        for t in obj["fourier"]:
            k = integral(t["k"], "Fourier index")
            if k in coeffs:
                raise ValueError(f"duplicate Fourier index {k}")
            coeffs[k] = exact((t["re"], t.get("im", 0)))
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


def trig_toeplitz_index(f: TrigPoly) -> FactorIndex:
    """Fredholm data of one Toeplitz factor (module docstring), invertible at
    winding 0 by Coburn's lemma."""
    lo = min(f.coeffs)
    inside, on_circle = disc_zero_count(
        MultiPoly(1, {(k - lo,): c for k, c in f.coeffs.items()}))
    if on_circle:
        return FactorIndex(fredholm=False, index=None, invertible_flag=False)
    w = lo + inside
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
