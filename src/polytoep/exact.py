"""Exact complex-rational scalars built on fractions.Fraction, the reader
``exact`` that turns every number from outside into one, and the sparse
reduced row echelon form, with its null vectors, that the bivariate gcd, the
algebraic route and the Koszul grading use."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Union

RationalLike = Union[int, Fraction, str]


class ExactComplex:
    """Complex number with Fraction real and imaginary parts.

    Supports field arithmetic exactly; conversion to float complex is explicit
    via :meth:`to_complex` and is the only lossy operation.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        other = _coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        other = _coerce(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: "ExactComplex") -> "ExactComplex":
        return _coerce(other) - self

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        other = _coerce(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactComplex") -> "ExactComplex":
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other) -> "ExactComplex":
        return _coerce(other) / self

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"


def _coerce(x) -> ExactComplex:
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactComplex(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into ExactComplex")


def _rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ValueError(f"a boolean is not a number: {x!r}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite number {x}")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {x!r}") from exc


def exact(v) -> ExactComplex:
    """The value ``v`` exactly: an int, a Fraction, a ``"p/q"`` string, a
    finite float (the dyadic rational it is), a complex of finite floats, or
    an (re, im) pair of those reals.  Every number that enters from outside
    is read here; NaN, ±inf, a zero denominator and a bool are a
    ValueError."""
    if isinstance(v, ExactComplex):
        return v
    if isinstance(v, complex):
        v = (v.real, v.imag)
    re, im = v if isinstance(v, tuple) else (v, 0)
    return ExactComplex(_rational(re), _rational(im))


EXACT_ZERO = ExactComplex(0)
EXACT_ONE = ExactComplex(1)


# ---- sparse exact elimination -----------------------------------------------

Scalar = Union[Fraction, ExactComplex]   # Fraction for real rows


def axpy(row: Dict[int, Scalar], c: Scalar, tail: Dict[int, Scalar]) -> None:
    """row -= c · tail, in place, dropping entries that cancel."""
    for k, v in tail.items():
        old = row.get(k)
        if old is None:
            row[k] = -c * v
        else:
            nv = old - c * v
            if nv:
                row[k] = nv
            else:
                del row[k]


def echelon(rows: Iterable[Dict[int, Scalar]], pivots: Dict[int, Dict[int, Scalar]]) -> None:
    """Grow a reduced row echelon form (pivot column -> normalized tail, no
    tail entry in a pivot column) by ``rows``, in place.  Rows are sparse
    (column -> nonzero entry), and the pivot of a row is its smallest
    column."""
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            tail = pivots.get(lead)
            c = row.pop(lead)
            if tail is None:
                pivots[lead] = {k: v / c for k, v in row.items()}
                break
            axpy(row, c, tail)
    # back-substitute, largest column first, so tails avoid pivot columns
    for lead in sorted(pivots, reverse=True):
        tail = pivots[lead]
        for k in [k for k in tail if k in pivots]:
            axpy(tail, tail.pop(k), pivots[k])


def kernel_vector(pivots: Dict[int, Dict[int, Scalar]], free: int) -> Dict[int, Scalar]:
    """The null vector of a reduced row echelon form (``echelon``'s pivots)
    that is 1 at the non-pivot column ``free`` and 0 at every other
    non-pivot column: each pivot column holds minus its tail's entry there."""
    w = {free: 1}
    w.update((lead, -tail[free]) for lead, tail in pivots.items() if free in tail)
    return w
