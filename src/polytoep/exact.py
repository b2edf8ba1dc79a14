"""Exact complex-rational scalars built on fractions.Fraction."""
from __future__ import annotations

from fractions import Fraction
from typing import Union

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

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

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


EXACT_ZERO = ExactComplex(0)
EXACT_ONE = ExactComplex(1)


def exact(re: RationalLike = 0, im: RationalLike = 0) -> ExactComplex:
    """Shorthand constructor accepting ints, Fractions, or 'p/q' strings."""
    return ExactComplex(re, im)
