"""Batch evaluation kernels for polynomial tuples on large point grids.

Certificate grids are the hot path: tens of millions of points per attempt,
each needing Σ_i |f_i(z)|².  The tuple is packed once into flat arrays
(coefficients split into re/im, exponent rows, per-polynomial offsets) and a
single numpy evaluator sweeps a block of points with per-variable power
tables.  It is deterministic, so fixed-seed runs reproduce byte-identical
reports.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .poly import SymbolTuple


@dataclass(frozen=True)
class PackedTuple:
    """Flat arrays describing one polynomial tuple, ready for the kernels."""

    cre: np.ndarray   # float64[nterms]
    cim: np.ndarray   # float64[nterms]
    exps: np.ndarray  # int64[nterms, nvars]
    offs: np.ndarray  # int64[npolys + 1]
    maxdeg: int
    nvars: int

    @property
    def npolys(self) -> int:
        return len(self.offs) - 1


def pack_tuple(st: SymbolTuple) -> PackedTuple:
    """Pack a symbol tuple for kernel evaluation.

    Each exact coefficient is rounded to float once and none is dropped, so
    a coefficient read from a float packs to that float's bits.  Terms are
    emitted in graded-lex order so packing is deterministic.
    """
    cre, cim, rows, offs = [], [], [], [0]
    for s in st.symbols:
        for e, c in s.sorted_terms():
            cre.append(float(c.re))
            cim.append(float(c.im))
            rows.append(e)
        offs.append(len(cre))
    nvars = st.nvars
    exps = np.array(rows, dtype=np.int64).reshape(len(rows), nvars)
    maxdeg = int(exps.max()) if len(rows) else 0
    return PackedTuple(
        np.asarray(cre, dtype=np.float64),
        np.asarray(cim, dtype=np.float64),
        exps,
        np.asarray(offs, dtype=np.int64),
        maxdeg,
        nvars,
    )


def majorant(pk: PackedTuple) -> PackedTuple:
    """The packed tuple with each coefficient c replaced by |c|: at the
    point |z| it gives Σ|c|·|z^e| for each symbol."""
    return replace(pk, cre=np.hypot(pk.cre, pk.cim), cim=np.zeros_like(pk.cim))


def pack_partials(st: SymbolTuple) -> PackedTuple:
    """Pack the partials ∂fᵢ/∂z_v in the order (f₁/z₁, f₁/z₂, …, f₂/z₁, …),
    so one ``values_block`` row reshapes to the p × n Jacobian."""
    n = st.nvars
    return pack_tuple(SymbolTuple(tuple(s.diff(v) for s in st.symbols for v in range(n)), n))


def _points(pk: PackedTuple, points) -> np.ndarray:
    """The points as a contiguous array, shape (npts, nvars): float64 when
    they and every packed coefficient are real (the majorant P̂ at |c| and
    |c| + δ), complex128 otherwise.  On real data both give the same values
    bit for bit; the real one does a quarter of the multiplications."""
    points = np.asarray(points)
    real = points.dtype.kind != "c" and not pk.cim.any()
    return np.ascontiguousarray(points, dtype=np.float64 if real else np.complex128)


def _poly_values(pk: PackedTuple, z: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the values of f_1, f_2, … in turn at a block of points from
    ``_points``."""
    dtype = z.dtype
    npts, nv = z.shape
    pw = np.empty((nv, pk.maxdeg + 1, npts), dtype=dtype)
    pw[:, 0, :] = 1.0
    for k in range(1, pk.maxdeg + 1):
        pw[:, k, :] = pw[:, k - 1, :] * z.T
    coef = (pk.cre if dtype == np.float64 else pk.cre + 1j * pk.cim).tolist()
    exps, offs = pk.exps.tolist(), pk.offs.tolist()
    for i in range(pk.npolys):
        acc = np.zeros(npts, dtype=dtype)
        for t in range(offs[i], offs[i + 1]):
            term = coef[t]
            for v, e in enumerate(exps[t]):
                if e:
                    term = term * pw[v, e]
            acc += term
        yield acc


def sumsq_block(pk: PackedTuple, points: np.ndarray) -> np.ndarray:
    """Σ_i |f_i(z)|² for a block of points, shape (npts, nvars)."""
    z = _points(pk, points)
    out = np.zeros(len(z), dtype=np.float64)
    for acc in _poly_values(pk, z):
        out += acc.real ** 2 + acc.imag ** 2
    return out


def values_block(pk: PackedTuple, points: np.ndarray) -> np.ndarray:
    """Tuple values at a block of points, shape (npts, npolys): float64 for
    real points and coefficients, complex128 otherwise."""
    z = _points(pk, points)
    out = np.empty((len(z), pk.npolys), dtype=z.dtype)
    for i, acc in enumerate(_poly_values(pk, z)):
        out[:, i] = acc
    return out
