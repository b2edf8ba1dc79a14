"""Exact polynomial layer: arithmetic, bounds, elimination, serialization."""
import json
import math
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polytoep.certify import shifted_tuple
from polytoep.exact import EXACT_ONE, EXACT_ZERO, ExactComplex, exact
from polytoep.kernels import pack_tuple
from polytoep.poly import (
    MultiPoly,
    NotEliminableError,
    canonical_tuple_json,
    constant,
    directional_gradient_bounds,
    disc_zero_count,
    divexact,
    exact_poly,
    gcd,
    poly_from_json,
    poly_to_json,
    resultant,
    symbols,
    tuple_from_json,
    tuple_to_json,
    univariate_coeffs,
)

# -- hypothesis strategies ---------------------------------------------------

small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

small_complex = st.builds(ExactComplex, small_fraction, small_fraction)

exponents2 = st.tuples(st.integers(min_value=0, max_value=3),
                       st.integers(min_value=0, max_value=3))


@st.composite
def exact_polys2(draw):
    terms = draw(st.dictionaries(exponents2, small_fraction, min_size=1, max_size=5))
    return exact_poly(2, terms)


unit_points = st.tuples(
    st.complex_numbers(max_magnitude=1.0, allow_infinity=False, allow_nan=False),
    st.complex_numbers(max_magnitude=1.0, allow_infinity=False, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(exact_polys2(), exact_polys2(), unit_points)
def test_eval_is_ring_homomorphism(p, q, z):
    assert (p + q).eval(z) == pytest.approx(p.eval(z) + q.eval(z), abs=1e-9)
    assert (p * q).eval(z) == pytest.approx(p.eval(z) * q.eval(z), abs=1e-9)
    assert (p - q).eval(z) == pytest.approx(p.eval(z) - q.eval(z), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(exact_polys2(), unit_points, unit_points)
def test_directional_bounds_bound_each_coordinate_step(p, z, w):
    # G_v bounds sup|∂p/∂z_v| on the closed polydisc, so changing one
    # coordinate at a time moves p by at most Σ_v G_v·|z_v − w_v|
    g = directional_gradient_bounds(p)
    step = sum(gv * abs(a - b) for gv, a, b in zip(g, z, w))
    assert abs(p.eval(z) - p.eval(w)) <= step + 1e-9


@settings(max_examples=100, deadline=None)
@given(exact_polys2(), exact_polys2())
def test_tuple_json_round_trip(p, q):
    stt = symbols(2, p, q)
    back = tuple_from_json(tuple_to_json(stt))
    assert back.symbols[0] == p and back.symbols[1] == q
    assert canonical_tuple_json(back) == canonical_tuple_json(stt)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(exponents2, st.tuples(finite_floats, finite_floats),
                       min_size=1, max_size=5))
def test_float_json_is_read_exactly(terms):
    # numbers in, "p/q" strings out, the same tuple back; the packed
    # coefficients are the input floats bit for bit (+ 0.0 maps -0.0 to
    # 0.0: the rational 0 has no sign)
    obj = {"nvars": 2, "symbols": [{"nvars": 2, "terms": [
        {"exp": list(e), "re": re, "im": im} for e, (re, im) in terms.items()]}]}
    stt = tuple_from_json(json.loads(json.dumps(obj)))
    out = tuple_to_json(stt)
    assert all(isinstance(t[k], str) for t in out["symbols"][0]["terms"] for k in ("re", "im"))
    assert tuple_from_json(json.loads(json.dumps(out))) == stt
    pk = pack_tuple(stt)
    packed = {tuple(e): (re.hex(), im.hex())
              for e, re, im in zip(pk.exps.tolist(), pk.cre.tolist(), pk.cim.tolist())}
    assert packed == {e: ((re + 0.0).hex(), (im + 0.0).hex())
                      for e, (re, im) in terms.items() if re or im}


# -- fixed fixtures ----------------------------------------------------------


def test_poly_json_preserves_rationals():
    p = exact_poly(2, {(2, 1): "22/7", (0, 0): (0, "-1/3")})
    q = poly_from_json(json.loads(json.dumps(poly_to_json(p))))
    assert q == p
    c = q.terms[(2, 1)]
    assert isinstance(c, ExactComplex) and c.re == Fraction(22, 7)


def test_float_coefficients_must_be_finite():
    for c in (math.nan, math.inf, complex(0, -math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            exact_poly(2, {(1, 0): 1.0, (0, 0): c})
    # the shift λ of the spectrum query builds its constants the same way
    st = symbols(2, exact_poly(2, {(1, 0): 1}), exact_poly(2, {(0, 1): 1}))
    with pytest.raises(ValueError, match="non-finite"):
        shifted_tuple(st, [math.nan, 0])


def bool_tuple_jsons():
    """Tuple JSON with a JSON boolean where a number belongs: nvars of the
    tuple and of a symbol, an exponent, and the real and imaginary parts."""
    def tup(nvars=2, sym_nvars=2, exp=(1, 0), re=1, im=0):
        return {"nvars": nvars, "symbols": [
            {"nvars": sym_nvars, "terms": [{"exp": list(exp), "re": re, "im": im}]},
            {"nvars": 2, "terms": [{"exp": [0, 1], "re": 1, "im": 0}]}]}
    assert tuple_from_json(tup()) == symbols(2, exact_poly(2, {(1, 0): 1}),
                                             exact_poly(2, {(0, 1): 1}))
    return [tup(nvars=True), tup(sym_nvars=True), tup(exp=(True, 0)), tup(exp=(1, False)),
            tup(re=True), tup(im=False)]


def test_json_booleans_are_not_numbers():
    # bool is an int subclass: true must not read as 1, nor false as 0
    for obj in bool_tuple_jsons():
        with pytest.raises(ValueError):
            tuple_from_json(obj)
    for v in (True, False, (1, True), (False, 0)):
        with pytest.raises(ValueError, match="boolean"):
            exact(v)


def test_exponents_must_be_integral():
    with pytest.raises(ValueError, match="must be an integer"):
        MultiPoly(2, {(1.5, 0): ExactComplex(1)})
    assert MultiPoly(2, {(1.0, 0): ExactComplex(1)}).terms == {(1, 0): ExactComplex(1)}


def test_univariate_coeffs_ascending():
    p = exact_poly(1, {(2,): 3, (0,): "1/2"})
    cs = univariate_coeffs(p)
    assert [c.re for c in cs] == [Fraction(1, 2), Fraction(0), Fraction(3)]


def test_gcd_univariate_and_divexact():
    z = exact_poly(1, {(1,): 1})
    half = exact_poly(1, {(0,): "1/2"})
    p = (z - half) * (z + half) * z
    g = gcd(p, (z - half) * z)
    # monic gcd of degree 2 with roots 0 and 1/2
    assert g.degree() == 2
    assert divexact(p, g) * g == p


# -- zeros in the unit disc, exactly ------------------------------------------


def from_roots(*roots):
    """The monic polynomial with these roots, each read by ``exact``."""
    return reduce(mul, (exact_poly(1, {(1,): 1, (0,): -exact(w)}) for w in roots))


gaussian_ints = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9))


@settings(max_examples=200, deadline=None)
@given(st.lists(gaussian_ints, min_size=2, max_size=7).filter(lambda c: c[-1] != 0))
def test_disc_zero_count_matches_numpy_roots(coeffs):
    roots = np.roots(coeffs[::-1])
    assume(np.all(np.abs(np.abs(roots) - 1) >= 1e-3))
    p = exact_poly(1, {(k,): c for k, c in enumerate(coeffs)})
    assert disc_zero_count(p) == (int(np.sum(np.abs(roots) < 1)), 0)


PYTHAGOREAN = (ExactComplex(Fraction(3, 5), Fraction(4, 5)),
               ExactComplex(Fraction(-5, 13), Fraction(12, 13)))


@pytest.mark.parametrize("p, counts", [
    # Pythagorean circle zeros of multiplicity 2, with one zero inside, one outside
    (from_roots(*PYTHAGOREAN, *PYTHAGOREAN, "1/2", 3), (1, 4)),
    (from_roots("2/5", "5/2"), (1, 0)),                  # a reciprocal pair
    (from_roots(1, "1/2"), (1, 1)),                      # δ < 0, then the circle zero
    # δ = 0 with gcd(p, p*) = 1: the non-essential singular case
    (exact_poly(1, {(0,): 1, (1,): 3, (2,): -1}), (1, 0)),
    (exact_poly(1, {(2,): 1, (1,): (0, "-3/2"), (0,): 1}), (1, 0)),
    (from_roots("999/1000"), (1, 0)),
    (from_roots("1001/1000"), (0, 0)),
    (from_roots(0, 0, "1001/1000"), (2, 0)),
    (exact_poly(1, {(0,): 5}), (0, 0)),
])
def test_disc_zero_count_exact_cases(p, counts):
    assert disc_zero_count(p) == counts


def test_disc_zero_count_rejects_the_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        disc_zero_count(exact_poly(1, {}))


def test_gcd_bivariate_fixtures():
    z1 = exact_poly(2, {(1, 0): 1})
    z2 = exact_poly(2, {(0, 1): 1})
    two = exact_poly(2, {(0, 0): 2})
    g = gcd(z1 * z2, z1 * (z2 - two))
    assert g.degree() == 1 and g.degree_in(0) == 1   # g ~ z1
    # zero coefficients in the coefficient list must not trip the content
    g2 = gcd(z1 * z2, z2 * z2 * z2)
    assert g2.degree_in(1) == 1 and g2.degree_in(0) == 0
    coprime = gcd(z1, z2)
    assert coprime.degree() == 0
    # coprime, of total degree 8: a primitive PRS's coefficients swell here
    p = exact_poly(2, {(8, 0): 1, (6, 0): -3, (2, 0): -7, (1, 0): -9, (0, 8): 1,
                       (0, 7): 3, (0, 0): -1})
    q = exact_poly(2, {(8, 0): 1, (7, 0): 8, (5, 1): -9, (1, 4): -2, (0, 8): 1,
                       (0, 4): 4, (0, 0): 3})
    assert gcd(p, q) == constant(2, 1)


def small_polys(nvars, coeffs):
    """Exact polynomials of degree at most 4 in one variable or 2 in each of
    two, the zero polynomial and constants included."""
    exps = st.tuples(*[st.integers(0, 4 // nvars)] * nvars)
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda t: exact_poly(nvars, t))


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.sampled_from((1, 2)), st.sampled_from((small_fraction, small_complex))).flatmap(
    lambda nc: st.tuples(*[small_polys(*nc)] * 3)))
def test_gcd_is_the_normalized_greatest_divisor(polys):
    g0, a, b = polys
    assume(not g0.is_zero() and not (a.is_zero() and b.is_zero()))
    p, q = g0 * a, g0 * b
    g = gcd(p, q)
    assert g.sorted_terms()[-1][1] == EXACT_ONE          # graded-lex lead 1
    pr, qr = divexact(p, g), divexact(q, g)
    assert pr * g == p and qr * g == q
    divexact(g, g0)                                      # g0 divides g
    assert gcd(pr, qr) == constant(p.nvars, 1)


def test_resultant_matches_common_zero_structure():
    z1 = exact_poly(2, {(1, 0): 1})
    z2 = exact_poly(2, {(0, 1): 1})
    r = resultant(z1 - z2, z1 * z2, eliminate=1)
    # as a univariate polynomial in z1 the resultant is -z1^2: double root at 0
    assert r.nvars == 1
    cs = univariate_coeffs(r)
    assert len(cs) == 3 and not cs[0] and not cs[1]


def test_resultant_not_eliminable():
    z2 = exact_poly(2, {(0, 1): 1})
    one = exact_poly(2, {(0, 0): 1})
    with pytest.raises(NotEliminableError):
        resultant(z2, z2 - one, eliminate=0)


def test_resultant_specialization_consistency():
    # res eliminating z2 of (z1^2 - 1/4, z2) is z1^2 - 1/4 itself
    p = exact_poly(2, {(2, 0): 1, (0, 0): "-1/4"})
    z2 = exact_poly(2, {(0, 1): 1})
    r = resultant(p, z2, eliminate=1)
    for a in (0.3 + 0.1j, -0.5, 1.2j):
        assert r.eval((a,)) == pytest.approx(p.eval((a, 0)), rel=1e-12, abs=1e-12)


# -- resultant against an independent reference --------------------------------


def interpolation_resultant(p, q, eliminate):
    """Reference Sylvester resultant: the Sylvester matrix evaluated at
    integer nodes of the kept variable, one exact scalar determinant per
    node, Lagrange-interpolated.  Nodes: one more than the degree bound
    deg_v(p)·deg_keep(q) + deg_v(q)·deg_keep(p)."""
    keep = 1 - eliminate
    m, n = p.degree_in(eliminate), q.degree_in(eliminate)
    if m <= 0 and n <= 0:
        raise NotEliminableError("both polynomials are constant in the variable")

    def coeffs_at(f, t):
        out = [EXACT_ZERO] * (f.degree_in(eliminate) + 1)
        for e, c in f.terms.items():
            out[e[eliminate]] = out[e[eliminate]] + c * ExactComplex(t ** e[keep])
        return out

    def det(mat):
        size, d = len(mat), EXACT_ONE
        for col in range(size):
            piv = next((r for r in range(col, size) if mat[r][col]), None)
            if piv is None:
                return EXACT_ZERO
            if piv != col:
                mat[col], mat[piv] = mat[piv], mat[col]
                d = -d
            d = d * mat[col][col]
            for r in range(col + 1, size):
                f = mat[r][col] / mat[col][col]
                for c in range(col, size):
                    mat[r][c] = mat[r][c] - f * mat[col][c]
        return d

    def sylvester_det(prow, qrow):
        mm, nn = len(prow) - 1, len(qrow) - 1
        mat = [[EXACT_ZERO] * (mm + nn) for _ in range(mm + nn)]
        for i in range(nn):
            for j, c in enumerate(reversed(prow)):
                mat[i][i + j] = c
        for i in range(mm):
            for j, c in enumerate(reversed(qrow)):
                mat[nn + i][i + j] = c
        return det(mat)

    bound = m * q.degree_in(keep) + n * p.degree_in(keep)
    nodes = [(k + 1) // 2 * (-1) ** (k + 1) for k in range(bound + 1)]   # 0, 1, -1, 2, …
    values = [sylvester_det(coeffs_at(p, t), coeffs_at(q, t)) for t in nodes]
    coeffs = [EXACT_ZERO] * len(nodes)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        basis, denom = [EXACT_ONE], EXACT_ONE
        for j, xj in enumerate(nodes):
            if j != i:
                basis = [a - ExactComplex(xj) * b
                         for a, b in zip([EXACT_ZERO] + basis, basis + [EXACT_ZERO])]
                denom = denom * ExactComplex(xi - xj)
        for d, b in enumerate(basis):
            coeffs[d] = coeffs[d] + yi / denom * b
    return exact_poly(1, {(k,): c for k, c in enumerate(coeffs)})


@st.composite
def complex_polys2(draw, variables=(0, 1), max_degree=3):
    """Nonzero exact polynomials with complex rational coefficients, of
    degree at most ``max_degree`` in each of ``variables`` and 0 in the
    other."""
    degree = st.integers(min_value=0, max_value=max_degree)
    exps = st.tuples(*(degree if v in variables else st.just(0) for v in (0, 1)))
    p = exact_poly(2, draw(st.dictionaries(exps, small_complex, min_size=1, max_size=5)))
    assume(not p.is_zero())
    return p


def assert_matches_reference(p, q, eliminate):
    try:
        want = interpolation_resultant(p, q, eliminate)
    except NotEliminableError:
        with pytest.raises(NotEliminableError):
            resultant(p, q, eliminate)
        return None
    got = resultant(p, q, eliminate)
    assert got == want
    return got


@settings(max_examples=60, deadline=None)
@given(complex_polys2(), complex_polys2())
def test_resultant_matches_interpolation_reference(p, q):
    for eliminate in (0, 1):
        assert_matches_reference(p, q, eliminate)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((0, 1)), complex_polys2(), st.data())
def test_resultant_with_one_side_constant_in_the_variable(eliminate, p, data):
    q = data.draw(complex_polys2(variables=(1 - eliminate,)))
    for a, b in ((p, q), (q, p)):
        assert_matches_reference(a, b, eliminate)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((0, 1)), *[complex_polys2(max_degree=1)] * 3)
def test_resultant_of_a_common_factor_vanishes(eliminate, g, a, b):
    assume(g.degree_in(eliminate) > 0)
    assert assert_matches_reference(g * a, g * b, eliminate).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((0, 1)), st.data())
def test_resultant_not_eliminable_on_either_side(eliminate, data):
    only_kept = complex_polys2(variables=(1 - eliminate,))
    p, q = data.draw(only_kept), data.draw(only_kept)
    with pytest.raises(NotEliminableError):
        interpolation_resultant(p, q, eliminate)
    with pytest.raises(NotEliminableError):
        resultant(p, q, eliminate)


def test_eval_matches_numpy_reference():
    p = exact_poly(2, {(3, 2): "5/2", (1, 0): -1, (0, 0): (1, 1)})
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        ref = 2.5 * z[0] ** 3 * z[1] ** 2 - z[0] + complex(1, 1)
        assert p.eval(tuple(z)) == pytest.approx(ref, rel=1e-12, abs=1e-12)
