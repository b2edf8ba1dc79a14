"""Tensor-product index formula and single-disc reductions."""
from fractions import Fraction

import numpy as np
import pytest

from polytoep.poly import symbols
from polytoep.report import JobConfig, run_index
from polytoep.tensor import (
    TrigPoly,
    disc_tuple_index,
    tensor_tuple_index,
    trig_from_json,
    trig_from_poly,
    trig_toeplitz_index,
)

from conftest import p1, p2


def values(f: TrigPoly, theta: np.ndarray) -> np.ndarray:
    """f(e^{iθ})."""
    ks = np.array(sorted(f.coeffs))
    cs = np.array([f.coeffs[int(k)].to_complex() for k in ks])
    return np.exp(1j * np.outer(theta, ks)) @ cs


def derivative_values(f: TrigPoly, theta: np.ndarray) -> np.ndarray:
    """d/dθ of f(e^{iθ})."""
    ks = np.array(sorted(f.coeffs))
    cs = np.array([1j * k * f.coeffs[int(k)].to_complex() for k in ks])
    return np.exp(1j * np.outer(theta, ks)) @ cs


def test_trig_poly_values():
    f = TrigPoly({1: 1.0, 0: 2.0})          # 2 + e^{iθ}
    th = np.array([0.0, np.pi])
    assert values(f, th) == pytest.approx([3.0, 1.0])
    assert derivative_values(f, th)[0] == pytest.approx(1j)
    with pytest.raises(ValueError):
        TrigPoly({})


def test_trig_json_round_trip():
    f = TrigPoly({-2: 1.5 + 0.5j, 3: -1.0})
    g = trig_from_json({"fourier": [{"k": k, "re": str(c.re), "im": str(c.im)}
                                    for k, c in f.coeffs.items()]})
    assert g.coeffs == f.coeffs
    # "p/q" strings are read as tuple JSON reads them
    h = trig_from_json({"fourier": [{"k": -2, "re": "3/2", "im": "1/2"},
                                    {"k": 3, "re": "-1"}]})
    assert h.coeffs == f.coeffs
    with pytest.raises(ValueError):
        trig_from_json({"fourier": [{"k": 1, "re": 1, "im": 0},
                                    {"k": 1, "re": 2, "im": 0}]})


def test_trig_from_poly():
    f = trig_from_poly(p1({(2,): 1, (0,): "-1/4"}))
    assert f.coeffs == {2: 1, 0: Fraction(-1, 4)}
    g = trig_from_poly(p2({(0, 3): 2}), var=1)
    assert g.coeffs == {3: 2}
    with pytest.raises(ValueError):
        trig_from_poly(p2({(1, 1): 1}), var=0)


def test_factor_indices():
    fwd = trig_toeplitz_index(TrigPoly({1: 1.0}))
    assert fwd.fredholm and fwd.index == -1 and not fwd.invertible_flag
    bwd = trig_toeplitz_index(TrigPoly({-1: 1.0}))
    assert bwd.index == 1
    for f in (TrigPoly({0: 2.0, 1: 1.0}), TrigPoly({0: 1, 1: -0.95})):
        # winding 0 means invertible (Coburn), however small the truncated
        # sections' singular values: T_{1-0.95z} has inverse T_{1/(1-0.95z)}
        inv = trig_toeplitz_index(f)
        assert inv.fredholm and inv.index == 0 and inv.invertible_flag
    broken = trig_toeplitz_index(TrigPoly({1: 1.0, 0: -1.0}))   # vanishes at θ=0
    assert not broken.fredholm and broken.index is None


def test_exact_counts_near_the_circle():
    inside = trig_toeplitz_index(trig_from_poly(p1({(1,): 1, (0,): "-999/1000"})))
    assert inside.fredholm and inside.index == -1
    # the root of z − 1001/1000 lies at 1.001, off the circle: invertible
    outside = trig_toeplitz_index(trig_from_poly(p1({(1,): 1, (0,): "-1001/1000"})))
    assert outside.fredholm and outside.index == 0 and outside.invertible_flag
    rep = tensor_tuple_index([trig_from_poly(p2({(1, 0): 1, (0, 0): "-1001/1000"})),
                              trig_from_poly(p2({(0, 1): 1}), var=1)], [0, 1])
    assert [f.index for f in rep.per_factor] == [0, -1]
    assert rep.tuple_fredholm and rep.tuple_index == 0


def test_index_reversal_negation():
    f = TrigPoly({2: 1.0, 0: 0.25})
    a = trig_toeplitz_index(f)
    b = trig_toeplitz_index(TrigPoly({-k: c for k, c in f.coeffs.items()}))
    assert a.index == -b.index


def test_tensor_monomial_grid():
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            rep = tensor_tuple_index([TrigPoly({a: 1.0}), TrigPoly({b: 1.0})], [0, 1])
            assert rep.tuple_fredholm and rep.tuple_index == -a * b


def test_tensor_three_factors():
    rep = tensor_tuple_index([TrigPoly({1: 1.0})] * 3, [0, 1, 2])
    assert rep.tuple_index == -1       # (-1)^{n+1} * (-1)^3 with n = 3
    rep2 = tensor_tuple_index([TrigPoly({1: 1.0}), TrigPoly({2: 1.0}),
                               TrigPoly({1: 1.0})], [0, 1, 2])
    assert rep2.tuple_index == -2


def test_tensor_invertible_factor_kills_index():
    rep = tensor_tuple_index([TrigPoly({1: 1.0}), TrigPoly({0: 2.0, 1: 1.0})], [0, 1])
    assert rep.tuple_index == 0
    assert "invertible" in rep.note
    # the invertible rule comes first: z − 1 vanishes on the circle, but
    # z − 2 is invertible, so the tuple is exact in either factor order
    broken, invertible = TrigPoly({1: 1.0, 0: -1.0}), TrigPoly({1: 1.0, 0: -2.0})
    for factors in ([broken, invertible], [invertible, broken]):
        rep = tensor_tuple_index(factors, [0, 1])
        assert rep.tuple_fredholm and rep.tuple_index == 0
        assert "invertible" in rep.note


@pytest.mark.parametrize("terms", [({(1, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -2}),
                                   ({(2, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -3})])
def test_pipeline_agrees_with_an_invertible_factor(terms):
    # (z1 − 1, z2 − 2) and (z1² − 1, z2 − 3): the first symbol vanishes on
    # the torus, the second nowhere on the closed bidisc
    verdict = run_index(JobConfig(input=symbols(2, *map(p2, terms))))["body"]["verdict"]
    assert verdict["kind"] == "agree" and verdict["index"] == 0
    assert "tensor" in verdict["routes"]


def test_tensor_undefined_and_validation():
    rep = tensor_tuple_index([TrigPoly({1: 1.0}), TrigPoly({1: 1.0, 0: -1.0})], [0, 1])
    assert not rep.tuple_fredholm and rep.tuple_index == "undefined"
    # one factor is one Toeplitz operator: (−1)^(1+1)·ind = −winding
    assert tensor_tuple_index([TrigPoly({1: 1.0})], [0]).tuple_index == -1
    with pytest.raises(ValueError):
        tensor_tuple_index([], [])
    with pytest.raises(ValueError):
        tensor_tuple_index([TrigPoly({1: 1.0})] * 2, [0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        TrigPoly({0: 1.0, 1: float("nan")})


# -- one variable: the product formula at n = 1 ----------------------------------


def one_factor(f: TrigPoly):
    return tensor_tuple_index([f], [0])


def winding(p) -> int:
    """Winding of a one-variable polynomial around the unit circle."""
    return -one_factor(trig_from_poly(p)).tuple_index


def test_winding_fixtures():
    assert winding(p1({(3,): 1})) == 3
    assert winding(p1({(1,): 1, (0,): -2})) == 0
    assert winding(p1({(2,): 1, (0,): "-1/4"})) == 2
    # on |z| = 1/4, inside the zero radius 1/2, the winding drops:
    # z² − 1/4 there is (1/16)·e^{2iθ} − 1/4
    assert -one_factor(TrigPoly({2: 1 / 16, 0: -0.25})).tuple_index == 0


def test_winding_rejects_circle_zeros():
    rep = one_factor(trig_from_poly(p1({(1,): 1, (0,): -1})))
    assert not rep.tuple_fredholm and rep.tuple_index == "undefined"
    assert rep.per_factor[0].index is None


def test_univariate_index_values():
    assert one_factor(trig_from_poly(p1({(1,): 1}))).tuple_index == -1
    assert one_factor(trig_from_poly(p1({(2,): 1}))).tuple_index == -2
    invertible = one_factor(trig_from_poly(p1({(0,): 2, (1,): 1})))
    assert invertible.tuple_index == 0 and invertible.per_factor[0].invertible_flag


def test_univariate_index_additivity():
    p = p1({(1,): 1, (0,): "-1/2"})
    q = p1({(2,): 1, (0,): "1/9"})
    assert winding(p * q) == winding(p) + winding(q) == 3


def test_univariate_index_not_fredholm_message():
    rep = one_factor(trig_from_poly(p1({(1,): 1, (0,): -1})))
    assert rep.note == "a factor vanishes on the circle"


def test_disc_tuple_fixtures():
    z = p1({(1,): 1})
    half = p1({(0,): "1/2"})
    assert disc_tuple_index(symbols(1, z, z - half)) == 0
    assert disc_tuple_index(symbols(1, z, p1({(2,): 1}))) == 0
    assert disc_tuple_index(symbols(1, p1({(2,): 1}), z - half)) == 0


def test_disc_tuple_rejects_joint_boundary_zeros():
    z = p1({(1,): 1})
    one = p1({(0,): 1})
    with pytest.raises(RuntimeError, match="not Fredholm"):
        disc_tuple_index(symbols(1, z - one, p1({(2,): 1, (0,): -1})))


def test_disc_tuple_validation(shift_pair):
    with pytest.raises(ValueError):
        disc_tuple_index(symbols(1, p1({(1,): 1})))
    with pytest.raises(ValueError):
        disc_tuple_index(shift_pair)
