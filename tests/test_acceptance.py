"""Acceptance sweep: one test per acceptance criterion, one line per verdict.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  Criterion 1 carries a known-red companion: the documented
target for ((z1-2)z2, (z1-2)(z2-1/2)) is -1, but dividing out the certified
zero-free factor (z1-2) leaves (z2, z2-1/2), which have no common zero, so
every route returns 0.  The assertion is kept at the documented value so the
discrepancy stays visible instead of being silently edited away.
"""
import json
import time

import numpy as np
import pytest

from polytoep.certify import boundary_lower_bound, essential_spectrum_membership
from polytoep.kernels import pack_tuple, sumsq_block
from polytoep.koszul import koszul_route, range_sum_check
from polytoep.poly import exact_poly, symbols
from polytoep.report import JobConfig, run_index
from polytoep.tensor import TrigPoly, disc_tuple_index, tensor_tuple_index

from conftest import certified_rho


def p2(terms):
    return exact_poly(2, terms)


def p1(terms):
    return exact_poly(1, terms)


Z1 = p2({(1, 0): 1})
Z2 = p2({(0, 1): 1})

AGREE_FIXTURES = [
    ("(z1, z2)", symbols(2, Z1, Z2), -1),
    ("(z1^2, z2^3)", symbols(2, p2({(2, 0): 1}), p2({(0, 3): 1})), -6),
    ("(z1^2 - 1/4, z2)", symbols(2, p2({(2, 0): 1, (0, 0): "-1/4"}), Z2), -2),
    ("(z1 - z2, z1 z2)", symbols(2, p2({(1, 0): 1, (0, 1): -1}), p2({(1, 1): 1})), -2),
    ("(z1 - 2, z2)", symbols(2, p2({(1, 0): 1, (0, 0): -2}), Z2), 0),
    # the one common zero lies just outside the closed bidisc
    ("(z1 - 5/4, z2)", symbols(2, p2({(1, 0): 1, (0, 0): "-5/4"}), Z2), 0),
]

NOT_FREDHOLM_FIXTURES = [
    ("(z1, z1)", symbols(2, Z1, Z1)),
    ("(z1 z2, z1 (z2 - 2))", symbols(2, p2({(1, 1): 1}), p2({(1, 1): 1, (1, 0): -2}))),
]

_cache = {}


def fixture_reports():
    if "reports" not in _cache:
        t0 = time.time()
        _cache["reports"] = [(name, st, want, run_index(JobConfig(input=st, seed=0)))
                             for name, st, want in AGREE_FIXTURES]
        _cache["elapsed"] = time.time() - t0
    return _cache["reports"], _cache["elapsed"]


def region_samples(nv, r, count, rng):
    face = rng.integers(0, nv, count)
    rho = rng.uniform(0.0, 1.0, (count, nv))
    rho[np.arange(count), face] = rng.uniform(r, 1.0, count)
    theta = rng.uniform(0, 2 * np.pi, (count, nv))
    return rho * np.exp(1j * theta)


def test_criterion_1_triple_agreement_suite():
    reports, elapsed = fixture_reports()
    for name, _, want, rep in reports:
        v = rep["body"]["verdict"]
        assert v["kind"] == "agree", f"{name}: {v}"
        assert v["index"] == want, f"{name}: got {v['index']}, want {want}"
        routes = rep["body"]["routes"]
        emitted = {r: routes[r]["index"] for r in ("koszul", "algebraic", "oracle")}
        assert set(emitted.values()) == {want}, f"{name}: {emitted}"
    assert elapsed < 120.0, f"fixture suite took {elapsed:.1f}s"
    print(f"\ncriterion 1 PASS: koszul/algebraic/oracle agree on "
          f"{len(reports)} fixtures in {elapsed:.1f}s")


def test_criterion_1_companion_documented_minus_one():
    # reduction: (z1-2) is certified zero-free, leaving (z2, z2-1/2) with an
    # empty common zero set; all routes therefore emit 0, not the documented -1
    st = symbols(2, p2({(1, 1): 1, (0, 1): -2}),
                 p2({(1, 1): 1, (1, 0): "-1/2", (0, 1): -2, (0, 0): 1}))
    rep = run_index(JobConfig(input=st))
    v = rep["body"]["verdict"]
    assert v["kind"] == "agree"
    print(f"\ncriterion 1 companion: routes agree on {v['index']}")
    assert v["index"] == -1      # documented target; the mathematics says 0


def test_criterion_1_companion_with_interior_factor_zero():
    # same shape but the shared factor (z1-2)z1 vanishes inside: after the
    # certified reduction the remaining pair carries one interior zero
    g = p2({(1, 0): 1, (0, 0): -2})
    st = symbols(2, g * Z1, g * p2({(0, 1): 1, (0, 0): "-1/2"}))
    rep = run_index(JobConfig(input=st))
    v = rep["body"]["verdict"]
    assert v["kind"] == "agree" and v["index"] == -1
    print("\ncriterion 1 companion PASS: reduced pair with interior zero -> -1")


def test_criterion_2_necessity_and_sufficiency():
    reports, _ = fixture_reports()
    for name, _, _, rep in reports:
        cert = rep["body"]["certificate"]
        assert cert["verdict"] == "certified" and float(cert["c"]) > 0, name
    for name, st in NOT_FREDHOLM_FIXTURES:
        rep = run_index(JobConfig(input=st))
        v = rep["body"]["verdict"]
        assert v["kind"] == "not_fredholm", f"{name}: {v}"
        w = tuple(complex(float(c["re"]), float(c["im"])) for c in v["witness"])
        value = sum(abs(s.eval(w)) ** 2 for s in st.symbols)
        assert value < 1e-3, f"{name}: witness value {value}"
    print("\ncriterion 2 PASS: agree fixtures all certified; "
          "witnesses evaluate below 1e-3")


def test_criterion_3_tensor_grid_and_three_shifts():
    for a in range(1, 5):
        for b in range(1, 5):
            st = symbols(2, p2({(a, 0): 1}), p2({(0, b): 1}))
            rep = tensor_tuple_index([TrigPoly({a: 1.0}), TrigPoly({b: 1.0})], [0, 1])
            assert rep.tuple_index == -a * b
            assert koszul_route(st, rho=certified_rho(st)).index == -a * b, (a, b)
    shifts3 = symbols(3, exact_poly(3, {(1, 0, 0): 1}),
                      exact_poly(3, {(0, 1, 0): 1}), exact_poly(3, {(0, 0, 1): 1}))
    rep3 = tensor_tuple_index([TrigPoly({1: 1.0})] * 3, [0, 1, 2])
    route3 = koszul_route(shifts3, rho=0.75)   # sweeps N = 1..3, within the N <= 6 cap
    assert rep3.tuple_index == -1 and route3.index == -1
    print("\ncriterion 3 PASS: 16 monomial grid points match koszul; "
          "three shifts -> -1 on both routes")


def test_criterion_4_univariate_tuples_vanish():
    z = p1({(1,): 1})
    half = p1({(0,): "1/2"})
    tuples = [
        ("(z, z - 1/2)", symbols(1, z, z - half)),
        ("(z, z^2)", symbols(1, z, p1({(2,): 1}))),          # interior common zero
        ("(z^2, z - 1/2)", symbols(1, p1({(2,): 1}), z - half)),
        ("(z - 1/2, z + 1/2)", symbols(1, z - half, z + half)),
        ("(z(z - 1/2), z^2)", symbols(1, p1({(2,): 1, (1,): "-1/2"}), p1({(2,): 1}))),
    ]
    for name, st in tuples:
        assert boundary_lower_bound(st, 0.5).verdict == "certified", name
        assert disc_tuple_index(st) == 0, name
        assert koszul_route(st, rho=0.75).index == 0, name
    print(f"\ncriterion 4 PASS: {len(tuples)} certified univariate tuples "
          "-> 0 on formula and koszul routes")


def test_criterion_5_range_sum_identity():
    rng = np.random.default_rng(12345)
    for trial in range(100):
        n = int(rng.integers(4, 9))
        mats = []
        for _ in range(int(rng.integers(2, 5))):
            r = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            b = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            mats.append(a @ b)
        assert range_sum_check(mats, 1e-8), f"trial {trial}"
    print("\ncriterion 5 PASS: 100/100 random tuples satisfy the "
          "range-sum identity at tol 1e-8")


def test_criterion_6_membership_queries():
    shift = symbols(2, Z1, Z2)
    out = essential_spectrum_membership(shift, (0, 0))
    assert out.verdict == "outside"
    inm = essential_spectrum_membership(shift, (1, 0))
    assert inm.verdict == "inside" and inm.distance_estimate < 1e-3
    far = symbols(2, p2({(1, 0): 1, (0, 0): -2}), Z2)
    assert essential_spectrum_membership(far, (0, 0)).verdict == "outside"
    print("\ncriterion 6 PASS: (0,0) outside / (1,0) inside for shifts; "
          "(0,0) outside for (z1-2, z2)")


def test_criterion_7_certificate_soundness_audit():
    rng = np.random.default_rng(2024)
    audited = 0
    for name, st, _ in AGREE_FIXTURES:
        pk = pack_tuple(st)
        for r in (0.5, 0.75, 0.9):
            cert = boundary_lower_bound(st, r)
            if cert.verdict != "certified":
                continue
            vals = sumsq_block(pk, region_samples(st.nvars, r, 10_000, rng))
            violations = int(np.sum(vals < cert.c))
            assert violations == 0, f"{name} r={r}: {violations} violations"
            audited += 1
    assert audited >= 10
    print(f"\ncriterion 7 PASS: {audited} certificates audited with "
          "10000 samples each, zero violations")


def test_criterion_8_determinism():
    reports, _ = fixture_reports()
    for name, st, _, rep in reports:
        again = run_index(JobConfig(input=st, seed=0))
        a = json.dumps(rep["body"], sort_keys=True)
        b = json.dumps(again["body"], sort_keys=True)
        assert a == b, f"{name}: bodies differ"
    print("\ncriterion 8 PASS: repeated fixed-seed runs give "
          "byte-identical report bodies")


def test_criterion_9_stabilization_honesty():
    # (z1, z2) certifies at r = 0.5; (z1, z1) at no radius, so any ρ
    short = koszul_route(symbols(2, Z1, Z2), range(2, 4), rho=0.75)
    assert short.index == "unstable" and not short.homology.stabilized
    never = koszul_route(symbols(2, Z1, Z1), rho=0.75)
    assert never.index == "unstable"
    # a stabilized emission really does rest on three agreeing levels
    full = koszul_route(symbols(2, Z1, Z2), rho=0.75)
    dims = [rec["kernel_dims"] for rec in full.per_n]
    assert full.homology.stabilized
    assert dims[-1] == dims[-2] == dims[-3]
    print("\ncriterion 9 PASS: short sweeps say 'unstable'; stabilized "
          "emissions rest on three agreeing levels")
