"""Certified region bounds, witnesses, and essential-spectrum queries."""
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import polytoep
from polytoep import certify
from polytoep.certify import (
    DEFAULT_R_SCHEDULE,
    DISTANCE_TOLERANCE,
    WITNESS_THRESHOLD,
    boundary_lower_bound,
    essential_spectrum_cloud,
    essential_spectrum_membership,
    shifted_tuple,
)
from polytoep.cli import main
from polytoep.kernels import pack_tuple, sumsq_block, values_block
from polytoep.poly import exact_poly, symbols, tuple_to_json
from polytoep.report import (JobConfig, _cert_json, _oracle_need, cache_key,
                             certify_schedule, run_index)
from polytoep.zeros import gcd_reduce

from conftest import p1, p2


@pytest.fixture
def shift_triple():
    p3 = lambda t: exact_poly(3, t)
    return symbols(3, p3({(1, 0, 0): 1}), p3({(0, 1, 0): 1}), p3({(0, 0, 1): 1}))


def region_samples(nv, r, count, rng):
    """Uniform polar samples of the closure of D^n minus the r-polydisc."""
    face = rng.integers(0, nv, count)
    rho = rng.uniform(0.0, 1.0, (count, nv))
    rho[np.arange(count), face] = rng.uniform(r, 1.0, count)
    theta = rng.uniform(0, 2 * np.pi, (count, nv))
    return rho * np.exp(1j * theta)


# -- kernels ---------------------------------------------------------------------


def test_backends_agree(quarter_pair):
    pk = pack_tuple(quarter_pair)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (512, 2)) + 1j * rng.uniform(-1, 1, (512, 2))
    a = sumsq_block(pk, pts)
    v = values_block(pk, pts)
    assert np.allclose(np.sum(np.abs(v) ** 2, axis=1), a, rtol=1e-12, atol=0)


def test_pack_matches_eval(shift_pair):
    pk = pack_tuple(shift_pair)
    z = np.array([[0.3 + 0.2j, -0.1 + 0.7j]])
    want = sum(abs(s.eval(tuple(z[0]))) ** 2 for s in shift_pair.symbols)
    assert sumsq_block(pk, z)[0] == pytest.approx(want, rel=1e-12)


def test_real_majorant_matches_complex(quarter_pair, shift_triple):
    # the majorant P̂ (coefficient moduli) at real points runs in float64,
    # bit for bit the values of the complex kernel; complex coefficients
    # keep the complex kernel at real points too
    rng = np.random.default_rng(4)
    torus = WITNESS_CASES["torus pair"][0]
    for st in (quarter_pair, shift_triple, torus):
        pk = pack_tuple(st)
        pk_abs = replace(pk, cre=np.hypot(pk.cre, pk.cim), cim=np.zeros_like(pk.cim))
        pts = rng.uniform(0.0, 1.1, (2000, st.nvars))
        real = values_block(pk_abs, pts)
        assert real.dtype == np.float64
        assert np.array_equal(real, values_block(pk_abs, pts.astype(complex)).real)
    assert values_block(pack_tuple(torus), pts).dtype == np.complex128


def test_pack_keeps_tiny_exact_coefficients():
    # (z1 + 10⁻¹⁵, z2): the float conversion prunes the constant, the pack must not
    st = symbols(2, p2({(1, 0): 1, (0, 0): "1/1000000000000000"}), p2({(0, 1): 1}))
    pk = pack_tuple(st)
    assert len(pk.cre) == 3
    assert values_block(pk, np.zeros((1, 2)))[0, 0] == 1e-15


# -- boundary certificates -------------------------------------------------------


def test_shift_pair_certifies(shift_pair):
    cert = boundary_lower_bound(shift_pair, 0.5)
    assert cert.verdict == "certified"
    assert 0 < cert.c <= cert.min_sample
    # infimum of |z1|^2 + |z2|^2 on the region is r^2 = 0.25
    assert 0.15 < cert.c < 0.25
    assert cert.cells_evaluated > 0
    assert cert.r == 0.5


def test_certificate_is_sound_under_sampling(shift_pair, monomial_pair):
    rng = np.random.default_rng(42)
    for st in (shift_pair, monomial_pair):
        cert = boundary_lower_bound(st, 0.5)
        assert cert.verdict == "certified"
        vals = sumsq_block(pack_tuple(st), region_samples(2, 0.5, 10_000, rng))
        assert float(np.min(vals)) >= cert.c


def test_repeated_symbol_fails_with_witness(repeated_pair):
    cert = boundary_lower_bound(repeated_pair, 0.5)
    assert cert.verdict == "failed"
    assert cert.witness_value < WITNESS_THRESHOLD
    w = np.array(cert.witness)
    assert np.max(np.abs(w)) <= 1.0 + 1e-9 and np.max(np.abs(w)) >= 0.5 - 1e-9


def lin(a, b, c):
    """a·z1 + b·z2 + c."""
    return p2({(1, 0): a, (0, 1): b, (0, 0): c})


WITNESS_CASES = {
    # the zero (-7/20, 11/20); a search without derivatives stalls at 5.1e-5
    "stalled product": (symbols(2, lin(1, 0, "7/20"),
                                p2({(0, 2): 1, (0, 1): "-9/10", (0, 0): "91/1200",
                                    (1, 0): "-1/3"})), 0.5),
    # (z1 - u) - 3/2 (z2 - v) and (z1 - u)(z2 + 2) + 1/2 (z2 - v): one common
    # zero in the closed bidisc, on the torus at u = (3+4i)/5, v = (5-12i)/13
    "torus pair": (symbols(
        2, lin(1, "-3/2", ("-3/5", "-4/5")) + p2({(0, 0): ("15/26", "-18/13")}),
        lin(1, 0, ("-3/5", "-4/5")) * lin(0, 1, 2)
        + lin(0, "1/2", ("-5/26", "6/13"))), 0.5),
    # J has rank 1 on the curve z1 = 3/5
    "shared factor": (symbols(2, lin(1, 0, "-3/5") * lin(0, 1, 2),
                              lin(1, 0, "-3/5") * lin(0, 1, -3)), 0.5),
    "p > n": (symbols(2, lin(1, 0, "-3/5"), lin(0, 1, "-4/5"),
                      lin(1, 0, "-3/5") * lin(0, 1, 1)), 0.75),
    "p < n": (symbols(2, lin(1, -1, 0)), 0.5),
}


@pytest.mark.parametrize("case", list(WITNESS_CASES))
def test_witness_lands_on_a_zero(case):
    # a common zero in the closure of the region: value at most 1e-24,
    # r <= max|w_v| and |w_v| <= 1; the same witness on a second call
    st, r = WITNESS_CASES[case]
    cert = boundary_lower_bound(st, r)
    assert cert.verdict == "failed"
    w = np.array(cert.witness)
    assert cert.witness_value <= 1e-24
    assert sumsq_block(pack_tuple(st), w[None, :])[0] <= 1e-24
    assert np.max(np.abs(w)) >= r and np.all(np.abs(w) <= 1.0)
    again = boundary_lower_bound(st, r)
    assert np.array_equal(np.array(again.witness), w)
    assert again.witness_value == cert.witness_value


def test_witness_search_ends_on_a_face(monkeypatch):
    # zero at 65/64·((3+4i)/5, (5+12i)/13), just outside the closed bidisc:
    # the search ends on the torus at the region's minimum 2·(1/64)², where a
    # projected step moves the point by an ulp without lowering the value
    u, v = (3 + 4j) / 5, (5 + 12j) / 13
    st = symbols(2, lin(1, 0, ("-39/64", "-13/16")), lin(0, 1, ("-325/832", "-195/208")))
    limit = 1 + certify.WITNESS_STEPS * (1 + certify.WITNESS_HALVINGS)
    calls = []

    def counted(pk, pts):
        calls.append(1)
        if len(calls) > limit:
            raise RuntimeError("witness search did not stop")
        return values_block(pk, pts)

    monkeypatch.setattr(certify, "values_block", counted)
    start = np.array([-0.8 - 0.6j, -1.0])        # on the |z1| = 1 face
    w, val = certify._witness_search(st, pack_tuple(st), start,
                                     certify._boundary_faces(2, 0.5))
    assert abs(val - 2 / 64 ** 2) <= 1e-15
    assert np.max(np.abs(w - [u, v])) <= 1e-9
    assert np.all(np.abs(w) <= 1.0)              # the projection clamps in floats


def test_import_leaves_scipy_optimize_out():
    # the witness search needs no optimizer; importing one costs set-up time
    code = "import sys, polytoep.report; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(polytoep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_quarter_pair_radius_sensitivity(quarter_pair):
    # zeros at (±1/2, 0) sit exactly on the r = 0.5 face, inside r = 0.75
    assert boundary_lower_bound(quarter_pair, 0.5).verdict == "failed"
    cert = boundary_lower_bound(quarter_pair, 0.75)
    assert cert.verdict == "certified" and cert.c > 0


def test_three_variable_certificate():
    st = symbols(3, exact_poly(3, {(1, 0, 0): 1}), exact_poly(3, {(0, 1, 0): 1}),
                 exact_poly(3, {(0, 0, 1): 1}))
    cert = boundary_lower_bound(st, 0.5)
    assert cert.verdict == "certified"
    assert 0.15 < cert.c < 0.25
    rng = np.random.default_rng(9)
    vals = sumsq_block(pack_tuple(st), region_samples(3, 0.5, 10_000, rng))
    assert float(np.min(vals)) >= cert.c


def monomials(*degrees):
    """(z1^d1, z2^d2, ...) in len(degrees) variables."""
    n = len(degrees)
    return symbols(n, *(exact_poly(n, {tuple(d if w == v else 0 for w in range(n)): 1})
                        for v, d in enumerate(degrees)))


@pytest.mark.parametrize("degrees, infimum", [
    ((1, 1), 0.5 ** 2), ((1, 1, 1), 0.5 ** 2), ((2, 3), 0.5 ** 6),
    ((4, 4), 0.5 ** 8), ((2, 2, 2), 0.5 ** 4)])
def test_monomial_tuples_certify_at_half(degrees, infimum):
    # inf of Σ|z_v|^(2 d_v) over max|z_v| ≥ r is r^(2 max d); the bound
    # through the exact monomial factor, |z^m| ≥ r_lo^m on a polar cell,
    # reaches it
    cert = boundary_lower_bound(monomials(*degrees), 0.5)
    assert cert.verdict == "certified"
    assert 0.99 * infimum <= cert.c <= infimum
    assert not cert.budget_hit and cert.split_depth > 0
    # about 1.25 times the 3,872, 4,840, 14,400 and 14,400 cells they take
    ceiling = {(2, 3): 4_900, (4, 4): 6_000, (1, 1, 1): 18_000, (2, 2, 2): 18_000}
    if degrees in ceiling:
        assert cert.cells_evaluated <= ceiling[degrees]


def edge_samples(nv, r, count, rng):
    """Region samples with one coordinate on the unit circle or, for every
    second sample, on the inner circle of radius r."""
    z = region_samples(nv, r, count, rng)
    v = rng.integers(0, nv, count)
    rows = np.arange(count)
    radius = np.where(rows % 2 == 0, 1.0, r)
    z[rows, v] = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    return z


def factored_tuples():
    """Tuples whose symbols carry a monomial factor z^m that is not the
    whole symbol; the third vanishes on the lines z1 = z3 = 0 and
    z2 = z3 = 0, so it never certifies."""
    p3 = lambda t: exact_poly(3, t)
    return {
        "two factors": symbols(2, p2({(3, 0): 1, (2, 0): "-1/3"}),
                               p2({(0, 2): 1, (0, 1): complex(0.4, 0.2)})),
        "mixed factor": symbols(2, p2({(1, 1): 1, (3, 0): "-1/4"}), p2({(0, 2): 1})),
        "zero lines": symbols(3, p3({(1, 1, 0): 1}), p3({(0, 1, 1): 1, (0, 2, 1): "1/3"}),
                              p3({(2, 0, 1): 1, (0, 0, 1): "1/5"})),
        "three variables": symbols(3, p3({(1, 1, 0): 1, (1, 1, 1): "-1/3"}),
                                   p3({(0, 1, 0): 1, (1, 0, 0): "1/4"}),
                                   p3({(0, 0, 2): 1, (1, 0, 0): "-1/5"})),
    }


@pytest.mark.parametrize("name", list(factored_tuples()))
@pytest.mark.parametrize("r", [0.5, 0.75, 0.9])
@pytest.mark.parametrize("target", [np.inf, 0.0, 0.01])
def test_monomial_factor_bound_is_sound(name, r, target):
    st = factored_tuples()[name]
    cert = boundary_lower_bound(st, r, target=target)
    # on "mixed factor" Σ|fᵢ|² falls to 2⁻⁸·|z1|⁸ at z2 = z1²/4, under the
    # witness threshold at r = 0.5 and 0.75: those attempts may fail
    assert cert.verdict == {"zero lines": "failed"}.get(name, "certified") \
        or (name == "mixed factor" and r < 0.9 and cert.verdict == "failed")
    rng = np.random.default_rng(17)
    pk = pack_tuple(st)
    pts = np.concatenate([region_samples(st.nvars, r, 10_000, rng),
                          edge_samples(st.nvars, r, 10_000, rng)])
    vals = sumsq_block(pk, pts)
    assert float(np.min(vals)) >= cert.c
    if cert.verdict == "certified":
        assert cert.c > 0


def test_budget_hit_is_reported(monomial_pair, monkeypatch):
    monkeypatch.setattr(certify, "CELL_BUDGET", 1_000)
    cert = boundary_lower_bound(monomial_pair, 0.5)
    assert cert.verdict == "inconclusive" and cert.budget_hit
    assert cert.cells_evaluated <= 1_000


def seeded_products():
    """The six seeded products of the certify-heavy benchmark workload at
    seed 1, rebuilt from their rational roots: p = Π(z1 − a), q = Π(z2 − b),
    and for the mixed three q + g·p, which keeps the ideal."""
    z1, z2 = p2({(1, 0): 1}), p2({(0, 1): 1})
    out = []
    for a_roots, b_roots, g in [
            (["-11/20"], ["-11/20"], None),
            (["11/20", "-1/4"], ["3/5"], None),
            (["11/20"], ["2/5", "-11/20"], None),
            (["1/4"], ["-3/5"], "2/3"),
            (["9/20", "-7/20"], ["7/20"], "2/3"),
            (["1/4"], ["1/2", "-2/5"], "-1/2")]:
        p = q = p2({(0, 0): 1})
        for a in a_roots:
            p = p * (z1 - p2({(0, 0): a}))
        for b in b_roots:
            q = q * (z2 - p2({(0, 0): b}))
        if g is not None:
            q = q + p2({(0, 0): g}) * p
        out.append(symbols(2, p, q))
    return out


def test_seeded_products_audit():
    rng = np.random.default_rng(1)
    audited = 0
    for k, st in enumerate(seeded_products()):
        pk = pack_tuple(st)
        for r in (0.5, 0.75, 0.9):
            cert = boundary_lower_bound(st, r)
            if cert.verdict != "certified":
                continue
            vals = sumsq_block(pk, region_samples(2, r, 10_000, rng))
            assert int(np.sum(vals < cert.c)) == 0, f"product {k} r={r}"
            audited += 1
    assert audited >= 6


@pytest.mark.parametrize("target", ["bare", "oracle"])
def test_targeted_certificates_stay_sound(target, shift_pair, shift_triple):
    # a finite target stops refining early, but c still bounds every sample
    rng = np.random.default_rng(3)
    for st in (shift_triple, shift_pair, seeded_products()[4]):
        goal = 0.0 if target == "bare" else _oracle_need(st)
        cert = boundary_lower_bound(st, 0.5, target=goal)
        assert cert.verdict == "certified"
        assert cert.cells_evaluated <= boundary_lower_bound(st, 0.5).cells_evaluated
        vals = sumsq_block(pack_tuple(st), region_samples(st.nvars, 0.5, 10_000, rng))
        assert float(np.min(vals)) >= cert.c > 0


def seed_7_product():
    """(z1 − 7/20, z1 − 27/100 − 3z2/5 + z2²), the product gen5 of the
    certify-heavy workload at seed 7: zeros (0.35, 0.2) and (0.35, 0.4)."""
    return symbols(2, p2({(1, 0): 1, (0, 0): "-7/20"}),
                   p2({(1, 0): 1, (0, 0): "-27/100", (0, 1): "-3/5", (0, 2): 1}))


def test_witness_ends_no_radius_the_oracle_need_certifies():
    # refined only to 4·p·ε², r = 0.5 certifies before the search meets a
    # witness of value 5.06·10⁻⁴ at (0.339, 0.4998), which is not a zero
    body = run_index(JobConfig(input=seed_7_product()))["body"]
    assert [c["r"] for c in body["certificates"]] == [0.5]
    assert body["verdict"] == {"kind": "agree", "index": -2,
                               "routes": ["algebraic", "koszul", "oracle"]}
    assert body["routes"]["koszul"]["rho"] == 0.75
    zeros = [[complex(float(c["re"]), float(c["im"])) for c in z["point"]]
             for z in body["routes"]["algebraic"]["zeros"]]
    assert np.allclose(sorted(zeros, key=lambda z: z[1].real),
                       [(0.35, 0.2), (0.35, 0.4)], atol=1e-12)


def test_cusp_pair_certifies_at_the_second_radius():
    # (z1·z2 − z1³/4, z2²), index −6 (only common zero the origin): its
    # minimum near z2 = z1²/4 is small but positive, so the witness at r =
    # 0.5 (6.6·10⁻⁵) still fails that radius, but r = 0.75 now certifies
    # before the search reaches the 5.0·10⁻⁴ witness that failed it too
    st = symbols(2, p2({(1, 1): 1, (3, 0): "-1/4"}), p2({(0, 2): 1}))
    body = run_index(JobConfig(input=st, r_schedule=(0.5, 0.75)))["body"]
    assert [(c["r"], c["verdict"]) for c in body["certificates"]] == [
        (0.5, "failed"), (0.75, "certified")]
    assert body["verdict"] == {"kind": "agree", "index": -6,
                               "routes": ["algebraic", "koszul", "oracle"]}


def test_certificate_work_counters_stay_outside_the_body(monkeypatch):
    # (z1 − 2)·(z1² − ¼, z2): the gcd factor's r = 0 certificate, then the
    # schedule, where r = 0.5 fails on a witness and r = 0.75 certifies
    batches, searches = [], []
    centers, search = certify._CellSet.centers, certify._witness_search
    monkeypatch.setattr(certify._CellSet, "centers",
                        lambda self: batches.append(self.count) or centers(self))
    monkeypatch.setattr(certify, "_witness_search",
                        lambda *a: searches.append(a) or search(*a))

    def counted(run):
        batches.clear()
        searches.clear()
        out = run()
        return out, {"cells": sum(batches), "rounds": len(batches),
                     "witness_searches": len(searches)}

    g = p2({(1, 0): 1, (0, 0): -2})
    st = symbols(2, g * p2({(2, 0): 1, (0, 0): "-1/4"}), g * p2({(0, 1): 1}))
    cfg = JobConfig(input=st)
    red, red_work = counted(lambda: gcd_reduce(st))
    (_, certs), work = counted(lambda: certify_schedule(red.reduced, cfg))
    assert [c.verdict for c in certs] == ["failed", "certified"]
    assert work["witness_searches"] >= 1 and red_work["rounds"] >= 1
    first, second = run_index(cfg), run_index(cfg)
    assert first["timings"]["work"]["reduction"] == {"attempts": 1, **red_work}
    assert first["timings"]["work"]["certificate"] == {"attempts": 2, **work}
    assert first["timings"]["work"] == second["timings"]["work"]
    body = first["body"]
    assert work["cells"] == sum(c["cells_evaluated"] for c in body["certificates"])
    # the counters reach neither the body nor the cache key
    assert body == second["body"] and first["cache"]["key"] == cache_key(cfg, st)
    assert "rounds" not in json.dumps(body) and "witness_searches" not in json.dumps(body)
    for cert in (red.certificate, *certs):
        more = replace(cert, rounds=cert.rounds + 1,
                       witness_searches=cert.witness_searches + 1)
        assert _cert_json(more) == _cert_json(cert)


CERT_KEYS = {"r", "c", "verdict", "min_sample", "min_point", "cells_evaluated",
             "budget_hit", "split_depth"}


def test_certificate_json_keys(shift_pair, repeated_pair):
    # the body's certificate fields; a failed one adds its witness
    assert set(_cert_json(boundary_lower_bound(shift_pair, 0.5))) == CERT_KEYS
    failed = _cert_json(boundary_lower_bound(repeated_pair, 0.5))
    assert set(failed) == CERT_KEYS | {"witness", "witness_value"}


@pytest.mark.parametrize("root, gap", [("2", 1), ("17/16", 1 / 16), ("65/64", 1 / 64)])
def test_unused_variable_is_never_refined(root, gap):
    # z2 is in no symbol: it is never cut, and the depth floor measures z1
    # alone; measured on all of z = (z1, z2), z1 is refined past the floor
    # until a center near z1 = 1 falls under the witness threshold
    st = symbols(2, exact_poly(2, {(1, 0): 1, (0, 0): "-" + root}))
    cert = boundary_lower_bound(st, 0.0)
    assert cert.verdict == "certified"
    assert 0 < cert.c <= gap ** 2


def test_certified_bound_monotone_in_r(shift_pair, monomial_pair):
    # shrinking the region (larger r) cannot lose certification, and the
    # bound loses no more than the slack min_sample − c of the larger region
    for st in (shift_pair, monomial_pair):
        lo = boundary_lower_bound(st, 0.5)
        hi = boundary_lower_bound(st, 0.75)
        assert lo.verdict == hi.verdict == "certified"
        assert hi.c >= 2 * lo.c - lo.min_sample


def test_r_validation(shift_pair):
    for bad in (1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            boundary_lower_bound(shift_pair, bad)
    # r = 0 is the closed bidisc, which holds the common zero (0, 0)
    assert boundary_lower_bound(shift_pair, 0.0).verdict == "failed"


def test_annulus_condition():
    # in one variable the region is the annulus r <= |z| <= 1
    z = p1({(1,): 1})
    half = p1({(0,): "1/2"})
    cert = boundary_lower_bound(symbols(1, z, z - half), 0.6)
    assert cert.verdict == "certified" and cert.r == 0.6
    # common boundary zero at z = 1
    bad = boundary_lower_bound(symbols(1, z - p1({(0,): 1}), p1({(2,): 1, (0,): -1})), 0.5)
    assert bad.verdict == "failed"
    assert abs(bad.witness[0] - 1.0) < 1e-6
    with pytest.raises(ValueError):
        boundary_lower_bound(symbols(1, z), 1.0)


def test_polydisc_bound():
    # at r = 0 the n faces coincide: the closed polydisc is covered once
    assert certify._boundary_faces(3, 0.0) == [[(0.0, 1.0)] * 3]
    far = exact_poly(2, {(1, 0): 1, (0, 0): -2})
    cert = boundary_lower_bound(symbols(2, far), 0.0)
    assert cert.verdict == "certified" and cert.c > 0.5 and cert.r == 0.0
    vanishing = boundary_lower_bound(symbols(2, exact_poly(2, {(1, 0): 1})), 0.0)
    assert vanishing.verdict == "failed"


# -- cell engine -------------------------------------------------------------------


def test_split_widest_round():
    # three variables, the middle one unused (weight 0); the cells have been
    # selected and split before, so their extents differ, and each cell
    # brings its own row of weights
    used = np.array([True, False, True])
    rng = np.random.default_rng(3)
    cells = certify._initial_cells([(0.5, 1.0), (0.0, 1.0), (0.0, 1.0)], 0.8, used)
    first_weight = rng.uniform(0.1, 3.0, (cells.count, 3)) * used
    cells = cells.split_widest(first_weight, cells.extents())
    cells = cells.select(np.arange(cells.count) % 3 != 0)
    nv, n = 3, cells.count
    lo, hi = cells.lo, cells.hi
    half_r = 0.5 * (hi[:, :nv] - lo[:, :nv])
    half_t = hi[:, :nv] * (0.5 * (hi[:, nv:] - lo[:, nv:]))
    ext = cells.extents()
    assert np.array_equal(ext, np.concatenate([half_r, half_t], axis=1))
    assert np.array_equal(certify._CellSet.deltas(ext), np.hypot(half_r, half_t))
    assert np.array_equal(cells.centers(),
                          0.5 * (lo[:, :nv] + hi[:, :nv]) * np.exp(0.5j * (lo[:, nv:] + hi[:, nv:])))
    weight = rng.uniform(0.1, 3.0, (n, nv)) * used
    out = cells.split_widest(weight, ext)
    assert out.count == 2 * n
    first, second = out.select(np.arange(2 * n) < n), out.select(np.arange(2 * n) >= n)
    widest = np.argmax(ext * np.tile(weight, 2), axis=1)
    # the per-cell rows pick more than one direction
    assert len(set((widest % nv).tolist())) > 1
    for c in range(n):
        cut = np.flatnonzero(first.hi[c] != hi[c])
        assert cut.tolist() == [widest[c]]
        assert cut[0] % nv != 1                     # the unused variable
        j = cut[0]
        mid = 0.5 * (lo[c, j] + hi[c, j])
        # the halves tile the parent and meet at the midpoint of the cut
        assert np.array_equal(first.lo[c], lo[c]) and np.array_equal(second.hi[c], hi[c])
        assert first.hi[c, j] == second.lo[c, j] == mid
        assert np.array_equal(np.delete(first.hi[c], j), np.delete(hi[c], j))
        assert np.array_equal(np.delete(second.lo[c], j), np.delete(lo[c], j))


def test_split_weights_floor_and_zero_row():
    # G for (z1^4, z3^2) in three variables: z2 is unused
    gmat = np.array([[4.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    weight = gmat.sum(axis=0)
    absv = np.array([[1.0, 0.5],        # both symbols lift the bound
                     [1e-6, 1.0],       # z1 is floored at 1/16 of z3's weight
                     [0.0, 0.0]])       # a common zero at the center
    w = certify._split_weights(absv, gmat, weight)
    assert w[0].tolist() == [4.0, 0.0, 1.0]
    assert w[1].tolist() == [2.0 / 16, 0.0, 2.0]
    assert w[2].tolist() == weight.tolist()
    # the zero row is cut along the global weights: this cell is widest in
    # the radius of z3 and is cut there, where a row of zeros would cut
    # parameter 0 (the radius of z1) whatever the extents
    cells = certify._CellSet(np.array([[0.5, 0.0, 0.0, 0.0, 0.0, 0.0]]),
                             np.array([[0.6, 0.0, 0.9, 0.01, 0.0, 0.01]]))
    out = cells.split_widest(w[2:], cells.extents())
    assert np.flatnonzero(out.hi[0] != cells.hi[0]).tolist() == [2]
    zero = cells.split_widest(np.zeros((1, 3)), cells.extents())
    assert np.flatnonzero(zero.hi[0] != cells.hi[0]).tolist() == [0]


# -- essential spectrum ------------------------------------------------------------


def test_shifted_tuple_validation(shift_pair):
    with pytest.raises(ValueError):
        shifted_tuple(shift_pair, (1.0,))
    sh = shifted_tuple(shift_pair, (0.5, 0.0))
    assert sh.symbols[0].eval((0.5, 0.0)) == pytest.approx(0.0)


def test_membership_fixtures(shift_pair):
    out = essential_spectrum_membership(shift_pair, (0, 0))
    assert out.verdict == "outside" and out.distance_estimate > 0.1
    inm = essential_spectrum_membership(shift_pair, (1, 0))
    assert inm.verdict == "inside" and inm.distance_estimate < 1e-3
    far = symbols(2, p2({(1, 0): 1, (0, 0): -2}), p2({(0, 1): 1}))
    assert essential_spectrum_membership(far, (0, 0)).verdict == "outside"


def grid_membership(st, lam):
    """Reference for ``essential_spectrum_membership``: the same certificates
    decide outside, but the distance at each radius comes from a polar grid
    over the region (``certify._region_grid`` at resolution 24) and a witness
    search from its best point.  Returns (verdict, distance estimate)."""
    shifted = shifted_tuple(st, lam)
    for r in DEFAULT_R_SCHEDULE:
        cert = boundary_lower_bound(shifted, r)
        if cert.verdict == "certified":
            return "outside", float(np.sqrt(cert.c))
    pk = pack_tuple(shifted)
    worst = 0.0
    for r in DEFAULT_R_SCHEDULE:
        pts = certify._region_grid(st.nvars, r, 24)
        vals = sumsq_block(pk, pts)
        i = int(np.argmin(vals))
        _, val = certify._witness_search(shifted, pk, pts[i],
                                         certify._boundary_faces(st.nvars, r))
        worst = max(worst, float(np.sqrt(min(float(vals[i]), val))))
    return ("inside" if worst < DISTANCE_TOLERANCE else "inconclusive"), worst


@pytest.mark.parametrize("pair", ["shift_pair", "quarter_pair"])
def test_membership_matches_the_grid_reference(pair, request):
    st = request.getfixturevalue(pair)
    rng = np.random.default_rng(19)
    verdicts = set()
    for k in range(20):
        # λ = F(z): z on a face |z_v| = 1 (in the essential spectrum) for
        # even k, anywhere with moduli up to 1.15 for odd k
        z = rng.uniform(0.0, 1.15, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        if k % 2 == 0:
            z[k // 2 % 2] /= abs(z[k // 2 % 2])
        lam = [complex(s.eval(tuple(z))) for s in st.symbols]
        got = essential_spectrum_membership(st, lam)
        verdict, dist = grid_membership(st, lam)
        assert got.verdict == verdict, (lam, got, dist)
        if verdict == "outside":
            assert got.distance_estimate == dist
        verdicts.add(verdict)
    assert {"inside", "outside"} <= verdicts


def test_membership_in_three_variables(shift_triple):
    # the certificates need no grid, so three variables run at the defaults
    inm = essential_spectrum_membership(shift_triple, (1, 0, 0))
    assert inm.verdict == "inside" and inm.distance_estimate < DISTANCE_TOLERANCE
    out = essential_spectrum_membership(shift_triple, (0, 0, 0))
    assert out.verdict == "outside" and out.distance_estimate > 0.1


def test_cloud_shape_and_guards(shift_pair):
    cloud = essential_spectrum_cloud(shift_pair, 0.9, 8)
    assert cloud.ndim == 2 and cloud.shape[1] == 2
    assert np.max(np.abs(cloud)) <= 1.0 + 1e-9
    with pytest.raises(ValueError):
        essential_spectrum_cloud(shift_pair, 0.9, 1)
    with pytest.raises(ValueError):
        essential_spectrum_cloud(shift_pair, 0.9, 65)
    with pytest.raises(ValueError):
        essential_spectrum_cloud(shift_pair, 0.0, 8)


def test_region_grid_refuses_grids_over_budget(monkeypatch, capsys, tmp_path, shift_pair,
                                              shift_triple):
    assert [certify.max_grid_resolution(n) for n in (1, 2, 3)] == [1414, 38, 11]
    # two variables at the default resolution 24: 553² points, within budget
    assert essential_spectrum_cloud(shift_pair, 0.9, 24).shape[1] == 2

    class Allocated(Exception):
        pass

    def meshgrid(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "meshgrid", meshgrid)
    # (11·10 + 1)³ points fit, (12·11 + 1)³ do not
    with pytest.raises(Allocated):
        certify._region_grid(3, 0.9, 11)
    with pytest.raises(ValueError, match="largest resolution allowed is 11"):
        essential_spectrum_cloud(shift_triple, 0.9, 12)
    with pytest.raises(ValueError, match="largest resolution allowed is 11"):
        essential_spectrum_cloud(shift_triple, 0.9, 24)
    path = tmp_path / "shifts3.json"
    path.write_text(json.dumps(tuple_to_json(shift_triple)))
    assert main(["spectrum", "--input", str(path), "--resolution", "24"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "largest resolution allowed is 11" in err
