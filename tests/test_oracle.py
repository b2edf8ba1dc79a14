"""Perturbation counting oracle."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from polytoep import oracle
from polytoep.exact import ExactComplex
from polytoep.oracle import NoMajorityError, perturbed_count_details
from polytoep.kernels import pack_partials, pack_tuple, sumsq_block, values_block
from polytoep.poly import MultiPoly, exact_poly, gcd, resultant, symbols
from polytoep.certify import boundary_lower_bound
from polytoep.report import JobConfig, _oracle_epsilon, certify_schedule, run_index

from conftest import p1, p2
from test_certify import monomials, region_samples, seed_7_product, seeded_products
from test_zeros import GAP_PAIRS


def test_perturbed_count_fixtures(shift_pair, monomial_pair, quarter_pair):
    # each at the radius where its certificate holds
    assert perturbed_count_details(shift_pair, 0.5)["count"] == 1
    assert perturbed_count_details(monomial_pair, 0.5)["count"] == 6
    assert perturbed_count_details(quarter_pair, 0.75)["count"] == 2
    cross = symbols(2, p2({(1, 0): 1, (0, 1): -1}), p2({(1, 1): 1}))
    assert perturbed_count_details(cross, 0.5)["count"] == 2
    far = symbols(2, p2({(1, 0): 1, (0, 0): -2}), p2({(0, 1): 1}))
    assert perturbed_count_details(far, 0.5)["count"] == 0
    # both symbols constant in z2: z1 is eliminated, and the perturbed
    # pair's resultant is a nonzero constant, so there is nothing to count
    z1 = p2({(1, 0): 1})
    for p, q in ((z1, p2({(1, 0): 1, (0, 0): "-1/2"})),
                 (p2({(2, 0): 1, (0, 0): "-1/2"}), z1)):
        assert perturbed_count_details(symbols(2, p, q), 0.5)["count"] == 0


def test_details_are_deterministic(monomial_pair):
    a = perturbed_count_details(monomial_pair, 0.5, seed=11)
    b = perturbed_count_details(monomial_pair, 0.5, seed=11)
    assert a == b
    assert a["count"] == 6
    assert len(a["trial_counts"]) >= oracle.TRIALS
    assert a["epsilon"] == oracle.EPSILON


def test_seed_changes_trials_not_count(quarter_pair):
    counts = {perturbed_count_details(quarter_pair, 0.75, seed=s)["count"] for s in range(4)}
    assert counts == {2}


def test_epsilon_halving_stability(shift_pair, quarter_pair):
    for st, r in ((shift_pair, 0.5), (quarter_pair, 0.75)):
        base = perturbed_count_details(st, r, 1e-3)["count"]
        assert perturbed_count_details(st, r, 5e-4)["count"] == base
        assert perturbed_count_details(st, r, 2.5e-4)["count"] == base


def test_oracle_epsilon_meets_its_bound(shift_pair):
    # ε is halved from 10⁻³ until 4·p·ε² ≤ c, and no further
    c = 1e-9
    eps = _oracle_epsilon(shift_pair, c)
    assert 0 < eps and 4 * 2 * eps * eps <= c < 4 * 2 * (2 * eps) ** 2
    assert _oracle_epsilon(shift_pair, 1.0) == oracle.EPSILON == 1e-3
    assert _oracle_epsilon(shift_pair, 8e-6) == oracle.EPSILON


def test_targeted_certificate_keeps_the_oracle_epsilon(
        shift_pair, monomial_pair, quarter_pair, non_dyadic_pair):
    # the report refines c only to _oracle_need, which keeps ε where the
    # fully refined c of the default target keeps it
    for st in (shift_pair, monomial_pair, quarter_pair, non_dyadic_pair,
               *seeded_products()):
        chosen, _ = certify_schedule(st, JobConfig(input=st))
        full = boundary_lower_bound(st, chosen.r)
        assert full.verdict == "certified"
        assert _oracle_epsilon(st, chosen.c) == _oracle_epsilon(st, full.c)


def row_b():
    """(3z₂/5, −9/50 − 6i/25 + 3z₂²/5 − (33/100 + 11i/25)z₁²): two simple
    zeros (±0.7385i, 0), index −2.  Its certificate holds at r = 0.75 with
    c near 10⁻⁵."""
    return symbols(2, p2({(0, 1): "3/5"}),
                   p2({(0, 0): ("-9/50", "-6/25"), (0, 2): "3/5",
                       (2, 0): ("-33/100", "-11/25")}))


def test_perturbed_zeros_stay_out_of_the_gap(
        monkeypatch, shift_pair, monomial_pair, quarter_pair, non_dyadic_pair,
        ill_conditioned_pair):
    # what 4·p·ε² ≤ c is for: at the report's ε, no lifted zero of a usable
    # trial lies in the gap r ≤ max|z_v| ≤ 1, and Σ|fᵢ + δᵢ|² ≥ c/4 there
    trials = []
    solve = oracle._solve_pair

    def spy(p, q, partials):
        pts = solve(p, q, partials)
        trials.append((symbols(2, p, q), pts))
        return pts

    monkeypatch.setattr(oracle, "_solve_pair", spy)
    rng = np.random.default_rng(7)
    # seed_7_product's c (2.3·10⁻¹⁰) halves ε to 3.9·10⁻⁶
    pairs = [st for st, _ in GAP_PAIRS.values()] + seeded_products() + [
        seed_7_product(), shift_pair, monomial_pair, quarter_pair,
        non_dyadic_pair, ill_conditioned_pair, row_b()]
    usable = 0
    for st in pairs:
        cert, _ = certify_schedule(st, JobConfig(input=st))
        eps = _oracle_epsilon(st, cert.c)
        trials.clear()
        perturbed_count_details(st, cert.r, eps)
        samples = region_samples(2, cert.r, 2000, rng)
        base = values_block(pack_tuple(st), samples)
        for perturbed, pts in trials:
            shift = values_block(pack_tuple(perturbed), samples) - base
            assert np.max(np.abs(shift)) <= eps * (1 + 1e-9)      # |δᵢ| ≤ ε
            assert float(np.min(sumsq_block(pack_tuple(perturbed), samples))) >= cert.c / 4
            if pts is None:
                continue
            usable += 1
            radius = np.max(np.abs(pts), axis=1)
            assert np.all((radius < cert.r) | (radius > 1)), (st, radius)
    assert usable >= oracle.TRIALS * len(pairs)


def test_row_b_counts_each_zero_once():
    # at ε = 10⁻³ the lift no longer accepts a mirror partner (±b with
    # b ≈ 10⁻⁷ at ε = 4.9·10⁻⁷, which counted 4): every trial counts 2
    body = run_index(JobConfig(input=row_b()))["body"]
    assert body["verdict"] == {"kind": "agree", "index": -2,
                               "routes": ["algebraic", "koszul", "oracle"]}
    assert body["certificate"]["r"] == 0.75
    got = body["routes"]["oracle"]
    assert got["epsilon"] == oracle.EPSILON
    assert got["trial_counts"] == [2] * oracle.TRIALS and got["attempts"] == oracle.TRIALS


def test_even_split_has_no_majority(monkeypatch, shift_pair):
    # trials cycle through no zero, one and two zeros at the origin: two
    # counts of 0, two of 1 and one of 2 out of five trials are no majority
    found = itertools.cycle([np.zeros((k, 2), dtype=complex) for k in range(3)])
    monkeypatch.setattr(oracle, "_solve_pair", lambda p, q, partials: next(found))
    with pytest.raises(NoMajorityError, match=r"\[0, 1, 2, 0, 1\]"):
        perturbed_count_details(shift_pair, 0.5)


def resultant_base_roots(p, q):
    """The general path: distinct roots of the resultant, never the symbol."""
    elim = 1 if p.degree_in(1) > 0 or q.degree_in(1) > 0 else 0
    res = resultant(p, q, eliminate=elim)
    return (None if res.is_zero() else oracle._squarefree_roots(res)), 1 - elim


def solve_trials(st):
    """``_solve_pair`` on the perturbations of the first TRIALS attempts."""
    partials = pack_partials(st)
    out = []
    for attempt in range(oracle.TRIALS):
        rng = np.random.default_rng(np.random.SeedSequence((0, attempt)))
        out.append(oracle._solve_pair(*oracle._perturbed(st, rng, oracle.EPSILON).symbols,
                                      partials))
    return out


def test_direct_solve_matches_the_resultant_path(monkeypatch, monomial_pair, quarter_pair):
    # a symbol constant in the eliminated variable gives the base roots
    # itself: the same perturbed zeros and counts as the resultant's (the
    # counts at one radius for all, since only the two paths are compared)
    cross = symbols(2, p2({(1, 0): 1, (0, 1): -1}), p2({(1, 1): 1}))
    pairs = [monomial_pair, monomials(4, 4), quarter_pair, cross, *seeded_products()]
    direct = [(solve_trials(st), perturbed_count_details(st, 0.5)) for st in pairs]
    monkeypatch.setattr(oracle, "_base_roots", resultant_base_roots)
    for st, (solves, details) in zip(pairs, direct):
        for got, want in zip(solves, solve_trials(st)):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.shape == want.shape
                # each zero of one set within 10⁻⁹ of a zero of the other
                dist = np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=2)
                assert np.all(np.min(dist, axis=1) < 1e-9)
                assert np.all(np.min(dist, axis=0) < 1e-9)
        assert perturbed_count_details(st, 0.5) == details


gaussian_rationals = hst.builds(
    ExactComplex,
    *[hst.builds(Fraction, hst.integers(-6, 6), hst.integers(1, 5))] * 2)


@hst.composite
def gaussian_products(draw):
    """Products of one to three Gaussian-rational factors of degree one or
    two, each drawn squared or not."""
    p = exact_poly(1, {(0,): 1})
    for _ in range(draw(hst.integers(1, 3))):
        coeffs = draw(hst.lists(gaussian_rationals, min_size=2, max_size=3))
        factor = MultiPoly(1, {(k,): c for k, c in enumerate(coeffs) if c})
        if factor.degree() > 0:
            p = p * factor * (factor if draw(hst.booleans()) else exact_poly(1, {(0,): 1}))
    return p


@settings(max_examples=300, deadline=None)
@given(gaussian_products())
def test_squarefree_mod_p_never_passes_a_repeated_root(p):
    if p.degree() > 0 and oracle._squarefree_mod_p(p):
        assert gcd(p, p.diff(0)).degree() == 0


def test_squarefree_roots_fall_back_to_the_exact_gcd(monkeypatch):
    # P is a prime ≡ 1 (mod 4), and _I a square root of −1 modulo it
    assert all(oracle._P % d for d in range(2, math.isqrt(oracle._P) + 1))
    assert oracle._P % 4 == 1 and pow(oracle._I, 2, oracle._P) == oracle._P - 1
    calls = []
    exact_gcd = oracle.gcd
    monkeypatch.setattr(oracle, "gcd",
                        lambda p, q: calls.append(p) or exact_gcd(p, q))

    def lin(root):
        return p1({(1,): 1, (0,): -root})

    i = ExactComplex(0, 1)
    cases = [
        # squarefree, denominators prime to P: decided modulo P
        (lin(Fraction(1, 2)) * lin(Fraction(-1, 3)) * lin(i), [0.5, -1 / 3, 1j], False),
        # a repeated root: the exact gcd, then the squarefree part's roots
        (lin(Fraction(1, 2)) * lin(Fraction(1, 2)) * lin(i), [0.5, 1j], True),
        # squarefree, but P divides a denominator: the exact gcd
        (lin(Fraction(1, oracle._P)) * lin(2), [1 / oracle._P, 2.0], True),
        # (Pz − 1)²(z − 2): P divides the leading coefficient, and modulo P
        # the repeated root 1/P goes to infinity, leaving z − 2; the
        # degree check alone sends it to the exact gcd
        (p1({(1,): oracle._P, (0,): -1}) * p1({(1,): oracle._P, (0,): -1}) * lin(2),
         [1 / oracle._P, 2.0], True),
    ]
    for p, roots, fallback in cases:
        calls.clear()
        got = oracle._squarefree_roots(p)
        assert bool(calls) == fallback
        assert sorted(got, key=lambda z: (z.real, z.imag)) == pytest.approx(
            sorted(roots, key=lambda z: (complex(z).real, complex(z).imag)), abs=1e-12)


def test_duplicate_points_match_the_pairwise_rule():
    # the broadcast rule against the loop it replaced: exact and near
    # duplicates, points just apart, and NaN coordinates, which never match
    rng = np.random.default_rng(3)
    for _ in range(300):
        k = int(rng.integers(1, 8))
        pts = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(0, k, size=2)
            pts[i] = pts[j] + rng.choice([0.0, 1e-10, 2e-9]) * rng.standard_normal(2)
        if rng.random() < 0.3:
            pts[rng.integers(0, k), rng.integers(0, 2)] = np.nan
        want = any(np.max(np.abs(pts[i] - pts[j])) < oracle._DUPLICATE_TOL
                   for i in range(k) for j in range(i + 1, k))
        assert oracle._has_duplicate(pts) == want
