"""Perturbation counting oracle."""
import itertools

import numpy as np
import pytest

from polytoep import oracle
from polytoep.oracle import NoMajorityError, perturbed_count_details
from polytoep.kernels import pack_partials
from polytoep.poly import coefficient_bounds, resultant, symbols
from polytoep.certify import boundary_lower_bound
from polytoep.report import JobConfig, _oracle_epsilon, certify_schedule

from conftest import p2
from test_certify import monomials, seeded_products


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
    # a bound far below what twelve halvings of 10⁻³ reach
    c = 1e-9
    eps = _oracle_epsilon(shift_pair, c)
    sups = sum(coefficient_bounds(s)[0] for s in shift_pair.symbols)
    assert 0 < eps and 4 * (2 * sups * eps + 2 * eps * eps) <= c
    assert _oracle_epsilon(shift_pair, 1.0) == oracle.EPSILON == 1e-3


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
