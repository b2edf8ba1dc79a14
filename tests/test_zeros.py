"""Algebraic route: quotient bases, clustered zeros, gcd reduction."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from polytoep import zeros
from polytoep.exact import EXACT_ONE, EXACT_ZERO, ExactComplex
from polytoep.koszul import MonomialWindow
from polytoep.poly import exact_poly, gcd, symbols
from polytoep.report import JobConfig, run_index
from polytoep.zeros import (
    common_zeros,
    gcd_reduce,
    quotient_basis,
)

from conftest import p2

ROT = ExactComplex(Fraction(3, 5), Fraction(4, 5))      # a unit with i in it


def reference_quotient_basis(st):
    """Reference for ``quotient_basis``: a fresh elimination over exact
    complex rationals for every window, with columns keyed by position in
    that window, and a dense commuting check.  It stops by a heuristic (the
    normal set repeats across two windows; K rises while it reaches degree
    K), so it can give up where the border-basis criterion answers."""
    p, q = st.symbols
    K = max(2, p.degree() * q.degree())
    M = K + 2
    prev_ns = None
    for _ in range(zeros._MAX_ROUNDS):
        win = MonomialWindow(2, tuple(M + d for d in st.degree_vec()))
        if win.dim > zeros._WINDOW_COL_BUDGET:
            raise ValueError("window over budget")
        order = [tuple(e) for e in win.exps[::-1].tolist()]     # descending graded-lex
        col_of = {e: i for i, e in enumerate(order)}
        rows = [{col_of[(g[0] + e[0], g[1] + e[1])]: c for e, c in f.terms.items()}
                for f in st.symbols for g in MonomialWindow(2, M).exps.tolist()]
        pivots = _reference_echelon(rows)
        ns = [e for i, e in enumerate(order) if i not in pivots and sum(e) <= K]
        if any(sum(e) == K for e in ns):
            K += 2
            M = K + 2
            prev_ns = None
            continue
        ns.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
        mats = _reference_mult_matrices(ns, pivots, order, col_of)
        if mats is not None and ns == prev_ns:
            m1, m2 = mats
            if _dense_mul(m1, m2) == _dense_mul(m2, m1):
                return ns, m1, m2
        prev_ns = ns
        M += 2
    raise RuntimeError("did not stabilize")


def reference_unit_in_ideal(st):
    """Whether 1 is a combination of the shift rows z^γ·fᵢ of some cofactor
    window [0, M]² within the column budget, by the reference elimination."""
    return reference_in_ideal(st, {(0, 0): EXACT_ONE})


def _reference_echelon(rows):
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            tail = pivots.get(lead)
            c = row.pop(lead)
            if tail is None:
                pivots[lead] = {k: v / c for k, v in row.items()}
                break
            for k, v in tail.items():
                nv = row.get(k, EXACT_ZERO) - c * v
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
    for lead in sorted(pivots, reverse=True):
        tail = pivots[lead]
        for k in [k for k in tail if k in pivots]:
            c = tail.pop(k)
            for k2, v2 in pivots[k].items():
                nv = tail.get(k2, EXACT_ZERO) - c * v2
                if nv:
                    tail[k2] = nv
                elif k2 in tail:
                    del tail[k2]
    return pivots


def _reference_mult_matrices(ns, pivots, order, col_of):
    index = {e: i for i, e in enumerate(ns)}
    out = []
    for var in (0, 1):
        mat = [[EXACT_ZERO] * len(ns) for _ in ns]
        for j, b in enumerate(ns):
            e = (b[0] + 1, b[1]) if var == 0 else (b[0], b[1] + 1)
            if e in index:
                mat[index[e]][j] = EXACT_ONE
                continue
            tail = pivots.get(col_of[e])
            if tail is None:
                return None
            for k, c in tail.items():
                if order[k] not in index:
                    return None
                mat[index[order[k]]][j] = -c
        out.append(mat)
    return out


def _dense_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), EXACT_ZERO)
             for j in range(n)] for i in range(n)]


def reference_in_ideal(st, f):
    """Whether ``f`` (exponent -> coefficient) is a combination of the shift
    rows z^γ·fᵢ of some cofactor window [0, M]² within the column budget, by
    the reference elimination: f reduces to zero by its pivots."""
    for M in range(2, 64):
        win = MonomialWindow(2, tuple(M + d for d in st.degree_vec()))
        if win.dim > zeros._WINDOW_COL_BUDGET:
            return False
        order = [tuple(e) for e in win.exps[::-1].tolist()]
        col_of = {e: i for i, e in enumerate(order)}
        if any(e not in col_of for e in f):
            continue
        rows = [{col_of[(g[0] + e[0], g[1] + e[1])]: c for e, c in h.terms.items()}
                for h in st.symbols for g in MonomialWindow(2, M).exps.tolist()]
        pivots = _reference_echelon(rows)
        rest = {col_of[e]: c for e, c in f.items() if c}
        while rest and min(rest) in pivots:
            lead = min(rest)
            c = rest.pop(lead)
            for k, v in pivots[lead].items():
                nv = rest.get(k, EXACT_ZERO) - c * v
                if nv:
                    rest[k] = nv
                else:
                    rest.pop(k, None)
        if not rest:
            return True
    return False


def dense_criterion_holds(st, ns, m1, m2):
    """The border-basis criterion of ``quotient_basis``, checked on dense
    matrices by the reference elimination: 1 leads ``ns``, which is connected
    to it; M₁M₂ = M₂M₁; p(M)·e₁ = q(M)·e₁ = 0; and each column of M_v is the
    reduction of z_v·b modulo the ideal."""
    n = len(ns)
    if not ns or ns[0] != (0, 0) or any(
            (b[0] - 1, b[1]) not in ns and (b[0], b[1] - 1) not in ns for b in ns[1:]):
        return False
    if _dense_mul(m1, m2) != _dense_mul(m2, m1):
        return False
    for f in st.symbols:
        value = [EXACT_ZERO] * n
        for e, c in f.terms.items():
            v = [EXACT_ONE] + [EXACT_ZERO] * (n - 1)
            for mat, k in ((m1, e[0]), (m2, e[1])):
                for _ in range(k):
                    v = [sum((mat[i][j] * v[j] for j in range(n)), EXACT_ZERO)
                         for i in range(n)]
            value = [a + c * b for a, b in zip(value, v)]
        if any(value):
            return False
    for var, mat in enumerate((m1, m2)):
        for j, b in enumerate(ns):
            border = (b[0] + 1, b[1]) if var == 0 else (b[0], b[1] + 1)
            residue = {border: EXACT_ONE}
            for i, e in enumerate(ns):
                if mat[i][j]:
                    residue[e] = residue.get(e, EXACT_ZERO) - mat[i][j]
            if any(residue.values()) and not reference_in_ideal(st, residue):
                return False
    return True


def rotated(st):
    return symbols(2, *(f.scale(ROT) for f in st.symbols))


def mixed_pair():
    # non-dyadic coefficients and a mixed second symbol
    return symbols(2, p2({(2, 0): 1, (1, 0): "-11/20", (0, 0): "3/40"}),
                   p2({(0, 1): 1, (1, 0): "11/60", (2, 0): "-1/3", (0, 0): "3/8"}))


def unit_pair():
    # 1 lies in the ideal of this pair, so it has no common zero at all
    return symbols(2, p2({(2, 0): "-3/4"}),
                   p2({(0, 0): "1/2", (1, 2): "3/4", (2, 0): "-7/4"}))


def two_round_pairs():
    """Coprime pairs whose staircase heuristic gave up but whose normal set
    passes the border-basis criterion in the second round, with their two
    common zeros."""
    root = np.sqrt(129 / 8)
    return [
        (symbols(2, p2({(0, 2): "1/2", (0, 3): -2}),
                 p2({(0, 0): -7, (0, 2): "9/2", (2, 1): "5/3"})),
         [(-root, 0.25), (root, 0.25)]),
        (symbols(2, p2({(0, 2): -1, (0, 3): "-1/2"}), p2({(0, 0): "-1/2", (2, 1): "-9/4"})),
         [(-1 / 3, -2.0), (1 / 3, -2.0)]),
    ]


TWO_ROUND_IDS = ["sqrt_129_8", "one_third"]


def reference_pairs(quarter_pair):
    return [quarter_pair,
            symbols(2, p2({(1, 0): 1, (0, 1): -1}), p2({(1, 1): 1})),
            symbols(2, p2({(2, 0): 1}), p2({(0, 3): 1})),
            symbols(2, p2({(4, 0): 1}), p2({(0, 4): 1})),
            mixed_pair()]


@pytest.fixture
def echelon_calls(monkeypatch):
    """Rows handed to each call of the elimination helper."""
    calls = []
    echelon = zeros.echelon

    def spy(rows, pivots):
        rows = list(rows)
        calls.append(rows)
        return echelon(rows, pivots)

    monkeypatch.setattr(zeros, "echelon", spy)
    return calls


def test_common_zeros_needs_a_coprime_pair(repeated_pair, shared_line_pair, z1):
    # a common factor makes the quotient infinite-dimensional: no normal set
    # passes the border-basis criterion, and a budget error says why
    zero = exact_poly(2, {})
    # (none certifies; the quotient basis raises before r is read)
    for st in (repeated_pair, shared_line_pair, symbols(2, z1, zero)):
        with pytest.raises((RuntimeError, ValueError), match="common factor"):
            common_zeros(st, 0.5)
    # no common zeros at all: 1 lies in the ideal
    one = p2({(0, 0): 1})
    zs = common_zeros(symbols(2, z1, z1 + one), 0.5)
    assert zs.zeros == () and zs.total_inside == 0 and zs.quotient_dim == 0


def test_quotient_basis_shape_and_commutation(quarter_pair):
    basis, m1, m2 = quotient_basis(quarter_pair)
    assert len(basis) == 2                      # C[z]/(z1^2 - 1/4, z2)
    n = len(basis)
    # exact commutation of the two multiplication actions
    prod12 = [[sum((m1[i][k] * m2[k][j] for k in range(n)),
                   start=EXACT_ONE * 0) for j in range(n)] for i in range(n)]
    prod21 = [[sum((m2[i][k] * m1[k][j] for k in range(n)),
                   start=EXACT_ONE * 0) for j in range(n)] for i in range(n)]
    assert prod12 == prod21


def test_quotient_basis_matches_reference(quarter_pair):
    for st in reference_pairs(quarter_pair):
        for pair in (st, rotated(st)):
            assert quotient_basis(pair) == reference_quotient_basis(pair)
    # no common zero, but the unit's cofactors outgrow every window, so K
    # rises each round: the reference gives up, while the unit pivot ends
    # quotient_basis with dimension 0
    with pytest.raises(RuntimeError):
        reference_quotient_basis(unit_pair())
    assert reference_unit_in_ideal(unit_pair())
    assert quotient_basis(unit_pair()) == ([], [], [])


def test_unit_in_the_ideal_agrees_on_index_zero():
    body = run_index(JobConfig(input=unit_pair()))["body"]
    assert body["verdict"] == {"kind": "agree", "index": 0,
                               "routes": ["algebraic", "koszul", "oracle"]}
    assert body["routes"]["algebraic"]["quotient_dim"] == 0


@pytest.mark.parametrize("st, points", two_round_pairs(), ids=TWO_ROUND_IDS)
def test_criterion_answers_where_the_staircase_heuristic_gave_up(st, points, echelon_calls):
    with pytest.raises(RuntimeError):
        reference_quotient_basis(st)
    basis, m1, m2 = quotient_basis(st)
    assert len(basis) == 2 and len(echelon_calls) == 2
    assert dense_criterion_holds(st, basis, m1, m2)
    zs = common_zeros(st, 0.5)
    assert zs.quotient_dim == 2 and zs.total_inside == 0
    got = sorted((z.point[0].real, z.point[1].real) for z in zs.zeros)
    assert np.allclose(got, points, atol=1e-8)
    assert all(z.multiplicity == 1 and z.location == "outside" for z in zs.zeros)


def test_commuting_matrices_of_another_ideal_fail_the_generator_test():
    # on the basis (1, z1), border rows z1² − c, z2 and z1·z2 give commuting
    # actions for every c, but z1² − 1/4 sends e₁ to (c − 1/4)·e₁: only
    # c = 1/4, the pair's own ideal, passes
    p, q = {(2, 0): 1, (0, 0): Fraction(-1, 4)}, {(0, 1): 1}
    key = zeros._key

    def pivots(c):
        return {key((2, 0)): {key((0, 0)): -c}, key((0, 1)): {}, key((1, 1)): {}}

    ns = [(0, 0), (1, 0)]
    other = zeros._mult_matrices(ns, pivots(Fraction(1)))
    assert zeros._commute(*other)
    assert zeros._at_one(other, p) == {0: Fraction(3, 4)} and zeros._at_one(other, q) == {}
    assert zeros._border_basis(ns, pivots(Fraction(1)), [p, q]) is None
    assert zeros._border_basis(ns, pivots(Fraction(1, 4)), [p, q]) == (
        [[{1: 1}, {0: Fraction(1, 4)}], [{}, {}]])
    # z1² without z1 is not connected to 1, whatever the echelon holds
    assert zeros._border_basis([(0, 0), (2, 0)], {}, [p, q]) is None


def test_round_budget_is_named(monkeypatch):
    monkeypatch.setattr(zeros, "_MAX_ROUNDS", 1)
    with pytest.raises(RuntimeError, match="budget of 1 rounds"):
        quotient_basis(two_round_pairs()[0][0])


def test_real_pairs_eliminate_over_fractions(quarter_pair, echelon_calls):
    quotient_basis(quarter_pair)
    values = [v for rows in echelon_calls for row in rows for v in row.values()]
    assert values and all(type(v) is Fraction for v in values)
    echelon_calls.clear()
    quotient_basis(rotated(quarter_pair))
    values = [v for rows in echelon_calls for row in rows for v in row.values()]
    assert values and all(type(v) is ExactComplex for v in values)


@pytest.mark.parametrize("st", [st for st, _ in two_round_pairs()], ids=TWO_ROUND_IDS)
def test_one_echelon_grows_across_rounds(st, echelon_calls):
    # each shift row is eliminated once: the rows of both rounds together
    # are the rows of the final cofactor window [0, M]², M = K + 4 with
    # K = 3·3, once per symbol
    quotient_basis(st)
    assert len(echelon_calls) == 2
    assert sum(len(rows) for rows in echelon_calls) == 2 * (13 + 1) ** 2


def test_sparse_commuting_check():
    # sparse columns (row -> entry) of E₂₁ and E₁₁, which do not commute
    e21 = [{1: Fraction(1)}, {}]
    e11 = [{0: Fraction(1)}, {}]
    assert not zeros._commute(e21, e11)
    assert zeros._commute(e21, e21) and zeros._commute(e11, [{0: 3}, {1: 3}])


# a coefficient k/20, times (3+4i)/5 one time in four
coefficient = hst.tuples(hst.integers(min_value=-20, max_value=20),
                         hst.integers(min_value=0, max_value=3)).map(
    lambda kr: ExactComplex(Fraction(kr[0], 20)) * (ROT if kr[1] == 0 else EXACT_ONE))
degree2 = hst.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
exact_pairs = hst.builds(
    lambda f, g: symbols(2, exact_poly(2, f), exact_poly(2, g)),
    *[hst.dictionaries(degree2, coefficient, min_size=1, max_size=4)] * 2)


@settings(max_examples=30, deadline=None)
@given(exact_pairs)
def test_quotient_basis_matches_reference_on_random_pairs(st):
    p, q = st.symbols
    assume(not p.is_zero() and not q.is_zero() and gcd(p, q).degree() == 0)
    try:
        ref = reference_quotient_basis(st)
    except (RuntimeError, ValueError) as exc:
        try:
            got = quotient_basis(st)
        except type(exc):
            return
        # the unit pivot, or the border-basis criterion, settles pairs the
        # staircase heuristic of the reference gives up on
        if got == ([], [], []):
            assert reference_unit_in_ideal(st)
        else:
            assert dense_criterion_holds(st, *got)
        return
    assert quotient_basis(st) == ref


def test_common_zeros_quarter_pair(quarter_pair):
    zs = common_zeros(quarter_pair, 0.75)
    assert zs.quotient_dim == 2 and zs.total_inside == 2
    pts = sorted(z.point[0].real for z in zs.zeros)
    assert pts == pytest.approx([-0.5, 0.5], abs=1e-8)
    assert all(z.multiplicity == 1 and z.location == "inside" for z in zs.zeros)


def test_common_zeros_multiplicity_and_sum_rule():
    # (z1 - z2, z1 z2) meets only at the origin, with multiplicity two
    st = symbols(2, p2({(1, 0): 1, (0, 1): -1}), p2({(1, 1): 1}))
    zs = common_zeros(st, 0.5)
    assert zs.total_inside == 2
    assert len(zs.zeros) == 1 and zs.zeros[0].multiplicity == 2
    assert sum(z.multiplicity for z in zs.zeros) == zs.quotient_dim
    # a fat origin: (z1^2, z2^3) carries the full quotient dimension 6
    fat = symbols(2, p2({(2, 0): 1}), p2({(0, 3): 1}))
    zf = common_zeros(fat, 0.5)
    assert zf.quotient_dim == 6 and zf.total_inside == 6


def test_outside_zero_does_not_count():
    st = symbols(2, p2({(1, 0): 1, (0, 0): -2}), p2({(0, 1): 1}))
    zs = common_zeros(st, 0.5)
    assert zs.total_inside == 0
    assert [z.location for z in zs.zeros] == ["outside"]
    assert zs.zeros[0].point[0] == pytest.approx(2.0, abs=1e-8)


def test_conjugation_symmetry_of_real_systems():
    # real coefficients: zeros (±i/2, 0) come as a conjugate pair
    st = symbols(2, p2({(2, 0): 1, (0, 0): "1/4"}), p2({(0, 1): 1}))
    zs = common_zeros(st, 0.75)
    xs = sorted(z.point[0].imag for z in zs.zeros)
    assert xs == pytest.approx([-0.5, 0.5], abs=1e-8)
    assert max(abs(z.point[0].real) for z in zs.zeros) < 1e-8


def test_algebraic_index_values(shift_pair, quarter_pair, monomial_pair):
    assert common_zeros(shift_pair, 0.5).total_inside == 1
    assert common_zeros(quarter_pair, 0.75).total_inside == 2
    assert common_zeros(monomial_pair, 0.5).total_inside == 6


def linear_pair(a, b):
    """(z1 - a, z2 - b) for rationals a, b given as strings."""
    return symbols(2, p2({(1, 0): 1, (0, 0): -Fraction(a)}),
                   p2({(0, 1): 1, (0, 0): -Fraction(b)}))


# pairs whose certificate gap separates their zeros, and their indices
GAP_PAIRS = {
    "5/4": (linear_pair("5/4", "0"), 0),
    "-5/4": (linear_pair("-5/4", "0"), 0),
    "9/8": (linear_pair("9/8", "0"), 0),
    "65/64 twice": (linear_pair("65/64", "65/64"), 0),
    "1001/1000": (linear_pair("1001/1000", "0"), 0),          # certifies at r = 0.9 only
    "2/5 and 5/2": (symbols(2, p2({(1, 0): 1, (0, 0): "-2/5"}) * p2({(1, 0): 1, (0, 0): "-5/2"}),
                            p2({(0, 1): 1, (0, 0): "-1/3"})), -1),
}


@pytest.mark.parametrize("st, index", list(GAP_PAIRS.values()), ids=list(GAP_PAIRS))
def test_certificate_gap_places_every_zero(st, index):
    # a certificate at r leaves no zero in r ≤ max|z_v| ≤ 1: each route
    # classifies at (1 + r)/2, and the oracle's ε keeps its zeros out of
    # the gap (4·p·ε² ≤ c, ``report._oracle_need``)
    body = run_index(JobConfig(input=st))["body"]
    cert, routes = body["certificate"], body["routes"]
    assert routes["algebraic"]["index"] == routes["oracle"]["index"] == index
    for z in routes["algebraic"]["zeros"]:
        radius = max(abs(complex(float(c["re"]), float(c["im"]))) for c in z["point"])
        assert z["location"] == ("inside" if radius < 1 else "outside")
    eps = routes["oracle"]["epsilon"]
    assert 4 * 2 * eps * eps <= cert["c"]


def test_determinism_across_calls(quarter_pair):
    a = common_zeros(quarter_pair, 0.75, seed=3)
    b = common_zeros(quarter_pair, 0.75, seed=3)
    assert a == b


def test_gcd_reduce_trivial(shift_pair):
    red = gcd_reduce(shift_pair)
    assert red.common_factor is None and red.factor_zero_free
    assert red.reduced is shift_pair


def test_gcd_reduce_interior_factor(shared_line_pair):
    red = gcd_reduce(shared_line_pair)
    assert red.common_factor is not None
    assert not red.factor_zero_free
    assert red.certificate.verdict == "failed"
    assert red.certificate.witness_value < 1e-3


def test_gcd_reduce_zero_free_factor():
    # (z1-2) never vanishes on the closed bidisc, so the reduction certifies
    g = p2({(1, 0): 1, (0, 0): -2})
    st = symbols(2, g * p2({(1, 0): 1}), g * p2({(0, 1): 1, (0, 0): "-1/2"}))
    red = gcd_reduce(st)
    assert red.factor_zero_free
    assert red.certificate.verdict == "certified" and red.certificate.c > 0
    assert common_zeros(red.reduced, 0.75).total_inside == 1    # (z1, z2 - 1/2)


def test_ill_conditioned_eigensolve_raises(ill_conditioned_pair):
    # the Schur step puts both zeros near z1 = 0.05 ± 2.6i, where the pair
    # does not vanish: the residual check must refuse them, not count 0
    with pytest.raises(RuntimeError, match="relative residual 0.9"):
        common_zeros(ill_conditioned_pair, 0.5)

