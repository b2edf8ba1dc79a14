import pytest

from polytoep.poly import exact_poly, symbols
from polytoep.report import JobConfig, certify_schedule


def p2(terms):
    return exact_poly(2, terms)


def p1(terms):
    return exact_poly(1, terms)


def certified_rho(st):
    """The decay bound the report hands the Koszul route: (1 + r)/2 at the
    first radius r of the default schedule that certifies ``st``."""
    cert, _ = certify_schedule(st, JobConfig(input=st))
    return (1 + cert.r) / 2


@pytest.fixture
def z1():
    return p2({(1, 0): 1})


@pytest.fixture
def z2():
    return p2({(0, 1): 1})


@pytest.fixture
def shift_pair(z1, z2):
    return symbols(2, z1, z2)


@pytest.fixture
def monomial_pair():
    # (z1^2, z2^3), index -6
    return symbols(2, p2({(2, 0): 1}), p2({(0, 3): 1}))


@pytest.fixture
def quarter_pair(z2):
    # (z1^2 - 1/4, z2): zeros at (±1/2, 0), index -2
    return symbols(2, p2({(2, 0): 1, (0, 0): "-1/4"}), z2)


@pytest.fixture
def non_dyadic_pair():
    # (z1 - 3/5, z2 - 9/20), index -1: float products of its Koszul maps
    # leave rounding residues instead of exact zeros
    return symbols(2, p2({(1, 0): 1, (0, 0): "-3/5"}), p2({(0, 1): 1, (0, 0): "-9/20"}))


@pytest.fixture
def repeated_pair(z1):
    # (z1, z1) is never Fredholm: the symbols vanish together on {z1=0}
    return symbols(2, z1, z1)


@pytest.fixture
def shared_line_pair():
    # (z1 z2, z1 (z2 - 2)): common factor z1 vanishes inside the polydisc
    return symbols(2, p2({(1, 1): 1}), p2({(1, 1): 1, (1, 0): -2}))


@pytest.fixture
def ill_conditioned_pair():
    # p = (z1 - 9/20)(z1 + 7/20), q = z2 - 7/20 + z1/10⁹ + ⅔p: both common
    # zeros lie inside (index -2) and share z2 to within 10⁻⁹, which makes
    # the quotient basis {1, z2} ill-conditioned for the eigensolve
    p = p2({(1, 0): 1, (0, 0): "-9/20"}) * p2({(1, 0): 1, (0, 0): "7/20"})
    q = p2({(0, 1): 1, (0, 0): "-7/20", (1, 0): "1/1000000000"}) + p * p2({(0, 0): "2/3"})
    return symbols(2, p, q)
