"""Seeded symbol tuples for the pipeline benchmark, with ground truth.

Every tuple is built in pure Python from exact rationals and handed to the
program only as tuple JSON, so generation does not depend on the code under
test.  Each entry carries the verdict the mathematics dictates for it:
``("agree", index)`` or ``("not_fredholm", None)``.

Generated pairs are never filtered or re-drawn by outcome: a tuple the
pipeline cannot certify counts as a failure of the pipeline.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

# Rational points on the unit circle (Pythagorean triples), so every
# generated zero has an exactly known modulus.
_UNIT = [(F(1), F(0)), (F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)),
         (F(5, 13), F(12, 13)), (F(12, 13), F(5, 13)), (F(8, 17), F(15, 17)),
         (F(15, 17), F(8, 17)), (F(7, 25), F(24, 25)), (F(20, 29), F(21, 29))]


# ---- exact polynomial arithmetic: {exponent tuple: (re, im)} -------------------

def _mono(exp, c=(F(1), F(0))):
    return {tuple(exp): c}


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, (F(0), F(0)))
        s = (s[0] + c[0], s[1] + c[1])
        if s == (0, 0):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = _add(out, {tuple(x + y for x, y in zip(e1, e2)): _cmul(c1, c2)})
    return out


def _prod(polys):
    out = polys[0]
    for p in polys[1:]:
        out = _mul(out, p)
    return out


def _linear(nvars, var, root):
    """z_var − root."""
    e = [0] * nvars
    e[var] = 1
    return _add(_mono(e), _mono([0] * nvars, (-root[0], -root[1])))


def _const(nvars, c):
    return _mono([0] * nvars, c)


def tuple_json(nvars, *polys):
    """Tuple JSON in the format ``polytoep.tuple_from_json`` reads."""
    return {"nvars": nvars, "symbols": [
        {"nvars": nvars, "terms": [
            {"exp": list(e), "re": str(c[0]), "im": str(c[1])}
            for e, c in sorted(p.items())]}
        for p in polys]}


def _z(nvars, var):
    return _linear(nvars, var, (F(0), F(0)))


# ---- seeded values ---------------------------------------------------------------

def _point(rng: random.Random, modulus: F):
    """Rational complex number of exactly the given modulus."""
    x, y = rng.choice(_UNIT)
    if rng.random() < 0.5:
        x, y = y, x
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    return (sx * x * modulus, sy * y * modulus)


def _distinct_points(rng, count, lo, hi):
    """``count`` distinct rational points with modulus k/20 in [lo, hi]."""
    out = []
    while len(out) < count:
        pt = _point(rng, F(rng.randint(round(lo * 20), round(hi * 20)), 20))
        if pt not in out:
            out.append(pt)
    return out


def _sym(x, conj, neg):
    """x, optionally conjugated and negated."""
    re, im = x
    im = -im if conj else im
    return (-re, -im) if neg else (re, im)


def _distinct_reals(rng, count, lo, hi):
    """``count`` distinct signed rationals k/20 with |k/20| in [lo, hi]."""
    out = []
    while len(out) < count:
        x = F(rng.choice((1, -1)) * rng.randint(round(lo * 20), round(hi * 20)), 20)
        if (x, F(0)) not in out:
            out.append((x, F(0)))
    return out


def _product_pair(rng, n_a, n_b, a_range, b_range):
    a = _distinct_reals(rng, n_a, *a_range)
    b = _distinct_reals(rng, n_b, *b_range)
    p = _prod([_linear(2, 0, r) for r in a])
    q = _prod([_linear(2, 1, r) for r in b])
    return p, q


def _mix(rng, p, q):
    """(p, q + g·p): the same ideal, so the same zeros and index."""
    g = _const(2, (F(rng.choice((1, -1, 2, -2)), rng.choice((2, 3))), F(0)))
    return p, _add(q, _mul(g, p))


# ---- workloads ---------------------------------------------------------------------

def _p(terms):
    return {tuple(e): (F(c), F(0)) for e, c in terms.items()}


# Warm-up tuple for the set-up phase; it belongs to no workload.  It runs
# every stage of the pipeline (certificate, koszul, algebraic, oracle and
# tensor routes), so BLAS and lazy imports are paid before any timed call.
WARMUP = tuple_json(2, _linear(2, 0, (F(1, 3), F(0))), _linear(2, 1, (F(-1, 4), F(0))))


def _certify_heavy(rng):
    fixtures = [
        ("(z1^2, z2^3)", tuple_json(2, _p({(2, 0): 1}), _p({(0, 3): 1})), -6),
        ("(z1^4, z2^4)", tuple_json(2, _p({(4, 0): 1}), _p({(0, 4): 1})), -16),
        ("(z1^2 - 1/4, z2)", tuple_json(2, _p({(2, 0): 1, (0, 0): F(-1, 4)}),
                                        _p({(0, 1): 1})), -2),
        ("(z1 - z2, z1 z2)", tuple_json(2, _p({(1, 0): 1, (0, 1): -1}),
                                        _p({(1, 1): 1})), -2),
    ]
    out = [(name, obj, ("agree", idx)) for name, obj, idx in fixtures]
    # zeros (a_i, b_j) of modulus 0.2..0.6 straddle the first radius 0.5;
    # half the pairs are mixed to (p, q + g·p), which keeps the ideal
    for k, (n_a, n_b) in enumerate([(1, 1), (2, 1), (1, 2)] * 2):
        p, q = _product_pair(rng, n_a, n_b, (0.2, 0.6), (0.2, 0.6))
        if k >= 3:
            p, q = _mix(rng, p, q)
        out.append((f"gen{k} product {n_a}x{n_b}{' mixed' if k >= 3 else ''}",
                    tuple_json(2, p, q), ("agree", -n_a * n_b)))
    return out


def _koszul_heavy(rng):
    z1, z2 = _z(2, 0), _z(2, 1)
    w1, w2, w3 = _z(3, 0), _z(3, 1), _z(3, 2)
    fixtures = [
        ("(z1, z2)", tuple_json(2, z1, z2), -1),
        ("(z1 - 2, z2)", tuple_json(2, _linear(2, 0, (F(2), F(0))), z2), 0),
        ("(z1, z2, z3)", tuple_json(3, w1, w2, w3), -1),
        # the common factor z1 - 2 is zero-free on the closed bidisc and
        # (z2, z2 - 1/2) has no common zero, so the index is 0
        ("((z1-2) z2, (z1-2)(z2-1/2))", tuple_json(
            2, _mul(_linear(2, 0, (F(2), F(0))), z2),
            _mul(_linear(2, 0, (F(2), F(0))), _linear(2, 1, (F(1, 2), F(0))))), 0),
        ("(z, z - 1/2)", tuple_json(1, _z(1, 0), _linear(1, 0, (F(1, 2), F(0)))), 0),
    ]
    out = [(name, obj, ("agree", idx)) for name, obj, idx in fixtures]
    # one root outside the closed disc, one inside: no common zero in the
    # closed bidisc.  Outside moduli stay in [2.4, 3]: nearer the circle the
    # membership escalation adds rounds (1.5 s at 2.4, 3.5 s at 2.35, 14 s
    # at 1.5 on a 2-vCPU virtual machine), which would make the pass time a
    # function of the seed.
    for k in range(4):
        inside, outside = (0.2, 0.6), (2.4, 3.0)
        ranges = (outside, inside) if k % 2 == 0 else (inside, outside)
        p, q = _product_pair(rng, 1, 1, *ranges)
        out.append((f"gen{k} product 1x1, z{1 + k % 2} root outside",
                    tuple_json(2, p, q), ("agree", 0)))
    return out


def _not_fredholm(rng):
    z1 = _z(2, 0)
    fixtures = [
        ("(z1, z1)", tuple_json(2, z1, z1)),
        ("(z1 z2, z1 (z2 - 2))", tuple_json(2, _p({(1, 1): 1}),
                                             _p({(1, 1): 1, (1, 0): -2}))),
    ]
    out = [(name, obj, ("not_fredholm", None)) for name, obj in fixtures]
    for k in range(6):
        # a rational common zero (u, v) on the torus
        u, v = _point(rng, F(1)), _point(rng, F(1))
        alpha, beta, s = (F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(2, 5))
                          for _ in range(3))
        du, dv = _linear(2, 0, u), _linear(2, 1, v)
        p = _add(du, _mul(_const(2, (alpha, F(0))), dv))
        q = _add(_mul(du, _linear(2, 1, (s, F(0)))), _mul(_const(2, (beta, F(0))), dv))
        out.append((f"gen{k} torus zero", tuple_json(2, p, q), ("not_fredholm", None)))
    # A shared factor z_v - c with |c| < 1 vanishes on a curve that meets
    # the boundary region at every radius.  How long the certificate takes
    # to find a witness depends erratically on where c sits against its cell
    # grid (0.2 to 1.8 s for the same |c|), so these ten pairs come from one
    # fixed draw and the seed only applies transformations that leave the
    # grid search unchanged: conjugating every coefficient, z -> -z, and
    # swapping the two symbols.
    base = random.Random("not-fredholm shared factors")
    for k in range(10):
        c = _point(base, F(4 + k, 20))
        a, b = _distinct_points(base, 2, 2.0, 3.0)
        conj, neg, swap = (rng.random() < 0.5 for _ in range(3))
        c, a, b = (_sym(x, conj, neg) for x in (c, a, b))
        factor = _linear(2, k % 2, c)
        pair = [_mul(factor, _linear(2, 1 - k % 2, a)), _mul(factor, _linear(2, k % 2, b))]
        if swap:
            pair.reverse()
        out.append((f"gen{k + 6} shared factor z{1 + k % 2} - c",
                    tuple_json(2, *pair), ("not_fredholm", None)))
    return out


# (z1^2, z2^2, z3^2) is in no workload: one call takes about 39 s and ends
# not_certifiable, so it would dominate every pass it joined.
_BUILDERS = {"certify-heavy": _certify_heavy, "koszul-heavy": _koszul_heavy,
             "not-fredholm": _not_fredholm}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int):
    """[(name, tuple JSON, (verdict kind, index))] for one workload."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# Seeds used while the benchmark was written and tuned, and one held back
# so a later claim can be checked on inputs nobody tuned against.
DEVELOPMENT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 4242

# The degree-3 pair of benchmarks/bench_kernels.py, for the kernel
# micro-benchmark.
KERNEL_TUPLE = tuple_json(
    2, _p({(3, 0): 1, (1, 1): -2, (0, 2): 1, (0, 0): F(1, 4)}),
    _p({(2, 1): 1, (1, 0): 3, (0, 0): -1}))


def sumsq_cost(tuple_obj, npts):
    """(flop, bytes) of Σ|fᵢ|² at ``npts`` points as the numpy kernel does it:
    power tables, one complex multiply per nonzero exponent of a term, one
    complex add per term, |·|² and accumulate per symbol.  Bytes are the
    compulsory traffic computed from array sizes (complex points in, one
    float per point out); temporaries and cache misses are not counted."""
    nvars = tuple_obj["nvars"]
    terms = [t["exp"] for s in tuple_obj["symbols"] for t in s["terms"]]
    maxd = max(max(e) for e in terms)
    per_point = (6 * nvars * maxd
                 + sum(6 * sum(1 for x in e if x) + 2 for e in terms)
                 + 4 * len(tuple_obj["symbols"]))
    return per_point * npts, (16 * nvars + 8) * npts
