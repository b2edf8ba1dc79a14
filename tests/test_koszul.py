"""Truncated Koszul complex: chain structure, ranks, homology, route."""
import dataclasses
import functools
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import svdvals

from polytoep import certify, koszul, report, zeros
from polytoep.koszul import (
    MonomialWindow,
    SparseMap,
    TupleGrading,
    _boundary_matrix,
    _nonzero_product,
    _section_svdvals,
    _subsets,
    build_koszul,
    chain_check,
    dump_matrices,
    euler_index,
    graded_svdvals,
    homology_kernel_dims,
    ideal_codim_window,
    koszul_route,
    _stage_blocks,
    matrix_dtype,
    numerical_rank,
    range_sum_check,
)
from polytoep.exact import ExactComplex
from polytoep.kernels import pack_tuple
from polytoep.poly import exact_poly, symbols, tuple_to_json

from conftest import certified_rho, p1, p2


def shifts3():
    return symbols(3, exact_poly(3, {(1, 0, 0): 1}), exact_poly(3, {(0, 1, 0): 1}),
                   exact_poly(3, {(0, 0, 1): 1}))


def far_pair():
    # (z1 - 2, z2): 1 is an ideal member only through an H² cofactor of z1 - 2
    return symbols(2, p2({(1, 0): 1, (0, 0): -2}), p2({(0, 1): 1}))


def graded_tuples():
    """Weight-homogeneous tuples: (z1, z2, z3), (z1+z2, z2+z3, z3−z1/2),
    (z1², z2², z3²), (z1−2, z2), (z1²−¼, z2) and (z1−z2, z1z2)."""
    p3 = functools.partial(exact_poly, 3)
    return [shifts3(),
            symbols(3, p3({(1, 0, 0): 1, (0, 1, 0): 1}), p3({(0, 1, 0): 1, (0, 0, 1): 1}),
                    p3({(0, 0, 1): 1, (1, 0, 0): "-1/2"})),
            symbols(3, p3({(2, 0, 0): 1}), p3({(0, 2, 0): 1}), p3({(0, 0, 2): 1})),
            far_pair(),
            symbols(2, p2({(2, 0): 1, (0, 0): "-1/4"}), p2({(0, 1): 1})),
            symbols(2, p2({(1, 0): 1, (0, 1): -1}), p2({(1, 1): 1}))]


def sparse(mat):
    """The nonzeros of a dense matrix as a ``SparseMap``."""
    rows, cols = np.nonzero(mat)
    return SparseMap(rows, cols, mat[rows, cols], mat.shape)


def graded_maps(kt, grading):
    """(map, its dense matrix, row keys, column keys) of each d_k, each
    enlarged d_k and the enlarged d_k's rows outside the stage window, the
    last deleted from the dense matrix: every map the route factors, and
    the enlarged d₁, whose rank it reads off injectivity."""
    st, p, wins = kt.tuple, kt.arity, kt.windows
    for k in range(1, p + 1):
        d = kt.boundary_matrices[k - 1]
        yield d, d.dense(), grading.keys(k, wins[k]), grading.keys(k - 1, wins[k - 1])
    for k in range(1, p):
        out = wins[k + 1]
        enlarged = _boundary_matrix(kt.packed, k, wins[k], out, kt.boundary_matrices[0].dtype)
        outside = np.ones(out.dim, dtype=bool)
        outside[[out.row[e] for e in map(tuple, wins[k].exps)]] = False
        outside = np.tile(outside, len(_subsets(p, k)))
        rows, cols = grading.keys(k, out), grading.keys(k - 1, wins[k])
        yield enlarged, enlarged.dense(), rows, cols
        yield (enlarged.take_rows(np.flatnonzero(outside)), enlarged.dense()[outside],
               rows[outside], cols)


def assert_grading_sound(st, levels):
    """Every map is zero off its grade blocks, and the blockwise singular
    values are the dense ones to 1e-12 of the largest."""
    grading = TupleGrading(st)
    assert grading.weights.shape[0] > 0
    for n in levels:
        kt = build_koszul(st, n)
        for sp, mat, rows, cols in graded_maps(kt, grading):
            assert np.array_equal(sp.dense(), mat)
            assert np.all(mat[rows[:, None] != cols[None, :]] == 0)
            got, ref = graded_svdvals(sp, rows, cols), svdvals(mat)
            assert got.shape == ref.shape
            assert np.all(np.diff(got) <= 0)
            assert np.all(np.abs(got - ref) <= 1e-12 * ref[:1])


def rotated(st, i=0):
    """``st`` with symbol i multiplied by the unimodular (3 + 4i)/5: the same
    ideal, complex coefficients."""
    unit = ExactComplex(Fraction(3, 5), Fraction(4, 5))
    syms = list(st.symbols)
    syms[i] = syms[i].scale(unit)
    return symbols(st.nvars, *syms)


def stage1_sigma_min(kt):
    """Smallest singular value of the first boundary matrix."""
    d1 = kt.boundary_matrices[0].dense()
    if d1.size == 0:
        return 0.0
    sv = svdvals(d1)
    return float(sv[-1]) if sv.size else 0.0


def hstack_kernel_dims(kt):
    """Reference for ``homology_kernel_dims``: the intersection dimension from
    rank(A) + dim V − rank([A | E_V]) with the embedding E_V built explicitly."""
    st, p, tol = kt.tuple, kt.arity, koszul.DEFAULT_RANK_TOL
    d = [m.dense() for m in kt.boundary_matrices]
    dims = [d[0].shape[1] - numerical_rank(d[0], tol)]
    for k in range(1, p):
        null_next = d[k].shape[1] - numerical_rank(d[k], tol)
        stage, out = kt.windows[k], kt.windows[k + 1]
        enlarged = _boundary_matrix(kt.packed, k, stage, out, d[0].dtype).dense()
        incl = np.zeros((out.dim, stage.dim))
        for j, e in enumerate(map(tuple, stage.exps)):
            incl[out.row[e], j] = 1.0
        emb = np.kron(np.eye(len(_subsets(p, k))), incl)
        rank_both = numerical_rank(np.hstack([enlarged, emb]), tol)
        dims.append(max(null_next - (numerical_rank(enlarged, tol) + emb.shape[1]
                                     - rank_both), 0))
    return dims


def test_window_exponents_and_lookup():
    for nvars, cap in ((1, (4,)), (2, (2, 1)), (3, (1, 2, 0))):
        win = MonomialWindow(nvars, cap)
        # ascending graded-lex, never skipping a monomial under the cap
        grlex = sorted(product(*(range(c + 1) for c in cap)), key=lambda e: (sum(e), e))
        assert win.exps.dtype == np.int64
        assert [tuple(e) for e in win.exps.tolist()] == grlex
        assert win.dim == len(grlex)
        assert win.row.shape == tuple(c + 1 for c in cap)
        assert [win.row[e] for e in grlex] == list(range(win.dim))


def coefficients(s):
    """The terms of ``s`` with complex coefficients, none pruned."""
    return {e: c.to_complex() for e, c in s.terms.items()}


def shifted_symbol(s, win_in, win_out):
    """Reference for one block of a boundary map: multiplication by ``s``
    from ``win_in`` into ``win_out``, placed term by term."""
    pos = {e: i for i, e in enumerate(map(tuple, win_out.exps.tolist()))}
    mat = np.zeros((win_out.dim, win_in.dim), dtype=np.complex128)
    for j, a in enumerate(win_in.exps.tolist()):
        for e, c in coefficients(s).items():
            mat[pos[tuple(x + y for x, y in zip(a, e))], j] = c
    return mat


def boundary_cases():
    """(tuple, level) in one to three variables with one to three symbols,
    real and complex."""
    z = p1({(1,): 1})
    p3 = functools.partial(exact_poly, 3)
    real = [(symbols(1, z), 4),
            (symbols(1, p1({(1,): 1, (0,): "-1/2"}), p1({(2,): 1})), 3),
            (symbols(1, z, p1({(1,): 1, (0,): "1/3"}), p1({(3,): 2, (0,): -1})), 2),
            (symbols(2, p2({(1, 1): 1, (0, 0): "-1/3"})), 2),
            (far_pair(), 2),
            (symbols(2, p2({(1, 0): 1}), p2({(0, 1): 1, (0, 0): "-2/7"}),
                     p2({(1, 1): 1, (2, 0): "1/5"})), 2),
            (symbols(3, p3({(1, 0, 0): 1, (0, 1, 1): "3/4"})), 1),
            (symbols(3, p3({(1, 0, 0): 1}), p3({(0, 1, 0): 1, (0, 0, 2): "-1/9"})), 1),
            (graded_tuples()[1], 1)]
    floats = [(symbols(2, exact_poly(2, {(1, 0): 0.3, (0, 1): -1.25}),
                       exact_poly(2, {(0, 0): 0.7, (1, 1): c})), 2) for c in (1.0, 0.5 - 2j)]
    return real + [(rotated(st, len(st) - 1), n) for st, n in real] + floats


def assert_blocks_are_shifted_symbols(kt):
    """Every block of every d_k holds ±(the shifted symbol) with the
    ``_stage_blocks`` sign, and every other block is zero; no position
    holds two triplets."""
    st, p, wins = kt.tuple, kt.arity, kt.windows
    real = all(c.imag == 0 for s in st.symbols for c in coefficients(s).values())
    for k, d in enumerate(kt.boundary_matrices, start=1):
        m, n = wins[k].dim, wins[k - 1].dim
        assert d.dtype == (np.float64 if real else np.complex128)
        assert len(set(zip(d.rows.tolist(), d.cols.tolist()))) == d.vals.size
        want = np.zeros((len(_subsets(p, k)) * m, len(_subsets(p, k - 1)) * n),
                        dtype=np.complex128)
        for ri, ci, sym, sign in _stage_blocks(p, k):
            if k == 1:
                assert sign == 1
            want[ri * m:(ri + 1) * m, ci * n:(ci + 1) * n] = (
                sign * shifted_symbol(st.symbols[sym], wins[k - 1], wins[k]))
        assert np.array_equal(d.dense(), want.real if real else want)


def test_boundary_matrices_hold_the_symbol_coefficients():
    for st, n in boundary_cases():
        assert_blocks_are_shifted_symbols(build_koszul(st, n))
    # (z): window cap 4 into cap 5 without truncating, a clean shift
    d1 = build_koszul(symbols(1, p1({(1,): 1})), 4).boundary_matrices[0]
    assert np.array_equal(d1.dense(), np.eye(6, 5, k=-1))


def test_tiny_exact_coefficients_reach_the_maps():
    # (z1 + 10⁻¹⁵, z2): the constant is 10⁻¹⁵ of the largest coefficient,
    # below the float pruning cut, and the route keeps it as the
    # certificate does
    st = symbols(2, p2({(1, 0): 1, (0, 0): "1/1000000000000000"}), p2({(0, 1): 1}))
    kt = build_koszul(st, 2)
    assert_blocks_are_shifted_symbols(kt)
    wins = kt.windows
    assert kt.boundary_matrices[0].dense()[wins[1].row[0, 0], wins[0].row[0, 0]] == 1e-15
    # the grading reads the same support: z1 and 1 share a z2 grade only
    assert TupleGrading(st).weights.tolist() == [[0, 1]]


def test_chain_property_and_exactness(shift_pair, monomial_pair):
    for st in (shift_pair, monomial_pair):
        kt = build_koszul(st, 4)
        assert chain_check(kt)
        d = [m.dense() for m in kt.boundary_matrices]
        for a, b in zip(d[1:], d[:-1]):
            assert np.max(np.abs(a @ b)) == 0.0


def test_nonzero_product_matches_the_dense_product(shift_pair, monomial_pair, quarter_pair,
                                                   non_dyadic_pair, repeated_pair):
    # both products are within γ·(|a| |b|) of the exact one, so within twice
    # that of each other; entries no pair of nonzeros reaches are 0 in both
    tuples = [shift_pair, monomial_pair, quarter_pair, non_dyadic_pair, repeated_pair,
              rotated(non_dyadic_pair), shifts3(), graded_tuples()[1]]
    for st in tuples:
        kt = build_koszul(st, 3 if st.nvars == 2 else 2)
        for a, b in zip(kt.boundary_matrices[1:], kt.boundary_matrices[:-1]):
            prod, bound = _nonzero_product(a, b)
            ref = a.dense() @ b.dense()
            ref_bound = np.abs(a.dense()) @ np.abs(b.dense())
            gamma = 4 * (b.shape[0] + 4) * 2.0 ** -53
            assert prod.shape == ref.shape and prod.dtype == ref.dtype
            assert np.all(np.abs(prod.dense() - ref) <= 2 * gamma * ref_bound)
            assert np.all(np.abs(bound - ref_bound[prod.rows, prod.cols])
                          <= gamma * ref_bound[prod.rows, prod.cols])
            reached = np.zeros(ref.shape, dtype=bool)
            reached[prod.rows, prod.cols] = True
            assert np.all(ref[~reached] == 0)


def changed(kt, k, **fields):
    """``kt`` with map d_{k+1} given new triplet arrays."""
    d = list(kt.boundary_matrices)
    d[k] = dataclasses.replace(d[k], **fields)
    return dataclasses.replace(kt, boundary_matrices=tuple(d))


def test_chain_check_catches_a_flipped_sign(non_dyadic_pair):
    for st in (non_dyadic_pair, shifts3()):
        kt = build_koszul(st, 3)
        assert chain_check(kt)
        for k in range(len(kt.boundary_matrices) - 1):
            vals = kt.boundary_matrices[k].vals.copy()
            vals[0] = -vals[0]
            assert not chain_check(changed(kt, k, vals=vals))


def test_chain_check_catches_an_entry_in_a_wrong_row(non_dyadic_pair):
    for st in (non_dyadic_pair, rotated(non_dyadic_pair), shifts3()):
        kt = build_koszul(st, 3)
        for k in range(len(kt.boundary_matrices) - 1):
            d = kt.boundary_matrices[k]
            taken = set(d.rows[d.cols == d.cols[0]].tolist())
            rows = d.rows.copy()
            rows[0] = next(r for r in range(d.shape[0]) if r not in taken)
            assert not chain_check(changed(kt, k, rows=rows))


def test_sigma_min_of_shift_stage_one(shift_pair):
    kt = build_koszul(shift_pair, 5)
    # d1 ξ = (-z2 ξ, z1 ξ): columns are orthogonal pairs of unit shifts
    assert stage1_sigma_min(kt) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_rank_nullity_accounting(quarter_pair):
    kt = build_koszul(quarter_pair, 4)
    for d in kt.boundary_matrices:
        r = numerical_rank(d.dense(), 1e-8)
        kernel = d.shape[1] - r
        assert r + kernel == d.shape[1]
        assert r <= min(d.shape)


def zero_symbol_tuples():
    """(0, 0), (0, z1) and (0) in one variable."""
    zero = p2({})
    return [symbols(2, zero, zero), symbols(2, zero, p2({(1, 0): 1})), symbols(1, p1({}))]


def test_kernel_dims_match_hstack_reference(shift_pair, monomial_pair, quarter_pair,
                                            non_dyadic_pair, repeated_pair,
                                            shared_line_pair):
    for st in (shift_pair, monomial_pair, quarter_pair, non_dyadic_pair,
               repeated_pair, shared_line_pair, *zero_symbol_tuples()):
        for n in (2, 3, 4):
            kt = build_koszul(st, n)
            assert homology_kernel_dims(kt) == hstack_kernel_dims(kt)
    for n in (1, 2, 3):
        kt = build_koszul(shifts3(), n)
        assert homology_kernel_dims(kt) == hstack_kernel_dims(kt)


@hst.composite
def small_tuples(draw):
    """One to three symbols in one to three variables, each of total degree
    at most 2 with small rational coefficients; one symbol may be zero."""
    n, p = draw(hst.integers(1, 3)), draw(hst.integers(1, 3))
    exps = hst.tuples(*[hst.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    coeffs = hst.builds(Fraction, hst.sampled_from([-3, -2, -1, 1, 2, 3]), hst.integers(1, 3))
    syms = [exact_poly(n, draw(hst.dictionaries(exps, coeffs, min_size=1, max_size=4)))
            for _ in range(p)]
    zero = draw(hst.none() | hst.integers(0, p - 1))
    if zero is not None:
        syms[zero] = exact_poly(n, {})
    return symbols(n, *syms)


@settings(max_examples=40, deadline=None)
@given(small_tuples())
def test_kernel_dims_match_hstack_reference_on_drawn_tuples(st):
    # h₀ and the rank of the enlarged d₁ come from injectivity; the dense
    # reference still factors them
    for n in ((1, 2) if st.nvars < 3 else (1,)):
        kt = build_koszul(st, n)
        assert homology_kernel_dims(kt) == hstack_kernel_dims(kt)


def test_zero_symbols_keep_their_kernel_dims():
    # d₁ = 0 exactly when every symbol is zero: then h₀ is the dimension of
    # stage 0, (N + 1)ⁿ here, and the rank of d₁ is 0
    want = [lambda n: [(n + 1) ** 2, 2 * (n + 1) ** 2], lambda n: [0, n + 1],
            lambda n: [n + 1]]
    for st, dims, sigma in zip(zero_symbol_tuples(), want, (0.0, 1.0, 0.0)):
        route = koszul_route(st, rho=0.75)
        assert list(route.per_n) == [{"N": n, "kernel_dims": dims(n)} for n in range(2, 9)]
        assert route.index == "unstable" and route.sigma_min_first == sigma


def test_route_rank_reuse_keeps_per_n(monkeypatch):
    calls = []
    graded = koszul.graded_svdvals

    def counted(mat, *keys_and_work):
        calls.append(mat.shape)
        return graded(mat, *keys_and_work)

    monkeypatch.setattr(koszul, "graded_svdvals", counted)
    monkeypatch.setattr(koszul, "ideal_codim_window", lambda *a, **k: 1)
    route = koszul_route(shifts3(), rho=0.75)
    monkeypatch.undo()
    assert [rec["N"] for rec in route.per_n] == [1, 2, 3]
    fresh = [{"N": n, "kernel_dims": homology_kernel_dims(build_koszul(shifts3(), n))}
             for n in (1, 2, 3)]
    assert list(route.per_n) == fresh
    # five factorizations per level (d₂, d₃, the enlarged d₂ and the two
    # row-deleted enlarged maps), less d₂ at N = 2 and 3, the enlarged d₂ of
    # the level before; d₁ and its enlarged form are injective and go
    # unfactored, but for the last level's d₁, whose σ_min the route reports
    assert len(calls) == 5 + 4 + 4 + 1
    assert route.sigma_min_first == pytest.approx(
        stage1_sigma_min(build_koszul(shifts3(), 3)), rel=1e-12)


def test_grading_weights():
    weights = [TupleGrading(st).weights.tolist() for st in graded_tuples()]
    assert weights == [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 1]],
                       [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1]], [[0, 1]], [[1, 1]]]
    # a rotation keeps the supports, hence the grading
    for st in graded_tuples():
        assert np.array_equal(TupleGrading(rotated(st)).weights, TupleGrading(st).weights)


def test_graded_factorization_is_sound():
    for st in graded_tuples():
        levels = (2, 3) if st.nvars == 2 else (1, 2)
        if st.degree_vec() == (2, 2, 2):
            levels = (1,)           # dense references at N = 2 take seconds
        assert_grading_sound(st, levels)
        assert_grading_sound(rotated(st, len(st) - 1), levels[:1])


@hst.composite
def weight_homogeneous_tuples(draw):
    """Tuples whose symbols are each homogeneous for one drawn integer weight."""
    nvars = draw(hst.integers(2, 3))
    weight = draw(hst.lists(hst.integers(-2, 2), min_size=nvars, max_size=nvars)
                  .filter(any))
    top = 2 if nvars == 2 else 1
    syms = []
    for _ in range(draw(hst.integers(2, nvars))):
        exps = draw(hst.lists(hst.tuples(*[hst.integers(0, top)] * nvars),
                              min_size=1, max_size=4, unique=True))
        level = np.dot(weight, exps[0])
        coeffs = draw(hst.lists(hst.integers(-3, 3).filter(bool),
                                min_size=len(exps), max_size=len(exps)))
        syms.append(exact_poly(nvars, {e: c for e, c in zip(exps, coeffs)
                                       if np.dot(weight, e) == level}))
    st = symbols(nvars, *syms)
    return rotated(st) if draw(hst.booleans()) else st


@settings(max_examples=25, deadline=None)
@given(weight_homogeneous_tuples())
def test_graded_factorization_is_sound_on_drawn_tuples(st):
    assert_grading_sound(st, (1,) if st.nvars == 3 else (2,))


def test_ungraded_tuples_factor_the_whole_matrix(non_dyadic_pair):
    # (z1 − 3/5, z2 − 9/20) and a product pair carry no weight grading: every
    # key is 0, so each map is one block, factored as ``svdvals`` factors it,
    # bit for bit
    product = symbols(2, p2({(2, 0): 1, (1, 0): "-1/12", (0, 0): "-1/12"}),
                      p2({(0, 1): 1, (0, 0): "1/4"}))
    for st in (non_dyadic_pair, rotated(non_dyadic_pair), product):
        grading = TupleGrading(st)
        assert grading.weights.shape == (0, 2)
        for n in (2, 3):
            for sp, mat, rows, cols in graded_maps(build_koszul(st, n), grading):
                assert not rows.any() and not cols.any()
                assert np.array_equal(graded_svdvals(sp, rows, cols), svdvals(mat))


def test_one_grade_matrix_is_factored_as_it_is():
    # one key on every row and column, whatever its value: the one block is
    # the whole matrix, and its singular values are numpy's, bit for bit
    mat = np.random.default_rng(0).standard_normal((7, 5))
    for key in (0, 3):
        got = graded_svdvals(sparse(mat), np.full(7, key), np.full(5, key))
        assert np.array_equal(got, np.linalg.svd(mat, compute_uv=False))


def block_diagonal_map(rng, complex_vals):
    """A random sparse map that is block-diagonal by key up to a
    permutation of rows and columns: blocks of 1×k, k×1, 1×1 and fat
    shapes, one fat block and one 1×k block left zero, and keys with rows
    or columns only.  Returns (dense matrix, row keys, column keys)."""
    shapes = [(1, 4), (3, 1), (1, 1), (1, 1), (3, 2), (2, 5), (4, 4), (2, 2),
              (1, 3), (2, 0), (0, 3)]
    shapes = [shapes[i] for i in rng.permutation(len(shapes))]
    m, n = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    mat = np.zeros((m, n), dtype=np.complex128 if complex_vals else np.float64)
    row_keys, col_keys = np.empty(m, dtype=np.int64), np.empty(n, dtype=np.int64)
    i = j = 0
    for key, (r, c) in enumerate(shapes):
        block = rng.standard_normal((r, c))
        if complex_vals:
            block = block + 1j * rng.standard_normal((r, c))
        block[rng.random((r, c)) < 0.3] = 0
        if (r, c) in ((2, 2), (1, 3)):
            block[:] = 0
        mat[i:i + r, j:j + c] = block
        row_keys[i:i + r], col_keys[j:j + c] = 7 * key - 20, 7 * key - 20
        i, j = i + r, j + c
    rows, cols = rng.permutation(m), rng.permutation(n)
    return mat[rows][:, cols], row_keys[rows], col_keys[cols]


def test_thin_blocks_are_taken_by_their_norm(monkeypatch):
    # a block with one row or one column has one singular value, its norm;
    # only blocks with two rows and two columns reach LAPACK
    rng = np.random.default_rng(11)
    for trial in range(40):
        mat, rows, cols = block_diagonal_map(rng, complex_vals=trial % 2 == 1)
        ref = np.linalg.svd(mat, compute_uv=False)
        factored = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            factored.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        work = koszul.new_work()
        got = graded_svdvals(sparse(mat), rows, cols, work)
        monkeypatch.undo()
        assert got.shape == (min(mat.shape),)
        assert np.all(np.diff(got) <= 0)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref[0])
        # the fat blocks, (3, 2), (2, 5), (4, 4) and (2, 2), one call per shape
        assert sorted(shape[1:] for shape in factored) == [(2, 2), (2, 5), (3, 2), (4, 4)]
        assert work == {"maps_built": 0, "lapack_calls": 4, "lapack_blocks": 4,
                        "norm_blocks": 5}


def test_traced_functions_stay_on_the_route(monkeypatch):
    # the benchmark times the route by wrapping these module attributes, so
    # the route must still look each of them up when it runs
    reached = set()
    inside = []

    def spy(name, real):
        def call(*args, **kwargs):
            if inside:
                reached.add(name)
            return real(*args, **kwargs)
        return call

    for mod, name in ((koszul, "build_koszul"), (koszul, "homology_kernel_dims"),
                      (koszul, "ideal_codim_window"), (np.linalg, "svd")):
        monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    route = report.koszul_route

    def traced_route(*args, **kwargs):
        inside.append(1)
        try:
            return route(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(report, "koszul_route", traced_route)
    rep = report.run_index(report.JobConfig(input=tuple_to_json(far_pair())))
    assert rep["body"]["verdict"] == {"kind": "agree", "index": 0,
                                      "routes": ["algebraic", "koszul", "oracle", "tensor"]}
    assert reached == {"build_koszul", "homology_kernel_dims", "ideal_codim_window", "svd"}
    # the windows every tuple shares are read-only
    win = koszul.monomial_window((3, 2))
    assert win is koszul.monomial_window((3, 2))
    with pytest.raises(ValueError):
        win.exps[0, 0] = 1
    with pytest.raises(ValueError):
        win.row[0, 0] = 1


def test_pipeline_trace_points_stay_on_the_pipeline(monkeypatch):
    # the benchmark's other spans wrap these module attributes, and
    # zeros.quotient_basis's span feeds its zeros.quotient_basis_s, so one
    # run must look each of them up when it calls it
    reached = set()

    def spy(name, real):
        def call(*args, **kwargs):
            reached.add(name)
            return real(*args, **kwargs)
        return call

    points = [(report, name) for name in (
        "gcd_reduce", "boundary_lower_bound", "koszul_route", "common_zeros",
        "perturbed_count_details", "tensor_tuple_index")]
    points += [(zeros, "quotient_basis"), (certify, "values_block")]
    for mod, name in points:
        monkeypatch.setattr(mod, name, spy(f"{mod.__name__}.{name}", getattr(mod, name)))
    rep = report.run_index(report.JobConfig(input=tuple_to_json(far_pair())))
    assert rep["body"]["verdict"]["kind"] == "agree"
    assert reached == {f"{mod.__name__}.{name}" for mod, name in points}


def test_work_counters_stay_outside_the_body(monkeypatch):
    # (z1 − z2, z1·z2), graded by total degree, has grade blocks of both kinds
    keys = []
    graded = koszul.graded_svdvals

    def spy(mat, row_keys, col_keys, *work):
        keys.append((row_keys, col_keys))
        return graded(mat, row_keys, col_keys, *work)

    monkeypatch.setattr(koszul, "graded_svdvals", spy)
    cfg = report.JobConfig(input=tuple_to_json(graded_tuples()[5]))
    first = report.run_index(cfg)
    calls = len(keys)
    second = report.run_index(cfg)
    work = first["timings"]["work"]["koszul"]
    assert work == second["timings"]["work"]["koszul"]
    assert json.dumps(first["body"], sort_keys=True) == json.dumps(second["body"], sort_keys=True)
    assert first["cache"]["key"] == second["cache"]["key"]
    assert "maps_built" not in json.dumps(first["body"])
    # count the grade blocks of every factorization of the first route
    fat = thin = 0
    for row_keys, col_keys in keys[:calls]:
        assert len(set(row_keys.tolist() + col_keys.tolist())) > 1   # never one grade
        for key in set(row_keys.tolist()) & set(col_keys.tolist()):
            small = min(np.sum(row_keys == key), np.sum(col_keys == key))
            fat, thin = fat + (small >= 2), thin + (small == 1)
    assert work["lapack_blocks"] == fat > 0
    assert work["norm_blocks"] == thin > 0
    assert 0 < work["lapack_calls"] <= fat
    assert work["maps_built"] > 0


def test_koszul_work_counters_are_pinned():
    # (z1 − 2, z2) and (z1 − z2, z1·z2): stage one is read off injectivity,
    # so a factorization brought back into the sweep changes these counts
    want = [(far_pair(), {"maps_built": 9, "lapack_calls": 21, "lapack_blocks": 52,
                          "norm_blocks": 0}),
            (graded_tuples()[5], {"maps_built": 9, "lapack_calls": 66, "lapack_blocks": 66,
                                  "norm_blocks": 21})]
    for st, work in want:
        rep = report.run_index(report.JobConfig(input=tuple_to_json(st)))
        assert rep["timings"]["work"]["koszul"] == work


def gauss_jordan_kernel(rows, n):
    """Reference for ``_rational_kernel``: a primitive integer basis of the
    rational kernel of ``rows`` by Gauss–Jordan elimination over Fraction."""
    mat = [[Fraction(x) for x in v] for v in rows]
    pivots = []
    for col in range(n):
        at = next((i for i in range(len(pivots), len(mat)) if mat[i][col]), None)
        if at is None:
            continue
        top = len(pivots)
        mat[top], mat[at] = mat[at], mat[top]
        mat[top] = [x / mat[top][col] for x in mat[top]]
        for i, row in enumerate(mat):
            if i != top and row[col]:
                mat[i] = [x - row[col] * y for x, y in zip(row, mat[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        w = [Fraction(0)] * n
        w[free] = Fraction(1)
        for i, col in enumerate(pivots):
            w[col] = -mat[i][free]
        scale = math.lcm(*(x.denominator for x in w))
        ints = [int(x * scale) for x in w]
        g = math.gcd(*ints)
        basis.append([x // g for x in ints])
    return basis


@settings(max_examples=200, deadline=None)
@given(hst.integers(1, 3).flatmap(lambda n: hst.tuples(
    hst.just(n), hst.lists(hst.lists(hst.integers(-4, 4), min_size=n, max_size=n),
                           max_size=4))))
def test_rational_kernel_matches_gauss_jordan(case):
    n, rows = case
    assert koszul._rational_kernel(rows, n) == gauss_jordan_kernel(rows, n)


def test_real_tuples_compute_in_real_arithmetic(monkeypatch, non_dyadic_pair):
    dtypes = []
    graded = koszul.graded_svdvals

    def seen(mat, *keys_and_work):
        dtypes.append(mat.dtype)
        return graded(mat, *keys_and_work)

    monkeypatch.setattr(koszul, "graded_svdvals", seen)
    for st in (far_pair(), non_dyadic_pair, shifts3()):
        for tup, dtype in ((st, np.float64), (rotated(st), np.complex128)):
            assert matrix_dtype(pack_tuple(tup)) is dtype
            kt = build_koszul(tup, 2)
            assert all(d.dtype == dtype for d in kt.boundary_matrices)
            # every finite section of the codimension count too
            dtypes.clear()
            assert isinstance(ideal_codim_window(tup, rho=0.75), int)
            assert dtypes and set(dtypes) == {np.dtype(dtype)}


def test_rotating_a_symbol_keeps_the_route(non_dyadic_pair):
    # (3 + 4i)/5 is a unit: the ideal, the homology and the index stay, while
    # the matrices turn complex
    for st in (far_pair(), non_dyadic_pair, shifts3()):
        rho = certified_rho(st)
        real, cplx = koszul_route(st, rho=rho), koszul_route(rotated(st, len(st) - 1), rho=rho)
        assert cplx.per_n == real.per_n
        assert cplx.codim == real.codim
        assert cplx.index == real.index
        assert cplx.sigma_min_first == pytest.approx(real.sigma_min_first, rel=1e-12)


def test_range_sum_identity_random_tuples():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        mats = []
        for _ in range(int(rng.integers(2, 4))):
            r = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            b = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            mats.append(a @ b)
        assert range_sum_check(mats, 1e-8)


def test_range_sum_check_input_validation():
    with pytest.raises(ValueError):
        range_sum_check([])
    with pytest.raises(ValueError):
        range_sum_check([np.zeros((3, 3)), np.zeros((4, 4))])


def test_euler_index_sign_convention():
    # arity 2: index = -h2 + h1 - h0
    assert euler_index([0, 0, 1]) == -1
    assert euler_index([1, 0, 0]) == -1
    assert euler_index([0, 1, 0]) == 1


def test_route_fixture_indices(shift_pair, monomial_pair, quarter_pair):
    assert koszul_route(shift_pair, rho=0.75).index == -1
    assert koszul_route(monomial_pair, rho=0.75).index == -6
    assert koszul_route(quarter_pair, rho=0.875).index == -2
    assert koszul_route(far_pair(), rho=0.75).index == 0


def test_route_reports_chain_and_codim(shift_pair, non_dyadic_pair):
    for st in (shift_pair, non_dyadic_pair):
        route = koszul_route(st, rho=certified_rho(st))
        assert route.chain_exact
        assert route.codim == 1
        assert route.index == -1
        assert route.homology.stabilized
        assert [rec["N"] for rec in route.per_n] == list(range(2, 2 + len(route.per_n)))


def test_sweep_stops_at_stabilization(shift_pair, repeated_pair):
    assert [rec["N"] for rec in koszul_route(shift_pair, rho=0.75).per_n] == [2, 3, 4]
    # a tuple that never stabilizes still sweeps the whole range
    route = koszul_route(repeated_pair, rho=0.75)
    assert [rec["N"] for rec in route.per_n] == list(range(2, 9))
    assert route.index == "unstable"


def test_route_scaling_invariance(quarter_pair):
    from polytoep.exact import ExactComplex
    scaled = symbols(2, *(s.scale(ExactComplex(3)) for s in quarter_pair.symbols))
    assert koszul_route(scaled, rho=0.875).index == koszul_route(quarter_pair, rho=0.875).index


def test_route_univariate_pairs():
    z = p1({(1,): 1})
    zz = p1({(2,): 1})
    assert koszul_route(symbols(1, z, zz), rho=0.75).index == 0
    assert koszul_route(symbols(1, z), rho=0.75).index == -1


def test_three_variable_shifts():
    route = koszul_route(shifts3(), rho=0.75)
    assert route.index == -1
    assert route.chain_exact


def route_peak_mb(st):
    """tracemalloc peak of one ``koszul_route(st, rho=0.75)``, in MB."""
    tracemalloc.start()
    try:
        koszul_route(st, rho=0.75)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_graded_route_memory_stays_at_grade_block_size():
    # no boundary map, enlarged map or chain product is dense: a dense
    # (z1, z2, z3) route peaks at 12.4 MB and a dense (z1², z2², z3²) one
    # at 76.8 MB
    assert route_peak_mb(shifts3()) < 2
    assert route_peak_mb(graded_tuples()[2]) < 4


def test_unstable_is_reported_not_guessed(repeated_pair, shift_pair):
    # (z1, z1) vanishes on a curve: kernel dims keep growing with N
    route = koszul_route(repeated_pair, rho=0.75)
    assert route.index == "unstable"
    assert not route.homology.stabilized
    # an honest route refuses short sweeps instead of emitting an integer
    short = koszul_route(shift_pair, range(2, 4), rho=0.75)
    assert short.index == "unstable"


def test_ideal_codim_window_values(shift_pair, monomial_pair, quarter_pair):
    # each at ρ = (1 + r)/2 of its first certifying radius r
    assert ideal_codim_window(shift_pair, rho=0.75) == 1
    assert ideal_codim_window(monomial_pair, rho=0.75) == 6
    assert ideal_codim_window(quarter_pair, rho=0.875) == 2
    assert ideal_codim_window(far_pair(), rho=0.75) == 0
    assert ideal_codim_window(symbols(1, p1({(3,): 1, (0,): "-1/8"})), rho=0.875) == 3
    assert ideal_codim_window(shifts3(), rho=0.75) == 1
    with pytest.raises(ValueError):
        ideal_codim_window(shift_pair, rho=1.0)


def dense_section(st, N):
    """Reference for A_N: the blocks P_N T_fᵢ P_N side by side, placed term by
    term (column order and signs do not change singular values)."""
    win = MonomialWindow(st.nvars, N)
    pos = {e: i for i, e in enumerate(map(tuple, win.exps.tolist()))}
    blocks = []
    for s in st.symbols:
        block = np.zeros((win.dim, win.dim), dtype=np.complex128)
        for j, a in enumerate(win.exps.tolist()):
            for e, c in coefficients(s).items():
                b = tuple(x + y for x, y in zip(a, e))
                if b in pos:
                    block[pos[b], j] = c
        blocks.append(block)
    return np.hstack(blocks)


def test_section_svdvals_match_dense_reference(non_dyadic_pair, quarter_pair):
    graded = [far_pair(), quarter_pair, shifts3()]
    ungraded = [non_dyadic_pair, rotated(non_dyadic_pair),
                symbols(2, p2({(2, 0): 1, (1, 0): "-1/12", (0, 0): "-1/12"}),
                        p2({(0, 1): 1, (0, 0): "1/4", (1, 0): "1/5"}))]
    for st, weighted in [(st, True) for st in graded] + [(st, False) for st in ungraded]:
        grading = TupleGrading(st)
        assert (grading.weights.shape[0] > 0) == weighted
        for N in ((1, 2) if st.nvars == 3 else (2, 4)):
            got = _section_svdvals(grading, N, st.degree_vec())
            ref = np.linalg.svd(dense_section(st, N), compute_uv=False)[::-1]
            assert got.shape == ref.shape == (MonomialWindow(st.nvars, N).dim,)
            assert np.all(np.diff(got) >= 0)
            assert np.all(np.abs(got - ref) <= 1e-12 * ref[-1])


def lin(nvars, var, root):
    """z_var − root in ``nvars`` variables."""
    one = tuple(int(v == var) for v in range(nvars))
    return exact_poly(nvars, {one: 1, (0,) * nvars: -Fraction(root)})


def test_zeros_outside_the_closed_polydisc_count_nothing():
    # every common zero lies outside the closed polydisc, a nearby one
    # included: codim 0 at the ρ = 0.75 of a certificate at 0.5
    tuples = [symbols(2, lin(2, 0, "5/4"), lin(2, 1, 0)),
              symbols(2, lin(2, 0, "-5/4"), lin(2, 1, 0)),
              symbols(2, lin(2, 0, "9/8"), lin(2, 1, 0)),
              symbols(3, lin(3, 0, "5/4"), lin(3, 1, 0), lin(3, 2, 0)),
              symbols(2, lin(2, 0, "65/64"), lin(2, 1, "65/64")),
              symbols(3, lin(3, 0, 2), lin(3, 1, 3))]
    for st in tuples:
        route = koszul_route(st, rho=0.75)
        assert route.codim == 0 and route.index == 0


def test_zero_near_the_torus_is_never_counted_inside():
    # a zero 10⁻³ outside the bidisc, at the ρ = 0.95 of a certificate at 0.9
    near = symbols(2, lin(2, 0, "1001/1000"), lin(2, 1, 0))
    assert koszul_route(near, rho=0.95).index != -1


def test_dump_matrices_format(shift_pair):
    text = dump_matrices(build_koszul(shift_pair, 2))
    assert text.startswith("# d1 shape ")
    header, first_row = text.splitlines()[:2]
    rows, cols = map(int, header.split()[3:5])
    assert len(first_row.split()) == cols * 2  # re/im pairs
