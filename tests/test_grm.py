"""GRM construction tests: formula fidelity, duality, nesting."""

import itertools

import numpy as np
import pytest

from grmcodes import grm
from grmcodes.errors import LengthCapExceeded, NotNested, OrderOutOfRange, UnsupportedField
from grmcodes.grm import (
    GrmCode,
    build_grm,
    dual_order,
    grm_dimension,
    grm_distance,
    grm_dual_code,
    monomial_exponents,
    nesting_weight_check,
)


def oracle_dimension(q, m, nu):
    """Count exponent tuples directly, without the closed form."""
    return sum(
        1
        for t in itertools.product(range(q), repeat=m)
        if sum(t) <= nu
    )


def test_dimension_formula_matches_monomial_count():
    for q in (2, 3, 4, 5):
        for m in (1, 2):
            for nu in range(m * (q - 1) + 1):
                assert grm_dimension(q, m, nu) == oracle_dimension(q, m, nu)


def test_dimension_and_distance_known_values():
    assert grm_dimension(3, 2, 1) == 3
    assert grm_distance(3, 2, 1) == 6
    assert grm_distance(4, 1, 1) == 3
    # univariate case: k = nu+1 and the dual order's distance is nu+2
    for q in (3, 4, 5, 7):
        for nu in range(q - 1):
            assert grm_dimension(q, 1, nu) == nu + 1
            assert grm_distance(q, 1, dual_order(q, 1, nu)) == nu + 2


def test_order_zero_and_full_orders():
    for q, m in ((2, 2), (3, 2), (5, 1)):
        assert grm_dimension(q, m, 0) == 1
        assert grm_distance(q, m, 0) == q**m
        assert grm_dimension(q, m, m * (q - 1)) == q**m
        assert grm_distance(q, m, m * (q - 1)) == 1


def test_order_out_of_range():
    with pytest.raises(OrderOutOfRange):
        grm_dimension(3, 2, -1)
    with pytest.raises(OrderOutOfRange):
        grm_distance(3, 2, 5)
    with pytest.raises(OrderOutOfRange):
        build_grm(3, 2, 9)


def test_monomial_basis_is_graded_lex_and_capped():
    exps = monomial_exponents(3, 2, 3)
    degs = [sum(t) for t in exps]
    assert degs == sorted(degs)
    assert all(max(t) <= 2 for t in exps)
    for d in set(degs):
        level = [t for t in exps if sum(t) == d]
        assert level == sorted(level)


def test_build_grm_small_parameters():
    c = build_grm(2, 2, 1)
    assert (c.n, c.k) == (4, 3) and c.code.min_weight() == (2, True)
    c = build_grm(3, 2, 1)
    assert (c.n, c.k) == (9, 3) and c.code.min_weight() == (6, True)
    # m=1 is the extended Reed-Solomon code
    c = build_grm(4, 1, 1)
    assert (c.n, c.k) == (4, 2) and c.code.min_weight() == (3, True)


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (4, 2), (5, 1), (7, 2), (8, 1), (9, 2), (16, 1)])
def test_build_grm_matches_scalar_evaluation(q, m):
    # every monomial evaluated point by point with scalar field operations,
    # 0^0 = 1 included
    f = grm.get_field(q)
    pts = list(itertools.product(range(q), repeat=m))
    pts = [p[::-1] for p in pts]  # coordinate 0 varies fastest
    for nu in range(m * (q - 1) + 1):
        rows = []
        for exps in monomial_exponents(q, m, nu):
            row = []
            for p in pts:
                v = 1
                for x, a in zip(p, exps):
                    v = f.mul(v, f.pow(x, a))
                row.append(v)
            rows.append(row)
        c = build_grm(q, m, nu)
        assert c.code == grm.LinearCode(f, np.array(rows, dtype=np.uint8), q**m)


def test_build_grm_guards():
    with pytest.raises(UnsupportedField):
        build_grm(6, 1, 0)
    with pytest.raises(LengthCapExceeded):
        build_grm(2, 9, 0)  # 2^9 = 512 points, over MAX_LENGTH = 256


def test_point_order_is_base_q_counter():
    pts = grm.point_matrix(grm.get_field(3), 2)
    assert list(pts[0][:4]) == [0, 1, 2, 0]  # least significant coordinate first
    assert list(pts[1][:4]) == [0, 0, 0, 1]


def test_order_zero_code_is_all_ones_span():
    for q, m in ((2, 2), (3, 2), (4, 1), (9, 1)):
        c = build_grm(q, m, 0)
        assert np.array_equal(c.code.gen, np.ones((1, q**m), dtype=np.uint8))


def test_monotone_nesting():
    for q, m in ((2, 2), (3, 2), (4, 1)):
        codes = [build_grm(q, m, nu) for nu in range(m * (q - 1) + 1)]
        for lo, hi in zip(codes, codes[1:]):
            assert lo.code.is_subcode_of(hi.code)
            assert lo.k < hi.k


def test_dual_identity_canonical_matrices():
    for q, m in ((2, 2), (3, 2), (4, 1), (5, 1)):
        for nu in range(m * (q - 1) + 1):
            c = build_grm(q, m, nu)
            assert c.code.dual() == grm_dual_code(c)


def test_distance_strictly_decreases_in_order():
    for q in (2, 3, 4, 5):
        for m in (1, 2):
            ds = [grm_distance(q, m, nu) for nu in range(m * (q - 1) + 1)]
            assert all(a > b for a, b in zip(ds, ds[1:]))


def test_exhaustive_distance_matches_formula_small():
    for q, m in ((2, 2), (3, 2), (4, 1), (5, 1)):
        for nu in range(m * (q - 1) + 1):
            c = build_grm(q, m, nu)
            w, exact = c.code.min_weight()
            assert exact and w == c.d_formula


@pytest.mark.parametrize("q,nu", [(7, 9), (8, 11), (8, 12)])
def test_min_weight_exact_above_the_cap(q, nu):
    # q^k is far over the cap; the information-set bound's lightest word
    # shows the support route will finish, so the distance comes out exact
    c = build_grm(q, 2, nu)
    assert c.code.field.q**c.k > 2**24
    assert c.code.min_weight() == (c.d_formula, True)


def test_nesting_weight_check_reports():
    rep = nesting_weight_check(3, 2, 1, 2)
    assert rep["wt_c2"] == 3 and rep["wt_difference"] == 3
    assert rep["difference_attains_wt_c2"]
    # order 0 inside anything: difference weight equals d(nu2) < q^m
    rep = nesting_weight_check(3, 2, 0, 2)
    assert rep["wt_difference"] == grm_distance(3, 2, 2) < 9
    with pytest.raises(NotNested):
        nesting_weight_check(3, 2, 2, 2)


def test_grm_code_repr_and_fields():
    c = build_grm(3, 2, 2)
    assert c.nu_perp == 1
    assert c.k_formula == 6 and c.d_formula == 3
    assert isinstance(c, GrmCode)
