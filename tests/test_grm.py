"""GRM construction tests: formula fidelity, duality, nesting."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grmcodes import grm
from grmcodes.errors import LengthCapExceeded, OrderOutOfRange, UnsupportedField
from grmcodes.gf import SUPPORTED_SIZES
from grmcodes.grm import (
    GrmCode,
    build_grm,
    dual_order,
    grm_dimension,
    grm_distance,
    grm_dual_code,
)
from grmcodes.qcode import css_grm


def monomial_exponents(q, m, nu):
    """Exponent tuples with entries <= q-1 and total degree <= nu, graded-lex."""
    exps = [
        t
        for t in itertools.product(range(min(nu, q - 1) + 1), repeat=m)
        if sum(t) <= nu
    ]
    exps.sort(key=lambda t: (sum(t), t))
    return tuple(exps)


def reference_build_grm(q, m, nu):
    """R_q(nu, m) by evaluating every monomial at every point, then ``rref``.

    One gather per variable: row r is multiplied by x_i^{e_ri} at every
    point, with POW[0, 0] = 1 giving 0^0 = 1.
    """
    field = grm.get_field(q)
    exps = np.array(monomial_exponents(q, m, nu), dtype=np.intp)  # (monomials, m)
    pts = grm.point_matrix(field, m)
    rows = np.ones((len(exps), q**m), dtype=np.uint8)
    for i in range(m):
        rows = field.MUL[rows, field.POW[pts[i][None, :], exps[:, i][:, None]]]
    return grm.LinearCode(field, rows, q**m)


# every (q, m, nu) with q^m <= 256: 421 codes
ALL_SMALL_ORDERS = [
    (q, m, nu)
    for q in SUPPORTED_SIZES
    for m in range(1, 9)
    if q**m <= grm.MAX_LENGTH
    for nu in range(m * (q - 1) + 1)
]


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
    # every monomial evaluated point by point with the scalar tables,
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
                    v = f.MUL[v, f.POW[x, a]]
                row.append(v)
            rows.append(row)
        c = build_grm(q, m, nu)
        assert c.code == grm.LinearCode(f, np.array(rows, dtype=np.uint8), q**m)


def test_lagrange_rows_equal_evaluate_then_rref_on_every_small_code():
    assert len(ALL_SMALL_ORDERS) == 421
    for q, m, nu in ALL_SMALL_ORDERS:
        c = build_grm(q, m, nu).code
        ref = reference_build_grm(q, m, nu)
        assert np.array_equal(c.gen, ref.gen), (q, m, nu)
        assert c.pivots == ref.pivots, (q, m, nu)
        # the pivots are the points of the lower set {a : sum(a) <= nu}
        lower = grm.point_matrix(c.field, m).sum(axis=0) <= nu
        assert c.pivots == tuple(np.flatnonzero(lower)), (q, m, nu)


def test_lagrange_table_holds_univariate_lagrange_bases():
    for q in (2, 3, 4, 7, 9, 16):
        H = grm.lagrange_table(q)
        assert H.shape == (q, q, q) and not H.flags.writeable
        for j in range(q):
            # 1 at its own node, 0 at the other nodes 0..j; zero past j
            assert np.array_equal(H[: j + 1, j, : j + 1], np.eye(j + 1, dtype=np.uint8))
            assert not H[j + 1 :, j].any()
        # on all q nodes the basis is the indicator of each element
        assert np.array_equal(H[:, q - 1], np.eye(q, dtype=np.uint8))


# A wrong Lagrange table entry H[l, j, x] planted in the subprocess:
# one is added to it.  Over GF(3), H[0, 1, 0] (node 0's basis on the
# nodes {0, 1}, at 0) turns the first pivot of R_3(1, 2) into 0; over
# GF(7), H[0, 1, 5] only reaches column 5 of R_7(1, 1), not a pivot, so
# only the sum of the rows shows it.
PLANTED_TABLE = """
import sys
import grmcodes.grm as grm
from grmcodes.errors import ParameterMismatch
q, l, j, x, m, nu = map(int, sys.argv[1:])
H = grm.lagrange_table(q).copy()
H[l, j, x] = (int(H[l, j, x]) + 1) % q
grm.lagrange_table = lambda q: H
try:
    g = grm.build_grm(q, m, nu)
except ParameterMismatch as exc:
    print("ParameterMismatch:", exc)
else:
    print("built", g)
"""


@pytest.mark.parametrize("plant", ["3 0 1 0 2 1", "7 0 1 5 1 1"])
def test_planted_table_entry_raises_parameter_mismatch_without_asserts(plant):
    # python -O strips assert statements; the row check must still raise
    q, _, _, _, m, nu = plant.split()
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_TABLE, *plant.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"ParameterMismatch: Lagrange rows of R_{q}({nu}, {m}) are not in RREF")


def test_build_grm_guards():
    with pytest.raises(UnsupportedField):
        build_grm(6, 1, 0)
    with pytest.raises(LengthCapExceeded):
        build_grm(2, 9, 0)  # 2^9 = 512 points, over MAX_LENGTH = 256


def test_build_grm_shares_one_read_only_code_in_fresh_wrappers():
    a, b = build_grm(5, 2, 3), build_grm(5, 2, 3)
    assert a is not b and a.code is b.code
    assert not a.code.gen.flags.writeable and not a.code.free.flags.writeable
    # the dual is memoized on the shared code, so it is computed once
    assert a.code.dual() is b.code.dual()


def test_build_grm_errors_are_raised_on_every_call_and_never_cached():
    before = grm._grm_code.cache_info().currsize
    for _ in range(2):
        with pytest.raises(OrderOutOfRange):
            build_grm(3, 2, 5)
        with pytest.raises(OrderOutOfRange):
            build_grm(3, 0, 0)
        with pytest.raises(LengthCapExceeded):
            build_grm(2, 9, 0)
    assert grm._grm_code.cache_info().currsize == before


@pytest.mark.parametrize("plant", ["grm_distance", "dual_order"])
def test_warm_cache_reads_planted_closed_forms(monkeypatch, plant):
    # the closed forms are read on every call, so a code built before the
    # plant is wrapped with the planted value when it is built again
    warm = build_grm(3, 2, 1)
    true_form = getattr(grm, plant)
    monkeypatch.setattr(grm, plant, lambda q, m, nu: true_form(q, m, nu) + 1)
    g = build_grm(3, 2, 1)
    assert g.code is warm.code
    assert (g.d_formula, g.nu_perp) == {"grm_distance": (7, 2), "dual_order": (6, 3)}[plant]
    assert (warm.d_formula, warm.nu_perp) == (6, 2)


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


@pytest.mark.parametrize("q,nu", [(7, 3), (7, 9), (8, 11), (8, 12)])
def test_min_weight_exact_above_the_cap(q, nu):
    # q^k is far over the cap.  R_7(3,2) = [49,10,28]_7 has n >= 2k and the
    # information-set search's plan fits the cap, so it runs to the end; the
    # others have n < 2k, and the search's first look finds a word light
    # enough that the support route's charges up to it fit its budget
    c = build_grm(q, 2, nu)
    assert c.code.field.q**c.k > 2**24
    assert c.code.min_weight() == (c.d_formula, True)


def test_css_grm_records_the_nesting_weights():
    # a strict pair records wt(C2) and wt(C2 minus C1); the difference set
    # attains wt(C2) = d(nu2)
    prov = css_grm(3, 2, 1, 2).provenance
    assert prov["branch"] == "strict" and prov["k1"] < prov["k2"]
    assert prov["wt_c2"] == prov["wt_diff_c2_c1"] == grm_distance(3, 2, 2) == 3
    # order 0 inside anything: the difference weight is d(nu2) < q^m
    prov = css_grm(3, 2, 0, 2).provenance
    assert prov["wt_diff_c2_c1"] == prov["wt_c2"] == grm_distance(3, 2, 2) < 9
    # equal orders leave no difference set to weigh
    prov = css_grm(3, 2, 2, 2).provenance
    assert prov["branch"] == "equal" and "wt_diff_c2_c1" not in prov


def test_grm_code_repr_and_fields():
    c = build_grm(3, 2, 2)
    assert c.nu_perp == 1
    assert c.k_formula == 6 and c.d_formula == 3
    assert isinstance(c, GrmCode)
