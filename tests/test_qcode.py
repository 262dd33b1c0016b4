"""CSS and Hermitian construction tests."""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grmcodes import gf, lincode
from grmcodes.errors import (
    DimensionMismatch,
    FieldMismatch,
    InexactParameters,
    NotNested,
    NotSelfOrthogonal,
    OrderOutOfRange,
    ParameterMismatch,
)
from grmcodes.grm import build_grm, dual_order, grm_dimension, grm_distance
from grmcodes.lincode import DEFAULT_CAP, LinearCode
from grmcodes.qcode import (
    StabilizerMatrix,
    check_quantum_orders,
    css,
    css_grm,
    hermitian,
    hermitian_grm,
    hermitian_self_orthogonal,
    quantum_orders,
    require,
)


def hermitian_distance_formula(q, nu):
    """The predicted Hermitian distance written out: (R+1)q^(2Q), nu+1 = (q^2-1)Q + R."""
    Q, R = divmod(nu + 1, q * q - 1)
    return (R + 1) * q ** (2 * Q)


def test_css_trivial_pair_gives_full_parameter_code():
    f = gf.get_field(3)
    rec = css(LinearCode.zero_code(f, 5), LinearCode(f, np.eye(5, dtype=np.uint8), 5))
    assert (rec.n, rec.k, rec.d) == (5, 5, 1)
    assert rec.params_str() == "[[5,5,1]]_3"
    assert rec.singleton_slack == 0 and rec.is_mds


def test_css_requires_nesting():
    f = gf.get_field(2)
    a = LinearCode(f, np.array([[1, 0, 0, 0]], dtype=np.uint8), 4)
    b = LinearCode(f, np.array([[0, 1, 0, 0]], dtype=np.uint8), 4)
    with pytest.raises(NotNested):
        css(a, b)


def test_css_rejects_inputs_over_different_fields_or_lengths():
    f2, f3 = gf.get_field(2), gf.get_field(3)
    with pytest.raises(FieldMismatch):
        css(LinearCode.zero_code(f2, 4), LinearCode(f3, np.eye(4, dtype=np.uint8), 4))
    with pytest.raises(DimensionMismatch):
        css(LinearCode.zero_code(f2, 4), LinearCode(f2, np.eye(5, dtype=np.uint8), 5))


@pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3, 4, 5) for m in (1, 2, 3)])
def test_quantum_orders_are_those_with_a_nonzero_dual(q, m):
    orders = quantum_orders(q, m)
    assert list(orders) == [nu for nu in range(m * (q - 1) + 1) if dual_order(q, m, nu) >= 0]
    top = m * (q - 1) - 1
    for nu in orders:
        check_quantum_orders(q, m, nu=nu)
        check_quantum_orders(q, m, nu1=nu, nu2=top)
    for bad in ({"nu": -1}, {"nu": top + 1}, {"nu1": 0, "nu2": top + 1}, {"nu1": 1, "nu2": 0}):
        with pytest.raises(OrderOutOfRange, match=rf"<= m\(q-1\)-1 = {top} for q={q}, m={m}, got"):
            check_quantum_orders(q, m, **bad)


def test_css_grm_9_3_3():
    rec = css_grm(3, 2, 1, 2)
    assert (rec.n, rec.k, rec.d) == (9, 3, 3)
    assert rec.pure is True and rec.exact
    assert rec.singleton_slack == 2
    assert rec.stabilizer.is_self_orthogonal()


def test_css_grm_degenerate_equal_orders():
    rec = css_grm(3, 2, 2, 2)
    assert rec.k == 0
    assert rec.provenance["branch"] == "equal"
    assert rec.d == min(grm_distance(3, 2, 2), grm_distance(3, 2, dual_order(3, 2, 2)))


def test_css_grm_range_checks():
    with pytest.raises(OrderOutOfRange):
        css_grm(3, 2, 2, 1)
    with pytest.raises(OrderOutOfRange):
        css_grm(3, 2, 0, 4)  # nu2 = m(q-1) is classical-only


def test_css_grm_matches_formula_on_grid():
    for q, m in ((2, 2), (3, 2)):
        top = m * (q - 1) - 1
        for nu1 in range(top + 1):
            for nu2 in range(nu1, top + 1):
                rec = css_grm(q, m, nu1, nu2)
                assert rec.exact
                assert rec.d == min(
                    grm_distance(q, m, dual_order(q, m, nu1)), grm_distance(q, m, nu2)
                )


def test_css_stabilizer_layout():
    rec = css_grm(3, 2, 1, 2)
    stab = rec.stabilizer
    X, Z = stab.matrix[:, : stab.n], stab.matrix[:, stab.n :]
    assert X.shape == (6, 9) and Z.shape == (6, 9)
    c1 = build_grm(3, 2, 1).code
    c2perp = build_grm(3, 2, 2).code.dual()
    assert np.array_equal(X[: c1.k], c1.gen) and not np.any(X[c1.k :])
    assert np.array_equal(Z[c1.k :], c2perp.gen) and not np.any(Z[: c1.k])


def test_css_degrades_to_lower_bound_when_capped():
    # a plain pair states no distance: a capped record keeps the trivial
    # bound 1; the GRM family writes its promised distance itself
    g1 = build_grm(3, 2, 1).code
    g2 = build_grm(3, 2, 2).code
    rec = css(g1, g2, cap=1)
    assert rec.d == 1 and rec.d_is_lower_bound and rec.pure is None
    assert rec.provenance["distance_capped"] is True
    with pytest.raises(InexactParameters):
        rec.singleton_slack
    family = css_grm(3, 2, 1, 2, cap=1)
    assert family.d == 3 and family.d_is_lower_bound and family.pure is None
    assert family.params_str() == "[[9,3,>=3]]_3"
    assert ("distance_bound_recorded", True, 3, 3, False) in family.checks


def test_a_side_the_engine_gives_up_on_ends_the_distance_at_the_trivial_bound(monkeypatch):
    # R_7(4, 2) minus R_7(2, 2) at cap 734: the engine gives up having
    # certified 2, below the other side's exact 4, so d is not settled; and
    # the Hermitian dual of R_16(3, 2) minus the code at cap 2559, which
    # gives up at 1.  Each cap is one below the footprint route's price
    # n min(k, n - k), 49 * 15 and 256 * 10, which settles both sides at the
    # default cap.  The distribution route fits neither: R_7(4, 2) and its
    # dual span at least 7^15 words, the Hermitian dual and its dual 16^10.
    # A plain record keeps the trivial bound 1, not the certified one
    calls = []
    real = lincode.exact_min_weight
    monkeypatch.setattr(lincode, "exact_min_weight", lambda *args: calls.append(real(*args)) or calls[-1])
    rec = css(build_grm(7, 2, 2).code, build_grm(7, 2, 4).code, cap=734)
    assert [tuple(w) for w in calls] == [(21, 2, False), (4, 4, True)]
    assert (rec.d, rec.d_is_lower_bound, rec.pure) == (1, True, None)
    prov = {"n": 49, "k1": 6, "k2": 15, "branch": "strict", "cap": 734, "distance_capped": True}
    assert rec.provenance == prov
    calls.clear()
    rec = hermitian(build_grm(16, 2, 3).code, cap=2559)
    assert [w[1:] for w in calls] == [(1, False)]
    assert (rec.d, rec.d_is_lower_bound, rec.pure) == (1, True, None)
    assert rec.provenance == {"n": 256, "k_classical": 10, "cap": 2559, "distance_capped": True}


@pytest.mark.parametrize(
    "q, m, nu1, nu2, cap, key, bound, exact",
    [
        # C2 minus C1 is capped at 3, C1-perp minus C2-perp exact at 2
        (7, 2, 0, 1, 146, "bound_c2_c1", 3, {"wt_c1perp": 2, "wt_diff_c1perp_c2perp": 2}),
        # its bound 3 equals the exact side's 3: still settled
        (4, 3, 1, 2, 639, "bound_c2_c1", 3, {"wt_c1perp": 3, "wt_diff_c1perp_c2perp": 3}),
        # C1-perp minus C2-perp capped at 3, C2 minus C1 exact at 2
        (7, 2, 10, 11, 146, "bound_c1perp_c2perp", 3, {"wt_c2": 2, "wt_diff_c2_c1": 2}),
    ],
)
def test_one_exact_side_settles_a_css_distance(q, m, nu1, nu2, cap, key, bound, exact):
    # d = min over both sides; one side's exact weight is d when the other
    # side certified at least as much.  The capped side records its bound
    # under its own key, and the record is exact, pure and the closed form.
    # Each cap is one below the footprint route's price n min(k, n - k) on
    # the capped side, and at least its price on the exact one
    rec = css_grm(q, m, nu1, nu2, cap)
    assert rec.exact and rec.pure is True and rec.d == min(exact.values())
    assert {k: v for k, v in rec.provenance.items() if k.startswith(("wt_", "bound_"))} == {key: bound, **exact}
    assert "distance_capped" not in rec.provenance


@pytest.mark.parametrize(
    "weights, d, pure",
    [
        ([(3, 3, True), (9, 4, False)], 3, True),
        ([(3, 3, True), (9, 3, False)], 3, True),
        # the capped side saw a word of weight 2 < d, so its code is impure
        ([(3, 3, True), (2, 4, False)], 3, False),
        ([(4, 5, False), (3, 3, True)], 3, True),
        ([(2, 5, False), (3, 3, True)], 3, False),
        # the exact side's word of weight 2 lies in its excluded code
        ([(2, 3, True), (9, 3, False)], 3, False),
        # a bound below the exact side's weight settles nothing
        ([(3, 3, True), (9, 2, False)], None, None),
        ([(9, 2, False), (3, 3, True)], None, None),
        ([(9, 3, False), (9, 3, False)], None, None),
    ],
)
def test_css_distance_and_purity_from_each_sides_weights(monkeypatch, weights, d, pure):
    # purity needs a floor on each side's whole code: its exact weight, or
    # for a capped side min(code, diff), never the bound on the difference
    answers = iter(lincode.Weights(*w) for w in weights)
    monkeypatch.setattr(lincode, "exact_min_weight", lambda *args: next(answers))
    rec = css(build_grm(3, 2, 1).code, build_grm(3, 2, 2).code)
    if d is None:
        assert (rec.d, rec.d_is_lower_bound, rec.pure) == (1, True, None)
        assert rec.provenance["distance_capped"] is True
    else:
        assert (rec.d, rec.d_is_lower_bound, rec.pure) == (d, False, pure)
        capped = [i for i, w in enumerate(weights) if not w[2]]
        keys = ["bound_c2_c1", "bound_c1perp_c2perp"]
        assert {k: rec.provenance[k] for k in keys if k in rec.provenance} == {keys[i]: weights[i][1] for i in capped}


@pytest.mark.parametrize(
    "q,nu,expect",
    [(3, 0, (3, 1, 2)), (5, 0, (5, 3, 2)), (5, 1, (5, 1, 3)), (7, 1, (7, 3, 3)), (7, 2, (7, 1, 4))],
)
def test_css_selfdual_pair_univariate_mds(q, nu, expect):
    # the pair (nu, nu-perp): [[n, n - 2k(nu), d(nu-perp)]]
    nu_perp = dual_order(q, 1, nu)
    rec = css_grm(q, 1, nu, nu_perp)
    assert (rec.n, rec.k, rec.d) == expect
    assert (rec.k, rec.d) == (q - 2 * grm_dimension(q, 1, nu), grm_distance(q, 1, nu_perp))
    assert rec.pure is True
    assert rec.is_mds


def test_css_selfdual_pair_multivariate_and_range():
    rec = css_grm(2, 2, 0, dual_order(2, 2, 0))
    assert (rec.n, rec.k, rec.d) == (4, 2, 2)
    assert (rec.k, rec.d) == (4 - 2 * grm_dimension(2, 2, 0), grm_distance(2, 2, 1))
    with pytest.raises(OrderOutOfRange):
        css_grm(3, 1, 2, dual_order(3, 1, 2))  # nu > nu-perp = (m(q-1)-1) - nu


def test_hermitian_self_orthogonality():
    f4 = gf.get_field(4)
    assert hermitian_self_orthogonal(LinearCode.zero_code(f4, 3))
    # R_{q^2}(nu, m) for nu <= m(q-1)-1 is self-orthogonal
    for q, m in ((2, 1), (2, 2), (3, 1), (4, 1)):
        for nu in range(m * (q - 1)):
            g = build_grm(q * q, m, nu)
            assert hermitian_self_orthogonal(g.code)
    # out of range: R_4(1,1) fails (that order exceeds m(q-1)-1 = 0 for q=2)
    assert not hermitian_self_orthogonal(build_grm(4, 1, 1).code)


def test_hermitian_rejects_non_self_orthogonal_input():
    with pytest.raises(NotSelfOrthogonal):
        hermitian(build_grm(4, 1, 1).code)


def test_hermitian_repetition_over_gf4():
    f4 = gf.get_field(4)
    rep = LinearCode(f4, np.ones((1, 4), dtype=np.uint8), 4)
    rec = hermitian(rep)
    assert (rec.q, rec.n, rec.k, rec.d) == (2, 4, 2, 2)
    assert rec.pure is True


def test_hermitian_zero_code():
    f9 = gf.get_field(9)
    rec = hermitian(LinearCode.zero_code(f9, 5))
    assert (rec.q, rec.n, rec.k, rec.d) == (3, 5, 5, 1)


@pytest.mark.parametrize(
    "q,m,nu,expect",
    [
        (2, 1, 0, (4, 2, 2)),
        (3, 1, 0, (9, 7, 2)),
        (3, 1, 1, (9, 5, 3)),
        (2, 2, 1, (16, 10, 3)),
    ],
)
def test_hermitian_grm_known_records(q, m, nu, expect):
    rec = hermitian_grm(q, m, nu)
    assert (rec.n, rec.k, rec.d) == expect
    assert rec.q == q and rec.pure is True and rec.exact
    assert rec.stabilizer.is_self_orthogonal()


def test_hermitian_grm_distance_formula():
    assert hermitian_distance_formula(2, 1) == 3
    assert hermitian_distance_formula(3, 1) == 3
    assert hermitian_distance_formula(2, 0) == 2
    # wrap into the q^{2Q} factor once nu+1 passes q^2 - 1
    assert hermitian_distance_formula(2, 2) == 4  # nu+1 = 3 = (4-1)*1 + 0
    for q, m, nu, d in ((2, 1, 0, 2), (3, 1, 1, 3), (2, 2, 1, 3)):
        rec = hermitian_grm(q, m, nu)
        assert rec.d == rec.provenance["d_predicted"] == hermitian_distance_formula(q, nu) == d


@pytest.mark.parametrize(
    "q,m", [(q, m) for q in (2, 3, 4, 5, 7, 8) for m in (1, 2) if q ** (2 * m) <= 256]
)
def test_hermitian_distance_formula_is_the_grm_distance_of_the_dual_order(q, m):
    # nu+1 = m(q^2-1) - nu_perp, so the written-out formula is d(nu-perp) over GF(q^2)
    for nu in range(m * (q - 1)):
        assert hermitian_distance_formula(q, nu) == grm_distance(q * q, m, dual_order(q * q, m, nu))


def test_hermitian_grm_range():
    with pytest.raises(OrderOutOfRange):
        hermitian_grm(3, 1, 2)


def test_hermitian_stabilizer_expansion_is_symplectic():
    rec = hermitian_grm(3, 1, 1)
    stab = rec.stabilizer
    M = stab.expanded()
    assert M.shape == (2 * 2, 2 * 9)  # 2k rows over GF(3)
    assert stab.is_self_orthogonal()
    assert stab.base_field().q == 3


def test_purity_certificates_on_small_grid():
    # wt(C2 - C1) = wt(C2) and wt(C1perp - C2perp) = wt(C1perp)
    for q, m in ((2, 2), (3, 2)):
        top = m * (q - 1) - 1
        for nu1 in range(top + 1):
            for nu2 in range(nu1 + 1, top + 1):
                rec = css_grm(q, m, nu1, nu2)
                p = rec.provenance
                assert p["wt_diff_c2_c1"] == p["wt_c2"]
                assert p["wt_diff_c1perp_c2perp"] == p["wt_c1perp"]


def binary_words(code):
    """Every codeword of a binary code, by brute force over all messages."""
    msgs = np.array(list(itertools.product((0, 1), repeat=code.k)), dtype=np.int64).reshape(2**code.k, code.k)
    return (msgs @ code.gen.astype(np.int64)) % 2


def test_css_purity_matches_brute_force():
    # pure: no nonzero stabilizer (a|b), a in C1, b in C2-perp, has
    # symplectic weight |supp a u supp b| below d
    f = gf.get_field(2)
    rng = np.random.default_rng(31)
    checked = old_rule_wrong = 0
    for _ in range(150):
        n = int(rng.integers(2, 8))
        C2 = LinearCode(f, rng.integers(0, 2, size=(int(rng.integers(1, n + 1)), n)), n)
        if C2.k == 0:
            continue
        C1 = LinearCode(f, f.matmul(rng.integers(0, 2, size=(int(rng.integers(0, C2.k)), C2.k)), C2.gen), n)
        if C1.k == C2.k:
            continue
        rec = css(C1, C2)
        as_set = lambda code: {tuple(w) for w in binary_words(code)}  # noqa: E731
        logical = (as_set(C2) - as_set(C1)) | (as_set(C1.dual()) - as_set(C2.dual()))
        d = min(sum(w) for w in logical)
        X, Z = binary_words(C1) != 0, binary_words(C2.dual()) != 0
        sympl = (X[:, None, :] | Z[None, :, :]).sum(axis=2)
        pure = bool((sympl[sympl > 0] >= d).all())
        assert rec.d == d and rec.pure == pure
        p = rec.provenance
        old_rule_wrong += pure != (p["wt_diff_c2_c1"] == p["wt_c2"] and p["wt_diff_c1perp_c2perp"] == p["wt_c1perp"])
        checked += 1
    assert checked >= 100 and old_rule_wrong >= 10


# A wrong closed form planted in the subprocess: d(nu2) is off by one for
# R_3(2, 2), so css_grm(3, 2, 1, 2) predicts d = 4 where enumeration gives 3.
PLANTED_DISTANCE = """
import grmcodes.qcode as qcode
from grmcodes.errors import ParameterMismatch
true_distance = qcode.grm_distance
qcode.grm_distance = lambda q, m, nu: true_distance(q, m, nu) + ((q, m, nu) == (3, 2, 2))
try:
    rec = qcode.css_grm(3, 2, 1, 2)
except ParameterMismatch as exc:
    print("ParameterMismatch:", exc)
else:
    print("record", rec.params_str())
"""


def test_planted_closed_form_raises_parameter_mismatch_without_asserts():
    # python -O strips assert statements; a parameter claim must still raise
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_DISTANCE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ParameterMismatch: CSS check distance_matches_formula failed: observed 3, expected 4\n"


@pytest.mark.parametrize("construction", ["CSS", "Hermitian"])
def test_planted_symplectic_gram_fails_the_named_stabilizer_check(monkeypatch, construction):
    # a nonzero Gram matrix is decided as the stabilizer_symplectic check,
    # the one way a claim fails, by both plain constructions
    monkeypatch.setattr(StabilizerMatrix, "symplectic_gram", lambda self: np.ones((1, 1), dtype=np.uint8))
    build = {
        "CSS": lambda: css(build_grm(3, 2, 1).code, build_grm(3, 2, 2).code),
        "Hermitian": lambda: hermitian(build_grm(9, 1, 1).code),
    }[construction]
    message = f"{construction} check stabilizer_symplectic failed: observed None, expected None"
    with pytest.raises(ParameterMismatch) as info:
        build()
    assert str(info.value) == message


def test_record_keeps_its_checks_out_of_its_dict_equality_and_repr():
    rec = css_grm(3, 2, 1, 2)
    assert rec.checks == [
        ("dimension_matches_formula", True, 3, 3, True),
        ("distance_matches_formula", True, 3, 3, True),
        ("purity_certified", True, True, True, True),
        ("singleton_slack_nonnegative", True, 2, ">=0", True),
        ("stabilizer_symplectic", True, None, None, True),
    ]
    bare = dataclasses.replace(rec, checks=[])
    assert bare == rec and repr(bare) == repr(rec) and bare.to_dict() == rec.to_dict()


def test_require_raises_at_the_first_failed_check_and_lists_the_stabilizer_last():
    rec = css_grm(3, 2, 1, 2)
    checks = [("first", True, 0, 0, True), ("second", False, 1, 2, True), ("third", False, 3, 4, True)]
    with pytest.raises(ParameterMismatch) as info:
        require(rec, *checks)
    assert str(info.value) == "CSS check second failed: observed 1, expected 2"
    assert rec.checks == [*checks, ("stabilizer_symplectic", True, None, None, True)]
    assert require(rec, checks[0]) is rec
