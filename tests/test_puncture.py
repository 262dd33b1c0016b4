"""Puncture code and punctured quantum code tests."""

import tracemalloc
from functools import partial
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grmcodes.grm as grm
import grmcodes.lincode as lincode
import grmcodes.puncture as puncture
import grmcodes.qcode as qcode
from grmcodes import gf
from grmcodes.errors import (
    NoEmbeddingDefined,
    NotNested,
    OrderOutOfRange,
    ParameterMismatch,
    UnsupportedField,
    WitnessInvalid,
    WitnessNotFound,
)
from grmcodes.grm import build_grm, grm_distance
from grmcodes.lincode import DEFAULT_CAP, LinearCode, product_rows
from grmcodes.puncture import (
    PunctureCodeRecord,
    PunctureWitness,
    find_weight_witness,
    mds_chain,
    puncture_code_css,
    puncture_code_hermitian,
    puncture_css,
    puncture_hermitian,
)


@st.composite
def _random_code(draw, q: int, n: int):
    """A random code over GF(q) of length n, from 0 to n generator rows."""
    rows = draw(st.integers(0, n))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * n, max_size=rows * n))
    return LinearCode(gf.get_field(q), np.array(entries, dtype=np.uint8).reshape(rows, n), n)


@st.composite
def nested_pair(draw):
    """C1 <= C2 of length <= 8, either side possibly zero or the full space."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    C2 = draw(_random_code(q, draw(st.integers(1, 8))))
    U = draw(_random_code(q, C2.k)) if C2.k else LinearCode.zero_code(C2.field, 0)
    return LinearCode(C2.field, C2.field.matmul(U.gen, C2.gen), C2.n), C2


def product_span(a, b):
    """The span of every product u*v, u in a and v in b, from their rows' products."""
    return LinearCode(a.field, product_rows(a, b), a.n)


def trace_code(C):
    """The componentwise trace image of a code over a tower top, over the base field."""
    pair = gf.extension_pair_for(C.field)
    return LinearCode(pair.sub, pair.trace_rows(C.gen), C.n)


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(nested_pair())
def test_css_puncture_code_is_the_dual_of_the_product_span(pair):
    C1, C2 = pair
    assert puncture_code_css(C1, C2).pcode == product_span(C1, C2.dual()).dual()


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from([4, 9, 16, 25, 49, 64]).flatmap(lambda q: _random_code(q, 6)))
def test_hermitian_puncture_code_is_the_dual_of_the_trace_code(C):
    expect = trace_code(product_span(C, C.frobenius_image())).dual()
    assert puncture_code_hermitian(C).pcode == expect


@pytest.mark.parametrize("q, nu", [(3, nu) for nu in range(4)] + [(4, nu) for nu in range(1, 6)])
def test_hermitian_puncture_codes_of_the_benchmark_grm_codes(q, nu):
    # the puncture-build workload's Hermitian cases, against the span,
    # trace code and dual they no longer build
    C = build_grm(q * q, 2, nu).code
    assert puncture_code_hermitian(C).pcode == trace_code(product_span(C, C.frobenius_image())).dual()


@pytest.mark.parametrize("q, m", [(5, 2), (7, 2)])
def test_css_puncture_codes_of_every_benchmark_grm_pair(q, m):
    top = m * (q - 1) - 1
    for nu1 in range(top + 1):
        for nu2 in range(nu1, top + 1):
            C1, C2 = build_grm(q, m, nu1).code, build_grm(q, m, nu2).code
            assert puncture_code_css(C1, C2).pcode == product_span(C1, C2.dual()).dual()


def test_known_subcode_witness_scan_stays_within_the_scan_budget():
    # `puncture hermitian -q 3 -m 2 --nu 2 --target-weight 27`: the [81,45]_3
    # puncture code tops the cap, so the witness comes from scans of the
    # known restriction subcodes, whose 8 MB blocks peaked at 1.7 MB
    rec = puncture_code_hermitian(build_grm(9, 2, 2))
    assert 3**rec.pcode.k > DEFAULT_CAP
    find_weight_witness(rec, 27)
    tracemalloc.start()
    try:
        w = find_weight_witness(rec, 27)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.weight == 27 and w.source != "pcode"
    assert peak <= lincode._SCAN_BYTES + 16 * 1024


def test_only_the_information_set_search_settles_the_q7_punctured_css_side():
    # `puncture css -q 7 -m 2 --nu1 2 --nu2 6 --target-weight 35` gives
    # [[35,9,4]]_7.  Its C2 minus C1 side, [35,15]_7 minus [35,6]_7, weighs 7,
    # and every route but the search with budget = cap declines it: length 35
    # is no power of 7 (footprint), the smaller span 7^15 tops the cap
    # (distributions), and the support sizes up to 7 charge more subsets than
    # the support search's budget.  The search's first look alone leaves a
    # bound below 7
    g1, g2 = build_grm(7, 2, 2), build_grm(7, 2, 6)
    x = find_weight_witness(puncture_code_css(g1, g2), 35).x
    support = np.flatnonzero(x)
    C1 = g1.code.scaled_by(x).punctured_to(support)
    C2 = g2.code.dual().punctured_to(support).dual()
    assert (C2.n, C2.k, C1.k) == (35, 15, 6)
    cap = DEFAULT_CAP
    assert lincode._footprint_weights(C2, C1, cap) is None
    assert lincode._smaller_span(C2) == 7**15 > cap
    assert sum(comb(35, w) for w in range(1, 8)) > lincode._subset_budget(cap)
    assert lincode._information_set_search(C2, C1, 0, lincode._look_weight(7, 15, cap))[1] < 7
    assert lincode.exact_min_weight(C2, C1, cap) == (7, 7, True)


def test_puncture_code_css_trivial_cases():
    f = gf.get_field(3)
    z = LinearCode.zero_code(f, 4)
    full = LinearCode(f, np.eye(4, dtype=np.uint8), 4)
    # empty product set: the puncture code is the full space
    assert puncture_code_css(z, full).pcode == full
    assert puncture_code_css(z, z).pcode == full
    with pytest.raises(NotNested):
        puncture_code_css(full, z)


def test_puncture_code_css_equals_grm_difference_order():
    for nu1 in range(4):
        for nu2 in range(nu1, 4):
            rec = puncture_code_css(build_grm(3, 2, nu1), build_grm(3, 2, nu2))
            assert rec.pcode == build_grm(3, 2, nu2 - nu1).code
            assert rec.provenance["grm_identity"]
            for _, sub in rec.known_subcodes:
                assert sub.is_subcode_of(rec.pcode)


def test_puncture_code_css_identity_wider_grid():
    # beyond q=3, m=2: q=2 with m in {1,2}, q=3 with m=1, and (q,m)=(4,1)
    for q, m in ((2, 1), (2, 2), (3, 1), (4, 1)):
        top = m * (q - 1) - 1
        for nu1 in range(top + 1):
            for nu2 in range(nu1, top + 1):
                rec = puncture_code_css(build_grm(q, m, nu1), build_grm(q, m, nu2))
                assert rec.pcode == build_grm(q, m, nu2 - nu1).code


def test_puncture_code_css_full_space_pair_has_full_puncture_code():
    # with nu2 = m(q-1) the dual side is the zero code, so every length works
    f = gf.get_field(3)
    rec = puncture_code_css(build_grm(3, 2, 1), build_grm(3, 2, 4))
    assert rec.pcode == LinearCode(f, np.eye(9, dtype=np.uint8), 9)
    assert "grm_identity" not in rec.provenance


def test_hermitian_puncture_containment_q2():
    # base q=2: C = R_4(0,1), mu ranges over [0, 2]
    rec = puncture_code_hermitian(build_grm(4, 1, 0))
    assert len(rec.known_subcodes) == 3
    for _, sub in rec.known_subcodes:
        assert sub.is_subcode_of(rec.pcode)


def _count_grm_builds(monkeypatch) -> list:
    built = []
    real = puncture.build_grm

    def counting(q, m, nu):
        built.append((q, m, nu))
        return real(q, m, nu)

    monkeypatch.setattr(puncture, "build_grm", counting)
    return built


def _count_generator_builds(monkeypatch) -> list:
    # an empty code cache, and the order of every generator built from here
    grm._grm_code.cache_clear()
    built = []
    real = grm._lagrange_rows

    def counting(field, m, nu, digit_sum):
        built.append(nu)
        return real(field, m, nu, digit_sum)

    monkeypatch.setattr(grm, "_lagrange_rows", counting)
    return built


def test_puncture_code_css_builds_each_grm_order_once(monkeypatch):
    # R_q(nu2 - nu1, m) serves as the identity check and as the last known
    # subcode, and the caller's R_q(nu1, m) is the process's shared code:
    # every order in 0..diff but nu1 is built exactly once, a second
    # puncture code builds none
    built = _count_generator_builds(monkeypatch)
    g1, g2 = build_grm(7, 2, 2), build_grm(7, 2, 9)
    del built[:]
    rec = puncture_code_css(g1, g2)
    assert sorted(built) == [0, 1, 3, 4, 5, 6, 7]
    assert puncture_code_css(g1, g2).known_subcodes == rec.known_subcodes and len(built) == 7
    assert rec.known_subcodes[2][1] is g1.code
    expect = sorted(((f"grm(q=7,m=2,nu={mu})", build_grm(7, 2, mu).code) for mu in range(8)), key=lambda t: t[1].k)
    assert rec.known_subcodes == expect


def test_puncture_code_hermitian_reuses_the_callers_code(monkeypatch):
    # q = 3, m = 1, nu = 1: mu runs over [4, 8), so mu_perp = 7 - mu over
    # 3..0, and R_9(1, 1) is the code passed in, whose restriction is kept
    built = _count_generator_builds(monkeypatch)
    g = build_grm(9, 1, 1)
    del built[:]
    rec = puncture_code_hermitian(g)
    assert sorted(built) == [0, 2, 3]
    assert any(sub is g.code.restriction() for _, sub in rec.known_subcodes)
    expect = sorted((build_grm(9, 1, nu).code.restriction() for nu in (3, 2, 1, 0)), key=lambda c: c.k)
    assert [sub for _, sub in rec.known_subcodes] == expect


def test_puncture_code_css_equal_orders_gives_repetition():
    rec = puncture_code_css(build_grm(3, 2, 1), build_grm(3, 2, 1))
    dist = rec.pcode.weight_distribution()
    assert {i for i, c in enumerate(dist) if c and i} == {9}


def test_puncture_code_hermitian_zero_code_gives_full_space():
    f9 = gf.get_field(9)
    rec = puncture_code_hermitian(LinearCode.zero_code(f9, 5))
    assert rec.pcode == LinearCode(gf.get_field(3), np.eye(5, dtype=np.uint8), 5)


def test_hermitian_puncture_code_contains_weight_6_vector():
    rec = puncture_code_hermitian(build_grm(9, 1, 1))
    dist = rec.pcode.weight_distribution()
    assert dist[6] > 0
    w = find_weight_witness(rec, 6)
    assert w.weight == 6
    assert rec.pcode.contains(w.x)


def test_hermitian_puncture_code_restriction_containments():
    # restriction(dual(R_81-ish)) subcodes, q=3, m=1, nu=1: mu in [4, 7]
    rec = puncture_code_hermitian(build_grm(9, 1, 1))
    labels = [label for label, _ in rec.known_subcodes]
    assert len(labels) == 4
    for _, sub in rec.known_subcodes:
        assert sub.is_subcode_of(rec.pcode)


def test_find_weight_witness_proven_absent_vs_inconclusive():
    rec = puncture_code_css(build_grm(3, 2, 1), build_grm(3, 2, 1))
    with pytest.raises(WitnessNotFound) as info:
        find_weight_witness(rec, 5)
    assert info.value.proven_absent
    # under a tiny cap only subcodes get scanned, so a miss is inconclusive
    with pytest.raises(WitnessNotFound) as info2:
        find_weight_witness(rec, 5, cap=2)
    assert not info2.value.proven_absent


def test_find_weight_witness_is_canonical_first():
    rec = puncture_code_css(build_grm(3, 2, 0), build_grm(3, 2, 3))
    w = find_weight_witness(rec, 6)
    # rescanning returns the same vector, and it lies in the puncture code
    w2 = find_weight_witness(rec, 6)
    assert np.array_equal(w.x, w2.x)
    assert rec.pcode.contains(w.x)


def test_puncture_css_small_pipeline():
    g1, g2 = build_grm(3, 2, 0), build_grm(3, 2, 3)
    rec = puncture_code_css(g1, g2)
    w = find_weight_witness(rec, 6)
    out = puncture_css(g1, g2, w, pcode_record=rec)
    assert out.n == 6
    assert out.construction == "PuncturedCSS"
    assert out.stabilizer.is_self_orthogonal()
    assert out.k >= out.provenance["k_lower_bound"]
    assert out.d >= out.provenance["d_lower_bound"]


def test_puncture_css_every_grm_pair_q3_m2():
    for nu1 in range(4):
        for nu2 in range(nu1, 4):
            g1, g2 = build_grm(3, 2, nu1), build_grm(3, 2, nu2)
            rec = puncture_code_css(g1, g2)
            dist = rec.pcode.weight_distribution()
            r = next(i for i, c in enumerate(dist) if i and c)
            w = find_weight_witness(rec, r)
            out = puncture_css(g1, g2, w, pcode_record=rec)
            assert out.n == r and out.exact
            assert out.stabilizer.is_self_orthogonal()
            assert out.k >= out.provenance["k_lower_bound"]
            assert out.d >= out.provenance["d_lower_bound"]


def test_puncture_css_rejects_foreign_witness():
    g1, g2 = build_grm(3, 2, 1), build_grm(3, 2, 2)
    rec = puncture_code_css(g1, g2)
    bad = np.zeros(9, dtype=np.uint8)
    bad[0] = 1  # weight-1 vectors are not in R_3(1,2)
    with pytest.raises(WitnessInvalid):
        puncture_css(g1, g2, PunctureWitness(bad, "forged"), pcode_record=rec)


def test_puncture_hermitian_full_weight_reproduces_parent():
    # q=2, nu=0: the all-ones witness keeps every coordinate
    g = build_grm(4, 1, 0)
    rec = puncture_code_hermitian(g)
    w = find_weight_witness(rec, 4)
    out = puncture_hermitian(g, w, pcode_record=rec)
    assert (out.n, out.k, out.d) == (4, 2, 2)
    assert out.q == 2


def test_puncture_hermitian_lemma7_instance():
    g = build_grm(9, 1, 1)
    rec = puncture_code_hermitian(g)
    w = find_weight_witness(rec, 6)
    out = puncture_hermitian(g, w, pcode_record=rec)
    assert (out.n, out.k, out.d) == (6, 2, 3)
    assert out.is_mds and out.pure
    assert out.k >= out.provenance["k_lower_bound"]


@pytest.mark.parametrize("construction", ["css", "hermitian"])
def test_punctures_reject_a_foreign_and_a_zero_witness(construction):
    if construction == "css":
        g1, g2 = build_grm(3, 2, 0), build_grm(3, 2, 3)
        rec = puncture_code_css(g1, g2)
        materialize = partial(puncture_css, g1, g2, pcode_record=rec)
    else:
        g = build_grm(9, 1, 1)
        rec = puncture_code_hermitian(g)
        materialize = partial(puncture_hermitian, g, pcode_record=rec)
    # the puncture codes here have minimum weight above 1
    foreign = np.zeros(9, dtype=np.uint8)
    foreign[0] = 1
    for x in (foreign, foreign[1:]):
        with pytest.raises(WitnessInvalid, match="not in the puncture code"):
            materialize(PunctureWitness(x, "forged"))
    zero = find_weight_witness(rec, 0)
    with pytest.raises(WitnessInvalid, match="length 0"):
        materialize(zero)


def _planted_build(monkeypatch, key, order):
    # build_grm as puncture calls it, with R_q(order, m) in place of key
    real = puncture.build_grm
    monkeypatch.setattr(puncture, "build_grm", lambda q, m, nu: real(q, m, order if (q, m, nu) == key else nu))


@pytest.mark.parametrize(
    "plant,call,message",
    [
        (
            lambda mp: _planted_build(mp, (3, 2, 0), 3),
            lambda: puncture_code_css(build_grm(3, 2, 1), build_grm(3, 2, 3)),
            "CSSPunctureCode check grm_subcodes_in_puncture_code failed:"
            " observed ['grm(q=3,m=2,nu=0)'], expected []",
        ),
        (
            lambda mp: _planted_build(mp, (9, 1, 3), 4),
            lambda: puncture_code_hermitian(build_grm(9, 1, 1)),
            "HermitianPunctureCode check restrictions_in_puncture_code failed:"
            " observed ['restriction(dual(grm(q=9,m=1,nu=4)))'], expected []",
        ),
        (
            # a puncture code too small to hold the restriction of chain step 2
            lambda mp: mp.setattr(
                puncture, "puncture_code_hermitian", lambda code: PunctureCodeRecord(LinearCode.zero_code(gf.get_field(3), 9))
            ),
            lambda: mds_chain(3, 1),
            "MDSChain check chain_step2_containment failed:"
            " observed restriction(grm(q=9,m=1,nu=3)), expected <= puncture code",
        ),
    ],
    ids=["css-subcodes", "hermitian-restrictions", "mds-chain-step2"],
)
def test_planted_puncture_code_claims_fail_as_named_checks(monkeypatch, plant, call, message):
    plant(monkeypatch)
    with pytest.raises(ParameterMismatch) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "q,nu,builds",
    [
        # R_64(0,1) and R_64(56,1): the scan runs in the univariate slice
        (8, 0, [(64, 1, 0), (64, 1, 56)]),
        # R_25(2,1), the scan code R_5(2,2) and the restriction's R_25(10,1)
        (5, 2, [(25, 1, 2), (5, 2, 2), (25, 1, 10)]),
    ],
)
def test_mds_chain_builds_only_the_codes_it_reads(monkeypatch, q, nu, builds):
    built = _count_grm_builds(monkeypatch)
    mds_chain(q, nu)
    assert built == builds


@pytest.mark.parametrize(
    "q,nu,expect",
    [
        (3, 0, (3, 1, 2)),
        (3, 1, (6, 2, 3)),
        (4, 0, (4, 2, 2)),
        (4, 1, (8, 4, 3)),
        (4, 2, (12, 6, 4)),
        (7, 0, (7, 5, 2)),
        (7, 1, (14, 10, 3)),
        (7, 2, (21, 15, 4)),
        (7, 3, (28, 20, 5)),
        (8, 0, (8, 6, 2)),
        (8, 1, (16, 12, 3)),
        (8, 2, (24, 18, 4)),
        (8, 3, (32, 24, 5)),
        (7, 4, (35, 25, 6)),
        (8, 4, (40, 30, 6)),
    ],
)
def test_mds_chain_known_records(q, nu, expect):
    rec = mds_chain(q, nu)
    assert (rec.n, rec.k, rec.d) == expect
    assert rec.q == q and rec.is_mds and rec.exact
    assert rec.stabilizer.is_self_orthogonal()


def test_mds_chain_range_check():
    with pytest.raises(OrderOutOfRange):
        mds_chain(3, 2)


def test_mds_chain_q5_uses_slice_fallback_for_nu0():
    rec = mds_chain(5, 0)
    assert (rec.n, rec.k, rec.d) == (5, 3, 2)
    assert rec.provenance["witness_source"].startswith("univariate-slice")


def extended_rs_embedding_check(q: int, m: int, nu: int) -> bool:
    """Does R_q(nu, m) embed in the matching extended-RS subfield restriction?

    The univariate side is R_{q^m}(q^m - d(nu), 1)|_GF(q).  For m = 2 the
    bivariate code is moved onto GF(q^2) by the basis bijection, as chain
    step 1 of ``mds_chain`` does; every order 0 <= nu <= 2(q-1) is valid.
    For m = 1 both sides are R_q(nu, 1), as d(nu) = q - nu: the identity,
    returned with no code built.  This checks step 1 where the chain does
    not: the chain scans only the orders 1..q-1, never 0 or q..2(q-1), and
    where a full R_q(nu, 2) is over the cap it embeds only its univariate
    slice.
    """
    if m == 1:
        gf.get_field(q)  # raises UnsupportedField
        return q - grm_distance(q, 1, nu) == nu
    assert m == 2, "the basis bijection identifies GF(q)^2 with GF(q^2) only"
    # built through puncture's name, as _chain_step1 builds, so that patching it catches both
    code = puncture.build_grm(q, 2, nu).code
    mapped, restricted = puncture._chain_step1(code, q * q - grm_distance(q, 2, nu))
    return mapped.is_subcode_of(restricted)


@pytest.mark.parametrize("q,m,nu", [(q, 2, nu) for q in (2, 3, 4, 5, 7, 8) for nu in range(2 * q - 1)])
def test_extended_rs_embedding(q, m, nu):
    # every order of R_q(nu, 2), the top one nu = 2(q-1) included
    assert extended_rs_embedding_check(q, m, nu)


def test_extended_rs_embedding_univariate_and_errors():
    assert extended_rs_embedding_check(3, 1, 1)
    with pytest.raises(NoEmbeddingDefined):
        extended_rs_embedding_check(9, 2, 1)  # GF(81) is not in the table


@pytest.mark.parametrize("q", list(gf.SUPPORTED_SIZES))
def test_extended_rs_embedding_univariate_is_the_identity_and_builds_no_code(q, monkeypatch):
    # d(nu) = q - nu, so the extended-RS side R_q(q - d(nu), 1) is R_q(nu, 1)
    monkeypatch.setattr(puncture, "build_grm", lambda *args: pytest.fail(f"built {args}"))
    for nu in range(q):
        assert q - grm_distance(q, 1, nu) == nu
        assert extended_rs_embedding_check(q, 1, nu)
    with pytest.raises(OrderOutOfRange):
        extended_rs_embedding_check(q, 1, q)


def test_extended_rs_embedding_univariate_rejects_an_unsupported_field():
    with pytest.raises(UnsupportedField):
        extended_rs_embedding_check(6, 1, 1)


def _grm_and_punctured_records(family, cap):
    """The GRM family record and a punctured record of the same codes, at this cap."""
    if family == "css":
        g = (build_grm(3, 2, 0), build_grm(3, 2, 0))
        prec = puncture_code_css(*g)
        punctured = puncture_css(*g, find_weight_witness(prec, 9), cap, pcode_record=prec)
        return qcode.css_grm(3, 2, 0, 0, cap), punctured
    g = build_grm(9, 1, 1)
    prec = puncture_code_hermitian(g)
    punctured = puncture_hermitian(g, find_weight_witness(prec, 6), cap, pcode_record=prec)
    return qcode.hermitian_grm(3, 1, 1, cap), punctured


@pytest.mark.parametrize("family", ["css", "hermitian"])
@pytest.mark.parametrize("plant", ["grm_distance", "dual_order"])
def test_predicted_distance_has_one_home(monkeypatch, family, plant):
    # a wrong value planted where the closed form is stated: the record's
    # prediction and the punctured record's promised bound both follow it,
    # as capped records (cap 1) that carry it as their distance bound
    rec, punctured = _grm_and_punctured_records(family, cap=1)
    assert rec.d == punctured.d == {"css": 2, "hermitian": 3}[family]
    if plant == "grm_distance":
        monkeypatch.setattr(qcode, "grm_distance", lambda q, m, nu: 99)
        planted = 99
    else:
        # nu-perp one lower: R_3(2, 2) has d = 3 and R_9(5, 1) has d = 4
        true_order = grm.dual_order
        monkeypatch.setattr(grm, "dual_order", lambda q, m, nu: true_order(q, m, nu) - 1)
        planted = {"css": 3, "hermitian": 4}[family]
    rec, punctured = _grm_and_punctured_records(family, cap=1)
    assert rec.provenance["d_predicted"] == rec.d == planted
    assert punctured.provenance["d_lower_bound"] == punctured.d == planted
    assert rec.d_is_lower_bound and punctured.d_is_lower_bound
