"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all);
tolerances are exact integer equality throughout, and the two timed
criteria assert their stated wall-clock budgets.
"""

import time

import numpy as np

from grmcodes import gf
from grmcodes.grm import build_grm, dual_order, grm_distance, grm_dual_code
from grmcodes.lincode import LinearCode, exact_min_weight
from grmcodes.puncture import (
    find_weight_witness,
    mds_chain,
    puncture_code_css,
    puncture_code_hermitian,
    puncture_css,
)
from grmcodes.qcode import (
    css_grm,
    hermitian_grm,
    hermitian_self_orthogonal,
)

CAP = 2**24


def report(number: int, name: str, failures: list, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    if budget is not None and elapsed > budget:
        status = "FAIL"
        failures = failures + [f"runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"]
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s)")
    assert not failures, failures[:10]


def test_criterion_1_grm_parameter_fidelity():
    t0 = time.perf_counter()
    failures = []
    for q in (2, 3, 4, 5):
        for m in (1, 2):
            if q**m > 81:
                continue
            for nu in range(m * (q - 1) + 1):
                g = build_grm(q, m, nu)
                if g.k != g.k_formula:
                    failures.append(f"rank mismatch at (q={q},m={m},nu={nu})")
                w, exact = g.code.min_weight(CAP)
                if not exact or w != g.d_formula:
                    failures.append(
                        f"distance mismatch at (q={q},m={m},nu={nu}): {w} vs {g.d_formula}"
                    )
    report(1, "grm-parameter-fidelity", failures, t0, budget=120.0)


def test_criterion_2_dual_identity():
    t0 = time.perf_counter()
    failures = []
    for q in (2, 3, 4, 5):
        for m in (1, 2):
            if q**m > 81:
                continue
            for nu in range(m * (q - 1) + 1):
                g = build_grm(q, m, nu)
                if g.code.dual() != grm_dual_code(g):
                    failures.append(f"dual identity failed at (q={q},m={m},nu={nu})")
    report(2, "dual-identity", failures, t0)


def test_criterion_3_difference_weight_identity():
    t0 = time.perf_counter()
    failures = []
    for q in (2, 3):
        m = 2
        top = m * (q - 1)
        for nu1 in range(top + 1):
            for nu2 in range(nu1 + 1, top + 1):
                c1 = build_grm(q, m, nu1).code
                c2 = build_grm(q, m, nu2).code
                wdiff = exact_min_weight(c2, c1, CAP)[1]
                w2, exact = c2.min_weight(CAP)
                if not exact or wdiff != w2:
                    failures.append(f"(q={q},nu1={nu1},nu2={nu2}): {wdiff} vs {w2}")
    report(3, "difference-weight-identity", failures, t0)


def test_criterion_4_css_instances():
    t0 = time.perf_counter()
    failures = []
    rec = css_grm(3, 2, 1, 2, CAP)
    if (rec.n, rec.k, rec.d) != (9, 3, 3) or rec.pure is not True or not rec.exact:
        failures.append(f"css_grm(3,2,1,2) gave {rec.params_str()} pure={rec.pure}")
    for q, nu in ((3, 0), (5, 0), (5, 1), (7, 1), (7, 2)):
        rec = css_grm(q, 1, nu, dual_order(q, 1, nu), CAP)
        expect = (q, q - 2 * nu - 2, nu + 2)
        if (rec.n, rec.k, rec.d) != expect or rec.pure is not True or not rec.exact:
            failures.append(f"(q={q},nu={nu}) gave {rec.params_str()}, expected {expect}")
    report(4, "css-construction-instances", failures, t0)


def test_criterion_5_hermitian_family():
    t0 = time.perf_counter()
    failures = []
    for q in (2, 3, 4):
        for m in (1, 2):
            for nu in range(m * (q - 1)):
                if not hermitian_self_orthogonal(build_grm(q * q, m, nu).code):
                    failures.append(f"self-orthogonality failed at (q={q},m={m},nu={nu})")
    for q, m, nu, expect in (
        (2, 1, 0, (4, 2, 2)),
        (3, 1, 1, (9, 5, 3)),
        (3, 1, 0, (9, 7, 2)),
        (2, 2, 1, (16, 10, 3)),
    ):
        rec = hermitian_grm(q, m, nu, CAP)
        if (rec.n, rec.k, rec.d) != expect or not rec.exact:
            failures.append(f"hermitian_grm({q},{m},{nu}) gave {rec.params_str()}")
        # d(nu-perp) over GF(q^2) written out: (R+1)q^(2Q) with nu+1 = (q^2-1)Q + R
        Q, R = divmod(nu + 1, q * q - 1)
        if rec.d != (R + 1) * q ** (2 * Q):
            failures.append(f"distance formula mismatch at ({q},{m},{nu})")
    report(5, "hermitian-family", failures, t0)


def test_criterion_6_puncture_code_machinery():
    t0 = time.perf_counter()
    failures = []
    q, m = 3, 2
    top = m * (q - 1) - 1
    for nu1 in range(top + 1):
        for nu2 in range(nu1, top + 1):
            g1, g2 = build_grm(q, m, nu1), build_grm(q, m, nu2)
            prec = puncture_code_css(g1, g2)
            if prec.pcode != build_grm(q, m, nu2 - nu1).code:
                failures.append(f"P(C) identity failed at ({nu1},{nu2})")
                continue
            dist = prec.pcode.weight_distribution(CAP)
            r = next(i for i, c in enumerate(dist) if i and c)
            w = find_weight_witness(prec, r, CAP)
            rec = puncture_css(g1, g2, w, CAP, pcode_record=prec)
            if rec.k < rec.provenance["k_lower_bound"]:
                failures.append(f"k bound violated at ({nu1},{nu2})")
            if not rec.d_is_lower_bound and rec.d < rec.provenance["d_lower_bound"]:
                failures.append(f"d bound violated at ({nu1},{nu2})")
            if not rec.stabilizer.is_self_orthogonal():
                failures.append(f"symplectic check failed at ({nu1},{nu2})")
    report(6, "puncture-code-machinery", failures, t0)


def test_criterion_7_hermitian_puncture_containments():
    t0 = time.perf_counter()
    failures = []
    g = build_grm(9, 1, 1)
    prec = puncture_code_hermitian(g)
    dist = prec.pcode.weight_distribution(CAP)
    if dist[6] == 0:
        failures.append("P_h(R_9(1,1)) has no weight-6 vector")
    q = 3
    for nu in range(q - 1):
        gg = build_grm(9, 1, nu)
        ph = puncture_code_hermitian(gg)
        for mu in range((q + 1) * nu, 9 - 1):
            mu_perp = 9 - 2 - mu
            sub = build_grm(9, 1, mu_perp).code.restriction()
            if not sub.is_subcode_of(ph.pcode):
                failures.append(f"restriction containment failed at nu={nu}, mu={mu}")
    report(7, "hermitian-puncture-containments", failures, t0)


def test_criterion_8_mds_chain_headline():
    t0 = time.perf_counter()
    failures = []
    expected = {
        (3, 0): (3, 1, 2),
        (3, 1): (6, 2, 3),
        (4, 0): (4, 2, 2),
        (4, 1): (8, 4, 3),
        (4, 2): (12, 6, 4),
        (5, 0): (5, 3, 2),
        (5, 1): (10, 6, 3),
        (5, 2): (15, 9, 4),
        (5, 3): (20, 12, 5),
    }
    for q in (3, 4, 5):
        for nu in range(q - 1):
            rec = mds_chain(q, nu, CAP)
            expect = expected[(q, nu)]
            if (rec.n, rec.k, rec.d) != expect or not rec.exact:
                failures.append(f"mds_chain({q},{nu}) gave {rec.params_str()}, expected {expect}")
                continue
            if rec.singleton_slack != 0:
                failures.append(f"mds_chain({q},{nu}) slack {rec.singleton_slack}")
            if not rec.stabilizer.is_self_orthogonal():
                failures.append(f"mds_chain({q},{nu}) stabilizer check failed")
    report(8, "mds-chain-headline", failures, t0, budget=300.0)


def test_criterion_9_oracle_crosschecks():
    t0 = time.perf_counter()
    failures = []
    # Delsarte: dual of the trace code equals the restriction of the dual
    rng = np.random.default_rng(2024)
    for base_q in (2, 3):
        pair = gf.quadratic_extension(base_q)
        f = pair.ext
        for trial in range(100):
            n = int(rng.integers(2, 10))
            k_rows = int(rng.integers(1, n + 1))
            D = LinearCode(f, rng.integers(0, f.q, size=(k_rows, n)).astype(np.uint8), n)
            trace_code = LinearCode(pair.sub, pair.trace_rows(D.gen), n)
            if trace_code.dual() != D.dual().restriction():
                failures.append(f"Delsarte failed over GF({f.q}), trial {trial}")
    # field axioms, exhaustive for q <= 16
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        f = gf.get_field(q)
        idx = np.arange(q, dtype=np.uint8)
        a, b, c = idx[:, None, None], idx[None, :, None], idx[None, None, :]
        ok = (
            np.array_equal(f.ADD[f.ADD[a, b], c], f.ADD[a, f.ADD[b, c]])
            and np.array_equal(f.MUL[f.MUL[a, b], c], f.MUL[a, f.MUL[b, c]])
            and np.array_equal(f.MUL[a, f.ADD[b, c]], f.ADD[f.MUL[a, b], f.MUL[a, c]])
            and np.array_equal(f.ADD[idx, f.NEG[idx]], np.zeros(q, dtype=np.uint8))
            and np.array_equal(f.MUL[idx[1:], f.INV[idx[1:]]], np.ones(q - 1, dtype=np.uint8))
        )
        if not ok:
            failures.append(f"field axioms failed for GF({q})")
    report(9, "oracle-crosschecks", failures, t0)
