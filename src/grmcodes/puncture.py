"""Puncture codes, weight witnesses, and punctured quantum codes.

The puncture code of a CSS pair (C1, C2) is the dual of the span of all
componentwise products of C1 with C2-perp; for a Hermitian code C over
GF(q^2) it is the dual over GF(q) of the trace code of the span of all
products a * b^q.  Each is built as one kernel: of the products of
generator rows, trace-expanded over GF(q) in the Hermitian case, with no
span or trace code built on the way.  The nonzero weights r occurring in
the puncture code are exactly the lengths the quantum code can be
shortened to: a weight-r vector x yields a scaled, support-restricted
classical pair (or code) that is again self-orthogonal, hence a quantum
code of length r.  A witness is just x: its support is the nonzeros of
x, and the Hermitian scaling y, with y_i^(q+1) = x_i, is read off the
tower's norm table.

The Reed-Muller chain used for the MDS family walks

    P_h(R_{q^2}(nu,1))  >=  R_{q^2}(q^2-(nu+1)q, 1)|_{GF(q)}  >=  R_q(q-nu-1, 2)

where the last containment (step 1) identifies GF(q)^2 with GF(q^2)
through the basis (1, gamma), the tower's ``points`` table; the scan for
a minimum-weight vector runs in the small multivariate code and the
result is carried back up the chain.  ``mds_chain`` checks step 1 at the
one order it scans; the tests check it through ``_chain_step1`` at every
order 0 <= nu <= 2(q-1).

``puncture_css`` and ``puncture_hermitian`` take GRM codes, whose closed
form gives the promised d (``qcode.css_grm_distance`` and
``qcode.hermitian_grm_distance``), and the puncture-code record as a
required keyword.  They share one witness check and one record tail,
which writes the promised d onto a capped record and requires the k and
d bounds through ``qcode.require``, and leave CSS nesting and Hermitian
self-orthogonality of the punctured code to ``qcode.css`` and
``qcode.hermitian``.  Every contradicted claim raises ``ParameterMismatch``:
a named check through ``errors.decide``, or, for an empty MDS witness
scan, a message naming the missing weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Union

import numpy as np

from .errors import (
    CapExceeded,
    NotNested,
    ParameterMismatch,
    WitnessInvalid,
    WitnessNotFound,
    decide,
)
from .gf import extension_pair_for, quadratic_extension
from .grm import GrmCode, build_grm, grm_dimension, point_matrix
from .lincode import DEFAULT_CAP, LinearCode, find_first_of_weight, kernel_basis, product_rows
from .qcode import (
    QuantumCodeRecord, check_quantum_orders, css, css_grm_distance, hermitian, hermitian_grm_distance, require
)


@dataclass
class PunctureCodeRecord:
    """A computed puncture code plus any subcodes known by construction."""

    pcode: LinearCode
    provenance: dict = dc_field(default_factory=dict)
    known_subcodes: list = dc_field(default_factory=list)  # (label, LinearCode)


@dataclass
class PunctureWitness:
    """A vector x of the puncture code and where it was found.

    Its weight is that of x; the constructions read the support, and
    ``puncture_hermitian`` the scaling, off x itself.
    """

    x: np.ndarray
    source: str

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.x))


def puncture_code_css(
    C1: Union[LinearCode, GrmCode], C2: Union[LinearCode, GrmCode]
) -> PunctureCodeRecord:
    """Euclidean puncture code: dual of the span {a*b : a in C1, b in C2-perp}.

    That dual is the kernel of the matrix M whose rows are the products
    a*b of the generator rows a of C1 and b of C2-perp, which span it
    (``lincode.product_rows``): one ``kernel_basis``, already in RREF, so
    the code equals the dual of the products' span entry for entry.
    For a Reed-Muller pair the result equals R_q(nu2-nu1, m) exactly, and
    the lower-order codes R_q(mu, m) are recorded as known subcodes.
    """
    code1, code2 = (c.code if isinstance(c, GrmCode) else c for c in (C1, C2))
    if not code1.is_subcode_of(code2):
        raise NotNested("puncture code needs C1 contained in C2")
    field = code1.field
    pcode = LinearCode(field, kernel_basis(field, product_rows(code1, code2.dual())), code1.n, _canonical=True)
    prov = {"kind": "euclidean", "k1": code1.k, "k2": code2.k, "n": code1.n}
    known: list = []
    grm_pair = (
        isinstance(C1, GrmCode)
        and isinstance(C2, GrmCode)
        and (C1.q, C1.m) == (C2.q, C2.m)
        # the difference-order identity needs C2-perp nonzero: a quantum order
        and C2.nu_perp >= 0
    )
    if grm_pair:
        q, m = C1.q, C1.m
        diff = C2.nu - C1.nu
        known = [(f"grm(q={q},m={m},nu={mu})", build_grm(q, m, mu).code) for mu in range(diff + 1)]  # k rises with mu
        diff_label, grm_diff = known[diff]
        observed, expected = f"[{pcode.n},{pcode.k}]", f"{diff_label} = [{grm_diff.n},{grm_diff.k}]"
        escaped = [label for label, sub in known if not sub.is_subcode_of(pcode)]
        decide(
            "CSSPunctureCode",
            ("puncture_code_is_grm_difference_order", pcode == grm_diff, observed, expected, True),
            ("grm_subcodes_in_puncture_code", not escaped, escaped, [], True),
        )
        prov.update({"family": "grm", "q": q, "m": m, "nu1": C1.nu, "nu2": C2.nu, "grm_identity": True})
    return PunctureCodeRecord(pcode, prov, known)


def puncture_code_hermitian(C: Union[LinearCode, GrmCode]) -> PunctureCodeRecord:
    """Hermitian puncture code: dual over GF(q) of trace(span{a * b^q}).

    Let M hold the products g_i * g_j^q of the generator rows of C.  Tr is
    GF(q)-linear and (1, gamma) is a basis, so the rows Tr(M) and
    Tr(gamma M) span the trace code over GF(q) (``trace_rows`` of the
    tower), and the puncture code is their kernel over GF(q): one
    ``kernel_basis``, already in RREF, so the code equals the dual of the
    trace code of the products' span entry for entry, which is the
    restriction of that span's dual (the subfield-subcode duality of
    Delsarte, IEEE Trans. IT 21(5), 1975).
    The pairs i <= j suffice, k(k+1) trace rows instead of 2k^2: the
    product for (j, i) is the q-th power of that for (i, j), and Tr(x^q) =
    Tr(x), so its rows are Tr(M_ij) and Tr(gamma^q M_ij) = Tr(gamma)
    Tr(M_ij) - Tr(gamma M_ij).
    For C = R_{q^2}(nu, m) every restriction R_{q^2}(mu, m)-dual|_GF(q)
    with (q+1)nu <= mu <= m(q^2-1)-1 is contained in the puncture code;
    these are materialized and recorded as known subcodes.
    """
    code = C.code if isinstance(C, GrmCode) else C
    pair = extension_pair_for(code.field)
    i, j = np.triu_indices(code.k)
    traces = pair.trace_rows(code.field.MUL[code.gen[i], pair.frob[code.gen[j]]])
    pcode = LinearCode(pair.sub, kernel_basis(pair.sub, traces), code.n, _canonical=True)
    prov = {"kind": "hermitian", "k_classical": code.k, "n": code.n, "q": pair.sub.q}
    known: list = []
    if isinstance(C, GrmCode):
        q2, m, nu = C.q, C.m, C.nu
        q = pair.sub.q
        assert q2 == q * q
        prov.update({"family": "grm", "m": m, "nu": nu})
        top = m * (q2 - 1) - 1  # R_{q^2}(mu, m)-dual is R_{q^2}(top - mu, m)
        known = [
            (f"restriction(dual(grm(q={q2},m={m},nu={mu})))", build_grm(q2, m, top - mu).code.restriction())
            for mu in range((q + 1) * nu, top + 1)
        ]
        escaped = [label for label, sub in known if not sub.is_subcode_of(pcode)]
        decide("HermitianPunctureCode", ("restrictions_in_puncture_code", not escaped, escaped, [], True))
        known.sort(key=lambda item: item[1].k)
    return PunctureCodeRecord(pcode, prov, known)


def check_witness_weight(r: int, n: int) -> None:
    """Raise WitnessNotFound, proven absent, for a weight r above the length n: no scan is needed."""
    if r > n:
        raise WitnessNotFound(f"weight {r} exceeds the length {n}", proven_absent=True)


def find_weight_witness(rec: PunctureCodeRecord, r: int, cap: int = DEFAULT_CAP) -> PunctureWitness:
    """Canonically-first vector of weight exactly r in the puncture code.

    The witness is that vector with the label of the code it was found in
    (``"pcode"``, a known subcode's label, or ``"zero"`` for r = 0).
    A weight above the length is absent with no scan.  Scans the full
    puncture code when its span fits the cap (absence is then proven);
    otherwise scans the known subcodes smallest-first, in
    which case a miss is inconclusive and reported as such.
    """
    pcode = rec.pcode
    if r == 0:
        return PunctureWitness(np.zeros(pcode.n, dtype=np.uint8), "zero")
    check_witness_weight(r, pcode.n)
    q = pcode.field.q
    if q**pcode.k <= cap:
        x = find_first_of_weight(pcode.field, pcode.gen, r)
        if x is None:
            raise WitnessNotFound(
                f"weight {r} proven absent from the puncture code", proven_absent=True
            )
        return PunctureWitness(x, "pcode")
    scanned_any = False
    for label, sub in rec.known_subcodes:
        if q**sub.k > cap:
            continue
        scanned_any = True
        x = find_first_of_weight(sub.field, sub.gen, r)
        if x is not None:
            return PunctureWitness(x, label)
    detail = "no known subcode fits the cap" if not scanned_any else "not found in scanned subcodes"
    raise WitnessNotFound(f"weight {r}: {detail}", proven_absent=False)


def _witness_support(rec: PunctureCodeRecord, n: int, w: PunctureWitness) -> tuple[np.ndarray, np.ndarray]:
    """(x, nonzeros of x) after the checks both constructions share.

    x has length n, lies in the puncture code, and is not zero.
    """
    x = np.asarray(w.x, dtype=np.uint8)
    if len(x) != n or not rec.pcode.contains(x):
        raise WitnessInvalid("witness vector is not in the puncture code")
    support = np.flatnonzero(x)
    if not len(support):
        raise WitnessInvalid("cannot puncture to length 0")
    return x, support


def _punctured_record(
    out: QuantumCodeRecord, construction: str, n: int, w: PunctureWitness, k_low: int, d_low: int
) -> QuantumCodeRecord:
    """Label a punctured record, d_low as a capped d; require k and an exact d to meet its bounds."""
    out.construction = construction
    if out.d_is_lower_bound:
        out.d = d_low
    out.provenance.update(
        punctured_from_n=n, witness_weight=w.weight, witness_source=w.source, k_lower_bound=k_low, d_lower_bound=d_low
    )
    distance = [] if out.d_is_lower_bound else [("distance_meets_bound", out.d >= d_low, out.d, f">={d_low}", True)]
    return require(
        out,
        # _witness_support raised WitnessInvalid for a vector outside the puncture code
        ("witness_in_puncture_code", True, w.source, None, True),
        ("dimension_meets_bound", out.k >= k_low, out.k, f">={k_low}", True),
        *distance,
    )


def puncture_css(
    C1: GrmCode, C2: GrmCode, w: PunctureWitness, cap: int = DEFAULT_CAP, *, pcode_record: PunctureCodeRecord
) -> QuantumCodeRecord:
    """Materialize the length-r punctured CSS code for a weight-r witness.

    ``pcode_record`` is the puncture code of C1 = R_q(nu1, m) and
    C2 = R_q(nu2, m); the witness must lie in it.  The scaled restriction
    pair is (x*C1)|_S and the S-dual of C2-perp|_S; containment of the
    first in the second is forced by x lying in the puncture code, and
    ``css`` verifies it.  The record promises k >= k2 - k1 - (n - r) and
    d >= min(d(nu2), d(nu1-perp)).
    """
    code1, code2 = C1.code, C2.code
    x, support = _witness_support(pcode_record, code1.n, w)
    B = code1.scaled_by(x).punctured_to(support)
    C2p = code2.dual().punctured_to(support).dual()
    k_lower_bound = code2.k - code1.k - code1.n + len(support)
    return _punctured_record(css(B, C2p, cap), "PuncturedCSS", code1.n, w, k_lower_bound, css_grm_distance(C1, C2))


def puncture_hermitian(
    C: GrmCode, w: PunctureWitness, cap: int = DEFAULT_CAP, *, pcode_record: PunctureCodeRecord
) -> QuantumCodeRecord:
    """Materialize the punctured Hermitian code for a weight-r witness.

    ``pcode_record`` is the Hermitian puncture code of C = R_{q^2}(nu, m);
    the witness x must lie in it.  On the support S the scaling y_i is the
    smallest solution of y_i^(q+1) = x_i (the tower's
    ``norm_first_preimage``).  The code {(y_i a_i)_S : a in C} then
    inherits Hermitian self-orthogonality from x being in the puncture code
    (nondegeneracy of the trace form upgrades trace-zero to zero);
    ``hermitian`` verifies it.
    The record promises k >= r - 2k(C) and d >= d(nu-perp) over GF(q^2).
    """
    code = C.code
    pair = extension_pair_for(code.field)
    x, support = _witness_support(pcode_record, code.n, w)
    y = np.zeros(code.n, dtype=np.uint8)
    y[support] = pair.norm_first_preimage[x[support]]
    out = hermitian(code.scaled_by(y).punctured_to(support), cap)
    return _punctured_record(out, "PuncturedHermitian", code.n, w, len(support) - 2 * code.k, hermitian_grm_distance(C))


# -- the GF(q)^2 <-> GF(q^2) point bijection ---------------------------------


def _chain_step1(code: LinearCode, mu: int) -> tuple[LinearCode, LinearCode]:
    """A code on GF(q)^2 moved onto GF(q^2), and R_{q^2}(mu, 1)|_GF(q).

    Coordinate t of ``code`` goes to the tower's ``points[t]``, so both
    codes evaluate at the elements of GF(q^2) in their canonical order.
    """
    q = code.field.q
    mapped = np.zeros_like(code.gen)
    mapped[:, quadratic_extension(q).points] = code.gen
    return LinearCode(code.field, mapped, q * q), build_grm(q * q, 1, mu).code.restriction()


# -- the quantum MDS chain -----------------------------------------------------


def mds_chain(q: int, nu: int, cap: int = DEFAULT_CAP) -> QuantumCodeRecord:
    """End-to-end punctured MDS construction for 0 <= nu <= q-2 (m = 1).

    Builds C = R_{q^2}(nu, 1), locates a weight-(nu+1)q vector in the
    puncture code through the embedded R_q(q-nu-1, 2) (or its univariate
    slice when that scan would blow the cap), materializes the punctured
    Hermitian code, and requires it to be exact, MDS and of the family's
    parameters; these checks replace the punctured record's.  Raises
    CapExceeded first when the distance search gives up and leaves only a
    bound, and ParameterMismatch when a step of the chain fails, an empty
    witness scan included.

    The puncture code is built from the plain code, without the family's
    known subcodes; the chain checks the one restriction it walks through
    (step 2), and ``puncture_hermitian`` checks the witness's membership.
    """
    check_quantum_orders(q, 1, nu=nu)
    pair = quadratic_extension(q)
    q2 = pair.ext.q
    g = build_grm(q2, 1, nu)
    prec = puncture_code_hermitian(g.code)
    r = (nu + 1) * q

    scan_order = q - nu - 1
    scan_dim = grm_dimension(q, 2, scan_order)
    if q**scan_dim <= cap:
        scan_code = build_grm(q, 2, scan_order).code
        scan_label = f"grm(q={q},m=2,nu={scan_order})"
    else:
        # univariate slice {f(x1) : deg f <= q-nu-1}: same minimum weight,
        # tiny dimension q-nu
        pts = point_matrix(pair.sub, 2)
        rows = np.vstack([pair.sub.POW[pts[0], j] for j in range(scan_order + 1)])
        scan_code = LinearCode(pair.sub, rows, q * q)
        scan_label = f"univariate-slice(deg<={scan_order})"
    x = find_first_of_weight(scan_code.field, scan_code.gen, r)
    if x is None:
        raise ParameterMismatch(f"no weight-{r} vector in {scan_label}; this contradicts the chain")
    X = np.zeros(q * q, dtype=np.uint8)
    X[pair.points] = x

    mapped, restricted = _chain_step1(scan_code, q2 - (nu + 1) * q)
    restricted_label = f"restriction(grm(q={q2},m=1,nu={q2 - (nu + 1) * q}))"
    decide(
        "MDSChain",
        ("chain_step1_containment", mapped.is_subcode_of(restricted), scan_label, f"<= {restricted_label}", True),
        ("chain_step2_containment", restricted.is_subcode_of(prec.pcode), restricted_label, "<= puncture code", True),
    )

    out = puncture_hermitian(g, PunctureWitness(X, scan_label), cap, pcode_record=prec)
    out.provenance.update({"chain": "mds", "q": q, "nu": nu, "target_weight": r})
    if not out.exact:
        # a bound cannot confirm the MDS claim; that is a capped run, not a mismatch
        raise CapExceeded(f"MDS chain record {out.params_str()} has only a distance bound")
    got, expect = [out.n, out.k, out.d], [r, r - 2 * (nu + 1), nu + 2]
    return require(
        out,
        ("exact_parameters", out.exact, None, None, True),
        ("singleton_slack_zero", out.singleton_slack == 0, out.singleton_slack, 0, True),
        ("matches_mds_family_formula", got == expect, got, expect, True),
    )
