"""Quantum stabilizer code parameters from classical codes.

Two constructions are implemented at the classical-code level:

* CSS: nested codes C1 <= C2 over GF(q) give an [[n, k2-k1, d]]_q code
  with d the minimum weight over (C2 minus C1) union (C1-perp minus
  C2-perp); when C1 = C2 the minimum runs over C1 union C1-perp instead.
* Hermitian: a code C over GF(q^2) contained in its Hermitian dual gives
  an [[n, n-2k, d]]_q code with d the minimum weight of C-perp_h minus C.

Records carry exact parameters whenever the engine settled the distance, and
otherwise the trivial bound d = 1, flagged.  ``css`` and ``hermitian`` only
name their sides (difference sets) and share that rule, d and purity, the
stabilizer check and the assembly (``_record``), and take no promise: a
family that states a distance writes it onto its own capped record.  The GRM
families take only the quantum orders 0 <= nu1 <= ... <= m(q-1)-1
(``check_quantum_orders``), and each predicted distance has one home:
``css_grm_distance`` and ``hermitian_grm_distance``, the latter over
GF(q^2).

Self-orthogonality is decided by the construction algebra: CSS nesting is
``C1.is_subcode_of(C2)`` and Hermitian self-orthogonality
``C.is_subcode_of(C.hermitian_dual())``, the dual the record's side reads
next.  The stabilizer matrix is checked once more, independently, for
symplectic self-orthogonality of the GF(q) expansion a report emits (after
the basis-(1, gamma) expansion in the Hermitian case): ``_record`` decides
that check once and keeps it on the record.

A claim fails one way: ``errors.decide`` raises ``ParameterMismatch`` at the
first failed check.  ``require`` keeps a record's checks on it
(``QuantumCodeRecord.checks``), the stabilizer's last, and decides those
``_record`` has not; the GRM families, the punctured records and the MDS
chain all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import lincode
from .errors import (
    InexactParameters,
    NotNested,
    NotSelfOrthogonal,
    OrderOutOfRange,
    decide,
)
from .gf import FieldSpec, extension_pair_for
from .grm import GrmCode, build_grm, grm_distance
from .lincode import DEFAULT_CAP, LinearCode


@dataclass
class StabilizerMatrix:
    """Generator matrix of the stabilizer group, at the classical level.

    CSS records hold an (n-k) x 2n matrix over GF(q) whose left half is
    the X part (rows generating C1, then zeros) and right half the Z part
    (zeros, then rows generating C2-perp).  Hermitian records hold the
    k x n generator of the self-orthogonal code over GF(q^2); its GF(q)
    expansion spans rows (a | b) with c = a + gamma*b for c in {g, gamma*g}.
    """

    kind: str
    field: FieldSpec
    n: int
    matrix: np.ndarray

    def expanded(self) -> np.ndarray:
        """GF(q) symplectic form of the generators, shape (rows, 2n)."""
        if self.kind == "css":
            return self.matrix
        pair = extension_pair_for(self.field)
        ext = self.field
        rows = np.vstack([self.matrix, ext.MUL[pair.gamma, self.matrix]])
        return np.hstack([pair.dec_a[rows], pair.dec_b[rows]])

    def base_field(self) -> FieldSpec:
        if self.kind == "css":
            return self.field
        return extension_pair_for(self.field).sub

    def symplectic_gram(self) -> np.ndarray:
        """X*Z^T - Z*X^T over the base field; zero iff self-orthogonal."""
        f = self.base_field()
        M = self.expanded()
        X, Z = M[:, : self.n], M[:, self.n :]
        a = f.matmul(X, Z.T)
        b = f.matmul(Z, X.T)
        return f.sub_arrays(a, b)

    def is_self_orthogonal(self) -> bool:
        return not np.any(self.symplectic_gram())


@dataclass
class QuantumCodeRecord:
    """An [[n, k, d]]_q record with provenance and exactness flags.

    A True ``d_is_lower_bound`` means d is only a promise from the
    construction, not an enumerated parameter.  k is a generator rank.
    """

    q: int
    n: int
    k: int
    d: int
    d_is_lower_bound: bool = False
    pure: Optional[bool] = None
    construction: str = ""
    provenance: dict = dc_field(default_factory=dict)
    stabilizer: Optional[StabilizerMatrix] = None
    # (name, passed, observed, expected, exact) per check decided on it, the
    # stabilizer's (``_record``) last
    checks: list = dc_field(default_factory=list, repr=False, compare=False)

    @property
    def exact(self) -> bool:
        return not self.d_is_lower_bound

    @property
    def singleton_slack(self) -> int:
        if not self.exact:
            raise InexactParameters("Singleton slack needs exact parameters")
        return self.n - self.k - 2 * (self.d - 1)

    @property
    def is_mds(self) -> bool:
        return self.singleton_slack == 0

    def params_str(self) -> str:
        d = f">={self.d}" if self.d_is_lower_bound else str(self.d)
        return f"[[{self.n},{self.k},{d}]]_{self.q}"

    def to_dict(self) -> dict:
        out = {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "k_is_lower_bound": False,
            "d_is_lower_bound": self.d_is_lower_bound,
            "pure": self.pure,
            "construction": self.construction,
            "params": self.params_str(),
            "provenance": self.provenance,
        }
        if self.exact:
            out["singleton_slack"] = self.singleton_slack
            out["mds"] = self.is_mds
        return out


def _record(
    k: int, construction: str, prov: dict, stab: StabilizerMatrix, cap: int, sides: list, found: dict
) -> QuantumCodeRecord:
    """Settle the distance over ``sides``, decide the stabilizer check, assemble.

    Each side is (code, exclude, names), settled by the engine under
    ``cap``.  d is the least ``diff`` over the exact sides, and it holds
    when every inexact side's certified ``diff`` is at least d; otherwise
    d is the trivial bound 1, purity is unknown and the provenance says the
    distance was capped.  A settled record is pure iff every side's floor on
    its whole code reaches d: ``code`` for an exact side, min(``code``,
    ``diff``) for an inexact one (``Weights``).  ``names`` label an exact
    side's (code, diff) weights in the provenance, as far as they go; an
    inexact side records its bound under its own key (``bound_c1perp_c2perp``
    for ``wt_diff_c1perp_c2perp``), and ``found`` joins them.  The record
    keeps the stabilizer check as its ``checks``.
    """
    settled = [lincode.exact_min_weight(code, exclude, cap) for code, exclude, _ in sides]
    d = min((w.diff for w in settled if w.exact), default=0)
    if d and all(w.diff >= d for w in settled):
        pure = min(min(w.code, w.diff) for w in settled) == d
        for w, (_, _, names) in zip(settled, sides):
            if w.exact:
                found.update(zip(names, w))
            elif names:
                found[names[-1].replace("wt_diff", "bound")] = w.diff
    else:
        d, pure, found = 1, None, {"distance_capped": True}
    prov.update(found)
    stabilizer = ("stabilizer_symplectic", stab.is_self_orthogonal(), None, None, True)
    decide(construction, stabilizer)
    return QuantumCodeRecord(
        q=stab.base_field().q,
        n=stab.n,
        k=k,
        d=d,
        d_is_lower_bound="distance_capped" in found,
        pure=pure,
        construction=construction,
        provenance=prov,
        stabilizer=stab,
        checks=[stabilizer],
    )


def css(C1: LinearCode, C2: LinearCode, cap: int = DEFAULT_CAP) -> QuantumCodeRecord:
    """CSS construction from nested classical codes C1 <= C2.

    The nesting is checked here, once, for every CSS record (the punctured
    pair included), by ``is_subcode_of``, which also rejects a field or
    length mismatch.  Its sides are C2 minus C1 and C1-perp minus C2-perp
    (the nonzero codes of C1 and C1-perp when C1 = C2); a distance the
    sides do not settle (``_record``) degrades the record to the trivial
    bound 1 with the flag set.
    """
    if not C1.is_subcode_of(C2):
        raise NotNested("CSS needs C1 contained in C2")
    n = C1.n
    C2perp = C2.dual()
    C1perp = C1.dual()
    prov = {"n": n, "k1": C1.k, "k2": C2.k, "branch": "strict" if C1.k < C2.k else "equal", "cap": cap}
    if C1.k == C2.k:
        sides = [(c, None, ()) for c in (C1, C1perp) if c.k]
    else:
        sides = [(C2, C1, ("wt_c2", "wt_diff_c2_c1")), (C1perp, C2perp, ("wt_c1perp", "wt_diff_c1perp_c2perp"))]
    rows = np.zeros((C1.k + C2perp.k, 2 * n), dtype=np.uint8)
    rows[: C1.k, :n] = C1.gen
    rows[C1.k :, n:] = C2perp.gen
    stab = StabilizerMatrix("css", C1.field, n, rows)
    return _record(C2.k - C1.k, "CSS", prov, stab, cap, sides, {})


def quantum_orders(q: int, m: int) -> range:
    """The orders nu whose dual R_q(nu, m)-perp is nonzero: 0 <= nu <= m(q-1)-1."""
    return range(m * (q - 1))


def check_quantum_orders(q: int, m: int, **orders: int) -> None:
    """Raise OrderOutOfRange unless the orders, in keyword order, rise within ``quantum_orders``."""
    chain = [0, *orders.values(), len(quantum_orders(q, m)) - 1]
    if chain != sorted(chain):
        got = ", ".join(f"{name}={nu}" for name, nu in orders.items())
        raise OrderOutOfRange(f"need 0 <= {' <= '.join(orders)} <= m(q-1)-1 = {chain[-1]} for q={q}, m={m}, got {got}")


def require(rec: QuantumCodeRecord, *checks: tuple) -> QuantumCodeRecord:
    """Keep a construction's ``checks`` on rec, then the stabilizer's, and ``decide`` the construction's.

    The stabilizer's is the check ``_record`` decided and left last on rec;
    ``checks`` replace any others rec holds."""
    rec.checks = [*checks, rec.checks[-1]]
    decide(rec.construction, *checks)
    return rec


def css_grm_distance(g1: GrmCode, g2: GrmCode) -> int:
    """The CSS distance of R_q(nu1, m) <= R_q(nu2, m): min(d(nu2), d(nu1-perp))."""
    return min(grm_distance(g2.q, g2.m, g2.nu), grm_distance(g1.q, g1.m, g1.nu_perp))


def hermitian_grm_distance(g: GrmCode) -> int:
    """The Hermitian distance of R_{q^2}(nu, m): d(nu-perp) over GF(q^2)."""
    return grm_distance(g.q, g.m, g.nu_perp)


def _grm_record(rec: QuantumCodeRecord, orders: dict, k_pred: int, d_pred: int) -> QuantumCodeRecord:
    """Label a GRM family record with its closed form, d_pred as a capped d; require k, d and purity."""
    rec.provenance.update(family="grm", **orders, k_predicted=k_pred, d_predicted=d_pred)
    if rec.d_is_lower_bound:
        rec.d = d_pred
        distance = [("distance_bound_recorded", rec.d <= d_pred, rec.d, d_pred, False)]
    else:
        slack = rec.singleton_slack
        distance = [
            ("distance_matches_formula", rec.d == d_pred, rec.d, d_pred, True),
            ("purity_certified", rec.pure is True, rec.pure, True, True),
            ("singleton_slack_nonnegative", slack >= 0, slack, ">=0", True),
        ]
    return require(rec, ("dimension_matches_formula", rec.k == k_pred, rec.k, k_pred, True), *distance)


def css_grm(
    q: int, m: int, nu1: int, nu2: int, cap: int = DEFAULT_CAP
) -> QuantumCodeRecord:
    """CSS record from R_q(nu1, m) <= R_q(nu2, m), 0 <= nu1 <= nu2 <= m(q-1)-1.

    Predicted parameters [[q^m, k(nu2)-k(nu1), min(d(nu1-perp), d(nu2))]]
    are cross-checked against the enumeration whenever it finished.
    """
    check_quantum_orders(q, m, nu1=nu1, nu2=nu2)
    g1 = build_grm(q, m, nu1)
    g2 = build_grm(q, m, nu2)
    d_pred = css_grm_distance(g1, g2)
    rec = css(g1.code, g2.code, cap)
    return _grm_record(rec, {"q": q, "m": m, "nu1": nu1, "nu2": nu2}, g2.k_formula - g1.k_formula, d_pred)


def hermitian_self_orthogonal(C: LinearCode) -> bool:
    """True iff C lies in its Hermitian dual (memoized, so ``hermitian``
    reuses it), i.e. every pair of generator rows is Hermitian-orthogonal."""
    return C.is_subcode_of(C.hermitian_dual())


def hermitian(C: LinearCode, cap: int = DEFAULT_CAP) -> QuantumCodeRecord:
    """Hermitian construction from a self-orthogonal code over GF(q^2).

    Self-orthogonality is checked here, once, for every Hermitian record
    (the punctured code included), against the Hermitian dual its side
    then reads.  Its side is C-perp_h minus C, or C when
    self-dual; a capped distance degrades as in ``css`` and carries no
    ``branch`` key.
    """
    if not hermitian_self_orthogonal(C):
        raise NotSelfOrthogonal("input is not Hermitian self-orthogonal")
    dual_h = C.hermitian_dual()
    if C.k == dual_h.k:
        sides, branch = [(C, None, ())], "self_dual"
    else:
        sides, branch = [(dual_h, C, ("wt_hermitian_dual",))], "strict"
    prov = {"n": C.n, "k_classical": C.k, "cap": cap}
    stab = StabilizerMatrix("hermitian", C.field, C.n, C.gen.copy())
    return _record(C.n - 2 * C.k, "Hermitian", prov, stab, cap, sides, {"branch": branch})


def hermitian_grm(q: int, m: int, nu: int, cap: int = DEFAULT_CAP) -> QuantumCodeRecord:
    """Hermitian record from R_{q^2}(nu, m); range 0 <= nu <= m(q-1)-1.

    In that range the code is self-orthogonal and the record matches
    [[q^{2m}, q^{2m} - 2k(nu), d(nu-perp)]]_q, k and d over GF(q^2).
    """
    check_quantum_orders(q, m, nu=nu)
    g = build_grm(q * q, m, nu)
    d_pred = hermitian_grm_distance(g)
    rec = hermitian(g.code, cap)
    return _grm_record(rec, {"q": q, "m": m, "nu": nu}, q ** (2 * m) - 2 * g.k_formula, d_pred)
