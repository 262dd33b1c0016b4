"""Generalized Reed-Muller codes over GF(q) by polynomial evaluation.

R_q(nu, m) is the code of evaluations of all m-variate polynomials of
total degree <= nu at every point of GF(q)^m (length n = q^m).  Exponents
are reduced by x^q = x, so each variable's exponent is capped at q-1; the
surviving monomials evaluate to linearly independent functions, which
makes the closed-form dimension a pure monomial count.

Points are enumerated as an m-digit base-q counter over the canonical
element order, least-significant coordinate first, so generator matrices
are reproducible across runs.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from . import lincode
from .errors import LengthCapExceeded, NotNested, OrderOutOfRange, ParameterMismatch
from .gf import FieldSpec, get_field
from .lincode import DEFAULT_CAP, LinearCode

MAX_LENGTH = 256


def _check_order(q: int, m: int, nu: int) -> None:
    if m < 1:
        raise OrderOutOfRange(f"need m >= 1, got {m}")
    if not 0 <= nu <= m * (q - 1):
        raise OrderOutOfRange(
            f"order {nu} outside [0, {m * (q - 1)}] for q={q}, m={m}"
        )


def grm_dimension(q: int, m: int, nu: int) -> int:
    """Closed-form dimension: alternating binomial sum over j.

    Binomials with negative lower index or lower > upper count as zero.
    """
    _check_order(q, m, nu)

    def c(a: int, b: int) -> int:
        if b < 0 or a < b:
            return 0
        return comb(a, b)

    return sum(
        (-1) ** j * c(m, j) * c(m + nu - j * q, nu - j * q) for j in range(m + 1)
    )


def grm_distance(q: int, m: int, nu: int) -> int:
    """Closed-form minimum distance (R+1)*q^Q with m(q-1)-nu = (q-1)Q + R."""
    _check_order(q, m, nu)
    rem = m * (q - 1) - nu
    Q, R = divmod(rem, q - 1)
    return (R + 1) * q**Q


def dual_order(q: int, m: int, nu: int) -> int:
    """Order of the dual code, m(q-1)-1-nu; -1 denotes the zero code."""
    _check_order(q, m, nu)
    return m * (q - 1) - 1 - nu


def monomial_exponents(q: int, m: int, nu: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples with entries <= q-1 and total degree <= nu, graded-lex."""
    _check_order(q, m, nu)
    exps = [
        t
        for t in itertools.product(range(min(nu, q - 1) + 1), repeat=m)
        if sum(t) <= nu
    ]
    exps.sort(key=lambda t: (sum(t), t))
    return tuple(exps)


def point_matrix(field: FieldSpec, m: int) -> np.ndarray:
    """Coordinates of all q^m points, shape (m, q^m); coordinate 0 varies fastest."""
    q = field.q
    n = q**m
    t = np.arange(n)
    return np.vstack([((t // q**i) % q).astype(np.uint8) for i in range(m)])


class GrmCode:
    """A constructed R_q(nu, m) together with its predicted parameters."""

    def __init__(self, q: int, m: int, nu: int, code: LinearCode):
        self.q = q
        self.m = m
        self.nu = nu
        self.field = code.field
        self.code = code
        self.k_formula = grm_dimension(q, m, nu)
        self.d_formula = grm_distance(q, m, nu)
        self.nu_perp = m * (q - 1) - 1 - nu
        if code.k != self.k_formula:
            raise ParameterMismatch(
                f"evaluation rank {code.k} disagrees with dimension formula {self.k_formula}"
            )
        if code.n != q**m:
            raise ParameterMismatch("length must be q^m")

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    def __repr__(self) -> str:
        return f"GrmCode(q={self.q}, m={self.m}, nu={self.nu}; [{self.n},{self.k}])"


def build_grm(q: int, m: int, nu: int) -> GrmCode:
    """Evaluate the monomials at every point and canonicalize.

    One gather per variable: row r is multiplied by x_i^{e_ri} at every
    point, with POW[0, 0] = 1 giving 0^0 = 1.
    """
    field = get_field(q)
    _check_order(q, m, nu)
    n = q**m
    if n > MAX_LENGTH:
        raise LengthCapExceeded(f"q^m = {n} exceeds the configured maximum {MAX_LENGTH}")
    exps = np.array(monomial_exponents(q, m, nu), dtype=np.intp)  # (monomials, m)
    pts = point_matrix(field, m)
    rows = np.ones((len(exps), n), dtype=np.uint8)
    for i in range(m):
        rows = field.MUL[rows, field.POW[pts[i][None, :], exps[:, i][:, None]]]
    return GrmCode(q, m, nu, LinearCode(field, rows, n))


def grm_dual_code(g: GrmCode) -> LinearCode:
    """The dual order's code; the zero code when nu was maximal."""
    if g.nu_perp < 0:
        return LinearCode.zero_code(g.field, g.n)
    return build_grm(g.q, g.m, g.nu_perp).code


def nesting_weight_check(
    q: int, m: int, nu1: int, nu2: int, cap: int = DEFAULT_CAP
) -> dict:
    """Verify strict nesting and the set-difference weight identity.

    For nu1 < nu2 the difference set C2 minus C1 must attain wt(C2); the
    returned report carries all three enumerated weights.
    """
    if not nu1 < nu2:
        raise NotNested(f"need nu1 < nu2, got {nu1}, {nu2}")
    c1 = build_grm(q, m, nu1)
    c2 = build_grm(q, m, nu2)
    if not (c1.code.is_subcode_of(c2.code) and c1.k < c2.k):
        raise ParameterMismatch("orders increased but codes are not strictly nested")
    w2, wdiff = lincode.exact_min_weight(c2.code, c1.code, cap)
    w1 = lincode.exact_min_weight(c1.code, cap=cap)[0]
    return {
        "q": q,
        "m": m,
        "nu1": nu1,
        "nu2": nu2,
        "wt_c1": w1,
        "wt_c2": w2,
        "wt_difference": wdiff,
        "difference_attains_wt_c2": wdiff == w2,
        "strictly_nested": True,
    }
