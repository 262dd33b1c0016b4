"""Generalized Reed-Muller codes over GF(q) by polynomial evaluation.

R_q(nu, m) is the code of evaluations of all m-variate polynomials of
total degree <= nu at every point of GF(q)^m (length n = q^m).  Exponents
are reduced by x^q = x, so each variable's exponent is capped at q-1; the
surviving monomials evaluate to linearly independent functions, which
makes the closed-form dimension a pure monomial count.

Points are enumerated as an m-digit base-q counter over the canonical
element order, least-significant coordinate first (``gf.point_matrix``,
the package's one point order), so generator matrices are reproducible
across runs.

The generator is written in RREF directly, with no elimination.  Name a
point by its coordinate indices a = (a_1, ..., a_m), element j being the
node j, and let A be the lower set {a : sum(a) <= nu}, of size k.

* Pivots.  For a point a outside A, the tensor divided difference over the
  box {b <= a} annihilates every monomial of degree <= nu (it needs
  exponents e >= a componentwise), gives a a nonzero weight, and uses only
  points before a in the counter order.  So column a depends on earlier
  columns and is never a pivot; as |A| = k, the pivots are exactly A.
* Rows.  The row of pivot s is the code word that is 1 at s and 0 on the
  rest of A: the Lagrange function of s on the lower set (Dyn and Floater,
  "Multivariate polynomial interpolation on lower sets", J. Approx. Theory
  177, 2014),

      l_s(x) = sum over a in A with a >= s of prod_i G[s_i, a_i, x_i],

  where G[l, j] = H[l, j] - H[l, j-1] and H[l, j] is the univariate
  Lagrange basis polynomial of node l on the nodes 0..j (zero for l > j).
  Each product has degree sum(a) <= nu, so l_s lies in the code.
* Recursion.  Splitting off the last coordinate (the most significant
  digit of the point index) gives

      rows(m, nu)[(s_m, s'), (x_m, x')]
          = sum_{a = s_m}^{min(nu, q-1)} G[s_m, a, x_m] rows(m-1, nu-a)[s', x'],

  and for one coordinate the sum telescopes to rows(1, b) = H[0..b, b].
  Each level is one loop over a, whose terms are row gathers from the
  table of multiples of rows(m-1, nu-a).  Only the table H is kept per
  field; G is taken from it where m >= 2.

Each code is built once per process.  ``_grm_code`` caches the canonical
``LinearCode`` of R_q(nu, m) by (q, m, nu), with no limit: fields stop at
q = 64 and ``MAX_LENGTH`` caps q^m at 256, so the generators of all 421
supported codes take 2.78 MB together (6.98 MB with the duals and
restrictions the codes memoize).  The code's arrays are read-only, and
its ``dual`` and ``restriction`` are computed once per process.
``build_grm`` wraps the shared code in a fresh ``GrmCode`` on every
call, so the closed forms and the rank and length checks are read at
call time, never kept from an earlier call.  A check that plants a fault
inside the generator path in a running process must first call
``_grm_code.cache_clear()``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import LengthCapExceeded, OrderOutOfRange, ParameterMismatch, decide
from .gf import FieldSpec, get_field, point_matrix
from .lincode import LinearCode

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
        self.nu_perp = dual_order(q, m, nu)
        rank = ("rank_equals_dimension_formula", code.k == self.k_formula, code.k, self.k_formula, True)
        decide("classical-grm", rank)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    def __repr__(self) -> str:
        return f"GrmCode(q={self.q}, m={self.m}, nu={self.nu}; [{self.n},{self.k}])"


@lru_cache(maxsize=None)
def lagrange_table(q: int) -> np.ndarray:
    """Univariate Lagrange table H over GF(q), shape (q, q, q), read-only.

    H[l, j, x] is the basis polynomial of node l on the nodes 0..j at x,
    zero for l > j.  Built on first use and cached apart from the field,
    so building a field does not pay for it.
    """
    f = get_field(q)
    x = np.arange(q, dtype=np.uint8)
    H = np.zeros((q, q, q), dtype=np.uint8)
    vanish = np.ones(q, dtype=np.uint8)  # prod_{i<j} (x - i)
    for j in range(q):
        x_minus_j = f.sub_arrays(x, x[j])
        # adding node j multiplies the basis of each old node l by (x - j) / (l - j)
        scale = f.INV[f.sub_arrays(x[:j], x[j])]
        H[:j, j] = f.MUL[H[:j, j - 1], f.MUL[scale[:, None], x_minus_j]]
        H[j, j] = f.MUL[vanish, f.INV[vanish[j]]]
        vanish = f.MUL[vanish, x_minus_j]
    H.setflags(write=False)
    return H


def _lagrange_rows(field: FieldSpec, m: int, nu: int, digit_sum: np.ndarray) -> np.ndarray:
    """Rows l_s for s in A(m, nu), in counter order, by the last-coordinate recursion.

    ``digit_sum[t]`` is the coordinate-index sum of point t.  Level i
    needs rows(i, b) for the budgets b its parent asks for; a budget past
    i(q-1) is clamped, because the lower set is then the whole box.
    """
    q = field.q
    top = q - 1
    need = {m: {nu}}
    for i in range(m, 1, -1):
        need[i - 1] = {min(b - a, (i - 1) * top) for b in need[i] for a in range(min(b, top) + 1)}
    H = lagrange_table(q)
    rows = {b: H[: b + 1, b] for b in need[1]}
    if m == 1:
        return rows[nu]
    # G[l, j] = H[l, j] - H[l, j-1]; q <= 16 once m >= 2, so it is small
    G = H.copy()
    G[:, 1:] = field.sub_arrays(H[:, 1:], H[:, :-1])
    for i in range(2, m + 1):
        w = q ** (i - 1)
        prev_pts = {c: np.flatnonzero(digit_sum[:w] <= c) for c in rows}
        level = {}
        for b in need[i]:
            pts = np.flatnonzero(digit_sum[: q * w] <= b)
            pos = np.zeros(q * w, dtype=np.intp)
            pos[pts] = np.arange(pts.size)
            out = np.zeros((pts.size, q, w), dtype=np.uint8)
            for a in range(min(b, top) + 1):
                c = min(b - a, (i - 1) * top)
                # the rows (s_i, s') with s_i <= a and s' in A(i-1, c)
                idx = pos[np.arange(a + 1)[:, None] * w + prev_pts[c]]
                # G[s_i, a, x_i] times rows(i-1, c)[s', x'], gathered from
                # the (q, rows, w) table of rows(i-1, c)'s multiples
                term = field.MUL.take(rows[c], axis=1)[G[: a + 1, a]].transpose(0, 2, 1, 3)
                out[idx] = field.add_arrays(out[idx], term)
            level[b] = out.reshape(pts.size, q * w)
        rows = level
    return rows[nu]


@lru_cache(maxsize=None)
def _grm_code(q: int, m: int, nu: int) -> LinearCode:
    """R_q(nu, m)'s canonical code, its RREF generator written directly, no elimination.

    The pivots are the points of the lower set A = {a : sum(a) <= nu} and
    the row of pivot s is its Lagrange function on A (see the module
    docstring for why and for the recursion that builds the rows).  The
    rows are checked to be the identity on the pivot columns and zero left
    of each pivot, and to sum to the constant 1 (the Lagrange functions
    interpolate it), before they are taken as canonical.  Cached for the
    process (see the module docstring); a raised error is not cached.
    """
    field = get_field(q)
    _check_order(q, m, nu)
    n = q**m
    if n > MAX_LENGTH:
        raise LengthCapExceeded(f"q^m = {n} exceeds the configured maximum {MAX_LENGTH}")
    digit_sum = point_matrix(field, m).sum(axis=0, dtype=np.intp)
    pivots = np.flatnonzero(digit_sum <= nu)
    rows = _lagrange_rows(field, m, nu, digit_sum)
    # the constant 1 is in the code and interpolates to itself, so the
    # rows sum to 1 at every point, non-pivot columns included
    total = rows
    while total.shape[0] > 1:
        half = total.shape[0] // 2
        total = np.vstack([field.add_arrays(total[:half], total[half : 2 * half]), total[2 * half :]])
    # with a 1 at every pivot, "zero left of it" is "first nonzero entry"
    if not (
        np.array_equal(rows[:, pivots], np.eye(pivots.size, dtype=np.uint8))
        and np.array_equal((rows != 0).argmax(axis=1), pivots)
        and np.all(total == 1)
    ):
        raise ParameterMismatch(
            f"Lagrange rows of R_{q}({nu}, {m}) are not in RREF on the lower set"
            " or do not sum to 1"
        )
    return LinearCode(field, rows, n, _canonical=True)


def build_grm(q: int, m: int, nu: int) -> GrmCode:
    """R_q(nu, m): the process's one canonical code (``_grm_code``) in a fresh ``GrmCode``.

    ``GrmCode`` reads the closed forms and checks k against the dimension
    formula on every call; only the generator is shared.
    """
    return GrmCode(q, m, nu, _grm_code(q, m, nu))


def grm_dual_code(g: GrmCode) -> LinearCode:
    """The dual order's code; the zero code when nu was maximal."""
    if g.nu_perp < 0:
        return LinearCode.zero_code(g.field, g.n)
    return build_grm(g.q, g.m, g.nu_perp).code
