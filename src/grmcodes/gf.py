"""Exact arithmetic in small finite fields GF(p^e).

Elements are represented by integer indices 0..q-1.  The base-p digits of
an index are the coefficients (constant term first) of the element written
as a polynomial of degree < e over GF(p), reduced modulo a fixed monic
primitive polynomial.  This gives every supported field one canonical,
platform-independent element order: 0, 1, ..., q-1.

One modulus is compiled in per supported size so that indices mean the
same thing across runs:

    q=2  : x + 1            q=3  : x + 1           q=4  : x^2 + x + 1
    q=5  : x + 3            q=7  : x + 4           q=8  : x^3 + x + 1
    q=9  : x^2 + x + 2      q=16 : x^4 + x + 1     q=25 : x^2 + x + 2
    q=27 : x^3 + 2x + 1     q=49 : x^2 + x + 3     q=64 : x^6 + x + 1

For prime q the modulus is x - g with g the smallest primitive root, and
elements are plain residues.  In every supported field the class of x is
primitive and is the generator: index p for e > 1, and g for prime q,
where x = g.

Every table is built from the one digit representation, ``DIGITS``
(q x e) with the place values p^s, by array arithmetic: ADD and NEG digit
by digit mod p, and multiplication by x as the companion map of the
modulus (shift each digit up one place, fold the top digit back).  The
orbit of 1 under it is the exp/log table, from which MUL, INV and POW
follow.  The tables are the whole scalar interface: a + b is
``ADD[a, b]``, a - b is ``ADD[a, NEG[b]]``, a / b is ``MUL[a, INV[b]]``
and a^j is ``POW[a, j]`` for 0 <= j <= q - 1.

Quadratic towers GF(q) < GF(q^2) are designated for q in {2,3,4,5,7,8};
the embedding sends the base generator to the smallest-index root of the
base modulus inside the extension, which fixes one of the e conjugate
embeddings once and for all.  A tower's ``points`` table identifies
GF(q)^2 with GF(q^2) through the basis (1, gamma), gamma the extension's
generator: point a + q b, with coordinates (a, b), is emb[a] + gamma
emb[b].  For prime q it is the identity.

The points of GF(q)^m have one order, :func:`point_matrix`'s: point t has
coordinate i equal to t // q^i mod q, coordinate 0 fastest.  GRM
generators evaluate at them in that order, the support search's affine
maps act on it, and the tower's ``points`` table reads it for m = 2.

Array operations on uint8 index arrays use one rule per field: XOR for
p = 2, min(s, s - p) of the uint8 sum s < 2p for prime q (s - p wraps
past 255 exactly when s < p; subtraction adds p - b), and for q in
{9, 25, 27, 49} one ``take`` from the flattened ADD table at ``a * q + b``
in uint16.  Elimination uses the row-multiple kernel
:meth:`FieldSpec.add_multiples`, which gathers whole rows of multiples.  A
matrix product, in every field, is one exact floating-point product of
base-p digit planes, reduced mod p afterwards (Dumas, Gautier and Pernet,
ISSAC 2002), in row and column blocks of at most 128 KB each when it is
large, with the digits folded into elements in uint8; see
:meth:`FieldSpec.matmul`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    NoEmbeddingDefined,
    UnsupportedField,
)

# q -> (p, e, modulus coefficients constant-first)
_FIELD_TABLE = {
    2: (2, 1, (1, 1)),
    3: (3, 1, (1, 1)),
    4: (2, 2, (1, 1, 1)),
    5: (5, 1, (3, 1)),
    7: (7, 1, (4, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (2, 1, 1)),
    16: (2, 4, (1, 1, 0, 0, 1)),
    25: (5, 2, (2, 1, 1)),
    27: (3, 3, (1, 2, 0, 1)),
    49: (7, 2, (3, 1, 1)),
    64: (2, 6, (1, 1, 0, 0, 0, 0, 1)),
}

SUPPORTED_SIZES = tuple(sorted(_FIELD_TABLE))

# bytes of each float block of a field product, its operands and its
# digit sums: below the allocator's default mmap threshold
_OPERAND_BYTES = 1 << 17

# designated quadratic towers: base q -> extension q^2
_QUADRATIC_TOWERS = {2: 4, 3: 9, 4: 16, 5: 25, 7: 49, 8: 64}


class FieldSpec:
    """A finite field GF(p^e) with precomputed arithmetic tables.

    Immutable after construction; obtain instances through :func:`get_field`
    so that equal sizes share one object (element indices are only
    meaningful relative to their FieldSpec).
    """

    def __init__(self, q: int):
        if q not in _FIELD_TABLE:
            raise UnsupportedField(
                f"GF({q}) not supported; available sizes: {SUPPORTED_SIZES}"
            )
        p, e, modulus = _FIELD_TABLE[q]
        self.q = q
        self.p = p
        self.e = e
        self.modulus = modulus

        # DIGITS[x, s] is digit s of x; p^s is both the place value of digit
        # s and the index of x^s (s < e).  Tables are computed in intp and
        # cast to uint8 once.
        idxs = np.arange(q)
        self._xpow = p ** np.arange(e)
        digits = idxs[:, None] // self._xpow % p
        self.DIGITS = digits.astype(np.uint8)
        self.ADD = ((digits[:, None] + digits[None, :]) % p @ self._xpow).astype(np.uint8)
        self.NEG = (-digits % p @ self._xpow).astype(np.uint8)

        # times x: shift every digit up one place and fold the top digit back
        # with the monic modulus, x^e = -(m_0 + ... + m_{e-1} x^{e-1})
        shifted = np.zeros_like(digits)
        shifted[:, 1:] = digits[:, :-1]
        times_x = ((shifted - digits[:, -1:] * modulus[:e]) % p @ self._xpow).tolist()
        # the class of x generates every supported field (x = g for prime q)
        self.generator = times_x[1]

        # exp/log tables for the multiplicative group: the orbit of 1 under x
        exp = np.zeros(2 * (q - 1), dtype=np.uint8)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x = times_x[x]
        assert x == 1 and np.bincount(exp[: q - 1], minlength=q).max() == 1, "x is not primitive"
        exp[q - 1 :] = exp[: q - 1]

        mul = np.zeros((q, q), dtype=np.uint8)
        lg = log[1:]
        mul[1:, 1:] = exp[(lg[:, None] + lg[None, :])]
        self.MUL = mul
        inv = np.zeros(q, dtype=np.uint8)
        inv[1:] = exp[(q - 1) - lg]
        self.INV = inv

        # POW[x, j] = x**j for 0 <= j <= q-1, with 0**0 = 1
        pow_table = np.zeros((q, q), dtype=np.uint8)
        pow_table[1:] = exp[lg[:, None] * idxs % (q - 1)]
        pow_table[0, 0] = 1
        self.POW = pow_table

        # bytes add_arrays holds per entry at its peak, its result included:
        # the XOR for p = 2; the sum s and s - p for prime q; through the ADD
        # table, the uint16 index, numpy's intp copy of it and the result
        self.add_bytes = 1 if p == 2 else 2 if e == 1 else 11

        # matmul's operands are gathers from the digit planes of every
        # element, in both float widths, and from the multiples x^s c
        self._planes32 = self.DIGITS.astype(np.float32)
        self._planes64 = self.DIGITS.astype(np.float64)
        self._xmul = mul[self._xpow]  # _xmul[s, c] = x^s c

        tables = (self.ADD, self.MUL, self.NEG, self.INV, self.POW, self.DIGITS)
        for t in (*tables, self._planes32, self._planes64, self._xmul):
            t.setflags(write=False)
        # a view of the frozen ADD, so it is read-only too
        self._add_flat = self.ADD.reshape(-1)  # ADD[a, b] == _add_flat[a * q + b]

    # -- array operations (uint8 index arrays, broadcasting) ---------------

    def add_arrays(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            # s < 2p, and s - p wraps past 255 exactly when s < p
            s = np.asarray(a + b, dtype=np.uint8)
            return np.minimum(s, s - self.p, out=s)
        # a * q + b < 49^2 overflows uint8 but not uint16
        return self._add_flat.take(np.asarray(a, dtype=np.uint16) * self.q + b)

    def sub_arrays(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            s = np.asarray(a + (self.p - b), dtype=np.uint8)
            return np.minimum(s, s - self.p, out=s)
        return self.add_arrays(a, self.NEG[b])

    def add_multiples(self, Y, coeffs, row):
        """Y + coeffs (x) row: row i of Y plus coeffs[i] times ``row``.

        ``MUL.take(row, axis=1)`` is the (q, n) table of the row's
        multiples, C-contiguous (``MUL[:, row]`` would be column-major), so
        the update is one row gather, not a MUL lookup per entry.
        """
        return self.add_arrays(Y, self.MUL.take(row, axis=1)[coeffs])

    def sub_multiples(self, Y, coeffs, row):
        """Y - coeffs (x) row, the elimination step."""
        return self.add_multiples(Y, self.NEG[coeffs], row)

    def matmul(self, a, b):
        """Matrix product over the field; a is (m, r), b is (r, n).

        One float product over base-p digit planes: digit u of entry (i, j)
        is sum_{t, s} a_s[i, t] * (x^s b[t, j])_u mod p, where a_s is digit
        s of a.  The multiples x^s b come from the table of x^s c, so they
        are already reduced by the modulus, and the product's inner
        dimension is r e.  Each sum is at most r e (p-1)^2: float32 is exact
        below 2^24 and is used there, float64 (exact below 2^53) above.  The
        planes, in both widths, and the table are built once per field.  The
        float operands are built in blocks, A by rows and B by columns, and
        the product of a row block and a column block is a block of digit
        sums; each of these blocks takes at most ``_OPERAND_BYTES``: below
        the allocator's default mmap threshold, so repeated products reuse
        heap memory instead of mapping fresh pages.  One column block of B
        is held at a time, the outer loop, with A's row blocks inside it (A
        is built once when it is one block).  The sums are reduced mod p and
        their e digits folded into uint8 elements by :meth:`_from_digits`.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        (m, r), n, p, e = a.shape, b.shape[1], self.p, self.e
        small = r * e * (p - 1) ** 2 < 1 << 24
        planes = self._planes32 if small else self._planes64
        # B's column blocks, A's row blocks and the sums' blocks each stay
        # within _OPERAND_BYTES
        width = max(1, r * e * planes.itemsize)  # bytes of one row of A, or of one digit column of B
        cols = max(1, _OPERAND_BYTES // (width * e))
        rows = max(1, _OPERAND_BYTES // max(width, min(cols, n) * e * planes.itemsize))  # a row of A or of the sums
        # column t*e + s of A and row t*e + s of B pair digit s of a with x^s b
        xb = self._xmul.take(b, axis=1).transpose(1, 0, 2)
        if m <= rows and n <= cols:  # one block
            return self._fold(planes.take(a, axis=0).reshape(m, r * e) @ planes.take(xb, axis=0).reshape(r * e, n * e))
        # A as one block is built once, else its row blocks are built anew
        # for each column block of B
        A = planes.take(a, axis=0).reshape(m, r * e) if m <= rows else None
        out = np.empty((m, n), dtype=np.uint8)
        for j in range(0, n, cols):
            B = planes.take(xb[:, :, j : j + cols], axis=0).reshape(r * e, min(cols, n - j) * e)
            for i in range(0, m, rows):
                Ai = A if A is not None else planes.take(a[i : i + rows], axis=0).reshape(min(rows, m - i), r * e)
                out[i : i + rows, j : j + cols] = self._fold(Ai @ B)
            del B  # the next column block takes its place
        return out

    def _fold(self, sums):
        """The (m, n) elements whose digits are the (m, n e) float sums mod p."""
        digits = sums.astype(np.uint32 if sums.dtype == np.float32 else np.uint64)
        quot = digits // self.p  # floor division by a constant is fast; % is not
        quot *= self.p  # in place: one temporary beside the digits
        digits -= quot
        d = digits.astype(np.uint8)
        return d if self.e == 1 else self._from_digits(d.reshape(len(d), d.shape[1] // self.e, self.e))

    def _from_digits(self, d):
        """Indices of the elements with base-p digits d, uint8 (..., e) -> (...).

        Horner's rule from the top digit down, in place on a uint8 copy of
        the top digit: every partial value is below q, so nothing can
        overflow.
        """
        out = d[..., -1].copy()
        for s in range(self.e - 2, -1, -1):
            out *= self.p
            out += d[..., s]
        return out

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.q}))"

    # identity semantics: one instance per q via get_field


def point_matrix(field: FieldSpec, m: int) -> np.ndarray:
    """Coordinates of the q^m points of GF(q)^m, shape (m, q^m), uint8:
    point t has coordinate i equal to t // q^i mod q, coordinate 0 fastest."""
    q = field.q
    return (np.arange(q**m) // q ** np.arange(m)[:, None] % q).astype(np.uint8)


@lru_cache(maxsize=None)
def get_field(q: int) -> FieldSpec:
    """Return the shared FieldSpec for GF(q); raises UnsupportedField."""
    return FieldSpec(q)


class QuadraticExtension:
    """Precomputed data for a designated tower GF(q) < GF(q^2).

    Holds the embedding table, Frobenius, trace and norm down to the base
    field, and the point map of the basis (1, gamma), where gamma is the
    extension's primitive element: ``points[a + q b] = emb[a] + gamma
    emb[b]``, with ``dec_a`` and ``dec_b`` its inverse.
    """

    def __init__(self, base_q: int):
        if base_q not in _QUADRATIC_TOWERS:
            raise NoEmbeddingDefined(
                f"no designated quadratic extension for GF({base_q})"
            )
        self.sub = get_field(base_q)
        self.ext = get_field(_QUADRATIC_TOWERS[base_q])
        sub, ext = self.sub, self.ext
        q = sub.q
        elements = np.arange(ext.q)

        # embed the base generator as the smallest root of the base modulus;
        # a prime-field coefficient has the same index in both fields
        value = np.zeros(ext.q, dtype=np.uint8)
        for c in reversed(sub.modulus):
            value = ext.ADD[ext.MUL[value, elements], c]
        root = int(np.flatnonzero(value == 0)[0])

        emb = np.zeros(q, dtype=np.uint8)
        for s in reversed(range(sub.e)):
            emb = ext.ADD[ext.MUL[emb, root], sub.DIGITS[:, s]]
        self.emb = emb
        emb_inv = np.full(ext.q, -1, dtype=np.int64)
        emb_inv[emb] = np.arange(q)
        self.emb_inv = emb_inv

        # Frobenius x -> x^q on the extension; fixes exactly the embedded copy
        self.frob = ext.POW[:, q].copy()
        trace = emb_inv[ext.ADD[elements, self.frob]]
        norm = emb_inv[ext.MUL[elements, self.frob]]
        assert trace.min() >= 0 and norm.min() >= 0, "trace or norm leaves the base field"
        self.trace = trace.astype(np.uint8)
        self.norm = norm.astype(np.uint8)

        # coordinates of GF(q^2) in the basis (1, gamma) over GF(q)
        self.gamma = ext.generator
        a, b = point_matrix(sub, 2)
        self.points = ext.ADD[emb[a], ext.MUL[self.gamma, emb[b]]]
        assert np.bincount(self.points, minlength=ext.q).max() == 1, "(1, gamma) is not a basis"
        self.dec_a = np.zeros(ext.q, dtype=np.uint8)
        self.dec_b = np.zeros(ext.q, dtype=np.uint8)
        self.dec_a[self.points] = a
        self.dec_b[self.points] = b

        # smallest y with y^(q+1) = x, for each nonzero base x (argmax finds
        # the first match); 0 for x = 0
        self.norm_first_preimage = np.argmax(norm == np.arange(q)[:, None], axis=1).astype(np.uint8)

        for name in ("emb", "emb_inv", "frob", "trace", "norm", "points", "dec_a", "dec_b", "norm_first_preimage"):
            getattr(self, name).setflags(write=False)

    def trace_rows(self, M: np.ndarray) -> np.ndarray:
        """Tr(M) stacked over Tr(gamma M), entrywise, for rows M over GF(q^2).

        Tr is GF(q)-linear and (1, gamma) is a basis of GF(q^2) over GF(q),
        so these rows span, over GF(q), the trace image of the GF(q^2)-span
        of M's rows.
        """
        return np.vstack([self.trace[M], self.trace[self.ext.MUL[self.gamma, M]]])


@lru_cache(maxsize=None)
def quadratic_extension(base_q: int) -> QuadraticExtension:
    """Shared tower object for GF(base_q) < GF(base_q^2)."""
    return QuadraticExtension(base_q)


def extension_pair_for(ext_field: FieldSpec) -> QuadraticExtension:
    """Resolve the designated tower whose top field is ``ext_field``."""
    for base_q, ext_q in _QUADRATIC_TOWERS.items():
        if ext_q == ext_field.q:
            return quadratic_extension(base_q)
    raise NoEmbeddingDefined(f"GF({ext_field.q}) is not a designated extension field")
