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
elements are plain residues.  For prime powers the class of x is itself
primitive, so the generator index is always p.

Quadratic towers GF(q) < GF(q^2) are designated for q in {2,3,4,5,7,8};
the embedding sends the base generator to the smallest-index root of the
base modulus inside the extension, which fixes one of the e conjugate
embeddings once and for all.

Array operations on uint8 index arrays use one rule per field: XOR for
p = 2, min(s, s - p) of the uint8 sum s < 2p for prime q (s - p wraps
past 255 exactly when s < p; subtraction adds p - b), and for q in
{9, 25, 27, 49} one ``take`` from the flattened ADD table at ``a * q + b``
in uint16.  Elimination uses the row-multiple kernel
:meth:`FieldSpec.add_multiples`, which gathers whole rows of multiples.  A
matrix product, in every field, is one exact floating-point product of
base-p digit planes, reduced mod p afterwards (Dumas, Gautier and Pernet,
ISSAC 2002); see :meth:`FieldSpec.matmul`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    DivisionByZero,
    NoEmbeddingDefined,
    UnsupportedField,
)

# q -> (p, e, modulus coefficients constant-first, generator index)
_FIELD_TABLE = {
    2: (2, 1, (1, 1), 1),
    3: (3, 1, (1, 1), 2),
    4: (2, 2, (1, 1, 1), 2),
    5: (5, 1, (3, 1), 2),
    7: (7, 1, (4, 1), 3),
    8: (2, 3, (1, 1, 0, 1), 2),
    9: (3, 2, (2, 1, 1), 3),
    16: (2, 4, (1, 1, 0, 0, 1), 2),
    25: (5, 2, (2, 1, 1), 5),
    27: (3, 3, (1, 2, 0, 1), 3),
    49: (7, 2, (3, 1, 1), 7),
    64: (2, 6, (1, 1, 0, 0, 0, 0, 1), 2),
}

SUPPORTED_SIZES = tuple(sorted(_FIELD_TABLE))

# designated quadratic towers: base q -> extension q^2
_QUADRATIC_TOWERS = {2: 4, 3: 9, 4: 16, 5: 25, 7: 49, 8: 64}


def _digits(index: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(index % p)
        index //= p
    return out


def _index(digits, p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + int(d)
    return v


def _polymulmod(a, b, modulus, p):
    """Schoolbook product of coefficient lists, reduced mod the monic modulus."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    while len(prod) > e:
        top = prod.pop()
        if top:
            base = len(prod) - e
            for i in range(e):
                prod[base + i] = (prod[base + i] - top * modulus[i]) % p
    prod.extend([0] * (e - len(prod)))
    return prod


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
        p, e, modulus, generator = _FIELD_TABLE[q]
        self.q = q
        self.p = p
        self.e = e
        self.modulus = modulus
        self.generator = generator

        # exp/log tables for the multiplicative group
        exp = np.zeros(2 * (q - 1), dtype=np.uint8)
        log = np.zeros(q, dtype=np.int64)
        gen_digits = _digits(generator, p, e)
        x = _digits(1, p, e)
        for k in range(q - 1):
            idx = _index(x, p)
            exp[k] = idx
            exp[k + q - 1] = idx
            log[idx] = k
            x = _polymulmod(x, gen_digits, modulus, p)
        assert _index(x, p) == 1, "generator table is inconsistent"
        log[0] = -1
        self._exp = exp
        self._log = log

        # digit-wise addition table (index arithmetic is coefficient-wise mod p)
        idxs = np.arange(q)
        digit_mats = []
        rest = idxs.copy()
        for _ in range(e):
            digit_mats.append(rest % p)
            rest //= p
        add = np.zeros((q, q), dtype=np.uint8)
        for d_pos, dm in enumerate(digit_mats):
            add += ((dm[:, None] + dm[None, :]) % p).astype(np.uint8) * (p**d_pos)
        self.ADD = add
        self._add_flat = add.reshape(-1)  # ADD[a, b] == _add_flat[a * q + b]
        neg = np.zeros(q, dtype=np.uint8)
        for d_pos, dm in enumerate(digit_mats):
            neg += ((-dm) % p).astype(np.uint8) * (p**d_pos)
        self.NEG = neg

        mul = np.zeros((q, q), dtype=np.uint8)
        lg = log[1:]
        mul[1:, 1:] = exp[(lg[:, None] + lg[None, :])]
        self.MUL = mul
        inv = np.zeros(q, dtype=np.uint8)
        inv[1:] = exp[(q - 1) - lg]
        self.INV = inv

        # POW[x, j] = x**j for 0 <= j <= q-1, with 0**0 = 1
        pow_table = np.ones((q, q), dtype=np.uint8)
        for j in range(1, q):
            pow_table[:, j] = mul[pow_table[:, j - 1], idxs]
        pow_table[0, 1:] = 0
        self.POW = pow_table

        # DIGITS[x, s] is digit s of x; p^s is both the place value of digit
        # s and the index of x^s (s < e)
        self.DIGITS = np.stack(digit_mats, axis=1).astype(np.uint8)
        self._xpow = p ** np.arange(e)

        for t in (self.ADD, self.MUL, self.NEG, self.INV, self.POW, self.DIGITS):
            t.setflags(write=False)

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.ADD[a, self.NEG[b]])

    def neg(self, a: int) -> int:
        return int(self.NEG[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return int(self.INV[a])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero(f"division by 0 in GF({self.q})")
        return int(self.MUL[a, self.INV[b]])

    def pow(self, a: int, n: int) -> int:
        """a**n for any integer n; negative n inverts first."""
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero(f"0**{n} undefined in GF({self.q})")
            return 0
        return int(self._exp[(int(self._log[a]) * n) % (self.q - 1)])

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
        s of a.  The multiples x^s b come from the MUL table, so they are
        already reduced by the modulus, and the product's inner dimension
        is r e.  Each sum is at most r e (p-1)^2: float32 is exact below
        2^24 and is used there, float64 (exact below 2^53) above.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        (m, r), n, p, e = a.shape, b.shape[1], self.p, self.e
        small = r * e * (p - 1) ** 2 < 1 << 24
        planes = self.DIGITS.astype(np.float32 if small else np.float64)
        # column t*e + s of A and row t*e + s of B pair digit s of a with x^s b
        A = planes.take(a, axis=0).reshape(m, r * e)
        xb = self.MUL[self._xpow].take(b, axis=1).transpose(1, 0, 2)
        B = planes.take(xb, axis=0).reshape(r * e, n * e)
        digits = (A @ B).astype(np.uint32 if small else np.uint64)
        digits -= p * (digits // p)  # floor division by a constant is fast; % is not
        if e > 1:
            digits = digits.reshape(m, n, e) @ self._xpow
        return digits.astype(np.uint8)

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.q}))"

    # identity semantics: one instance per q via get_field


@lru_cache(maxsize=None)
def get_field(q: int) -> FieldSpec:
    """Return the shared FieldSpec for GF(q); raises UnsupportedField."""
    return FieldSpec(q)


class QuadraticExtension:
    """Precomputed data for a designated tower GF(q) < GF(q^2).

    Holds the embedding table, Frobenius, trace and norm down to the base
    field, and the coordinate split of GF(q^2) in the basis (1, gamma)
    where gamma is the extension's primitive element.
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

        # embed the base generator as the smallest root of the base modulus
        root = None
        for y in range(ext.q):
            acc = 0
            for c in reversed(sub.modulus):
                acc = ext.add(ext.mul(acc, y), c % sub.p)
            if acc == 0:
                root = y
                break
        assert root is not None, "base modulus has no root in the extension"

        emb = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            acc = 0
            for c in reversed(_digits(a, sub.p, sub.e)):
                acc = ext.add(ext.mul(acc, root), c)
            emb[a] = acc
        self.emb = emb
        emb_inv = np.full(ext.q, -1, dtype=np.int64)
        emb_inv[emb] = np.arange(q)
        self.emb_inv = emb_inv

        # Frobenius x -> x^q on the extension; fixes exactly the embedded copy
        frob = np.zeros(ext.q, dtype=np.uint8)
        for x in range(ext.q):
            frob[x] = ext.pow(x, q)
        self.frob = frob

        trace = np.zeros(ext.q, dtype=np.uint8)
        norm = np.zeros(ext.q, dtype=np.uint8)
        for x in range(ext.q):
            t = ext.add(x, int(frob[x]))
            nm = ext.mul(x, int(frob[x]))
            assert emb_inv[t] >= 0 and emb_inv[nm] >= 0
            trace[x] = emb_inv[t]
            norm[x] = emb_inv[nm]
        self.trace = trace
        self.norm = norm

        # coordinates of GF(q^2) in the basis (1, gamma) over GF(q)
        self.gamma = ext.generator
        dec_a = np.zeros(ext.q, dtype=np.uint8)
        dec_b = np.zeros(ext.q, dtype=np.uint8)
        seen = np.zeros(ext.q, dtype=bool)
        for a in range(q):
            ea = int(emb[a])
            for b in range(q):
                x = ext.add(ea, ext.mul(self.gamma, int(emb[b])))
                assert not seen[x]
                seen[x] = True
                dec_a[x] = a
                dec_b[x] = b
        self.dec_a = dec_a
        self.dec_b = dec_b

        # smallest y with y^(q+1) = x, for each nonzero base x
        first_pre = np.zeros(q, dtype=np.uint8)
        for y in range(ext.q):
            x = int(norm[y])
            if x != 0 and first_pre[x] == 0:
                first_pre[x] = y
        self.norm_first_preimage = first_pre

        for t in (emb, frob, trace, norm, dec_a, dec_b, first_pre):
            t.setflags(write=False)


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
