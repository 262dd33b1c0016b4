"""Linear codes over GF(q) with exhaustive weight machinery.

A LinearCode is a k-dimensional subspace of GF(q)^n held as a generator
matrix in reduced row-echelon form.  RREF is unique, so two codes are
equal exactly when their matrices are equal, and every derived object
(duals, restrictions, puncture codes) is reproducible bit for bit.

The construction algebra leans on that form: the generator is the
identity on its pivot columns.  An ``rref`` pivot step touches only the
columns at and right of the pivot, since everything to its left is
already zero; ``reduce`` is one product, as its multipliers are the
pivot columns, and returns the residue on the free columns only, as it
is 0 on the pivots; ``kernel_basis`` is one elimination and ``dual`` reads its
null rows off an RREF with min(k, n - k) pivots; a matrix already in
RREF (a Frobenius image, a kernel basis, a product of RREF matrices) is
taken as it is, each row's first nonzero entry being its pivot; and
``restriction`` is one kernel over the n - k free columns, because the
pivot columns carry the message and its imaginary part vanishes there.
A code is immutable, so it computes its ``dual``, ``hermitian_dual`` and
``restriction`` once and keeps them, and its dual keeps it as its own
dual; a code shared across calls (``grm``'s cached GRM codes) computes
them once per process.  No product code is built: ``product_rows``, the
componentwise products of two generators' rows, span it, and a puncture
code is one kernel of them.

Every distance goes through one engine, ``exact_min_weight(code,
exclude)``, which settles wt(code) and wt(code minus exclude) in a single
pass over the code by one of four exact routes:

* information-set search: a Brouwer-Zimmermann search over disjoint
  information sets (Zimmermann 1996; Grassl 2006) enumerates each set's
  messages, one per scalar class, weight by weight until the floor on
  unseen words reaches the lightest word outside the excluded subcode
  (nonzero residue under its ``reduce``).  It prices the rest of its work
  before each weight and stops when that tops its budget;
* support search: scan supports of increasing size for dependent column
  sets of the parity-check matrix, which suits codes whose *dual* is
  small.  The first size with a full-support kernel vector is wt(code);
  the first size with one outside the excluded subcode is the second
  value.  Up to r (the number of checks) the supports of size w come
  from a lexicographic prefix tree of depth w - 2: each independent
  prefix carries every column's residue modulo its span, got from its
  parent's in one pivot step, and an extension by columns j < j' is
  dependent exactly when either residue is 0 or the two are parallel,
  which uint64 keys propose and the residues confirm.  Each layer's
  prefix blocks and the pair runs are sized, like every block of a span
  scan or of the search, by one byte budget, ``_SCAN_BYTES``.  Above r
  every support is dependent and is walked untested.  Only the dependent
  sets, rare below the minimum weight, reach the per-subset kernel
  computation.
  When a verified 2-transitive group (generators of AGL(m, q) on n = q^m
  points, :func:`_affine_group_fixes`) fixes the code and the excluded
  subcode, a lightest word has an image of its weight through coordinates
  0 and 1, so the tree is rooted there for every 2 <= w <= r: a layer
  builds C(n - 2, w - 4) prefixes, not C(n, w - 2);
* weight distributions: the counts A_w of the code and of ``exclude``, each
  from one scan of the smaller of that code and its dual, the dual's
  carried over by the MacWilliams identity (:func:`_macwilliams`).  wt(code)
  is the first w > 0 with A_w(code) > 0, and wt(code minus exclude) the
  first with A_w(code) - A_w(exclude) > 0.  A code keeps its scan's counts,
  as it keeps its ``dual``, and ``weight_distribution`` reads the same;
* footprint certificate, for a code of length q^m: a word whose
  polynomial on GF(q)^m leads with x^b in graded lex weighs at least
  prod_i (q - b_i), so the least such footprint over the leading
  monomials LM(code) bounds both values, and a minimizing
  f_b = prod_i prod_{j < b_i} (x_i - alpha_j), of exactly that weight,
  found in the code and outside ``exclude`` settles them.  A code of rate
  above 1/2 reads LM from its small dual, as LM(C-perp) is the reflection
  of the complement of LM(C); on a tower top the Frobenius image's bound,
  read the same way, is tried too (:func:`_footprint_weights`).

Counts a code and its excluded subcode already hold answer first, when
their price below fits the cap.  Then the search runs.  When q^k fits
the cap, its budget is one scan of the (q^k - 1)/(q - 1) scalar classes,
and the distributions finish what it leaves: each smaller span then fits
the cap too, and each code keeps the counts of its scan.  Above the cap,
the search runs under the cap (for a code of rate above 1/2, only its
first look), and the support search runs only when the support sizes it
charges up front, up to the lightest word the search saw, fit its subset
budget.  When neither finishes, the distributions settle both values if
each side's smaller span, q^min(k, n - k), fits the cap, priced before
any scan.  The footprint runs once at most, when n = q^m and
n min(k, n - k) fits the cap: where the search's first look leaves the
value open and its plan fits its budget, just before the search would
build its information sets, since on the grid it settles for far less
than those sets cost; otherwise last.  It goes no earlier, so that the
memoized counts, the look, the support search and the distributions keep
every value they settle (the counts answer repeat calls almost free, and
the footprint keeps nothing).  If nothing settles, the engine returns an
inexact value holding the bound the search certified, which is what
``LinearCode.min_weight`` reports.

All four are complete where they answer; tests cross-check them against
each other, the filtered support search against a per-subset reference,
the transformed distributions against direct scans, the footprint's
leading monomials against a brute-force interpolation, and all of them
against a brute-force oracle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyCode,
    FieldMismatch,
    NoEmbeddingDefined,
    NotNested,
)
from .gf import FieldSpec, extension_pair_for, point_matrix

DEFAULT_CAP = 2**24
# bytes a block of words from a span scan or the search holds with its
# temporaries (:func:`_block_rows`), and the support filter's prefix blocks
# and pair runs with theirs (:func:`_dependent_supports`), well within a
# core's L2 cache: scans ran slower at 2^18 and no faster at 2^20
# (BENCH_scan_memory_budget.json)
_SCAN_BYTES = 1 << 19
# column subsets the support route may scan when q^k is over the cap
SUPPORT_BUDGET = 2 * 10**6
# largest kernel span the support route enumerates on one column subset
KERNEL_BUDGET = 4096
# costs in exhaustive-scan words of a search row gather (binary, other
# fields) and of an rref pivot step; a search word's weight count is 0.5
_GATHER_COST = {True: 1.25, False: 0.9}
_PIVOT_COST = 200


def rref(field: FieldSpec, mat) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form over the field; returns (matrix, pivot columns).

    Pivot choice is the leftmost nonzero entry, scaled to a leading 1;
    zero rows are dropped, and the matrix returned holds only the r
    nonzero rows, not a view into the eliminated copy.  Each pivot clears
    its column with one call to the row-multiple kernel
    :meth:`FieldSpec.sub_multiples`.  The rows from the current one down
    are zero left of the pivot column, so the swap, the scaling and the
    update touch only the columns >= the pivot's.
    """
    M = np.array(mat, dtype=np.uint8, copy=True)
    if M.ndim != 2:
        raise DimensionMismatch("expected a 2-d matrix")
    rows, n = M.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == rows:
            break
        nzi = M[r:, c].nonzero()[0]
        if nzi.size == 0:
            continue
        pr = r + int(nzi[0])
        if pr != r:
            M[[r, pr], c:] = M[[pr, r], c:]
        pv = int(M[r, c])
        if pv != 1:
            M[r, c:] = field.MUL[field.INV[pv], M[r, c:]]
        col = M[:, c].copy()
        col[r] = 0
        nz = col.nonzero()[0]
        if nz.size:
            M[nz, c:] = field.sub_multiples(M[nz, c:], col[nz], M[r, c:])
        pivots.append(c)
        r += 1
    # a copy when rows were dropped, so a code's generator holds only its own rows
    return (M[:r].copy() if r < rows else M), tuple(pivots)


def _null_rows(field: FieldSpec, R: np.ndarray, pivots) -> np.ndarray:
    """Rows spanning the right kernel of the RREF matrix R (not in RREF).

    One null vector per free column f: 1 at f, -R[i, f] at pivot i.
    """
    n = R.shape[1]
    free = np.delete(np.arange(n), list(pivots))
    H = np.zeros((free.size, n), dtype=np.uint8)
    H[np.arange(free.size), free] = 1
    H[:, list(pivots)] = field.NEG[R[:, free]].T
    return H


def kernel_basis(field: FieldSpec, mat) -> np.ndarray:
    """RREF basis of the right kernel {x : mat @ x = 0} over the field.

    One elimination: the null rows of the column-reversed matrix's RREF,
    reversed in rows and columns, are already in RREF (each has its
    leading 1 at its free column, its other nonzeros at pivots right of it).
    """
    mat = np.asarray(mat, dtype=np.uint8)
    return _null_rows(field, *rref(field, mat[:, ::-1]))[::-1, ::-1]


class LinearCode:
    """A linear [n, k] code over GF(q), canonicalized to RREF."""

    def __init__(self, field: FieldSpec, rows, n: int | None = None, *, _canonical=False):
        self.field = field
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.size == 0:
            if n is None:
                raise DimensionMismatch("zero code needs an explicit length")
            rows = rows.reshape(0, n)
        if rows.ndim != 2:
            raise DimensionMismatch("generator must be a 2-d matrix")
        if n is not None and rows.shape[1] != n:
            raise DimensionMismatch(f"expected length {n}, got {rows.shape[1]}")
        if np.any(rows >= field.q):
            raise ValueError(f"entries must be indices below q={field.q}")
        if _canonical:  # rows already in RREF: each row's first nonzero entry is its pivot
            self.gen = rows.copy()
            self.pivots = tuple((rows != 0).argmax(axis=1).tolist())
        else:
            self.gen, self.pivots = rref(field, rows)
        self.gen.setflags(write=False)
        self.n = int(self.gen.shape[1])
        self.k = int(self.gen.shape[0])
        free = np.ones(self.n, dtype=bool)
        free[list(self.pivots)] = False
        self.free = np.flatnonzero(free)  # the non-pivot columns
        self.free.setflags(write=False)
        self._dual: LinearCode | None = None
        self._restriction: LinearCode | None = None
        self._hermitian_dual: LinearCode | None = None
        self._counts: tuple[int, ...] | None = None

    @classmethod
    def zero_code(cls, field: FieldSpec, n: int) -> "LinearCode":
        return cls(field, np.zeros((0, n), dtype=np.uint8), n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and other.field is self.field
            and other.n == self.n
            and other.k == self.k
            and np.array_equal(other.gen, self.gen)
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.n, self.k, self.gen.tobytes()))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.q}))"

    # -- membership --------------------------------------------------------

    def reduce(self, vecs: np.ndarray) -> np.ndarray:
        """Residue of row vectors after elimination by the generator rows, on
        the free columns: a vector lies in the code iff its residue is 0.

        The RREF generator is the identity on its pivot columns, so no step
        changes another pivot's entry: the multipliers are read off V once,
        the residue is V - V[:, pivots] @ gen, and that is 0 on the pivots.
        What is returned is its free columns F, V_F - V[:, pivots] @ gen_F.
        """
        V = np.asarray(vecs, dtype=np.uint8)
        single = V.ndim == 1
        if single:
            V = V[None, :]
        if V.shape[1] != self.n:
            raise DimensionMismatch(f"expected length {self.n}")
        f, F = self.field, self.free
        out = f.sub_arrays(V.take(F, axis=1), f.matmul(V[:, list(self.pivots)], self.gen.take(F, axis=1)))
        return out[0] if single else out

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def is_subcode_of(self, other: "LinearCode") -> bool:
        if other.field is not self.field:
            raise FieldMismatch("codes live over different fields")
        if other.n != self.n:
            raise DimensionMismatch("codes have different lengths")
        return not np.any(other.reduce(self.gen))

    # -- duality -------------------------------------------------------------

    def dual(self) -> "LinearCode":
        """Euclidean dual from the null rows (:func:`_null_rows`) of an RREF
        with min(k, n - k) pivots: for k < n - k the column-reversed
        generator's, as :func:`kernel_basis` takes them, else the generator's
        own, whose n - k null rows then need an RREF.  The dual keeps this
        code as its own dual, so what either memoizes serves both.
        """
        if self._dual is None and 2 * self.k < self.n:
            self._dual = LinearCode(self.field, kernel_basis(self.field, self.gen), self.n, _canonical=True)
        elif self._dual is None:
            self._dual = LinearCode(self.field, _null_rows(self.field, self.gen, self.pivots), self.n)
        self._dual._dual = self
        return self._dual

    def frobenius_image(self) -> "LinearCode":
        """Entrywise q-th power of the generator (field must be a tower top).

        Frobenius fixes 0 and 1, so the image of an RREF matrix is in RREF.
        """
        pair = extension_pair_for(self.field)
        return LinearCode(self.field, pair.frob[self.gen], self.n, _canonical=True)

    def hermitian_dual(self) -> "LinearCode":
        """Dual under <x|y>_h = sum x_i y_i^q; equals dual(frobenius_image).
        Memoized, as ``dual`` is."""
        if self._hermitian_dual is None:
            self._hermitian_dual = self.frobenius_image().dual()
        return self._hermitian_dual

    # -- subfield operations -------------------------------------------------

    def restriction(self) -> "LinearCode":
        """Subfield subcode C intersect GF(q)^n, from a kernel over n - k columns.

        The generator G is in RREF, so a codeword c = uG carries its message
        u on the pivot columns, and a codeword over GF(q) has its message
        over GF(q).  Split each entry as a + gamma*b over the base field:
        the restriction is {u dec_a[G] : u in GF(q)^k, u dec_b[G] = 0}.
        dec_b[G] is 0 on the pivots, so the messages are the left kernel U
        of dec_b[G] on the n - k free columns, one :func:`kernel_basis`.  U
        and dec_a[G] (the identity on the pivots) are both in RREF, so their
        product is too: it is dec_a[G][U.pivots] plus the product over U's
        free columns, with no further elimination.  Memoized, as ``dual`` is.
        """
        pair = extension_pair_for(self.field)
        if self._restriction is None and self.k == 0:
            self._restriction = LinearCode.zero_code(pair.sub, self.n)
        elif self._restriction is None:
            B = pair.dec_b[self.gen[:, self.free]]
            U = LinearCode(pair.sub, kernel_basis(pair.sub, B.T), self.k, _canonical=True)
            A = pair.dec_a[self.gen]
            R = pair.sub.add_arrays(A[list(U.pivots)], pair.sub.matmul(U.gen[:, U.free], A[U.free]))
            self._restriction = LinearCode(pair.sub, R, self.n, _canonical=True)
        return self._restriction

    # -- coordinate surgery ----------------------------------------------------

    def punctured_to(self, support) -> "LinearCode":
        """Column restriction to the given coordinates (rank may drop)."""
        support = list(support)
        return LinearCode(self.field, self.gen[:, support], len(support))

    def scaled_by(self, x: np.ndarray) -> "LinearCode":
        """Componentwise scaling of every codeword by the fixed vector x."""
        if len(x) != self.n:
            raise DimensionMismatch("scaling vector has wrong length")
        return LinearCode(self.field, self.field.MUL[self.gen, np.asarray(x, dtype=np.uint8)[None, :]], self.n)

    # -- weights ---------------------------------------------------------------

    def min_weight(self, cap: int = DEFAULT_CAP) -> tuple[int, bool]:
        """(weight, exact): wt(C) from :func:`exact_min_weight` under ``cap``,
        or, where that gives up, (the lower bound its search certified, False)."""
        found = exact_min_weight(self, cap=cap)
        return found.diff, found.exact

    def weight_distribution(self, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
        """Exact weight counts A_0..A_n from one scan of the smaller of the
        code and its dual (:func:`_weight_counts`); CapExceeded when that
        side's span, q^min(k, n - k), tops the cap."""
        if _smaller_span(self) > cap:
            s = f"{self.field.q}^{min(self.k, self.n - self.k)}"
            raise CapExceeded(f"q^min(k, n-k) = {s} exceeds cap {cap} for exact distribution")
        return tuple(_weight_counts(self))

    def _span_counts(self) -> tuple[int, ...]:
        """Weight counts A_0..A_n from one scan of the span, memoized as ``dual`` is.

        The scan sees one word per scalar class, so every positive weight
        count is q - 1 times the count over the scan.
        """
        if self._counts is None:
            counts = np.zeros(self.n + 1, dtype=np.int64)
            for _, block in iter_span_blocks(self.field, self.gen):
                counts += np.bincount((block != 0).sum(axis=1, dtype=np.uint16), minlength=self.n + 1)
            counts *= self.field.q - 1
            counts[0] = 1
            self._counts = tuple(int(c) for c in counts)
        return self._counts


def _smaller_span(code: LinearCode) -> int:
    """q^min(k, n - k): the words of the span :func:`_weight_counts` scans,
    the distribution route's price against the cap."""
    return code.field.q ** min(code.k, code.n - code.k)


def _counted(code: LinearCode) -> bool:
    """Whether the scan :func:`_weight_counts` reads is memoized: the
    code's own when k <= n - k, else its memoized dual's."""
    side = code if 2 * code.k <= code.n else code._dual
    return side is not None and side._counts is not None


def _weight_counts(code: LinearCode):
    """Yield A_0, A_1, ..., A_n of the code, lazily, from one memoized scan
    of the smaller side: the code's own span when k <= n - k, else its
    dual's, carried over by :func:`_macwilliams`."""
    if 2 * code.k <= code.n:
        yield from code._span_counts()
    else:
        yield from _macwilliams(code.dual()._span_counts(), code.field.q, code.n - code.k)


def _macwilliams(B, q: int, s: int):
    """Yield A_0, A_1, ... of the dual of a dimension-s code D over GF(q)
    with weight counts B_0..B_n, by the MacWilliams identity
    A_w = |D|^-1 sum_i B_i K_w(i) (MacWilliams, Bell Syst. Tech. J. 42,
    1963; MacWilliams and Sloane, ch. 5).  The Krawtchouk values K_w(i; n, q)
    follow their three-term recurrence in w over Python ints,
    (w + 1) K_{w+1}(i) = (w + (q - 1)(n - w) - q i) K_w(i) - (q - 1)(n - w + 1) K_{w-1}(i),
    so every count is exact; one that is not a nonnegative integer is an
    internal error, raised, never a bound.
    """
    n = len(B) - 1
    i = [x for x in range(n + 1) if B[x]]
    prev, K = [0] * len(i), [1] * len(i)
    for w in range(n + 1):
        A, rem = divmod(sum(B[x] * Kx for x, Kx in zip(i, K)), q**s)
        if rem or A < 0:
            raise AssertionError(f"MacWilliams count A_{w} is not a nonnegative integer")
        yield A
        step = w + (q - 1) * (n - w)
        prev, K = K, [((step - q * x) * Kx - (q - 1) * (n - w + 1) * Px) // (w + 1) for x, Kx, Px in zip(i, K, prev)]


# -- span enumeration engine -------------------------------------------------


def _block_rows(field: FieldSpec, n: int, index: int = 0) -> int:
    """Words of length n one block may hold within ``_SCAN_BYTES``.

    A word costs n bytes for each of the block a consumer still holds
    while the next is built, the words that block is built from, and its
    gathered terms or its != 0 mask, plus ``field.add_bytes`` n for the
    sum that makes it; 10 bytes for its uint16 weight and an intp copy of
    that (``bincount``) or an intp gather index; and ``index`` more intp
    entries of the index arrays it is gathered by.
    """
    return max(1, _SCAN_BYTES // (n * (3 + field.add_bytes) + 10 + 8 * index))


def iter_span_blocks(field: FieldSpec, rows):
    """Yield (lead, block): one nonzero codeword from each scalar class.

    The blocks hold exactly the words whose message has leading nonzero
    coefficient 1, (q^k - 1)/(q - 1) of them, in lexicographic message
    order (canonical element order per digit, first row most significant);
    ``lead``, the row of that leading 1, runs from k-1 down to 0.  The
    words for lead i are rows[i] plus the span of rows[i+1:]: the head
    prefixes, rows[i] plus each combination of the rows above the base
    block, each plus the base block (a single block when the tail fits in
    the base).  A block takes a run of consecutive prefixes, those of the
    last head row's multiples in element order, as many as fit beside the
    base.  The base grows as the lead falls: at tail k-1-i <= t it is
    every combination of rows[i+1:], first row most significant, so a scan
    that stops after lead i has built q^(k-1-i) words, not q^t.  A block
    holds at most :func:`_block_rows` words (at least q), and at least
    half that many once the base stops growing.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    k, n = rows.shape
    q = field.q
    row_cap = max(q, _block_rows(field, n))
    t, size = 0, 1
    while t < k - 1 and size * q <= row_cap:  # lead 0 needs only rows[1:]
        size *= q
        t += 1
    run = row_cap // size  # prefixes per block, below q when there is a head
    base = np.zeros((1, n), dtype=np.uint8)
    for lead in range(k - 1, -1, -1):
        if 0 < k - 1 - lead <= t:  # rows[lead + 1] becomes the base's leading digit
            mults = field.MUL.take(rows[lead + 1], axis=1)  # its q multiples, in element order
            base = np.ascontiguousarray(field.add_arrays(mults[:, None, :], base[None, :, :])).reshape(-1, n)
        head = rows[lead + 1 : max(lead + 1, k - t)]  # empty when the tail fits the base
        for digits in itertools.product(range(q), repeat=max(len(head) - 1, 0)):
            prefix = rows[lead]
            for d, row in zip(digits, head):
                if d:
                    prefix = field.add_arrays(prefix, field.MUL[d, row])
            prefixes = field.add_arrays(prefix, field.MUL.take(head[-1], axis=1)) if len(head) else prefix[None, :]
            for s in range(0, len(prefixes), run):
                yield lead, field.add_arrays(prefixes[s : s + run, None, :], base[None, :, :]).reshape(-1, n)


# -- information-set search -------------------------------------------


def _index_chunks(tuples, rows: int, width: int):
    """Consecutive (<= rows, width) index arrays drawn from an iterator of tuples."""
    while True:
        chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(tuples, rows)), dtype=np.intp)
        if chunk.size == 0:
            return
        yield chunk.reshape(-1, width)


def _message_words(field: FieldSpec, gen: np.ndarray, w: int):
    """Yield blocks of the words u @ gen with wt(u) = w and leading coefficient 1.

    Each term c_i gen[s_i] after the first is one row gather from the table
    of the rows' multiples.  A block holds at most :func:`_block_rows`
    words, each charged 2w intp entries for the chunks of supports and of
    coefficients it is gathered by (each holds at most w per word).
    """
    k, n = gen.shape
    if w == 1:
        yield gen
        return
    table = field.MUL.take(gen, axis=1).reshape(-1, n)  # row c*k + s is c * gen[s]
    rows = _block_rows(field, n, 2 * w)
    for coeffs in _index_chunks(itertools.product(range(1, field.q), repeat=w - 1), rows, w - 1):
        for supports in _index_chunks(itertools.combinations(range(k), w), max(1, rows // len(coeffs)), w):
            words = gen[supports[:, 0]][:, None, :]
            for j in range(1, w):
                words = field.add_arrays(words, table[supports[:, j, None] + k * coeffs[None, :, j - 1]])
            yield words.reshape(-1, n)


def _information_sets(field: FieldSpec, gen: np.ndarray, pivots) -> list[tuple[np.ndarray, int]]:
    """Systematic generators on disjoint information sets, with their ranks r.

    Set 1 is the RREF pivots; each further set is the pivots in the unused
    columns of the RREF with those columns first, with the identity there on
    its first r rows and zeros on the other k - r (the last may have r < k)."""
    sets = [(gen, gen.shape[0])]
    free = ~np.isin(np.arange(gen.shape[1]), pivots)
    while free.any():
        order = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
        R, piv = rref(field, gen[:, order])
        r = int(np.searchsorted(piv, free.sum()))
        if r == 0:
            break
        free[order[list(piv[:r])]] = False
        sets.append((R[:, np.argsort(order)], r))
    return sets


def _unseen_bound(k: int, ranks, w: int) -> int:
    """Floor on the weight of a word unseen after the messages of weight <= w:
    its message weighs > w on every set, at most k - r of it off a rank-r set."""
    return sum(max(0, w + 1 - (k - r)) for r in ranks)


def _fold_block(block: np.ndarray, exclude: LinearCode | None, best: list[int]) -> None:
    """Lower best = [wt(C), wt(C minus exclude)] by one block; only words
    lighter than best[1] are tested, outside ``exclude`` iff residue != 0."""
    wts = (block != 0).sum(axis=1, dtype=np.uint16)  # uint8 would wrap at n = 256
    best[0] = min(best[0], int(wts.min()))
    if exclude is None:
        best[1] = best[0]
        return
    light = np.flatnonzero(wts < best[1])
    light = light[np.any(exclude.reduce(block[light]), axis=1)] if light.size else light
    if light.size:
        best[1] = int(wts[light].min())


def _search_plan(field: FieldSpec, k: int, ranks, w: int, target: int) -> tuple[float, int]:
    """(cost in scan words, stop weight) to finish the search from weight w.

    The stop weight is the first whose bound reaches ``target``, at most k;
    sets of rank r < k - stop add nothing there and are dropped."""
    stop = next((v for v in range(w, k) if _unseen_bound(k, ranks, v) >= target), k)
    gather = _GATHER_COST[field.p == 2]
    words = sum(comb(k, v) * (field.q - 1) ** (v - 1) * ((v - 1) * gather + 0.5) for v in range(w, stop + 1))
    return sum(r >= k - stop for r in ranks) * words, stop


def _look_weight(q: int, k: int, cap: int) -> int:
    """Weights the search first enumerates on the RREF generator alone.

    Within the cap they are 1 and 2, unless one rref costs more than the
    scan.  Above it they are every weight t whose messages, counted as
    comb(k, t) (q-1)^t and summed, fit min(cap, 2^16): the weight-by-weight
    floor t + 1 (the pivots carry the message) that every capped code gets.
    """
    if q**k <= cap:
        return min(2, k) if _PIVOT_COST * k <= (q**k - 1) // (q - 1) else 0
    t, used = 0, 0
    while t < k and used + comb(k, t + 1) * (q - 1) ** (t + 1) <= min(cap, 1 << 16):
        t += 1
        used += comb(k, t) * (q - 1) ** t
    return t


def _information_set_search(
    code: LinearCode, exclude: LinearCode | None = None, budget: float = float("inf"), look: int = 2, certify=None
) -> tuple[list[int], int]:
    """Brouwer-Zimmermann search: ([wt(C), wt(C minus exclude)] as far as
    seen, a certified lower bound on wt(C minus exclude)).

    It first enumerates the messages of weight <= ``look`` on the RREF
    generator alone, and stops there as soon as the lightest word outside
    ``exclude`` weighs no more than every word not yet seen: at least w
    after a block of weight-w messages, and w + 1 once all are seen (the
    pivots carry the message).  Then for w = 1, 2, ... it enumerates the
    weight-w messages (leading coefficient 1) on every information set, until
    :func:`_unseen_bound` reaches the lightest word outside ``exclude`` or
    w = k; the bound is then that word's weight.  It stops unfinished when
    its estimated cost to finish tops ``budget``.  That cost only falls as w
    rises and lighter words turn up, so it stops, if at all, before any set
    but the first is enumerated, and the bound is the floor look + 1 on the
    words that set did not show, or the lightest word seen if lower.

    ``certify``, when given, is called with no arguments where the look has
    left the value open and the plan fits ``budget``, just before any set
    is built; the ``Weights`` it may return (the engine passes its
    footprint certificate) end the search with their values, and None lets
    it go on."""
    field, k, n = code.field, code.k, code.n
    best = [n + 1, n + 1]
    look = min(look, k)
    # a word not yet seen has message weight >= w on the pivots, so it
    # weighs >= w, and >= w + 1 once layer w is done; when best[1] is no
    # more than that, it is wt(C minus exclude), and best[0] <= best[1]
    # is wt(C)
    for w in range(1, look + 1):
        for block in _message_words(field, code.gen, w):
            _fold_block(block, exclude, best)
            if best[1] <= w:
                return best, best[1]
        if best[1] <= w + 1:
            return best, best[1]
    if look == k:
        return best, best[1]
    hint = [k] * (n // k) + [n % k] * (n % k > 0)  # ranks no sets can beat
    if _PIVOT_COST * k > budget or (
        _search_plan(field, k, hint, 1, best[1])[0] + _PIVOT_COST * k * (len(hint) - 1) > budget
    ):
        return best, look + 1
    found = certify and certify()
    if found:
        return [found.code, found.diff], found.diff
    sets = _information_sets(field, code.gen, code.pivots)
    for w in range(1, k + 1):
        cost, stop = _search_plan(field, k, [r for _, r in sets], w, best[1])
        if cost > budget:
            return best, min(best[1], look + 1)
        sets = [(gen, r) for gen, r in sets if r >= k - stop]
        for gen, _ in sets[w <= look :]:  # the first set has had its look
            for block in _message_words(field, gen, w):
                _fold_block(block, exclude, best)
        if _unseen_bound(k, [r for _, r in sets], w) >= best[1]:
            break
    return best, best[1]


def find_first_of_weight(field: FieldSpec, rows, target: int) -> np.ndarray | None:
    """First vector of exactly the target weight in span order, or None.

    The scan is complete, so None proves absence.  The zero vector is only
    returned for target 0.  Scanning one word per scalar class finds the
    same vector: the first word of any weight has leading coefficient 1,
    since dividing by its leading coefficient gives an earlier message
    with the same weight.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if target == 0:
        return np.zeros(rows.shape[1], dtype=np.uint8)
    if rows.shape[0] == 0:
        return None
    for _, block in iter_span_blocks(field, rows):
        hits = np.flatnonzero((block != 0).sum(axis=1, dtype=np.uint16) == target)
        if hits.size:
            return block[int(hits[0])].copy()
    return None


# -- exact low-weight support search ---------------------------------------------


def _prefix_tree(field: FieldSpec, H: np.ndarray, t: int, size: int, root: int = 0):
    """The t-subsets T of H's columns in lexicographic order, in blocks of
    at most ``size``, with the (r, ., n) stack of their residues: all n
    columns of H modulo span(H[:, T]) for an independent T, 0 for a
    dependent one.  Only the columns right of max T are read downstream.

    A child T + {j} (j > max T) takes its residues from its parent's in one
    pivot step on column j's residue, updated one (B, n) plane at a time.
    That residue is 0 exactly when the child is dependent, and then so is
    every extension of it, as its zero residues say.

    The first ``root`` columns are forced: at depth d <= root the mask of
    children admits column d - 1 alone, so every subset holds columns
    0..min(t, root) - 1, and C(n - root, t - root) are built for t >= root.
    """
    if t == 0:
        yield np.zeros((1, 0), dtype=np.intp), H[:, None]
        return
    mul = field.MUL.reshape(-1)  # MUL[a, b] == mul[a * q + b]; q^2 - 1 fits uint16
    cols = np.arange(H.shape[1])
    for T, R in _prefix_tree(field, H, t - 1, size, root):
        b, j = np.nonzero((cols > T.max(axis=1, initial=-1)[:, None]) & ((cols == t - 1) | (t > root)))
        for s in range(0, b.size, size):
            bs, js = b[s : s + size], j[s : s + size]
            P, i = R[:, bs], np.arange(bs.size)
            col = P[:, i, js]
            p = (col != 0).argmax(axis=0)
            row = mul.take(field.INV[col[p, i]][:, None].astype(np.uint16) * field.q + P[p, i])
            for a, c in enumerate(field.NEG[col].astype(np.uint16)):  # plane by plane: small temporaries
                P[a] = field.add_arrays(P[a], mul.take(c[:, None] * field.q + row))
            P[:, ~col.any(axis=0)] = 0  # a dependent child: all its extensions are too
            yield np.column_stack([T[bs], js]), P


def _leading_one(field: FieldSpec, R: np.ndarray):
    """The planes of R (r, ...), each column divided by its leading nonzero
    entry (a zero column stays 0), one plane at a time."""
    mul = field.MUL.reshape(-1)
    lead = R[0].copy()
    for plane in R[1:]:
        np.copyto(lead, plane, where=lead == 0)
    inv = field.INV[lead].astype(np.uint16) * field.q
    return (mul.take(inv + plane) for plane in R)


def _residue_keys(field: FieldSpec, V: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A uint64 key per column of V (r, N), read off the column scaled to a
    leading 1 after its prefix's index b: parallel columns of one prefix
    share it.  It wraps once it tops 2^64, so equal keys only propose a pair."""
    key = b.astype(np.uint64)
    for plane in _leading_one(field, V):
        key *= np.uint64(field.q | 1)
        key += plane
    return key


def _dependent_pairs(field: FieldSpec, T: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The dependent sets T + {j, j'} (max T < j < j') of a block of
    prefixes T with their residues R, in lexicographic order: those where
    the residue of j or of j' is 0, or the two are parallel.  Equal keys
    (:func:`_residue_keys`) propose the parallel pairs, and each is
    confirmed on the residues scaled to a leading 1."""
    r, _, n = R.shape
    # the entries (b, j), j right of prefix b, in prefix then column order:
    # entries e < e' of one prefix are its pair j < j', sorting as e * N + e'
    b, j = np.nonzero(np.arange(n) > T.max(axis=1, initial=-1)[:, None])
    N = b.size
    V = R.reshape(r, -1).take(b * n + j, axis=1)
    live = np.bitwise_or.reduce(V, axis=0) != 0
    # a zero residue pairs with every other entry of its prefix, two zeros once
    z = np.flatnonzero(~live)
    first = np.searchsorted(b, b[z])
    m = np.searchsorted(b, b[z], side="right") - first - 1
    x = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m - first, m)
    z = np.repeat(z, m)
    x += x >= z
    keep = (x > z) | live[x]
    found = [np.minimum(x, z)[keep] * N + np.maximum(x, z)[keep]]
    # after a sort by key, the pairs of a run of equal keys lie d apart
    e = np.flatnonzero(live)
    key = _residue_keys(field, V, b)[e]
    s = np.argsort(key)
    key, e = key[s], e[s]
    for d in range(1, e.size):
        i = np.flatnonzero(key[d:] == key[:-d])
        if i.size == 0:
            break
        pair = np.minimum(e[i], e[i + d]), np.maximum(e[i], e[i + d])
        S = np.array(list(_leading_one(field, V[:, np.stack(pair)])))
        same = (b[pair[0]] == b[pair[1]]) & (S[:, 0] == S[:, 1]).all(axis=0)
        found.append(pair[0][same] * N + pair[1][same])
    found = np.sort(np.concatenate(found))
    return np.column_stack([T[b[found // N]], j[found // N], j[found % N]])


def _dependent_supports(field: FieldSpec, H: np.ndarray, w: int, root: int = 0):
    """The linearly dependent w-subsets of H's columns, in lexicographic
    order.  For w = 1 they are H's zero columns; above r (H's rows), every
    subset.  For 2 <= w <= r they extend the (w-2)-prefixes of
    :func:`_prefix_tree` by dependent pairs (:func:`_dependent_pairs`),
    its blocks cut into runs of prefixes, a run ending where the running
    count of candidate pairs crosses a multiple of ``run``, which bounds
    what a run yields (one prefix's C(n - 1, 2) pairs at most may top it).
    The blocks and the runs are sized by bytes per prefix and per pair,
    temporaries counted, so that each of the w - 2 layers' blocks, and a
    run's tests, stay within ``_SCAN_BYTES``.  The subsets a run yields,
    8 w bytes each, come on top: below the minimum weight few pairs are
    dependent, and each that is goes on to a kernel that costs far more
    than its bytes.  There, only the subsets holding columns 0..root-1
    are yielded: the tree forces them into the prefixes, and the pairs
    supply those a prefix shorter than ``root`` lacks (w < root + 2)."""
    r, n = H.shape
    if w > r:
        yield from map(list, itertools.combinations(range(n), w))
        return
    if w == 1:
        yield from np.flatnonzero(~H.any(axis=0))[:, None]
        return
    # a prefix takes n bytes for each of its r residue planes, twice (the
    # block a consumer still holds while the next is built), and per column
    # a pivot step's uint16 index, numpy's intp copy of it and the gathered
    # multiples; a candidate pair takes r for its residues and 48 for the
    # intp pair indices of the zero and key tests
    size = max(1, _SCAN_BYTES // (n * (2 * r + 11 + field.add_bytes)))
    run = max(1, _SCAN_BYTES // (r + 48))
    for T, R in _prefix_tree(field, H, w - 2, size, root):
        m = n - 1 - T.max(axis=1, initial=-1)  # the columns right of each prefix
        cut = [0, *np.flatnonzero(np.diff(np.cumsum(m * (m - 1) // 2) // run)) + 1, len(T)]
        for lo, hi in zip(cut, cut[1:]):
            S = _dependent_pairs(field, T[lo:hi], R[:, lo:hi])
            yield from S if w >= root + 2 else S[(S[:, :root] == np.arange(root)).all(axis=1)]


def _subset_budget(cap: int) -> int:
    """Column subsets the support route may scan under ``cap``."""
    return min(SUPPORT_BUDGET, cap)


def _orbit(perms, start: int) -> np.ndarray:
    """Mask of the points a breadth-first search from ``start`` reaches
    under the point maps ``perms``."""
    seen = np.zeros(perms[0].size, dtype=bool)
    seen[start] = True
    new = np.array([start])
    while new.size:
        step = np.zeros_like(seen)
        step[np.concatenate([g[new] for g in perms])] = True
        new = np.flatnonzero(step & ~seen)
        seen |= step
    return seen


@lru_cache(maxsize=None)
def _affine_generators(field: FieldSpec, m: int) -> np.ndarray | None:
    """Generators of AGL(m, q) as maps of the q^m points of GF(q)^m in
    :func:`gf.point_matrix`'s order: row g holds the index of the image of
    every point.  None unless they are verified to generate a 2-transitive
    group.  Cached per field and m, read-only.

    They are the translations by p^s e_i (p^s is x^s, and the x^s, s < e,
    span GF(q) over GF(p)), x_1 -> g x_1 with g the field's generator, and
    for m >= 2 x_1 -> x_1 + x_2, the swap of x_1 and x_2 and the cycle of
    the coordinates.  A breadth-first search from point 0 under the
    translations must reach every point, the linear maps must fix 0, and
    one from point 1 under them must reach every other point.
    """
    q, n = field.q, field.q**m
    place = q ** np.arange(m)
    P = point_matrix(field, m)  # P[i, t]: coordinate i of point t

    def point_map(i: int, image: np.ndarray) -> np.ndarray:  # coordinate i sent to image
        X = P.copy()
        X[i] = image
        return place @ X

    shifts = [point_map(i, field.ADD[P[i], field.p**s]) for i in range(m) for s in range(field.e)]
    linear = [point_map(0, field.MUL[field.generator, P[0]])]
    if m > 1:
        swap, cycle = P[[1, 0, *range(2, m)]], np.roll(P, -1, axis=0)
        linear += [point_map(0, field.ADD[P[0], P[1]]), place @ swap, place @ cycle]
    if not (_orbit(shifts, 0).all() and all(g[0] == 0 for g in linear) and _orbit(linear, 1).sum() == n - 1):
        return None
    maps = np.array(shifts + linear)
    maps.setflags(write=False)
    return maps


def _grid_dimension(q: int, n: int) -> int | None:
    """m with q^m = n, the points of GF(q)^m, or None when n is no such power."""
    m = next(m for m in range(1, n.bit_length() + 1) if q**m >= n)
    return m if q**m == n else None


def _affine_group_fixes(code: LinearCode, exclude: LinearCode | None) -> bool:
    """Whether the code and ``exclude`` are fixed by the 2-transitive group
    of :func:`_affine_generators`, on n = q^m points.  That holds for every
    R_q(nu, m), its duals and the CSS and Hermitian sides built from them
    (Berger and Charpin, Discrete Math. 117, 1993), but it is checked on
    every call: each code, or its dual when that is smaller (a permutation
    fixes both or neither), must take the images of its generator rows
    under all the generators to zero residues in one ``reduce``.

    Then every word of weight w >= 2 has an image of the same weight, in
    the code and outside ``exclude`` when it is, supported on a set that
    holds coordinates 0 and 1.
    """
    m = _grid_dimension(code.field.q, code.n)
    maps = None if m is None else _affine_generators(code.field, m)
    if maps is None:
        return False
    for c in (c for c in (code, exclude) if c is not None):
        side = c if 2 * c.k <= c.n else c.dual()
        if np.any(side.reduce(np.vstack([side.gen[:, g] for g in maps]))):
            return False
    return True


def min_weight_support_search(
    code: LinearCode, exclude: LinearCode | None = None, cap: int = DEFAULT_CAP
) -> tuple[int, int]:
    """Exact (wt(code), wt(code minus exclude)) by support search.

    Scans supports of increasing size w; a codeword of weight w supported
    on S exists iff the parity-check columns at S are linearly dependent
    with a full-support kernel vector.  Complete per size, so the first
    such vector gives wt(code) and the first one outside ``exclude`` gives
    the second value (the same as the first when nothing is excluded).
    Cost grows with C(n, w) and with the dual dimension, so this route
    suits codes whose dual is small.

    :func:`_dependent_supports` gives the dependent supports of each size
    in lexicographic order: up to r, the pairs of residues its prefix tree
    marks, a run of prefixes at a time; above r, every subset.  Only those go
    on, in order, to the per-subset kernel, full-support and exclusion
    checks, so the hits and both budget checks fall exactly where a
    one-subset-at-a-time scan would put them.
    The subset budget min(SUPPORT_BUDGET, cap) is charged C(n, w) before
    a size w <= r (the number of parity checks) is scanned; above r every
    subset is dependent and usually the first one hits, so each is charged
    1 as it reaches its kernel.

    When :func:`_affine_group_fixes` holds, every lightest word, of the
    code and outside ``exclude``, has an image of its weight through
    coordinates 0 and 1, so for 2 <= w <= r only the supports holding both
    are walked (``root`` = 2): the hits fall at the same sizes, possibly on
    other subsets, and the charges are the same.
    """
    if code.k == 0:
        raise EmptyCode("the zero code has no minimum weight")
    field, n = code.field, code.n
    H = code.dual().gen
    r = H.shape[0]
    root = 2 if _affine_group_fixes(code, exclude) else 0
    first = None
    spent, budget = 0, _subset_budget(cap)

    def charge(subsets: int, w: int) -> None:
        nonlocal spent
        spent += subsets
        if spent > budget:
            raise CapExceeded(f"support search budget exceeded at weight {w}")

    for w in range(1, n + 1):
        if w <= r:
            charge(comb(n, w), w)
        for S in _dependent_supports(field, H, w, root):
            if w > r:
                charge(1, w)
            K = kernel_basis(field, H[:, S])  # S is dependent: K has a row
            if field.q**K.shape[0] > KERNEL_BUDGET:
                raise CapExceeded("kernel span too large to enumerate")
            for _, block in iter_span_blocks(field, K):
                for v in block[np.all(block != 0, axis=1)]:
                    if first is None:
                        first = w
                    cand = np.zeros(n, dtype=np.uint8)
                    cand[S] = v
                    if exclude is None or not exclude.contains(cand):
                        return first, w
    raise EmptyCode("difference set is empty")


# -- the exact-distance engine ---------------------------------------------------------


class Weights(NamedTuple):
    """The engine's answer: ``code`` = wt(C), ``diff`` = wt(C minus exclude).

    Unless ``exact``, ``diff`` is the lower bound on wt(C minus exclude) the
    search certified, and ``code`` the weight of the lightest word of C it
    saw (n + 1 if none), an upper bound on wt(C).  Then min(``code``,
    ``diff``) is a floor on wt(C) itself: ``diff`` is the floor look + 1 on
    every word the search did not see (it weighs more than ``look`` on the
    pivots), and the words it saw weigh at least ``code``.
    """

    code: int
    diff: int
    exact: bool


def exact_min_weight(
    code: LinearCode, exclude: LinearCode | None = None, cap: int = DEFAULT_CAP
) -> Weights:
    """wt(code) and wt(code minus exclude), settled in one pass over the code.

    ``exclude`` must be a proper subcode; without one (or with the zero
    code) both values are wt(code).  When the code and ``exclude`` already
    hold the counts the distributions read (:func:`_counted`), and each
    one's smaller span fits the cap, those counts answer at once: under
    that price the routes below always end exact, so with the same values.
    Otherwise the information-set search runs first.  When q^k <= cap its
    budget is the cost of one scan of the span, and the weight
    distributions (:func:`_distribution_weights`) finish what the search
    leaves.  Above the cap its budget is the cap, for a code with
    n >= 2k; a code of higher rate has one full-rank information set, so
    there the search takes only its first look, and the support search,
    which suits its small dual, is the route.  That runs, under the same
    cap, only when the support sizes it charges up front (those <= n - k)
    up to the lightest word seen fit its subset budget.  If neither
    finishes, and for the code and ``exclude`` alike the smaller of it and
    its dual spans at most ``cap`` words (always so when q^k <= cap), both
    values come from the distributions; that price is read off k and n, so
    a route that does not fit starts no scan.  The footprint certificate
    (:func:`_footprint_weights`), priced at n min(k, n - k) <= cap on
    n = q^m, runs at most once: where the search has finished its first
    look unsettled and its plan fits its budget, before it builds any
    information set (the search's ``certify``), and otherwise after every
    other route; the multi-set phase runs only if it declines there.  When
    nothing settles, the value is not ``exact`` (``Weights``): it holds the
    lower bound the search certified.  Bad input still raises.
    """
    if code.k == 0:
        raise EmptyCode("the zero code has no minimum weight")
    if exclude is not None:
        if not exclude.is_subcode_of(code):
            raise NotNested("the excluded code must be contained in the code")
        if exclude.k == code.k:
            raise NotNested("containment must be strict")
        exclude = exclude if exclude.k else None
    field, k, n = code.field, code.k, code.n
    fits = all(c is None or _smaller_span(c) <= cap for c in (code, exclude))
    if fits and all(c is None or _counted(c) for c in (code, exclude)):
        return _distribution_weights(code, exclude)
    within = field.q**k <= cap
    if within:
        budget = (field.q**k - 1) // (field.q - 1)  # one scan
    else:
        # n < 2k leaves one full-rank information set, whose floor rises by
        # one a weight: a search to the cap there costs many times what the
        # support search or the distributions take, so it gets its first look
        budget = cap if 2 * k <= n else 0
    # computed at most once, by whichever of its two places asks first
    footprint = lru_cache(maxsize=None)(partial(_footprint_weights, code, exclude, cap))
    best, bound = _information_set_search(code, exclude, budget, _look_weight(field.q, k, cap), footprint)
    if bound == best[1]:
        return Weights(*best, True)
    if not within and sum(comb(n, w) for w in range(1, min(best[1], n - k) + 1)) <= _subset_budget(cap):
        try:
            return Weights(*min_weight_support_search(code, exclude, cap), True)
        except CapExceeded:  # its subset or kernel budget ran out
            pass
    if fits:
        return _distribution_weights(code, exclude)
    return footprint() or Weights(best[0], bound, False)


def _distribution_weights(code: LinearCode, exclude: LinearCode | None) -> Weights:
    """Exact weights from the two weight distributions: wt(C) is the first
    w > 0 with A_w(C) > 0, and, as exclude lies in C, wt(C minus exclude)
    the first with A_w(C) - A_w(exclude) > 0."""
    counts = zip(_weight_counts(code), itertools.repeat(0) if exclude is None else _weight_counts(exclude))
    first = 0
    for w, (a, e) in itertools.islice(enumerate(counts), 1, None):
        if a and not first:
            first = w
        if a > e:
            return Weights(first, w, True)
    raise EmptyCode("difference set is empty")


# -- the footprint certificate ----------------------------------------------------


@lru_cache(maxsize=None)
def _footprint_tables(field: FieldSpec, m: int):
    """(T, order, footprint, vanish) for the monomials x^a on GF(q)^m, a
    indexed as sum a_i q^i in :func:`gf.point_matrix`'s digit order.
    Cached per field and m, read-only.

    ``T`` is the transposed inverse Vandermonde matrix of one variable,
    ``field.POW``: c @ T holds the coefficients of x^0..x^(q-1) of the
    polynomial whose values at the elements, in index order, are c.
    ``order`` lists the monomials in descending graded lex (degree, then
    index), ``footprint[a]`` is prod_i (q - a_i), and ``vanish[b, x]`` is
    prod_{j < b} (x - alpha_j), alpha_j the element of index j.
    """
    q = field.q
    inverse, _ = rref(field, np.hstack([field.POW, np.eye(q, dtype=np.uint8)]))
    A = point_matrix(field, m).astype(np.intp)  # A[i, a] = a_i
    order = np.lexsort((np.arange(q**m), A.sum(axis=0)))[::-1]
    footprint = np.prod(q - A, axis=0)
    vanish = np.ones((q, q), dtype=np.uint8)
    for b in range(1, q):
        vanish[b] = field.MUL[vanish[b - 1], field.sub_arrays(np.arange(q, dtype=np.uint8), b - 1)]
    tables = (inverse[:, q:].T.copy(), order, footprint, vanish)
    for t in tables:
        t.setflags(write=False)
    return tables


def _leading_monomials(field: FieldSpec, m: int, gen: np.ndarray) -> np.ndarray:
    """Mask of LM(C), the leading monomials in graded lex of the words of
    the row space C of ``gen`` (length q^m): each row's values go to its
    polynomial's coefficients by the one-variable inverse Vandermonde along
    each coordinate, one ``field.matmul`` per coordinate, and the pivots of
    one ``rref`` with the monomials in descending order are LM(C)."""
    T, order, _, _ = _footprint_tables(field, m)
    q, X = field.q, gen
    for i in range(m):  # coordinate i is the digit of place value q^i
        X = X.reshape(-1, q, q**i).transpose(0, 2, 1).reshape(-1, q)
        X = field.matmul(X, T).reshape(-1, q**i, q).transpose(0, 2, 1)
    X = X.reshape(gen.shape)[:, order]
    held = X.any(axis=0)  # a monomial no row holds leads no word
    _, pivots = rref(field, X[:, held])
    mask = np.zeros(q**m, dtype=bool)
    mask[order[held][list(pivots)]] = True
    return mask


def _dual_leading(mask: np.ndarray) -> np.ndarray:
    """LM(C-perp) from LM(C): {a* : a not in LM(C)}, a* = (q - 1 - a_i)_i.

    <ev x^a, ev x^b> = prod_i sum_x x^(a_i + b_i) is nonzero only when
    b >= a* componentwise, and is (-1)^m at b = a*, so the Gram matrix
    of the monomials is triangular in reflected coordinates: C-perp's
    leading monomials are the reflections of C's trailing ones, the
    monomials that lead no word of C.  Index a* is q^m - 1 - a.
    """
    return ~mask[::-1]


def _footprint_bounds(code: LinearCode, m: int) -> list[tuple[int, np.ndarray, np.ndarray | None]]:
    """(beta, LM, frob) for the code on GF(q)^m and, on a tower top, for
    its Frobenius image: LM the mask of leading monomials, beta the least
    footprint over it, a floor on the weight of every nonzero word, and
    frob the map back to the code (None for the code itself).

    When 2k > n, LM is read from the small dual (:func:`_dual_leading`),
    and the image's from the dual's entrywise image, as
    (C^q)-perp = (C-perp)^q: no large code is built.
    """
    field, n, k = code.field, code.n, code.k
    small = code.dual().gen if 2 * k > n else code.gen
    maps = [None]
    try:
        maps.append(extension_pair_for(field).frob)
    except NoEmbeddingDefined:
        pass
    footprint = _footprint_tables(field, m)[2]
    found = []
    for frob in maps:
        lead = _leading_monomials(field, m, small if frob is None else frob[small])
        lead = _dual_leading(lead) if 2 * k > n else lead
        found.append((int(footprint[lead].min()), lead, frob))
    return found


def _footprint_words(field: FieldSpec, m: int, B: np.ndarray) -> np.ndarray:
    """Values at the points of GF(q)^m of f_b = prod_i prod_{j < b_i} (x_i - alpha_j),
    one row per column b of the exponents B (m, c): zero exactly where some
    x_i is among the first b_i elements, so f_b weighs prod_i (q - b_i)."""
    vanish = _footprint_tables(field, m)[3]
    A = point_matrix(field, m)
    words = np.ones((B.shape[1], field.q**m), dtype=np.uint8)
    for i in range(m):
        words = field.MUL[words, vanish[B[i][:, None], A[i][None, :]]]
    return words


def _footprint_weights(code: LinearCode, exclude: LinearCode | None, cap: int) -> Weights | None:
    """Exact (wt(C), wt(C minus exclude)) on the q^m points of GF(q)^m by
    the footprint bound (Hoeholdt, van Lint and Pellikaan, Handbook of
    Coding Theory, 1998; Geil 2008), or None.

    A word whose polynomial leads with x^b is nonzero on at least
    prod_i (q - b_i) points, so every nonzero word of C weighs at least
    beta, the least footprint over LM(C) (:func:`_footprint_bounds`).  The
    word f_b (:func:`_footprint_words`) weighs exactly prod_i (q - b_i);
    if a minimizing f_b lies in C and outside ``exclude`` (one ``reduce``
    each), both weights are beta.

    On a tower top GF(q^2), w -> w^q preserves weight, so the image pair
    (C^q, exclude^q) has the same weights and its bound holds too.  Only
    the larger of the two bounds can be met, so only its witnesses are
    tried, an image witness mapped back by Frobenius first.

    Declined (None) when n is not q^m or n min(k, n - k) tops ``cap``.
    """
    field, n, k = code.field, code.n, code.k
    m = _grid_dimension(field.q, n)
    if m is None or n * min(k, n - k) > cap:
        return None
    found = _footprint_bounds(code, m)
    beta = max(bound for bound, _, _ in found)
    footprint = _footprint_tables(field, m)[2]
    for bound, lead, frob in found:
        if bound < beta:
            continue
        words = _footprint_words(field, m, point_matrix(field, m)[:, lead & (footprint == beta)])
        words = words if frob is None else frob[words]
        ok = ~code.reduce(words).any(axis=1)
        if exclude is not None:
            ok &= exclude.reduce(words).any(axis=1)
        if ok.any():
            return Weights(beta, beta, True)
    return None


# -- componentwise products -------------------------------------------------------


def product_rows(a: LinearCode, b: LinearCode) -> np.ndarray:
    """The componentwise products of every generator row of a with every
    generator row of b, (a.k b.k, n): by bilinearity they span every
    product u*v with u in a, v in b."""
    if a.field is not b.field:
        raise FieldMismatch("codes live over different fields")
    if a.n != b.n:
        raise DimensionMismatch("codes have different lengths")
    return a.field.MUL[a.gen[:, None, :], b.gen[None, :, :]].reshape(-1, a.n)
