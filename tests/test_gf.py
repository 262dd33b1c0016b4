"""Field arithmetic tests: exhaustive axioms, towers, trace/norm maps."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from grmcodes import gf
from grmcodes.errors import NoEmbeddingDefined, UnsupportedField

ALL_SIZES = list(gf.SUPPORTED_SIZES)
TOWER_BASES = [2, 3, 4, 5, 7, 8]


def test_unsupported_size_fails_cleanly():
    with pytest.raises(UnsupportedField):
        gf.get_field(6)
    with pytest.raises(UnsupportedField):
        gf.get_field(11)


def test_get_field_is_cached():
    assert gf.get_field(9) is gf.get_field(9)


@pytest.mark.parametrize("q", ALL_SIZES)
def test_field_axioms_exhaustive(q):
    """Associativity, commutativity, distributivity, identities, inverses."""
    f = gf.get_field(q)
    idx = np.arange(q, dtype=np.uint8)
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.array_equal(f.ADD[f.ADD[a, b], c], f.ADD[a, f.ADD[b, c]])
    assert np.array_equal(f.MUL[f.MUL[a, b], c], f.MUL[a, f.MUL[b, c]])
    assert np.array_equal(f.ADD, f.ADD.T)
    assert np.array_equal(f.MUL, f.MUL.T)
    assert np.array_equal(f.MUL[a, f.ADD[b, c]], f.ADD[f.MUL[a, b], f.MUL[a, c]])
    assert np.array_equal(f.ADD[idx, 0], idx)
    assert np.array_equal(f.MUL[idx, 1], idx)
    assert np.array_equal(f.ADD[idx, f.NEG[idx]], np.zeros(q, dtype=np.uint8))
    nz = idx[1:]
    assert np.array_equal(f.MUL[nz, f.INV[nz]], np.ones(q - 1, dtype=np.uint8))


@pytest.mark.parametrize("q", ALL_SIZES)
def test_generator_is_primitive(q):
    f = gf.get_field(q)
    seen = set()
    x = 1
    for _ in range(q - 1):
        x = int(f.MUL[x, f.generator])
        seen.add(x)
    assert len(seen) == q - 1
    assert x == 1


@pytest.mark.parametrize("q", ALL_SIZES)
def test_generator_is_the_class_of_x(q):
    # index p is x for e > 1; for prime q the modulus x - g makes x = g
    f = gf.get_field(q)
    if f.e > 1:
        assert f.generator == f.p
    value = 0
    for c in reversed(f.modulus):
        value = f.ADD[f.MUL[value, f.generator], c]
    assert value == 0


def test_tables_are_byte_identical_to_the_scalar_construction():
    # SHA-256 of every field and tower table, as uint8 bytes, in the order
    # below; pinned from the tables the scalar polynomial arithmetic built
    h = hashlib.sha256()

    def put(*tables):
        for t in tables:
            assert t.dtype == np.uint8 and not t.flags.writeable
            h.update(np.ascontiguousarray(t, dtype=np.uint8).tobytes())

    for q in gf.SUPPORTED_SIZES:
        f = gf.get_field(q)
        h.update(bytes([f.generator]))
        put(f.ADD, f.NEG, f.MUL, f.INV, f.POW, f.DIGITS)
    for base_q in TOWER_BASES:
        pair = gf.quadratic_extension(base_q)
        h.update(bytes([pair.gamma]))
        put(pair.emb, pair.frob, pair.trace, pair.norm, pair.dec_a, pair.dec_b)
        put(pair.norm_first_preimage, pair.points)
    assert h.hexdigest() == "0d3ddd71d9a4061bc42b5bfb4e6f11c58a16e78d4b61cde5b66ff720bd43e036"


def test_known_products():
    # GF(4), modulus x^2+x+1: the class of x is index 2, x*x = x+1 is index 3
    f4 = gf.get_field(4)
    assert f4.MUL[2, 2] == 3
    # GF(3): 2*2 = 1
    f3 = gf.get_field(3)
    assert f3.MUL[2, 2] == 1


def test_pow_negative_and_zero():
    # a^-j is POW[a, q - 1 - j] for a != 0: a^-1 is INV[a], a^5 a^-5 is 1
    f = gf.get_field(9)
    for a in range(1, 9):
        assert f.POW[a, 7] == f.INV[a]
        assert f.MUL[f.POW[a, 5], f.POW[a, 3]] == 1
        assert f.POW[a, 0] == 1
    assert f.POW[0, 0] == 1
    assert f.POW[0, 3] == 0


@pytest.mark.parametrize("base_q", [2, 3, 4, 5, 7, 8])
def test_embedding_is_ring_homomorphism(base_q):
    pair = gf.quadratic_extension(base_q)
    sub, ext = pair.sub, pair.ext
    emb = pair.emb
    assert emb[0] == 0 and emb[1] == 1
    assert not pair.emb_inv.flags.writeable and not sub._add_flat.flags.writeable
    for a in range(sub.q):
        for b in range(sub.q):
            assert emb[sub.ADD[a, b]] == ext.ADD[emb[a], emb[b]]
            assert emb[sub.MUL[a, b]] == ext.MUL[emb[a], emb[b]]
    assert len(set(int(v) for v in emb)) == sub.q


def test_no_embedding_for_non_square_fields():
    with pytest.raises(NoEmbeddingDefined):
        gf.quadratic_extension(9)
    with pytest.raises(NoEmbeddingDefined):
        gf.extension_pair_for(gf.get_field(5))


def test_prime_subfield_embeds_as_constants():
    # GF(2) -> GF(4): both elements keep their indices
    pair = gf.quadratic_extension(2)
    assert list(pair.emb) == [0, 1]
    # GF(3) -> GF(9): 2 maps to the unique element of multiplicative order 2
    pair9 = gf.quadratic_extension(3)
    img = int(pair9.emb[2])
    assert pair9.ext.MUL[img, img] == 1 and img != 1


@pytest.mark.parametrize("base_q", TOWER_BASES)
def test_frobenius_fixes_exactly_the_subfield(base_q):
    pair = gf.quadratic_extension(base_q)
    ext = pair.ext
    fixed = {x for x in range(ext.q) if pair.frob[x] == x}
    assert fixed == {int(v) for v in pair.emb}
    # Frobenius is a field automorphism
    for x in range(ext.q):
        for y in range(ext.q):
            assert pair.frob[ext.ADD[x, y]] == ext.ADD[pair.frob[x], pair.frob[y]]
            assert pair.frob[ext.MUL[x, y]] == ext.MUL[pair.frob[x], pair.frob[y]]


def test_trace_values_and_linearity():
    # GF(4) -> GF(2): tr(x) = x + x^2; tr of the generator is 1
    pair = gf.quadratic_extension(2)
    assert pair.trace[2] == 1
    assert pair.trace[0] == 0 and pair.trace[1] == 0
    # subfield elements trace to 2x
    for base_q in (2, 3, 5):
        pr = gf.quadratic_extension(base_q)
        for a in range(base_q):
            assert pr.trace[pr.emb[a]] == pr.sub.ADD[a, a]


@pytest.mark.parametrize("base_q", TOWER_BASES)
def test_trace_form_nondegenerate(base_q):
    pair = gf.quadratic_extension(base_q)
    ext = pair.ext
    for a in range(1, ext.q):
        assert any(pair.trace[ext.MUL[a, b]] != 0 for b in range(ext.q))


@pytest.mark.parametrize("base_q", TOWER_BASES)
def test_norm_is_surjective_with_equal_fibers(base_q):
    pair = gf.quadratic_extension(base_q)
    fibers = {x: 0 for x in range(1, base_q)}
    for y in range(1, pair.ext.q):
        fibers[int(pair.norm[y])] += 1
    assert all(count == base_q + 1 for count in fibers.values())


def test_norm_first_preimage():
    # for every tower and nonzero base x, the entry is the smallest nonzero
    # y with norm(y) = x, and it solves y^(q+1) = x in the extension
    for base_q in TOWER_BASES:
        pair = gf.quadratic_extension(base_q)
        for x in range(1, base_q):
            sols = [y for y in range(1, pair.ext.q) if pair.norm[y] == x]
            y = int(pair.norm_first_preimage[x])
            assert y == min(sols)
            assert pair.ext.POW[y, base_q + 1] == pair.emb[x]


def test_decomposition_tables_are_bijective():
    for base_q in TOWER_BASES:
        pair = gf.quadratic_extension(base_q)
        ext = pair.ext
        for x in range(ext.q):
            a, b = int(pair.dec_a[x]), int(pair.dec_b[x])
            rebuilt = ext.ADD[pair.emb[a], ext.MUL[pair.gamma, pair.emb[b]]]
            assert rebuilt == x


def test_points_is_identity_for_prime_q():
    for q in (2, 3, 5):
        assert np.array_equal(gf.quadratic_extension(q).points, np.arange(q * q))


def test_points_is_additive_bijection_for_q4():
    perm = gf.quadratic_extension(4).points
    assert sorted(perm) == list(range(16))
    f16 = gf.get_field(16)
    # the map t -> z_t is GF(2)-additive: z_(s xor t) = z_s + z_t
    for s in range(16):
        for t in range(16):
            assert perm[s ^ t] == f16.ADD[perm[s], perm[t]]


@pytest.mark.parametrize("q", ALL_SIZES)
def test_array_ops_match_scalar_ops_exhaustively(q):
    f = gf.get_field(q)
    idx = np.arange(q, dtype=np.uint8)
    a, b = np.meshgrid(idx, idx, indexing="ij")
    add, sub = f.add_arrays(a, b), f.sub_arrays(a, b)
    assert add.dtype == sub.dtype == np.uint8
    for x in range(q):
        for y in range(q):
            assert add[x, y] == f.ADD[x, y]
            assert sub[x, y] == f.ADD[x, f.NEG[y]]
            assert f.ADD[sub[x, y], y] == x
    # row (y, c) of Y is all y with coefficient c; the row is 0..q-1, so
    # entry j of the result is y +- c*j, every triple once
    Y = np.repeat(idx, q)[:, None].repeat(q, axis=1)
    coeffs = np.tile(idx, q)
    plus, minus = f.add_multiples(Y, coeffs, idx), f.sub_multiples(Y, coeffs, idx)
    assert plus.dtype == minus.dtype == np.uint8
    for i, (y, c) in enumerate(zip(Y[:, 0], coeffs)):
        for j in range(q):
            assert plus[i, j] == f.ADD[y, f.MUL[c, j]]
            assert minus[i, j] == f.ADD[y, f.NEG[f.MUL[c, j]]]


@pytest.mark.parametrize("q", ALL_SIZES)
def test_matmul_matches_scalar_triple_loop(q):
    # every field takes one float product of base-p digit planes, then mod p
    f = gf.get_field(q)
    rng = np.random.default_rng(q)
    pairs = [
        (rng.integers(0, q, size=(m, r)).astype(np.uint8), rng.integers(0, q, size=(r, n)).astype(np.uint8))
        for m, r, n in ((1, 1, 1), (3, 5, 4), (6, 2, 9), (4, 0, 3), (0, 3, 4), (2, 5, 0), (0, 0, 0), (5, 512, 9), (7, 40, 64))
    ]
    top = np.full((2, 512), q - 1, dtype=np.uint8)  # every digit of q - 1 is p - 1, the largest
    for a, b in pairs + [(top, top.T)]:
        (m, r), n = a.shape, b.shape[1]
        expect = np.zeros((m, n), dtype=np.uint8)
        for i in range(m):
            for j in range(n):
                acc = 0
                for t in range(r):
                    acc = f.ADD[acc, f.MUL[a[i, t], b[t, j]]]
                expect[i, j] = acc
        got = f.matmul(a, b)
        assert got.dtype == np.uint8 and np.array_equal(got, expect)


def table_matmul(f, a, b):
    """The scalar triple loop's sums, one inner index t at a time over whole arrays."""
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for t in range(a.shape[1]):
        acc = f.ADD[acc, f.MUL[a[:, t, None], b[None, t, :]]]
    return acc


@pytest.mark.parametrize("q", ALL_SIZES)
def test_matmul_row_blocks_match_the_table_loop(q):
    # n e >= 256 float32 digit sums a row, and a block of sums holds at
    # most _OPERAND_BYTES: m = 300 rows take several blocks, the last one
    # partial; empty factors give empty or zero products
    f = gf.get_field(q)
    rng = np.random.default_rng(100 + q)
    n = -(-256 // f.e)
    rows = gf._OPERAND_BYTES // (4 * n * f.e)
    assert 300 > 2 * rows and 300 % rows
    for m, r, n in ((300, 3, n), (300, 1, n + 1), (300, 0, n), (0, 3, n), (300, 3, 0), (2 * rows, 2, n)):
        a = rng.integers(0, q, size=(m, r)).astype(np.uint8)
        b = rng.integers(0, q, size=(r, n)).astype(np.uint8)
        got = f.matmul(a, b)
        assert got.dtype == np.uint8 and got.shape == (m, n) and np.array_equal(got, table_matmul(f, a, b))


@pytest.mark.parametrize("q", ALL_SIZES)
def test_matmul_operand_blocks_match_the_table_loop(q):
    # an inner dimension of 300 takes A, 250 rows of 300 e floats, in row
    # blocks and B, 300 e rows of 120 e floats, in column blocks, each of at
    # most _OPERAND_BYTES and the last of each partial
    f = gf.get_field(q)
    rng = np.random.default_rng(200 + q)
    a = rng.integers(0, q, size=(250, 300)).astype(np.uint8)
    b = rng.integers(0, q, size=(300, 120)).astype(np.uint8)
    assert min(250 * 300 * f.e, 300 * f.e * 120 * f.e) * 4 > gf._OPERAND_BYTES
    assert np.array_equal(f.matmul(a, b), table_matmul(f, a, b))


def test_field_product_memory_stays_within_its_row_blocks():
    # the GF(16) product of a reduce of 246 first-look words: one float
    # product of its 246 x 984 digit sums with an int64 digit fold peaked
    # at 3.6 MB
    f = gf.get_field(16)
    rng = np.random.default_rng(16)
    a = rng.integers(0, 16, size=(246, 10)).astype(np.uint8)
    b = rng.integers(0, 16, size=(10, 246)).astype(np.uint8)
    f.matmul(a, b)
    tracemalloc.start()
    try:
        got = f.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, table_matmul(f, a, b))
    assert peak < 1_500_000


def test_field_product_holds_one_column_block_of_b_at_a_time():
    # hermitian-mds's largest product, (235, 21) @ (21, 235) over GF(16):
    # b's 84 x 940 digit floats take three column blocks of about 130 KB,
    # which, all built before the first row block, peaked at 0.94 MB
    f = gf.get_field(16)
    rng = np.random.default_rng(235)
    a = rng.integers(0, 16, size=(235, 21)).astype(np.uint8)
    b = rng.integers(0, 16, size=(21, 235)).astype(np.uint8)
    f.matmul(a, b)
    tracemalloc.start()
    try:
        got = f.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, table_matmul(f, a, b))
    assert peak < 800_000


@pytest.mark.parametrize("q", [4, 27, 64])
def test_digit_fold_allocates_only_its_uint8_result(q):
    # Horner's rule in uint8: no wider copy of the digits, 8 bytes each in
    # int64, and no dtype that numpy's casting rules could widen
    f = gf.get_field(q)
    x = np.random.default_rng(q).integers(0, q, size=(64, 512)).astype(np.uint8)
    digits = f.DIGITS[x]
    tracemalloc.start()
    try:
        got = f._from_digits(digits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.uint8 and np.array_equal(got, x)
    assert peak <= 2 * x.nbytes


def test_matmul_uses_float64_where_float32_sums_are_inexact():
    # GF(49) has the largest e(p-1)^2, 72.  With a = b = 5 (digits 5, 0) the
    # one entry's digit-0 sum is 25 r = 16777225 at r = 671089: odd and past
    # 2^24, so no float32 product returns it, and r e (p-1)^2 >= 2^24 selects
    # float64.  All entries q - 1 would not show it: every product of its
    # digit 6 is even, and float32 is exact on even sums below 2^25.
    f = gf.get_field(49)
    r = 671_089
    a = np.full((1, r), 5, dtype=np.uint8)
    expect = 0
    for _ in range(r % f.p):
        expect = f.ADD[expect, f.MUL[5, 5]]
    assert f.matmul(a, a.T).tolist() == [[expect]]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_prime_field_add_and_sub_without_division_match_the_tables(q):
    # the uint8 sum s < 2p is reduced as min(s, s - p); every pair, then
    # scalar, broadcast and int64 operands, whose promotion differs between
    # numpy 1.x (value-based) and 2.x (NEP 50)
    f = gf.get_field(q)
    idx = np.arange(q, dtype=np.uint8)
    a, b = np.meshgrid(idx, idx, indexing="ij")
    plus, minus = f.ADD[a, b], f.ADD[a, f.NEG[b]]
    for x, y in ((a, b), (a.astype(np.int64), b), (a, b.astype(np.int64)), (a.astype(np.int64), b.astype(np.int64))):
        got_add, got_sub = f.add_arrays(x, y), f.sub_arrays(x, y)
        assert got_add.dtype == got_sub.dtype == np.uint8
        assert np.array_equal(got_add, plus) and np.array_equal(got_sub, minus)
    # broadcast: a column against a row gives the whole table
    assert np.array_equal(f.add_arrays(idx[:, None], idx[None, :]), plus)
    assert np.array_equal(f.sub_arrays(idx[:, None], idx[None, :]), minus)
    for y in range(q):
        for scalar in (y, np.uint8(y), np.int64(y)):
            assert np.array_equal(f.add_arrays(idx, scalar), plus[:, y])
            assert np.array_equal(f.sub_arrays(idx, scalar), minus[:, y])
            assert np.array_equal(f.add_arrays(scalar, idx), plus[y])
            assert np.array_equal(f.sub_arrays(scalar, idx), minus[y])
        for x in range(q):
            assert int(f.add_arrays(x, y)) == plus[x, y] and int(f.sub_arrays(x, y)) == minus[x, y]
    # the result is a fresh array: no operand is written through out=
    keep = a.copy()
    f.add_arrays(a, b)
    f.sub_arrays(a, b)
    assert np.array_equal(a, keep)
