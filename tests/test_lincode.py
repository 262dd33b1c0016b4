"""LinearCode tests backed by independent brute-force oracles.

The oracles here enumerate codewords with itertools over the field's
scalar tables, deliberately avoiding the library's vectorized span engine.
"""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from grmcodes import gf, lincode
from grmcodes.grm import build_grm, grm_dimension, grm_distance, point_matrix
from grmcodes.errors import (
    CapExceeded,
    DimensionMismatch,
    EmptyCode,
    FieldMismatch,
    NotNested,
)
from grmcodes.lincode import (
    LinearCode,
    exact_min_weight,
    find_first_of_weight,
    iter_span_blocks,
    kernel_basis,
    min_weight_support_search,
    product_rows,
    rref,
    _dependent_supports,
)


def full_space(field, n):
    return LinearCode(field, np.eye(n, dtype=np.uint8), n)


def oracle_codewords(field, gen):
    """Every codeword of the row space, via scalar arithmetic."""
    k, n = gen.shape
    words = set()
    for msg in itertools.product(range(field.q), repeat=k):
        vec = [0] * n
        for m, row in zip(msg, gen):
            if m:
                for j in range(n):
                    vec[j] = int(field.ADD[vec[j], field.MUL[m, row[j]]])
        words.add(tuple(vec))
    return words


def oracle_min_weight(field, gen):
    return min(
        sum(1 for x in w if x) for w in oracle_codewords(field, gen) if any(w)
    )


def random_code(field, n, k_rows, rng):
    return LinearCode(field, rng.integers(0, field.q, size=(k_rows, n)).astype(np.uint8), n)


def reference_rref(field, mat):
    """rref one entry at a time: 2-D MUL and ADD lookups, no row-multiple kernel."""
    M = np.array(mat, dtype=np.uint8, copy=True)
    rows, n = M.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == rows:
            break
        nzi = np.flatnonzero(M[r:, c])
        if nzi.size == 0:
            continue
        pr = r + int(nzi[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        pv = int(M[r, c])
        if pv != 1:
            M[r] = field.MUL[field.INV[pv], M[r]]
        col = M[:, c].copy()
        col[r] = 0
        nz = np.flatnonzero(col)
        if nz.size:
            prod = field.MUL[col[nz][:, None], M[r][None, :]]
            M[nz] = field.ADD[M[nz], field.NEG[prod]]
        pivots.append(c)
        r += 1
    return M[:r], tuple(pivots)


def reference_matmul(field, a, b):
    """Matrix product by 2-D MUL and ADD lookups."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for t in range(a.shape[1]):
        out = field.ADD[out, field.MUL[a[:, t][:, None], b[t][None, :]]]
    return out


def rank_deficient_matrix(field, rows, n, rng):
    """Random rows x n matrix of rank < rows, with a repeated row and zero columns."""
    rank = int(rng.integers(0, rows))
    basis = rng.integers(0, field.q, size=(rank, n)).astype(np.uint8)
    mix = rng.integers(0, field.q, size=(rows, rank)).astype(np.uint8)
    M = reference_matmul(field, mix, basis)
    if rows > 1:
        M[-1] = M[0]
    M[:, rng.choice(n, size=max(1, n // 8), replace=False)] = 0
    return M


@pytest.mark.parametrize("q", list(gf.SUPPORTED_SIZES))
def test_rref_kernel_and_reduce_match_reference_rref(q):
    f = gf.get_field(q)
    rng = np.random.default_rng(200 + q)
    for rows, n in ((1, 1), (2, 5), (5, 3), (9, 17), (24, 64), (64, 256)):
        M = rank_deficient_matrix(f, rows, n, rng)
        R, pivots = reference_rref(f, M)
        got = rref(f, M)
        assert np.array_equal(got[0], R) and got[1] == pivots
        K = kernel_basis(f, M)
        assert K.shape == (n - len(pivots), n)
        assert not np.any(reference_matmul(f, R, K.T))
        assert np.array_equal(reference_rref(f, K)[0], K)  # rank n - rank(M), RREF
        code = LinearCode(f, M, n)
        assert np.array_equal(code.gen, R) and code.pivots == pivots
        # an RREF matrix taken as canonical reads each row's first nonzero as its pivot
        canon = LinearCode(f, R, n, _canonical=True)
        assert np.array_equal(canon.gen, R) and canon.pivots == pivots
        assert LinearCode(f, K, n, _canonical=True).pivots == reference_rref(f, K)[1]
        # the dual from the code's own RREF is the right kernel of its generator
        D = code.dual()
        assert D == LinearCode(f, kernel_basis(f, code.gen), n)
        assert np.array_equal(D.gen, K) and D.k == n - len(pivots)
        assert not np.any(reference_matmul(f, R, D.gen.T))
        assert D.dual() == code
        V = rng.integers(0, q, size=(7, n)).astype(np.uint8)
        # the generator is in RREF, so the residue is V - V[:, pivots] @ gen,
        # which is 0 on the pivots; reduce returns it on the free columns,
        # also for k = 0 (no pivot: V itself) and k = n (no free column)
        for c in (code, LinearCode.zero_code(f, n), full_space(f, n)):
            lifted = reference_matmul(f, V[:, list(c.pivots)], c.gen)
            residue = f.ADD[V, f.NEG[lifted]]
            assert not np.any(residue[:, list(c.pivots)])
            assert np.array_equal(c.reduce(V), residue[:, c.free])
            assert np.array_equal(c.reduce(V[0]), residue[0, c.free])


def reference_dual(field, gen):
    """Right kernel of gen from reference_rref: one null row per free column
    of its RREF, then the RREF of those rows, with no column reversal."""
    R, pivots = reference_rref(field, gen)
    free = [c for c in range(gen.shape[1]) if c not in pivots]
    H = np.zeros((len(free), gen.shape[1]), dtype=np.uint8)
    for j, c in enumerate(free):
        H[j, c] = 1
        H[j, list(pivots)] = field.NEG[R[:, c]]
    return reference_rref(field, H)[0]


@pytest.mark.parametrize("q", list(gf.SUPPORTED_SIZES))
def test_dual_from_either_side_matches_reference_dual(q):
    # 2k < n eliminates the column-reversed generator, 2k >= n the null rows
    f = gf.get_field(q)
    rng = np.random.default_rng(300 + q)
    seen = set()
    for n in (1, 2, 7, 8, 31):
        for k in sorted({0, 1, n // 2 - 1, n // 2, n // 2 + 1, n - 1, n} & set(range(n + 1))):
            # rank exactly k: the identity on k random columns, random elsewhere
            cols = rng.permutation(n)
            gen = np.zeros((k, n), dtype=np.uint8)
            gen[:, cols[:k]] = np.eye(k, dtype=np.uint8)
            gen[:, cols[k:]] = rng.integers(0, q, size=(k, n - k))
            code = LinearCode(f, gen, n)
            assert code.k == k
            D = code.dual()
            assert np.array_equal(D.gen, reference_dual(f, code.gen))
            assert D.k == n - k and D.pivots == reference_rref(f, D.gen)[1]
            assert not np.any(reference_matmul(f, code.gen, D.gen.T))
            assert D.dual() is code  # the back-link, from either branch
            seen.add((k == 0, k == n, (2 * k > n) - (2 * k < n)))
    assert {(True, False, -1), (False, True, 1), (False, False, -1), (False, False, 0), (False, False, 1)} <= seen


def test_rref_is_idempotent_and_canonical():
    rng = np.random.default_rng(1)
    for q in (2, 3, 4, 9):
        f = gf.get_field(q)
        for _ in range(20):
            M = rng.integers(0, q, size=(4, 7)).astype(np.uint8)
            R, piv = rref(f, M)
            R2, piv2 = rref(f, R)
            assert np.array_equal(R, R2) and piv == piv2
            for i, p in enumerate(piv):
                col = np.zeros(len(piv), dtype=np.uint8)
                col[i] = 1
                assert np.array_equal(R[:, p], col)


def test_rref_rank_matches_span_size():
    rng = np.random.default_rng(2)
    for q in (2, 3, 5):
        f = gf.get_field(q)
        for _ in range(10):
            M = rng.integers(0, q, size=(3, 5)).astype(np.uint8)
            C = LinearCode(f, M, 5)
            assert q**C.k == len(oracle_codewords(f, M))


def test_same_span_means_equal_code():
    f = gf.get_field(3)
    rows = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.uint8)
    shuffled = np.array([[1, 0, 1], [0, 1, 1], [2, 2, 1]], dtype=np.uint8)
    # shuffled rows: r0+r1, r1, 2*r0+r1 all lie in the same span
    a = LinearCode(f, rows, 3)
    b = LinearCode(f, shuffled, 3)
    assert oracle_codewords(f, rows) == oracle_codewords(f, shuffled)
    assert a == b and hash(a) == hash(b)


def test_zero_and_full_codes():
    f = gf.get_field(4)
    z = LinearCode.zero_code(f, 5)
    full = full_space(f, 5)
    assert z.k == 0 and full.k == 5
    assert z.dual() == full and full.dual() == z
    assert z.is_subcode_of(full)
    with pytest.raises(EmptyCode):
        z.min_weight()
    assert full.min_weight() == (1, True)


def test_dual_is_involution_and_orthogonal():
    rng = np.random.default_rng(3)
    for q in (2, 3, 4, 9):
        f = gf.get_field(q)
        for _ in range(10):
            C = random_code(f, 6, 3, rng)
            D = C.dual()
            assert D.k == C.n - C.k
            assert C.dual().dual() == C
            assert not np.any(f.matmul(C.gen, D.gen.T))


def test_even_weight_dual_of_repetition():
    f = gf.get_field(2)
    rep = LinearCode(f, np.ones((1, 3), dtype=np.uint8), 3)
    even = rep.dual()
    assert even.k == 2
    assert all(np.count_nonzero(w) % 2 == 0 for w in oracle_codewords(f, even.gen))


def test_contains_against_oracle():
    rng = np.random.default_rng(4)
    f = gf.get_field(3)
    C = random_code(f, 5, 2, rng)
    words = oracle_codewords(f, C.gen)
    assert C.contains(np.zeros(5, dtype=np.uint8))
    for v in itertools.product(range(3), repeat=5):
        assert C.contains(np.array(v, dtype=np.uint8)) == (v in words)


@pytest.mark.parametrize("q", gf.SUPPORTED_SIZES)
def test_zero_rows_take_the_general_path_in_every_field(q):
    # the zero code is a subcode through a 0-row reduce, which returns an
    # empty residue through a 0-row field product; at n = 300 that product
    # takes column blocks
    f = gf.get_field(q)
    rng = np.random.default_rng(q)
    for n, k in ((6, 3), (300, 150)):
        z = LinearCode.zero_code(f, n)
        for c in (random_code(f, n, k, rng), z, full_space(f, n)):
            assert z.is_subcode_of(c)
            assert c.reduce(np.zeros((0, n), dtype=np.uint8)).shape == (0, n - c.k)
        b = rng.integers(0, q, size=(k, n)).astype(np.uint8)
        assert f.matmul(np.zeros((0, k), dtype=np.uint8), b).shape == (0, n)


def test_contains_checks_length():
    f = gf.get_field(3)
    C = full_space(f, 4)
    with pytest.raises(DimensionMismatch):
        C.contains(np.zeros(3, dtype=np.uint8))


def test_subcode_of_errors_and_truth():
    f = gf.get_field(2)
    a = LinearCode(f, np.array([[1, 1, 0, 0]], dtype=np.uint8), 4)
    b = LinearCode(f, np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8), 4)
    assert a.is_subcode_of(b) and not b.is_subcode_of(a)
    with pytest.raises(FieldMismatch):
        a.is_subcode_of(full_space(gf.get_field(3), 4))
    with pytest.raises(DimensionMismatch):
        a.is_subcode_of(full_space(f, 5))


def oracle_word(field, msg, gen):
    """msg times gen by scalar arithmetic."""
    vec = [0] * gen.shape[1]
    for m, row in zip(msg, gen):
        for j in range(gen.shape[1]):
            vec[j] = int(field.ADD[vec[j], field.MUL[m, row[j]]])
    return tuple(vec)


# (q, k): spans of at most a few thousand words for the scalar oracles
SPAN_CASES = [(2, 6), (3, 5), (4, 4), (5, 4), (9, 3), (16, 3)]


def test_span_blocks_cover_exactly_the_span_in_order(monkeypatch):
    default_bytes = lincode._SCAN_BYTES
    for q, k in SPAN_CASES:
        # one base block for the whole span, then a one-row base block, so
        # that every tail longer than one row takes the head loop
        for scan_bytes, head_loop in ((default_bytes, False), (1, True)):
            monkeypatch.setattr(lincode, "_SCAN_BYTES", scan_bytes)
            check_span_blocks(q, k, head_loop)


def check_span_blocks(q, k, head_loop):
    f = gf.get_field(q)
    rng = np.random.default_rng(40 + q)
    C = random_code(f, 6, k, rng)
    while C.k < k:
        C = random_code(f, 6, k, rng)
    seen, leads = [], []
    for lead, block in iter_span_blocks(f, C.gen):
        leads.append(lead)
        seen.extend((lead, tuple(int(x) for x in r)) for r in block)
    # one word per message whose leading nonzero coefficient is 1, in
    # lexicographic message order (first coefficient most significant)
    expect = []
    for msg in itertools.product(range(q), repeat=k):
        nz = [i for i, m in enumerate(msg) if m]
        if nz and msg[nz[0]] == 1:
            expect.append((nz[0], oracle_word(f, msg, C.gen)))
    assert seen == expect
    assert len(seen) == (q**k - 1) // (q - 1)
    assert leads == sorted(leads, reverse=True) and leads[0] == k - 1 and leads[-1] == 0
    assert len(leads) > k if head_loop else len(leads) == k
    # scaling the yielded words gives every nonzero codeword exactly once
    scaled = [tuple(int(f.MUL[c, x]) for x in w) for _, w in seen for c in range(1, q)]
    assert len(set(scaled)) == len(scaled)
    assert set(scaled) == oracle_codewords(f, C.gen) - {(0,) * 6}


def test_a_span_scan_builds_only_the_words_it_reads():
    # the shape of mds_chain(7, 0)'s witness scan: k = 7 rows of length 49
    # over GF(7).  The first block is the one word of lead 6; a base built
    # in full before it (7^6 words of 49 bytes) would take about 12 MB.
    f = gf.get_field(7)
    rows = np.random.default_rng(7).integers(0, 7, size=(7, 49)).astype(np.uint8)
    blocks = iter_span_blocks(f, rows)
    tracemalloc.start()
    try:
        lead, block = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lead == 6 and np.array_equal(block, rows[6:])
    assert peak < 64 * 1024


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_min_weight_matches_oracle(q):
    rng = np.random.default_rng(5)
    f = gf.get_field(q)
    for _ in range(8):
        C = random_code(f, 6, 3, rng)
        if C.k == 0:
            continue
        w, exact = C.min_weight()
        assert exact
        assert w == oracle_min_weight(f, C.gen)


def test_min_weight_repetition():
    f = gf.get_field(5)
    rep = LinearCode(f, np.ones((1, 7), dtype=np.uint8), 7)
    assert rep.min_weight() == (7, True)
    # cap q^k - 1 = 4 puts the code over the cap, but the search's first look
    # then sees every nonzero message, so its lightest word is the minimum weight
    assert rep.min_weight(cap=4) == (7, True)
    assert reference_partial_lower_bound(rep, 4) == (7, True, 7)


def reference_partial_lower_bound(code, cap):
    """The information-set bound one message at a time, every nonzero coefficient."""
    budget = min(cap, 1 << 16)
    k, q, f = code.k, code.field.q, code.field
    t, used = 0, 0
    while t < k:
        step = comb(k, t + 1) * (q - 1) ** (t + 1)
        if used + step > budget:
            break
        used += step
        t += 1
    best = None
    for wt in range(1, t + 1):
        for support in itertools.combinations(range(k), wt):
            rows = code.gen[list(support)]
            for vals in itertools.product(range(1, q), repeat=wt):
                vec = np.zeros(code.n, dtype=np.uint8)
                for v, row in zip(vals, rows):
                    vec = f.add_arrays(vec, f.MUL[v, row])
                w = int(np.count_nonzero(vec))
                if best is None or w < best:
                    best = w
    if best is not None and (best <= t + 1 or t == k):
        return best, True, best
    return t + 1, False, best


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_capped_bound_lies_between_reference_and_oracle(q):
    f = gf.get_field(q)
    rng = np.random.default_rng(90 + q)
    for n, k_rows in ((10, 6), (14, 8), (9, 3)):
        C = random_code(f, n, k_rows, rng)
        weight = reference_span_min_weight(C)[0]
        for t in (1, 2, 3):
            # the cap that admits exactly the messages of weight <= t, below q^k
            cap = sum(comb(C.k, s) * (q - 1) ** s for s in range(1, t + 1))
            assert cap < q**C.k
            ref_bound, ref_exact, _ = reference_partial_lower_bound(C, cap)
            got, exact = C.min_weight(cap)
            assert ref_bound <= got <= weight
            assert got == weight or not exact
            assert exact or not ref_exact  # the search sees every message the reference does


def test_min_weight_partial_lower_bound():
    f = gf.get_field(2)
    rng = np.random.default_rng(6)
    C = random_code(f, 12, 8, rng)
    true_w, exact = C.min_weight()
    assert exact
    w, flag = C.min_weight(cap=4)  # forces the information-set path
    assert w <= true_w
    if flag:
        assert w == true_w


def test_weight_distribution_counts():
    f = gf.get_field(3)
    rep = LinearCode(f, np.ones((1, 3), dtype=np.uint8), 3)
    dist = rep.weight_distribution()
    assert dist == (1, 0, 0, 2)
    assert sum(dist) == 3
    # over the cap there is no distribution to report, only a capped run:
    # here both the code and its dual span 3^10 words
    half = LinearCode(f, np.hstack([np.eye(10), np.ones((10, 10))]).astype(np.uint8), 20)
    with pytest.raises(CapExceeded):
        half.weight_distribution(cap=100)
    # the full space's distribution comes from its dual, the zero code
    full = full_space(f, 20).weight_distribution(cap=100)
    assert full == tuple(comb(20, w) * 2**w for w in range(21))


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_weight_distribution_matches_oracle_counts(q):
    f = gf.get_field(q)
    rng = np.random.default_rng(80 + q)
    for k in (1, 2, 3):
        C = random_code(f, 6, k, rng)
        expect = [0] * 7
        for word in oracle_codewords(f, C.gen):
            expect[sum(1 for x in word if x)] += 1
        assert C.weight_distribution() == tuple(expect)


@st.composite
def code_with_small_dual(draw):
    """A random code of length <= 10 whose span and dual span both have at most 4096 words."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 10))
    rows = draw(st.integers(1, n))
    entries = st.lists(st.integers(0, q - 1), min_size=rows * n, max_size=rows * n)
    code = LinearCode(gf.get_field(q), np.array(draw(entries), dtype=np.uint8).reshape(rows, n), n)
    assume(max(q**code.k, q ** (n - code.k)) <= 4096 and 2 * code.k != n)
    return code


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(code_with_small_dual())
def test_macwilliams_transform_matches_the_direct_distribution(code):
    # of a code and its dual, the larger side's distribution is carried over
    # from the smaller side's scan; each must equal a scan of its own span
    for side in (code, code.dual()):
        assert tuple(lincode._weight_counts(side)) == side._span_counts()
        assert sum(side._span_counts()) == side.field.q**side.k


@pytest.mark.parametrize("q, m", [(2, 3), (2, 4), (3, 2), (4, 2), (5, 2), (3, 3)])
def test_first_order_grm_distribution_has_its_closed_form(q, m):
    # R_q(1, m): q(q^m - 1) words of weight q^m - q^(m-1), q - 1 of weight q^m.
    # Its dual's distribution is carried over from its scan, and carrying
    # that back gives the closed form again
    n = q**m
    expect = [0] * (n + 1)
    expect[0], expect[n - n // q], expect[n] = 1, q * (n - 1), q - 1
    code = build_grm(q, m, 1).code
    assert code.weight_distribution() == tuple(expect)
    B = LinearCode(code.field, code.dual().gen, n).weight_distribution()
    assert sum(B) == q ** (n - m - 1)
    assert tuple(lincode._macwilliams(B, q, n - m - 1)) == tuple(expect)


def test_distribution_route_subtracts_the_excluded_words(monkeypatch):
    # C = {x in GF(2)^10 : x_0 = x_1} holds e_2..e_9 (weight 1) and 1100000000;
    # the words outside span(e_2..e_9) have x_0 = x_1 = 1, so weigh >= 2.  At
    # cap 4, q^9 is over the cap, the first look sees no word and the 10
    # weight-1 supports do not fit, so the distribution route settles the
    # pair: C's dual spans 2 words and the subcode's 4
    f = gf.get_field(2)
    check = np.zeros((1, 10), dtype=np.uint8)
    check[0, :2] = 1
    code = LinearCode(f, check, 10).dual()
    sub = LinearCode(f, np.eye(10, dtype=np.uint8)[2:], 10)
    assert code.k == 9 and sub.is_subcode_of(code)
    assert exact_min_weight(code, sub, cap=4) == (1, 2, True)
    # at cap 3 the subcode's side is over it: the route declines before any scan
    scans = []
    monkeypatch.setattr(LinearCode, "_span_counts", lambda self: scans.append(self))
    assert exact_min_weight(LinearCode(f, code.gen, 10), LinearCode(f, sub.gen, 10), cap=3) == (11, 1, False)
    assert scans == []


def test_a_transformed_count_that_is_not_a_nonnegative_integer_raises():
    # a planted scan of the dual (one word of weight 1, none of weight 2)
    # is no code's distribution: its transform is not integral, and the
    # engine raises rather than report a bound
    f = gf.get_field(3)
    code = LinearCode(f, np.eye(4, dtype=np.uint8)[:3], 4)
    code.dual()._counts = (1, 1, 0, 0, 0)
    with pytest.raises(AssertionError, match="not a nonnegative integer"):
        exact_min_weight(code, cap=3)


def test_min_weight_equals_first_positive_distribution_index():
    rng = np.random.default_rng(7)
    for q in (2, 3, 4):
        f = gf.get_field(q)
        for _ in range(6):
            C = random_code(f, 7, 3, rng)
            if C.k == 0:
                continue
            dist = C.weight_distribution()
            assert C.min_weight()[0] == next(i for i, c in enumerate(dist) if i and c)
            assert sum(dist) == q**C.k


def test_min_weight_difference_oracle_and_contract():
    f = gf.get_field(3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        big = random_code(f, 6, 4, rng)
        if big.k < 2:
            continue
        small = LinearCode(f, big.gen[: big.k - 1], 6)
        got = exact_min_weight(big, small)
        words_big = oracle_codewords(f, big.gen)
        words_small = oracle_codewords(f, small.gen)
        expect = min(
            sum(1 for x in w if x) for w in words_big - words_small
        )
        assert got == (oracle_min_weight(f, big.gen), expect, True)
    C = LinearCode(f, np.array([[1, 1, 1]], dtype=np.uint8), 3)
    with pytest.raises(NotNested):
        exact_min_weight(C, C)
    with pytest.raises(NotNested):
        exact_min_weight(C, full_space(f, 3))
    with pytest.raises(FieldMismatch):
        exact_min_weight(C, LinearCode.zero_code(gf.get_field(2), 3))
    with pytest.raises(EmptyCode):
        exact_min_weight(LinearCode.zero_code(f, 3))
    # a zero-code exclusion, or none, gives the plain minimum weight twice
    z = LinearCode.zero_code(f, 3)
    assert exact_min_weight(C, z) == exact_min_weight(C) == (3, 3, True)
    # over the cap the support route runs under a subset budget of the cap.
    # The full space has no parity checks, so each subset costs 1; the first
    # word outside span(e_0..e_8) is e_9, found at the tenth subset.  Below
    # that the support search gives up, and the distribution route settles
    # the pair: the full space's dual is the zero code, and span(e_0..e_8)'s
    # dual spans 3 words
    full = full_space(f, 10)
    excl = LinearCode(f, np.eye(10, dtype=np.uint8)[:9], 10)
    assert exact_min_weight(full, excl, cap=10) == (1, 1, True)
    assert exact_min_weight(full, excl, cap=9) == (1, 1, True)
    # a [10, 5] code and its [10, 4] subcode: neither the code nor its dual
    # (3^5 words each) fits cap 9, and neither do C(10, 1) supports, so the
    # engine gives up having seen no word (n + 1) and certified 1
    half = LinearCode(f, np.hstack([np.eye(5), np.ones((5, 5))]).astype(np.uint8), 10)
    assert exact_min_weight(half, LinearCode(f, half.gen[:4], 10), cap=9) == (11, 1, False)


def test_support_search_crosschecks_span_enumeration():
    rng = np.random.default_rng(9)
    for q in (2, 3, 4):
        f = gf.get_field(q)
        for _ in range(8):
            C = random_code(f, 8, 5, rng)
            if C.k == 0:
                continue
            w = C.min_weight()[0]
            assert min_weight_support_search(C) == (w, w)


def test_support_search_with_exclusion_crosschecks_difference():
    rng = np.random.default_rng(10)
    f = gf.get_field(3)
    for _ in range(8):
        big = random_code(f, 7, 5, rng)
        if big.k < 2:
            continue
        small = LinearCode(f, big.gen[: big.k - 2], 7)
        if small.k == 0:
            continue
        span_route = exact_min_weight(big, small)
        support_route = min_weight_support_search(big, exclude=small)
        assert span_route == (*support_route, True)
        assert span_route[0] == big.min_weight()[0]
        # the engine picks the support route once q^k is over the cap
        assert exact_min_weight(big, small, cap=3**big.k - 1) == span_route
        w = span_route[0]
        assert exact_min_weight(big, cap=3**big.k - 1) == (w, w, True)


def reference_support_search(code, exclude=None, subset_budget=2 * 10**6, kernel_budget=4096):
    """The support search one subset at a time: one kernel per column subset.

    The budget is charged C(n, w) before each size w <= r (the number of
    parity checks) and 1 per subset above r, where every subset is
    dependent.
    """
    if code.k == 0:
        raise EmptyCode("the zero code has no minimum weight")
    field, n = code.field, code.n
    H = code.dual().gen
    r = H.shape[0]
    spent = 0
    for w in range(1, n + 1):
        spent += comb(n, w) if w <= r else 0
        if spent > subset_budget:
            raise CapExceeded(f"support search budget exceeded at weight {w}")
        for S in itertools.combinations(range(n), w):
            if w > r:
                spent += 1
                if spent > subset_budget:
                    raise CapExceeded(f"support search budget exceeded at weight {w}")
            K = kernel_basis(field, H[:, S])
            if K.shape[0] == 0:
                continue
            if field.q**K.shape[0] > kernel_budget:
                raise CapExceeded("kernel span too large to enumerate")
            for _, block in iter_span_blocks(field, K):
                for v in block[np.all(block != 0, axis=1)]:
                    if exclude is None:
                        return w
                    cand = np.zeros(n, dtype=np.uint8)
                    cand[list(S)] = v
                    if not exclude.contains(cand):
                        return w
    raise EmptyCode("difference set is empty")


def support_weight(code, exclude=None, cap=lincode.DEFAULT_CAP):
    """The value of the pair that reference_support_search computes.

    That is the second value, wt(code minus exclude), with an exclusion
    and the first, wt(code), without.  A ``cap`` below SUPPORT_BUDGET is
    the search's subset budget.
    """
    pair = min_weight_support_search(code, exclude, cap)
    return pair[0] if exclude is None else pair[1]


def search_outcome(search, *args, **kwargs):
    """The weight found, or the type and message of the error raised."""
    try:
        return search(*args, **kwargs)
    except (CapExceeded, EmptyCode) as exc:
        return type(exc).__name__, str(exc)


def code_from_checks(field, H):
    """The code whose parity-check matrix is H."""
    return LinearCode(field, H).dual()


def dependent_by_rank(f, H, w):
    """The w-subsets of H's columns with a nonzero kernel, in lexicographic order."""
    subsets = itertools.combinations(range(H.shape[1]), w)
    return [S for S in subsets if kernel_basis(f, H[:, list(S)]).shape[0] > 0]


def dependent_by_filter(f, H, w, root=0):
    return [tuple(int(c) for c in S) for S in _dependent_supports(f, H, w, root)]


def mds_checks(f, r):
    """r x (q + 1) parity checks of a doubly extended Reed-Solomon code: the
    Vandermonde rows at every field element and the column e_{r-1} for the
    point at infinity.  Any r of its columns are independent."""
    H = np.zeros((r, f.q + 1), dtype=np.uint8)
    H[:, : f.q] = f.POW[np.arange(f.q), : r].T
    H[r - 1, f.q] = 1
    return H


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_dependent_subsets_match_scalar_rank(q):
    f = gf.get_field(q)
    rng = np.random.default_rng(q)
    for trial in range(12):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(r, 9))
        H = rng.integers(0, q, size=(r, n)).astype(np.uint8)
        if trial % 3 == 0:
            H[:, int(rng.integers(n))] = 0
        for w in range(1, min(n, r + 2) + 1):  # w > r included
            assert dependent_by_filter(f, H, w) == dependent_by_rank(f, H, w)
        # rooted at columns 0 and 1, the sizes 2 <= w <= r keep the sets holding both
        for w in range(2, min(n, r) + 1):
            expect = [S for S in dependent_by_rank(f, H, w) if S[:2] == (0, 1)]
            assert dependent_by_filter(f, H, w, root=2) == expect
    # an MDS matrix has no dependent set of at most r columns; with column
    # j2 replaced by a multiple of column j1 < j2 - 1, the dependent sets are
    # those holding both: a pair of parallel residues, or, for the prefix
    # {j1}, a zero residue at j2 paired with a column between them
    for r in range(1, min(q, 4) + 1):
        H = mds_checks(f, r)
        n = H.shape[1]
        for w in range(1, r + 1):
            assert dependent_by_filter(f, H, w) == dependent_by_rank(f, H, w) == []
        j1 = int(rng.integers(0, n - 2))
        j2 = int(rng.integers(j1 + 2, n))
        H[:, j2] = f.MUL[int(rng.integers(1, q)), H[:, j1]]
        for w in range(1, r + 1):
            expect = [S for S in itertools.combinations(range(n), w) if {j1, j2} <= set(S)]
            assert dependent_by_filter(f, H, w) == dependent_by_rank(f, H, w) == expect


@st.composite
def checks_with_zero_and_repeated_columns(draw):
    """(field, H) with a few columns zeroed and a few copied, scaled, onto others."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 49]))
    f = gf.get_field(q)
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, 8))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=r * n, max_size=r * n))
    H = np.array(entries, dtype=np.uint8).reshape(r, n)
    column = st.integers(0, n - 1)
    for src, dst, c in draw(st.lists(st.tuples(column, column, st.integers(1, q - 1)), max_size=3)):
        H[:, dst] = f.MUL[c, H[:, src]]
    H[:, draw(st.lists(column, max_size=2))] = 0
    return f, H


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(checks_with_zero_and_repeated_columns(), st.sampled_from([1, 500, 2000, 5000]))
def test_prefix_filter_matches_scalar_rank_across_block_boundaries(case, scan_bytes):
    # a prefix costs at least 14 n bytes and a candidate pair 49, so blocks
    # hold at most 5000 // (14 n) prefixes and runs at most 102 pairs: at 1
    # byte a boundary falls inside one prefix's extensions, at 5000 a block
    # holds several prefixes with dependent extensions, whose order must be
    # prefix by prefix
    f, H = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lincode, "_SCAN_BYTES", scan_bytes)
        for w in range(1, H.shape[0] + 1):
            assert dependent_by_filter(f, H, w) == dependent_by_rank(f, H, w)
        # every key collides: the keys only propose pairs, and the exact
        # comparison must neither drop nor invent one
        mp.setattr(lincode, "_residue_keys", lambda field, V, b: np.zeros(V.shape[1], dtype=np.uint64))
        for w in range(1, H.shape[0] + 1):
            assert dependent_by_filter(f, H, w) == dependent_by_rank(f, H, w)


@pytest.mark.parametrize("scan_bytes", [None, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_batched_support_search_matches_reference(q, scan_bytes, monkeypatch):
    if scan_bytes is not None:  # blocks of one prefix and runs of one pair put boundaries everywhere
        monkeypatch.setattr(lincode, "_SCAN_BYTES", scan_bytes)
    f = gf.get_field(q)
    rng = np.random.default_rng(100 + q)
    for _ in range(10):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(r + 2, 9))
        code = code_from_checks(f, rng.integers(0, q, size=(r, n)).astype(np.uint8))
        assert search_outcome(support_weight, code) == search_outcome(
            reference_support_search, code
        )
        if code.k < 2:
            continue
        small = LinearCode(f, code.gen[: int(rng.integers(1, code.k))], n)
        # code minus itself is empty and both must say so; over the larger
        # fields that scan runs through every kernel span and is slow
        for excl in (small, code) if q <= 3 else (small,):
            assert search_outcome(support_weight, code, exclude=excl) == search_outcome(
                reference_support_search, code, exclude=excl
            )


def test_batched_support_search_crosses_chunk_boundaries(monkeypatch):
    # [40, 37] code over GF(49) checked by 3 x 40 Vandermonde rows, with
    # column 31 a copy of column 30.  The weight-2 word on {30, 31} is
    # excluded, so weight 3 is scanned in full.  Its dependent subsets are
    # {a, 30, 31} and every extension of the dependent prefix {30, 31}; in
    # the blocks and runs of a 100 KB budget they fall in several runs.
    monkeypatch.setattr(lincode, "_SCAN_BYTES", 100_000)
    f = gf.get_field(49)
    n = 40
    pts = np.arange(1, n + 1, dtype=np.uint8)
    pts[31] = pts[30]
    H = np.vstack([f.POW[pts, j] for j in range(3)])
    code = code_from_checks(f, H)
    low = np.zeros((1, n), dtype=np.uint8)
    low[0, 30], low[0, 31] = 1, f.NEG[1]
    assert code.contains(low[0])
    excl = LinearCode(f, low, n)

    runs = []  # the dependent subsets each pair run found
    pairs = lincode._dependent_pairs
    monkeypatch.setattr(lincode, "_dependent_pairs", lambda *args: runs.append(pairs(*args)) or runs[-1])
    dependent = dependent_by_filter(f, code.dual().gen, 3)
    assert dependent == [S for S in itertools.combinations(range(n), 3) if {30, 31} <= set(S)]
    assert dependent == dependent_by_rank(f, code.dual().gen, 3)
    assert sum(len(S) > 0 for S in runs) > 1

    assert support_weight(code) == reference_support_search(code) == 2
    assert support_weight(code, exclude=excl) == reference_support_search(code, exclude=excl) == 4


def test_batched_support_search_budgets_trip_at_the_reference_weight(monkeypatch):
    # columns 0..2 of H are zero, so e_0, e_1, e_2 are codewords; excluding
    # their span leaves no hit at weights 1 and 2, and the first subsets
    # with 2- and 3-dim kernels are {0, 1} and {0, 1, 2}
    f = gf.get_field(3)
    H = np.zeros((3, 9), dtype=np.uint8)
    H[:, 3:] = np.array([[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]])
    code = code_from_checks(f, H)
    excl = LinearCode(f, np.eye(9, dtype=np.uint8)[:3], 9)
    cumulative = list(itertools.accumulate(comb(9, w) for w in range(1, 10)))

    # a subset budget of cumulative[w - 1] (the cap, as every one of them is
    # below SUPPORT_BUDGET) scans weights 1..w and stops at weight w + 1,
    # which pins the weight where the kernel budget trips
    def engine(w, kernel_budget):
        monkeypatch.setattr(lincode, "KERNEL_BUDGET", kernel_budget)
        return search_outcome(support_weight, code, exclude=excl, cap=cumulative[w - 1])

    def reference(w, kernel_budget):
        kw = dict(exclude=excl, subset_budget=cumulative[w - 1], kernel_budget=kernel_budget)
        return search_outcome(reference_support_search, code, **kw)

    assert cumulative[-1] < lincode.SUPPORT_BUDGET
    for w in range(1, 5):
        for kernel_budget in (3, 9, 27, 4096):
            assert engine(w, kernel_budget) == reference(w, kernel_budget)
    tripped = ("CapExceeded", "kernel span too large to enumerate")
    assert engine(1, 3) == ("CapExceeded", "support search budget exceeded at weight 2")
    assert engine(2, 3) == tripped  # {0, 1}: 3^2 > 3
    assert engine(2, 9) != tripped
    assert engine(3, 9) == tripped  # {0, 1, 2}: 3^3 > 9


@pytest.mark.parametrize("scan_bytes", [None, 3])
def test_support_budget_trips_partway_through_a_layer_above_r(scan_bytes, monkeypatch):
    if scan_bytes is not None:
        monkeypatch.setattr(lincode, "_SCAN_BYTES", scan_bytes)
    # the even-weight [6, 5] binary code has r = 1 check; excluding the
    # even-weight words on coordinates 0..4 leaves {0, 5} as the first hit
    # at w = 2 > r, the fifth subset of that layer.  Weight 1 charges
    # C(6, 1) = 6 up front; weight 2 charges 1 per subset, so a budget of
    # 11 reaches {0, 5} and 10 stops just before it.
    f = gf.get_field(2)
    code = code_from_checks(f, np.ones((1, 6), dtype=np.uint8))
    pairs = np.eye(4, 6, dtype=np.uint8) ^ np.eye(4, 6, k=1, dtype=np.uint8)  # e_i + e_{i+1}
    excl = LinearCode(f, pairs, 6)
    assert excl.k == 4 and excl.is_subcode_of(code)
    for budget in range(5, 30):
        assert search_outcome(support_weight, code, exclude=excl, cap=budget) == search_outcome(
            reference_support_search, code, exclude=excl, subset_budget=budget
        )
    tripped = ("CapExceeded", "support search budget exceeded at weight 2")
    # each cap below SUPPORT_BUDGET is the subset budget
    assert search_outcome(min_weight_support_search, code, excl, cap=10) == tripped
    assert min_weight_support_search(code, excl, cap=11) == (2, 2)
    # the first subset of the layer is a hit, so the plain weight costs 7
    assert min_weight_support_search(code, cap=7) == (2, 2)


def test_row_weights_do_not_wrap_at_length_256():
    ones = np.ones((1, 256), dtype=np.uint8)
    assert LinearCode(gf.get_field(2), ones, 256).weight_distribution()[256] == 1
    assert exact_min_weight(LinearCode(gf.get_field(3), ones, 256)) == (256, 256, True)


# q^k stays small enough for the scalar oracle; it also keeps every kernel
# span within the support route's kernel budget
ORACLE_MAX_K = {2: 7, 3: 6, 4: 4, 5: 4, 9: 3}


@st.composite
def code_with_proper_subcode(draw):
    """A random nonzero code of length <= 7 and a random proper subcode of it."""
    q = draw(st.sampled_from(sorted(ORACLE_MAX_K)))
    f = gf.get_field(q)
    n = draw(st.integers(1, 7))
    rows = draw(st.integers(1, min(n, ORACLE_MAX_K[q])))
    entries = st.lists(st.integers(0, q - 1), min_size=rows * n, max_size=rows * n)
    code = LinearCode(f, np.array(draw(entries), dtype=np.uint8).reshape(rows, n), n)
    assume(code.k > 0)
    j = draw(st.integers(0, code.k - 1))  # fewer rows than k: the zero code when j = 0
    coeffs = st.lists(st.integers(0, q - 1), min_size=j * code.k, max_size=j * code.k)
    mix = np.array(draw(coeffs), dtype=np.uint8).reshape(j, code.k)
    return code, LinearCode(f, f.matmul(mix, code.gen), n)


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(code_with_proper_subcode())
def test_engine_routes_agree_with_brute_force(case):
    code, sub = case
    words = oracle_codewords(code.field, code.gen)
    excluded = oracle_codewords(code.field, sub.gen)

    def lightest(vectors):
        return min(sum(1 for x in v if x) for v in vectors)

    expect = (lightest(words - {(0,) * code.n}), lightest(words - excluded))
    assert exact_min_weight(code, sub) == (*expect, True)  # span route at the default cap
    assert min_weight_support_search(code, exclude=sub) == expect
    assert reference_support_search(code, exclude=sub) == expect[1]
    assert reference_support_search(code) == expect[0]
    assert exact_min_weight(code) == (*min_weight_support_search(code), True) == (expect[0], expect[0], True)


def reference_span_min_weight(code, exclude=None):
    """The exhaustive span scan: (wt(code), wt(code minus exclude)).

    The rows are an extension of the excluded subcode's basis followed by
    that basis, so a word lies outside the subcode exactly when an
    extension row leads it.
    """
    field, n = code.field, code.n
    rows, split = code.gen, code.k
    if exclude is not None and exclude.k:
        # the full residues: reduce's free columns, and 0 on the pivots
        residues = np.zeros_like(code.gen)
        residues[:, exclude.free] = exclude.reduce(code.gen)
        ext, _ = rref(field, residues[np.any(residues, axis=1)])
        rows, split = np.vstack([ext, exclude.gen]), ext.shape[0]
    inside = outside = n + 1  # minima over words led by rows[split:] and by rows[:split]
    for lead, block in iter_span_blocks(field, rows):
        w = int((block != 0).sum(axis=1, dtype=np.uint16).min())
        if lead < split:
            outside = min(outside, w)
        else:
            inside = min(inside, w)
    return min(inside, outside), outside


def information_set_search(code, exclude=None):
    """The search alone, with no budget, so the cost rule never hands over to the scan."""
    best, bound = lincode._information_set_search(code, exclude)
    assert bound == best[1]
    return tuple(best)


def grm_span_cases():
    """Every R_q(nu, m) with q^k <= 2^20, m <= 3 and n <= 64."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for m in range(1, 4):
            if q**m > 64:
                continue
            for nu in range(m * (q - 1) + 1):
                C = build_grm(q, m, nu).code
                if q**C.k <= 2**20:
                    yield pytest.param(q, m, nu, id=f"R_{q}({nu},{m})")


@pytest.mark.parametrize("q, m, nu", list(grm_span_cases()))
def test_span_route_matches_full_scan_on_grm_codes(q, m, nu):
    """The engine's route within the cap, the search and then the weight
    distributions (:func:`lincode._distribution_weights`), each against a
    full scan of the span."""
    C = build_grm(q, m, nu).code
    expect = reference_span_min_weight(C)
    assert expect[0] == grm_distance(q, m, nu)
    assert exact_min_weight(C) == (*information_set_search(C), True) == (*expect, True)
    assert lincode._distribution_weights(C, None) == (*expect, True)
    if nu:
        E = build_grm(q, m, nu - 1).code
        expect = reference_span_min_weight(C, E)
        assert exact_min_weight(C, E) == (*information_set_search(C, E), True) == (*expect, True)
        assert lincode._distribution_weights(C, E) == (*expect, True)


def planted_code(field, n, k, rng):
    """A random code with zero and repeated columns and a planted light row.

    The repeats and zeros make the later information sets rank-deficient;
    the excluded subcode is spanned by the light row (and sometimes one
    more), so that wt(C minus exclude) can exceed wt(C).
    """
    G = rng.integers(0, field.q, size=(k, n)).astype(np.uint8)
    G[0] = 0
    G[0, rng.choice(n, size=int(rng.integers(1, 4)), replace=False)] = 1
    cols = rng.choice(n, size=n // 3, replace=False)
    G[:, cols[: len(cols) // 2]] = 0
    G[:, cols[len(cols) // 2 :]] = G[:, rng.choice(n, size=len(cols) - len(cols) // 2)]
    code = LinearCode(field, G, n)
    sub = LinearCode(field, G[: int(rng.integers(1, 3))], n)
    return code, (sub if 0 < sub.k < code.k else None)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_information_set_search_matches_full_scan_on_rank_deficient_codes(q):
    f = gf.get_field(q)
    rng = np.random.default_rng(700 + q)
    deficient = excluded_heavier = 0
    for _ in range(60):
        n = int(rng.integers(8, 22))
        code, sub = planted_code(f, n, int(rng.integers(3, {2: 9, 3: 7}.get(q, 5))), rng)
        if code.k == 0:
            continue
        ranks = [r for _, r in lincode._information_sets(f, code.gen, code.pivots)]
        deficient += min(ranks) < code.k
        for exclude in (None, sub):
            expect = reference_span_min_weight(code, exclude)
            assert information_set_search(code, exclude) == expect
            assert exact_min_weight(code, exclude) == (*expect, True)
            excluded_heavier += expect[1] > expect[0]
    assert deficient >= 30 and excluded_heavier >= 10


def with_light_pair(D):
    """C = A (+) D on disjoint coordinates, and A, a length-2 repetition code.

    The words of weight 2 all lie in A, so wt(C minus A) = wt(D) > 2.
    """
    n = D.n + 2
    G = np.zeros((D.k + 1, n), dtype=np.uint8)
    G[0, :2] = 1
    G[1:, 2:] = D.gen
    return LinearCode(D.field, G, n), LinearCode(D.field, G[:1], n)


@pytest.mark.parametrize("q, m, nu", [(2, 5, 2), (3, 3, 2), (4, 2, 3), (5, 2, 3), (16, 1, 5)])
def test_search_certifies_the_minimum_outside_exclude_on_grm_sums(q, m, nu):
    # the closed form is the oracle: q^k is up to 16^7, too many words to scan
    C, A = with_light_pair(build_grm(q, m, nu).code)
    expect = (2, grm_distance(q, m, nu))
    assert (*information_set_search(C, A), True) == exact_min_weight(C, A, cap=q**C.k) == (*expect, True)


@pytest.mark.parametrize("q, k", [(2, 12), (3, 8), (4, 6), (5, 6)])
def test_search_certifies_the_minimum_outside_exclude_on_random_sums(q, k):
    f = gf.get_field(q)
    rng = np.random.default_rng(q)
    for _ in range(40):
        D = random_code(f, int(rng.integers(k + 4, 3 * k)), k, rng)
        C, A = with_light_pair(D)
        expect = reference_span_min_weight(C, A)
        assert expect[0] <= 2 < expect[1] or D.min_weight()[0] <= 2
        assert (*information_set_search(C, A), True) == exact_min_weight(C, A) == (*expect, True)


def test_bound_counts_only_fully_enumerated_sets(monkeypatch):
    """The final bound counts a set only if all its messages of weight <= w were seen."""
    calls = {"sets": [], "words": set(), "bounds": []}
    real_sets, real_words, real_bound = (
        lincode._information_sets, lincode._message_words, lincode._unseen_bound
    )

    def sets(field, gen, pivots):
        calls["sets"] = real_sets(field, gen, pivots)
        return calls["sets"]

    def words(field, gen, w):
        calls["words"].add((gen.tobytes(), w))
        return real_words(field, gen, w)

    def bound(k, ranks, w):
        calls["bounds"].append((list(ranks), w))
        return real_bound(k, ranks, w)

    monkeypatch.setattr(lincode, "_information_sets", sets)
    monkeypatch.setattr(lincode, "_message_words", words)
    monkeypatch.setattr(lincode, "_unseen_bound", bound)
    rng = np.random.default_rng(77)
    cases = [(build_grm(q, m, nu).code, None) for q, m, nu in ((2, 5, 2), (3, 3, 2), (4, 2, 3), (7, 2, 2))]
    cases += [planted_code(gf.get_field(q), 18, 6, rng) for q in (2, 3, 4, 5) for _ in range(10)]
    checked = 0
    for code, sub in cases:
        calls.update(sets=[], words=set(), bounds=[])
        best, bound = lincode._information_set_search(code, sub)
        if not calls["sets"]:
            continue  # finished on the first look
        counted, w = calls["bounds"][-1]  # the stopping test comes last
        full = [r for gen, r in calls["sets"] if all((gen.tobytes(), v) in calls["words"] for v in range(1, w + 1))]
        for r in set(counted):
            assert counted.count(r) <= full.count(r)
        assert bound == best[1] and (real_bound(code.k, counted, w) >= best[1] or w == code.k)
        checked += 1
    assert checked >= 30


def test_first_look_stops_at_the_weight_that_settles_it(monkeypatch):
    # R_4(5,2) = [16,15,2]_4 is over the cap, so its first look may run to
    # weight 3; its 15 words of weight 1 already certify d = 2 (a message of
    # weight >= 2 weighs >= 2 on the pivots), so no heavier word is asked for
    asked = []
    real_words = lincode._message_words

    def words(field, gen, w):
        asked.append(w)
        return real_words(field, gen, w)

    monkeypatch.setattr(lincode, "_message_words", words)
    C = build_grm(4, 2, 5).code
    assert (C.n, C.k) == (16, 15) and lincode._look_weight(4, C.k, lincode.DEFAULT_CAP) == 3
    assert exact_min_weight(C) == (2, 2, True)
    assert asked == [1]


def one_word_blocks(message_words):
    """``message_words`` with every block split into one-word blocks, in order."""

    def split(field, gen, w):
        for block in message_words(field, gen, w):
            yield from np.split(block, len(block))

    return split


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(code_with_proper_subcode())
def test_first_look_stops_only_where_every_unseen_word_is_heavier(case):
    # after a block of weight-w messages an unseen word weighs >= w, and
    # >= w + 1 only once the layer is done: with one word per block, a stop
    # any earlier shows against the brute-force oracle, at every look
    code, sub = case
    words = oracle_codewords(code.field, code.gen)
    excluded = oracle_codewords(code.field, sub.gen)

    def lightest(vectors):
        return min(sum(1 for x in v if x) for v in vectors)

    expect = [lightest(words - {(0,) * code.n}), lightest(words - excluded)]
    exclude = sub if sub.k else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lincode, "_message_words", one_word_blocks(lincode._message_words))
        for look in range(code.k + 1):
            assert lincode._information_set_search(code, exclude, float("inf"), look) == (expect, expect[1])


def search_under(code, exclude, cap):
    """The search with the budget and first look it gets from exact_min_weight at ``cap``,
    whatever the code's rate."""
    q, k = code.field.q, code.k
    budget = (q**k - 1) // (q - 1) if q**k <= cap else cap
    return lincode._information_set_search(code, exclude, budget, lincode._look_weight(q, k, cap))


@st.composite
def code_for_the_routes(draw):
    """A random [8..20, <=10] code with zero and repeated columns, and a proper subcode or None."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8]))
    n = draw(st.integers(8, 20))
    k = draw(st.integers(2, {2: 10, 3: 7, 4: 6, 5: 5, 8: 4}[q]))
    code, sub = planted_code(gf.get_field(q), n, k, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    assume(code.k > 0)
    return code, sub


@settings(database=None, derandomize=True, deadline=None, max_examples=60)
@given(code_for_the_routes(), st.integers(0, 4096))
def test_routes_give_the_same_pair_wherever_they_finish(case, extra_cap):
    code, sub = case
    f, q, k, n = code.field, code.field.q, code.k, code.n
    for exclude in (None, sub):
        expect = reference_span_min_weight(code, exclude)
        scan = [n + 1, n + 1]
        for _, block in iter_span_blocks(f, code.gen):
            lincode._fold_block(block, exclude, scan)
        assert tuple(scan) == expect
        assert information_set_search(code, exclude) == expect
        # within the cap (q^k and above), and over it (below q^k)
        for cap in sorted({1, 2 + extra_cap % q**k, q**k - 1, q**k, q**k + extra_cap} - {0}):
            best, bound = search_under(code, exclude, cap)
            assert bound <= expect[1] and best[0] >= expect[0] and best[1] >= expect[1]
            assert bound < best[1] or tuple(best) == expect
            try:
                assert min_weight_support_search(code, exclude, cap) == expect
            except CapExceeded:
                pass
            found = exact_min_weight(code, exclude, cap)
            if found.exact:
                assert found == (*expect, True)
            else:  # a certified lower bound, and the lightest word seen
                assert q**k > cap and 1 <= found.diff <= expect[1] and found.code >= expect[0]
            if exclude is None:
                w, exact = code.min_weight(cap)
                assert w == expect[0] if exact else 1 <= w <= expect[0]


# The search's three price rules change no result, only the work done to
# reach it, so each is pinned by a work count.  Removing one slowed the warm
# benchmark pass (medians of 4 fresh processes, 2 shared vCPUs): the whole
# pre-check, hermitian-mds 24.0 -> 48.9 ms; the look rule, grm-css-sweep
# 17.6 -> 19.6 ms; the rank filter, grm-css-sweep 17.6 -> 25.2 ms.


def test_search_prices_its_sets_before_it_builds_them(monkeypatch):
    # a random [60, 12] binary code within the cap has a budget of one scan,
    # 4095 words, above the 2400 of its 12 pivot steps; but its lightest
    # word after the look weighs more than 3, so even five full-rank sets
    # (the ranks no sets can beat) price the search above the budget, and
    # it stops before it builds any set: no rref.  With a budget of 10^6
    # words it builds the other four sets, one rref each, and finishes
    code = random_code(gf.get_field(2), 60, 12, np.random.default_rng(12))
    pivots = []
    real_rref = lincode.rref
    monkeypatch.setattr(lincode, "rref", lambda *args: pivots.append(1) or real_rref(*args))
    assert code.k == 12 and lincode._look_weight(2, 12, lincode.DEFAULT_CAP) == 2
    best, bound = search_under(code, None, lincode.DEFAULT_CAP)
    assert bound == 3 < best[1] and pivots == []
    best, bound = lincode._information_set_search(code, None, 10**6)
    assert bound == best[1] == reference_span_min_weight(code)[1] and len(pivots) == 4


def test_search_takes_no_look_that_costs_more_than_the_scan(monkeypatch):
    # within the cap the look is 0 when its 200 k pivot-step price tops one
    # scan of the (q^k - 1)/(q - 1) scalar classes: then the distributions
    # settle the code and the search builds no word
    assert [lincode._look_weight(2, k, lincode.DEFAULT_CAP) for k in (1, 11, 12)] == [0, 0, 2]  # 2047 < 2200
    assert [lincode._look_weight(5, k, lincode.DEFAULT_CAP) for k in (5, 6)] == [0, 2]  # 781 < 1000
    words = []
    real_words = lincode._message_words
    monkeypatch.setattr(lincode, "_message_words", lambda *args: (words.append(len(b)) or b for b in real_words(*args)))
    code = random_code(gf.get_field(2), 16, 6, np.random.default_rng(6))
    assert exact_min_weight(code) == (*reference_span_min_weight(code), True) and words == []


def test_search_skips_the_sets_too_small_to_raise_its_floor(monkeypatch):
    # a random [16, 6, 4] binary code has information sets of ranks 6, 6
    # and 4.  The look builds the 6 + 15 words of weight <= 2 on the first
    # set and sees weight 4, which the two full sets' floor reaches after
    # weight 1, when the rank-4 set's floor is still 0: that set is
    # dropped, so the search builds 21 + 6 words, not 33
    f = gf.get_field(2)
    code = random_code(f, 16, 6, np.random.default_rng(0))
    assert [r for _, r in lincode._information_sets(f, code.gen, code.pivots)] == [6, 6, 4]
    words = []
    real_words = lincode._message_words
    monkeypatch.setattr(lincode, "_message_words", lambda *args: (words.append(len(b)) or b for b in real_words(*args)))
    assert lincode._information_set_search(code, None) == ([4, 4], 4)
    assert sum(words) == 27


def test_engine_skips_a_support_search_sure_to_give_up(monkeypatch):
    # the Hermitian distance of R_16(1, 2): its dual is [256, 253] over GF(16)
    # with r = 3 checks, so the search takes only its first look (weight 1,
    # the most that fits 2^16 messages), and that sees a word of weight 3;
    # C(256, 1..3) = 2.79*10^6 supports are over the subset budget.  The
    # distribution route settles it from two scans of 16^3 words
    calls = []
    monkeypatch.setattr(lincode, "min_weight_support_search", lambda *args: calls.append(args))
    C = build_grm(16, 2, 1).code
    D = C.hermitian_dual()
    assert sum(comb(256, w) for w in range(1, 4)) > lincode.SUPPORT_BUDGET
    assert exact_min_weight(D, C) == (3, 3, True) and not calls
    assert D.min_weight() == (3, True) and not calls


def test_a_code_of_rate_above_half_over_the_cap_gets_only_the_first_look(monkeypatch):
    # the [256,253]_16 Hermitian dual of R_16(1, 2): with the cap as its
    # budget, the search would build its information sets and certify 3 at
    # some cost; n < 2k leaves it the first look, and the distributions settle it.
    # A fresh copy of the code, so no counts that earlier tests memoized on
    # the shared GRM code answer before the search
    sets = []
    monkeypatch.setattr(lincode, "_information_sets", lambda *args: sets.append(args))
    g = build_grm(16, 2, 1).code
    C = LinearCode(g.field, g.gen, g.n)
    D = C.hermitian_dual()
    assert not lincode._counted(D) and not lincode._counted(C)
    assert 2 * D.k > D.n and 16**D.k > lincode.DEFAULT_CAP
    assert exact_min_weight(D, C) == exact_min_weight(D) == (3, 3, True)
    assert not sets


@pytest.mark.parametrize("q, nu", [(8, 1), (7, 2)], ids=["R_8(1,2)", "R_7(2,2)"])
def test_weight_distributions_finish_what_the_search_leaves_within_the_cap(q, nu, monkeypatch):
    # [64,3,56]_8 and [49,6,35]_7: words so heavy that the search prices its
    # finish above one scan of the span, and stops unfinished within the cap
    C, E = (LinearCode(g.field, g.gen, g.n) for g in (build_grm(q, 2, nu).code, build_grm(q, 2, nu - 1).code))
    assert q**C.k <= lincode.DEFAULT_CAP
    expect = {}
    for exclude in (None, E):
        best, bound = search_under(C, exclude, lincode.DEFAULT_CAP)
        assert bound < best[1]
        expect[exclude] = (*reference_span_min_weight(C, exclude), True)
    assert expect[None][0] == grm_distance(q, 2, nu)
    built = []
    scan = lincode.iter_span_blocks

    def spy(field, rows):
        for lead, block in scan(field, rows):
            built.append(len(block))
            yield lead, block

    monkeypatch.setattr(lincode, "iter_span_blocks", spy)
    for exclude in (None, E):
        assert exact_min_weight(C, exclude) == expect[exclude]
    assert built  # the first calls scan C and E once each
    built.clear()
    for exclude in (None, E):
        assert exact_min_weight(C, exclude) == expect[exclude]
    assert not built  # their counts are memoized on the code objects


def test_memoized_counts_answer_before_the_search(monkeypatch):
    # R_8(1,2) = [64,3,56]_8 over R_8(0,2), fresh copies: the first call's
    # search stops unfinished and the distributions memoize both codes'
    # counts; a second call reads them and does not search, but one at a cap
    # below their price, 8^3 words, still searches
    C, E = (LinearCode(g.field, g.gen, g.n) for g in (build_grm(8, 2, 1).code, build_grm(8, 2, 0).code))
    searches = []
    search = lincode._information_set_search
    monkeypatch.setattr(lincode, "_information_set_search", lambda *args: searches.append(args) or search(*args))
    expect = exact_min_weight(C, E)
    assert expect == (56, 56, True) and len(searches) == 1
    assert lincode._counted(C) and lincode._counted(E)
    assert exact_min_weight(C, E) == expect and exact_min_weight(C) == (56, 56, True) and len(searches) == 1
    exact_min_weight(C, E, cap=8**3 - 1)
    assert len(searches) == 2


# -- the support search rooted by a verified affine group ----------------------


def x1_code(q):
    """The functions of x_1 on GF(q)^2: one indicator row per line x_1 = c."""
    f = gf.get_field(q)
    return LinearCode(f, (point_matrix(f, 2)[0] == np.arange(q)[:, None]).astype(np.uint8), q * q)


def fixes(code, points):
    """Whether the point map (image index of each point) fixes the code."""
    return not np.any(code.reduce(code.gen[:, points]))


@pytest.mark.parametrize(
    "q, m", [(q, m) for q in (2, 3, 4, 5, 7, 8, 9, 16) for m in (1, 2, 3) if q**m <= 256], ids=str
)
def test_affine_group_check_accepts_grm_codes_and_the_quantum_sides(q, m):
    codes = [build_grm(q, m, nu).code for nu in range(m * (q - 1) + 1)]
    for i, C in enumerate(codes):
        assert lincode._affine_group_fixes(C, None)
        if i:  # a CSS pair: the lower order inside the higher
            assert lincode._affine_group_fixes(C, codes[i - 1])
        if q in (4, 9, 16):  # a Hermitian side: C against its Hermitian dual
            assert lincode._affine_group_fixes(C.hermitian_dual(), C)


def test_affine_group_check_declines_what_it_cannot_verify():
    f = gf.get_field(3)
    C = build_grm(3, 2, 2).code
    # length 8 is no power of 3
    assert not lincode._affine_group_fixes(C.punctured_to(range(8)), None)
    # a pair whose excluded code, one Lagrange row, is not fixed
    E = LinearCode(f, C.gen[:1], 9)
    assert lincode._affine_group_fixes(C, None) and not lincode._affine_group_fixes(C, E)
    assert not lincode._affine_group_fixes(E, None)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_affine_group_check_declines_a_code_fixed_only_by_translations(q):
    # every translation of GF(q)^2 fixes the functions of x_1, but
    # x_1 -> x_1 + x_2 does not; the lightest words, weight q, are the lines
    # x_1 = c, and none holds both point 0 = (0, 0) and point 1 = (1, 0)
    C = x1_code(q)
    f = C.field
    P = point_matrix(f, 2).astype(np.intp)
    place = np.array([1, q])
    for a in range(q):
        assert fixes(C, place @ np.vstack([f.ADD[P[0], a], P[1]])) and fixes(C, place @ np.vstack([P[0], f.ADD[P[1], a]]))
    assert not fixes(C, place @ np.vstack([f.ADD[P[0], P[1]], P[1]]))
    assert not lincode._affine_group_fixes(C, None)
    lightest = [w for w in oracle_codewords(f, C.gen) if sum(1 for x in w if x) == q]
    assert lightest and not any(w[0] and w[1] for w in lightest)
    assert min_weight_support_search(C) == (q, q)


def rooted_search_cases():
    """R_q(nu, m) of length <= 81 whose support sizes up to the closed-form
    distance fit the subset budget, each alone, over R_q(nu - 1, m) (a CSS
    pair), and, where it is Hermitian self-orthogonal, as the excluded code
    of its Hermitian dual."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for m in (1, 2, 3):
            n = q**m
            for nu in range(m * (q - 1) + 1) if n <= 81 else ():
                k, d = grm_dimension(q, m, nu), grm_distance(q, m, nu)
                if sum(comb(n, w) for w in range(1, min(d, n - k) + 1)) <= lincode.SUPPORT_BUDGET:
                    yield pytest.param(q, m, nu, id=f"R_{q}({nu},{m})")


@pytest.mark.parametrize("q, m, nu", list(rooted_search_cases()))
def test_rooted_support_search_matches_the_unrooted_one(q, m, nu, monkeypatch):
    C = build_grm(q, m, nu).code
    pairs = [(C, None)] + ([(C, build_grm(q, m, nu - 1).code)] if nu else [])
    D = C.hermitian_dual() if q in (4, 9, 16) else C
    if C.k < D.k and C.is_subcode_of(D):  # a Hermitian side
        pairs.append((D, C))
    assert all(lincode._affine_group_fixes(*pair) for pair in pairs)
    rooted = [search_outcome(min_weight_support_search, *pair) for pair in pairs]
    assert rooted[0] == (grm_distance(q, m, nu),) * 2
    monkeypatch.setattr(lincode, "_affine_group_fixes", lambda code, exclude: False)
    assert rooted == [search_outcome(min_weight_support_search, *pair) for pair in pairs]
    for (code, exclude), found in zip(pairs, rooted):
        if q**code.k <= 729 and found[0] != "CapExceeded":
            words = oracle_codewords(code.field, code.gen)
            excluded = {(0,) * code.n} if exclude is None else oracle_codewords(code.field, exclude.gen)
            assert found[1] == min(sum(1 for x in w if x) for w in words - excluded)


def test_rooted_search_builds_the_prefixes_through_two_coordinates(monkeypatch):
    # R_5(4,2) = [25,15,5]_5 has r = 10 checks: its weight-5 layer extends
    # 3-prefixes, C(23, 1) = 23 through coordinates 0 and 1 against the
    # C(25, 3) = 2300 of the unrooted tree.  A 16 MB budget holds either
    # layer in one block, so the walk builds the whole layer before it
    # stops at the block holding its first hit
    monkeypatch.setattr(lincode, "_SCAN_BYTES", 1 << 24)
    C = build_grm(5, 2, 4).code
    built = {}
    tree = lincode._prefix_tree

    def spy(*args):
        for T, R in tree(*args):
            built[args[2]] = built.get(args[2], 0) + len(T)
            yield T, R

    monkeypatch.setattr(lincode, "_prefix_tree", spy)
    assert min_weight_support_search(C) == (5, 5) and built[3] == 23
    built.clear()
    monkeypatch.setattr(lincode, "_affine_group_fixes", lambda code, exclude: False)
    assert min_weight_support_search(C) == (5, 5) and built[3] == comb(25, 3)


def test_rooted_support_search_keeps_its_price(monkeypatch):
    # R_7(6,2) = [49,28,7]_7: rooted, the walk to weight 7 is short, but each
    # size w <= r is still charged C(49, w) up front, and C(49, <=5) tops the
    # subset budget; the engine's pre-check declines it.  At the default cap
    # the footprint route settles the distance; one below its price,
    # n min(k, n - k) = 49 * 21, no route fits, and it stays a bound
    C = build_grm(7, 2, 6).code
    assert lincode._affine_group_fixes(C, None)
    tripped = ("CapExceeded", "support search budget exceeded at weight 5")
    assert search_outcome(min_weight_support_search, C) == tripped
    calls = []
    monkeypatch.setattr(lincode, "min_weight_support_search", lambda *args: calls.append(args))
    assert exact_min_weight(C) == (7, 7, True) and not calls
    assert not exact_min_weight(C, cap=49 * 21 - 1).exact and not calls


# -- the footprint certificate ---------------------------------------------------

# (q, m) of every grid GF(q)^m of at most 27 points the tests draw codes on;
# GF(4), GF(9), GF(16) and GF(25) are tower tops
FOOTPRINT_GRIDS = [
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (7, 1), (9, 1), (16, 1), (25, 1)
]


def all_words(field, gen):
    """Every word of the row space, one per message (q^k, n), by 2-D table lookups."""
    msgs = np.array(list(itertools.product(range(field.q), repeat=gen.shape[0])), dtype=np.uint8)
    return reference_matmul(field, msgs.reshape(-1, gen.shape[0]), gen)


def vanishing_word(field, m, b):
    """prod_i prod_{j < b_i} (x_i - alpha_j) at each point of GF(q)^m, by scalar arithmetic."""
    out = []
    for t in range(field.q**m):
        x = [t // field.q**i % field.q for i in range(m)]
        v = 1
        for i in range(m):
            for j in range(b[i]):
                v = field.MUL[v, field.ADD[x[i], field.NEG[j]]]
        out.append(v)
    return np.array(out, dtype=np.uint8)


def reference_leading_monomials(field, m, gen):
    """LM of every nonzero word of the row space, by brute force: each word's
    coefficients come from the inverse of the monomial evaluation matrix
    E[a, t] = prod_i x_i(t)^a_i (a reference rref of [E | I]), and its
    leading monomial is the one of highest degree, then highest index."""
    q, n = field.q, field.q**m
    digits = [[t // q**i % q for i in range(m)] for t in range(n)]
    def monomial(a, x):  # x^a at the point with coordinates x
        v = 1
        for i in range(m):
            v = field.MUL[v, field.POW[x[i], a[i]]]
        return v

    E = np.array([[monomial(a, x) for x in digits] for a in digits], dtype=np.uint8)
    inverse = reference_rref(field, np.hstack([E, np.eye(n, dtype=np.uint8)]))[0][:, n:]
    key = [(sum(a), t) for t, a in enumerate(digits)]
    mask = np.zeros(n, dtype=bool)
    for word in all_words(field, gen):
        coeffs = reference_matmul(field, word[None, :], inverse)[0]  # word = coeffs @ E
        if coeffs.any():
            mask[max(np.flatnonzero(coeffs), key=lambda t: key[t])] = True
    return mask


@pytest.mark.parametrize("q, m", [(2, 2), (2, 3), (3, 2), (4, 1), (5, 1), (4, 2)], ids=str)
def test_leading_monomials_and_witness_words_match_brute_force(q, m):
    f = gf.get_field(q)
    rng = np.random.default_rng(60 + q * m)
    n = q**m
    for _ in range(8):
        k = int(rng.integers(1, min(n, 6 if q <= 3 else 3) + 1))
        G = rng.integers(0, q, size=(k, n)).astype(np.uint8)
        b = rng.integers(0, q, size=m)
        G[0] = vanishing_word(f, m, b)
        assert np.array_equal(lincode._footprint_words(f, m, b[:, None]), G[:1])
        assert np.count_nonzero(G[0]) == np.prod(q - b)
        assert np.array_equal(lincode._leading_monomials(f, m, G), reference_leading_monomials(f, m, G))


@pytest.mark.parametrize(
    "q, m", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (4, 3), (9, 2), (16, 1), (25, 1)], ids=str
)
def test_the_dual_reads_its_leading_monomials_off_the_code(q, m):
    # LM(C-perp) = {a* : a not in LM(C)}, a* = (q - 1 - a_i)_i, on random
    # codes of every rate; on a tower top also for the Frobenius images,
    # as (C^q)-perp = (C-perp)^q
    f = gf.get_field(q)
    frob = gf.extension_pair_for(f).frob if q in (4, 9, 16, 25) else None
    rng = np.random.default_rng(70 + q * m)
    n = q**m
    for _ in range(10):
        k = int(rng.integers(0, n + 1))
        C = LinearCode(f, rng.integers(0, q, size=(k, n)).astype(np.uint8), n)
        D = C.dual()
        lead = lincode._leading_monomials(f, m, C.gen)
        assert lead.sum() == C.k
        assert np.array_equal(lincode._leading_monomials(f, m, D.gen), lincode._dual_leading(lead))
        if frob is not None:
            image = lincode._leading_monomials(f, m, frob[C.gen])
            assert np.array_equal(lincode._leading_monomials(f, m, frob[D.gen]), lincode._dual_leading(image))


@st.composite
def grid_code_with_subcode(draw):
    """A code of length q^m <= 27, its first rows words f_b, the rest random,
    and a subcode spanned by some of its first rows (None when that is 0 or all)."""
    q, m = draw(st.sampled_from(FOOTPRINT_GRIDS))
    f, n = gf.get_field(q), q**m
    most = max(k for k in range(1, n + 1) if q**k <= 2**16)
    planted = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * m), max_size=min(4, most)))
    extra = draw(st.integers(0 if planted else 1, most - len(planted)))
    entries = st.lists(st.integers(0, q - 1), min_size=extra * n, max_size=extra * n)
    rows = [vanishing_word(f, m, b) for b in planted]
    rows += list(np.array(draw(entries), dtype=np.uint8).reshape(extra, n))
    code = LinearCode(f, np.array(rows, dtype=np.uint8).reshape(-1, n), n)
    assume(code.k > 0)
    sub = LinearCode(f, np.array(rows[: draw(st.integers(0, len(rows)))], dtype=np.uint8).reshape(-1, n), n)
    return code, m, (sub if 0 < sub.k < code.k else None)


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(grid_code_with_subcode())
def test_footprint_bound_and_witness_agree_with_brute_force(case):
    # every bound, of the code and of its Frobenius image, is at most the
    # true distance, and the route's value, when it gives one, is exact
    code, m, sub = case
    words = all_words(code.field, code.gen)
    weights = (words != 0).sum(axis=1)
    excluded = {w.tobytes() for w in all_words(code.field, sub.gen)} if sub is not None else {bytes(code.n)}
    outside = np.array([w.tobytes() not in excluded for w in words])
    truth = (int(weights[weights > 0].min()), int(weights[outside].min()), True)
    bounds = lincode._footprint_bounds(code, m)
    assert len(bounds) == (2 if code.field.q in (4, 9, 16, 25) else 1)
    assert all(bound <= truth[0] for bound, _, _ in bounds)
    found = lincode._footprint_weights(code, sub, lincode.DEFAULT_CAP)
    assert found is None or found == truth


def fresh_grm(q, m, nu):
    """A copy of R_q(nu, m) that shares nothing memoized with the cached code."""
    g = build_grm(q, m, nu).code
    return LinearCode(g.field, g.gen, g.n)


def footprint_grm_pairs(cap):
    """Every GRM pair whose weight distributions fit ``cap``: R_q(nu, m) alone,
    over R_q(nu - 1, m) (a CSS side), and, over a tower top where it is
    Hermitian self-orthogonal, as the excluded code of its Hermitian dual."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for m in (1, 2, 3, 4):
            for nu in range(m * (q - 1) + 1) if q**m <= 256 else ():
                C = fresh_grm(q, m, nu)
                pairs = [(C, None)] + ([(C, fresh_grm(q, m, nu - 1))] if nu else [])
                if q in (4, 9, 16) and 2 * C.k < C.n:
                    D = C.hermitian_dual()
                    pairs += [(D, C)] if C.is_subcode_of(D) else []
                for code, exclude in pairs:
                    if all(c is None or lincode._smaller_span(c) <= cap for c in (code, exclude)):
                        yield q, m, nu, code, exclude


def test_footprint_agrees_with_the_distributions_on_every_grm_pair_within_the_cap():
    # 255 pairs, each settled by the footprint; at 2^24 there are 277, but
    # their distributions take ten times as long
    cap = 2**20
    pairs = 0
    for q, m, nu, code, exclude in footprint_grm_pairs(cap):
        found = lincode._footprint_weights(code, exclude, cap)
        assert found == lincode._distribution_weights(code, exclude), (q, m, nu, exclude is None)
        pairs += 1
    assert pairs >= 250


def x1x2_code():
    """The functions 1 and (x_1 x_2)^2 on GF(4)^2, and the subcode of the second."""
    f = gf.get_field(4)
    e = gf.extension_pair_for(f).frob[vanishing_word(f, 2, (1, 1))]  # (x_1 x_2)^2
    return LinearCode(f, np.vstack([np.ones(16, dtype=np.uint8), e]), 16), LinearCode(f, e[None, :], 16)


def test_only_the_frobenius_image_settles_a_code_and_its_witness_is_mapped_back():
    # C = <1, (x_1 x_2)^2> over GF(4): its leading monomials 1 and x_1^2 x_2^2
    # bound it by 4, its image <1, x_1 x_2> by 9, the true distance.  The
    # image's witness x_1 x_2 is not in C, but its Frobenius image is.
    # With E = <(x_1 x_2)^2> excluded, that witness lies in E, where x_1 x_2
    # does not: every word outside E weighs 13 or 16, so the route declines
    C, E = x1x2_code()
    words = oracle_codewords(C.field, C.gen)
    excluded = oracle_codewords(C.field, E.gen)
    weight = {w: sum(1 for x in w if x) for w in words}
    assert min(weight[w] for w in words if any(w)) == 9 and min(weight[w] for w in words - excluded) == 13
    assert [bound for bound, _, _ in lincode._footprint_bounds(C, 2)] == [4, 9]
    assert lincode._footprint_weights(C, None, lincode.DEFAULT_CAP) == (9, 9, True)
    assert lincode._footprint_weights(C, E, lincode.DEFAULT_CAP) is None
    assert exact_min_weight(C, E) == (9, 13, True)


@pytest.mark.parametrize("nu, direct, image", [(3, 2, 5), (5, 3, 7)])
def test_the_hermitian_sides_settle_through_the_frobenius_image(nu, direct, image):
    # the [256, 256 - k] Hermitian dual of R_16(nu, 2) over the code: its own
    # leading monomials bound it by 2 or 3, its image's by the closed form
    C = build_grm(16, 2, nu).code
    D = C.hermitian_dual()
    assert [bound for bound, _, _ in lincode._footprint_bounds(D, 2)] == [direct, image]
    assert lincode._footprint_weights(D, C, lincode.DEFAULT_CAP) == (image, image, True)
    assert image == grm_distance(16, 2, build_grm(16, 2, nu).nu_perp)


def test_footprint_declines_off_the_grid_and_over_its_price():
    # R_5(4,2) = [25,15,5]_5 costs n min(k, n - k) = 25 * 10; punctured to
    # 24 points it is no code on GF(5)^2
    C, E = fresh_grm(5, 2, 4), fresh_grm(5, 2, 3)
    assert lincode._footprint_weights(C, E, 250) == (5, 5, True)
    assert lincode._footprint_weights(C, E, 249) is None
    assert lincode._footprint_weights(C.punctured_to(range(24)), None, lincode.DEFAULT_CAP) is None


def test_footprint_runs_only_where_the_engine_would_give_up(monkeypatch):
    calls = []
    route = lincode._footprint_weights
    monkeypatch.setattr(lincode, "_footprint_weights", lambda *args: calls.append(args) or route(*args))
    # the search settles R_5(3,2) within the cap: no footprint
    assert exact_min_weight(fresh_grm(5, 2, 3), fresh_grm(5, 2, 2)) == (10, 10, True) and not calls
    # R_7(6,2) = [49,28,7]_7 over the cap, where nothing else fits: one call
    assert exact_min_weight(fresh_grm(7, 2, 6)) == (7, 7, True) and len(calls) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_unfinished_search_bound_counts_only_the_first_set(q):
    """A search stopped above the cap has seen the messages of weight <= look
    on the RREF generator and nothing on any other set: its bound is look + 1
    at most, even where counting the other sets at that weight would give more."""
    f = gf.get_field(q)
    rng = np.random.default_rng(40 + q)
    tight = 0
    for _ in range(30):
        for t in (1, 2):
            # [I | A] with the first t + 1 rows of A summing to 0: a word of
            # weight t + 1 whose message, of weight t + 1, the look does not reach
            k = int(rng.integers(t + 2, 6))
            n = int(rng.integers(2 * k, 3 * k + 1))
            G = np.hstack([np.eye(k, dtype=np.uint8), rng.integers(0, q, size=(k, n - k)).astype(np.uint8)])
            G[t, k:] = f.NEG[reference_matmul(f, np.ones((1, t), dtype=np.uint8), G[:t, k:])[0]]
            code = LinearCode(f, G, n)
            weight = reference_span_min_weight(code)[0]
            # the cap whose first look is exactly weights <= t; below q^k
            cap = sum(comb(k, s) * (q - 1) ** s for s in range(1, t + 1))
            assert lincode._look_weight(q, k, cap) == t
            best, bound = search_under(code, None, cap)
            assert bound <= weight <= best[0]
            if bound < best[1]:
                hint = [k] * (n // k) + [n % k] * (n % k > 0)
                tight += bound == weight < lincode._unseen_bound(k, hint, t)
            w, exact = code.min_weight(cap)
            assert w == weight if exact else bound <= w <= weight
    assert tight >= 10


def test_message_words_enumerate_each_scalar_class_once():
    for q, k in SPAN_CASES:
        f = gf.get_field(q)
        rng = np.random.default_rng(60 + q)
        C = random_code(f, 6, k, rng)
        for w in range(1, C.k + 1):
            got = [tuple(int(x) for x in r) for b in lincode._message_words(f, C.gen, w) for r in b]
            expect = [
                oracle_word(f, msg, C.gen)
                for msg in itertools.product(range(q), repeat=C.k)
                if sum(1 for m in msg if m) == w and msg[next(i for i, m in enumerate(msg) if m)] == 1
            ]
            assert sorted(got) == sorted(expect) and len(got) == comb(C.k, w) * (q - 1) ** (w - 1)
    # a block, the one before it, its terms and their sum, its weights and
    # its index arrays stay within the scan budget on a long code
    gen = np.eye(40, 256, dtype=np.uint8)
    block = next(lincode._message_words(gf.get_field(4), gen, 6))
    assert 4 * block.nbytes + len(block) * (10 + 8 * 2 * 6) <= lincode._SCAN_BYTES


def _traced_peak(fn) -> int:
    """Peak traced bytes of one call of fn, after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q", [2, 4, 5, 9, 49])
def test_scan_blocks_and_their_temporaries_stay_within_the_byte_budget(q):
    # long codes, each span about 2^14 words: every block of the span scan,
    # of the witness scan and of the search's message words holds at most
    # _block_rows words, and the traced peak of each, consumed as the
    # library consumes it (the != 0 mask, the weights, their bincount),
    # stays within _SCAN_BYTES; the message words may also keep the table of
    # the generator's multiples.  Under the 8 MB row caps these blocks
    # reached 1 to 8 MB.
    f, n = gf.get_field(q), 256
    k = -(-14 // (q.bit_length() - 1))
    rows = np.random.default_rng(q).integers(0, q, size=(k, n)).astype(np.uint8)
    slack = 16 * 1024  # the iterators, a prefix row and its q multiples

    def span_scan():
        counts = np.zeros(n + 1, dtype=np.int64)
        for _, block in iter_span_blocks(f, rows):
            assert len(block) <= lincode._block_rows(f, n)
            counts += np.bincount((block != 0).sum(axis=1, dtype=np.uint16), minlength=n + 1)
        assert counts.sum() == (q**k - 1) // (q - 1)

    assert _traced_peak(span_scan) <= lincode._SCAN_BYTES + slack
    assert _traced_peak(lambda: find_first_of_weight(f, rows, n + 1)) <= lincode._SCAN_BYTES + slack

    w, gen = 4, np.eye(3 * k, n, dtype=np.uint8)
    table = q * gen.nbytes

    def message_words():
        best = [n + 1, n + 1]
        for block in itertools.islice(lincode._message_words(f, gen, w), 4):
            assert len(block) <= lincode._block_rows(f, n, 2 * w)
            lincode._fold_block(block, None, best)
        assert best[0] == w

    assert _traced_peak(message_words) <= lincode._SCAN_BYTES + table + slack


@pytest.mark.parametrize("w, zeros", [(3, 0), (3, 20), (4, 0)], ids=["w3", "w3-zeros", "w4"])
def test_support_filter_blocks_and_runs_stay_within_the_byte_budget(w, zeros, monkeypatch):
    # the 60 checks of a random [64, 4] binary code: the depth-1 and
    # depth-2 layers, 64 and C(64, 2) prefixes, fill blocks, each prefix
    # with 60 residue planes.  With 20 columns zeroed every pair through
    # one is dependent, so the pair runs yield thousands of subsets each.
    # Each layer's blocks, with their temporaries and the block a consumer
    # holds, and a pair run's tests, stay within _SCAN_BYTES; the subsets
    # of the largest run, held and gathered (24 w bytes each), come on top.
    # Blocks of 2^16 // n prefixes, sized without r, peaked at 9.0 MB at w = 4
    f = gf.get_field(2)
    H = random_code(f, 64, 4, np.random.default_rng(64)).dual().gen.copy()
    assert H.shape == (60, 64)
    H[:, 64 - zeros :] = 0
    largest = [0]  # the subsets each run yields
    pairs = lincode._dependent_pairs

    def counted(*args):
        S = pairs(*args)
        largest.append(len(S))
        return S

    monkeypatch.setattr(lincode, "_dependent_pairs", counted)
    found = []
    peak = _traced_peak(lambda: found.append(sum(1 for _ in _dependent_supports(f, H, w))))
    assert found[0] == found[1] and (max(largest) > 1000) == (zeros > 0)
    assert peak <= (w - 1) * lincode._SCAN_BYTES + 24 * w * max(largest) + 16 * 1024


@pytest.mark.parametrize("head_loop", [False, True], ids=["one-base", "head-loop"])
@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_find_first_of_weight_is_lex_first_over_all_messages(monkeypatch, q, head_loop):
    if head_loop:
        monkeypatch.setattr(lincode, "_SCAN_BYTES", 1)
    f = gf.get_field(q)
    rng = np.random.default_rng(60 + q)
    for _ in range(3):
        gen = rng.integers(0, q, size=(3, 6)).astype(np.uint8)
        first = {}
        # brute force over every message, non-1 leading coefficients included
        for msg in itertools.product(range(q), repeat=3):
            word = oracle_word(f, msg, gen)
            first.setdefault(sum(1 for x in word if x), word)
        for target in range(7):
            got = find_first_of_weight(f, gen, target)
            if target in first:
                assert tuple(int(x) for x in got) == first[target]
            else:
                assert got is None


def test_find_first_of_weight_is_canonical_and_complete():
    f = gf.get_field(2)
    rows = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
    v = find_first_of_weight(f, rows, 2)
    # message order: (0,1) comes before (1,0) and (1,1)
    assert list(v) == [0, 0, 1, 1]
    assert find_first_of_weight(f, rows, 3) is None
    assert list(find_first_of_weight(f, rows, 0)) == [0, 0, 0, 0]


def _held_bytes(a: np.ndarray) -> int:
    """Bytes of the buffer an array keeps alive: its own, or its base's."""
    while a.base is not None:
        a = a.base
    return a.nbytes


def product_span(a, b):
    """The span of every product u*v, u in a and v in b, from their rows' products."""
    return LinearCode(a.field, product_rows(a, b), a.n)


def test_a_code_from_a_tall_generator_holds_only_its_rows():
    # the products of R_7(5,2) and R_7(6,2)-perp have rank 46 from 441 rows
    # of length 49: a generator that were a view of rref's eliminated copy
    # would keep all 441 x 49 bytes alive
    C = product_span(build_grm(7, 2, 5).code, build_grm(7, 2, 6).code.dual())
    assert (C.k, C.n) == (46, 49) and _held_bytes(C.gen) == 46 * 49
    f = gf.get_field(3)
    tall = np.vstack([np.eye(3, 5, dtype=np.uint8)] * 4)
    R, pivots = rref(f, tall)
    assert pivots == (0, 1, 2) and _held_bytes(R) == R.nbytes == 3 * 5
    assert _held_bytes(LinearCode(f, tall).gen) == 3 * 5


def test_product_span_properties():
    f = gf.get_field(3)
    rng = np.random.default_rng(11)
    ones = LinearCode(f, np.ones((1, 6), dtype=np.uint8), 6)
    for _ in range(6):
        A = random_code(f, 6, 2, rng)
        B = random_code(f, 6, 2, rng)
        assert product_span(A, ones) == A
        assert product_span(A, B) == product_span(B, A)
        bigger = LinearCode(f, np.vstack([A.gen, rng.integers(0, 3, size=(1, 6), dtype=np.uint8)]), 6)
        assert product_span(A, B).is_subcode_of(product_span(bigger, B))
    assert product_span(LinearCode.zero_code(f, 6), ones).k == 0


def test_product_span_matches_oracle_products():
    f = gf.get_field(4)
    rng = np.random.default_rng(12)
    A = random_code(f, 5, 2, rng)
    B = random_code(f, 5, 2, rng)
    P = product_span(A, B)
    for a in oracle_codewords(f, A.gen):
        for b in oracle_codewords(f, B.gen):
            prod = f.MUL[list(a), list(b)]
            assert P.contains(prod)


def test_hermitian_dual_basics():
    f4 = gf.get_field(4)
    z = LinearCode.zero_code(f4, 3)
    assert z.hermitian_dual() == full_space(f4, 3)
    # n=1, C = span{(1)}: <1|1>_h = 1 != 0, so the Hermitian dual is zero
    C = LinearCode(f4, np.array([[1]], dtype=np.uint8), 1)
    assert C.hermitian_dual().k == 0
    assert C.hermitian_dual() is C.hermitian_dual()  # memoized


def test_hermitian_dual_weight_equals_euclidean_dual_weight():
    rng = np.random.default_rng(13)
    for q2 in (4, 9):
        f = gf.get_field(q2)
        for _ in range(6):
            C = random_code(f, 5, 2, rng)
            if 0 < C.k < 5:
                wh = C.hermitian_dual().min_weight()[0]
                we = C.dual().min_weight()[0]
                assert wh == we


def reference_restriction(code):
    """Subfield subcode over 2k unknowns: the base-field span of {g_i, gamma*g_i}.

    Needs no RREF generator: coordinates split as a + gamma*b over the base
    field, and the restriction is the part of that span where every b
    coordinate vanishes.
    """
    pair = gf.extension_pair_for(code.field)
    if code.k == 0:
        return LinearCode.zero_code(pair.sub, code.n)
    base_rows = np.vstack([code.gen, code.field.MUL[pair.gamma, code.gen]])
    K = kernel_basis(pair.sub, pair.dec_b[base_rows].T)
    if K.shape[0] == 0:
        return LinearCode.zero_code(pair.sub, code.n)
    return LinearCode(pair.sub, pair.sub.matmul(K, pair.dec_a[base_rows]), code.n)


def trace_code(code):
    """The componentwise trace image of a code over a tower top, over the base field."""
    pair = gf.extension_pair_for(code.field)
    return LinearCode(pair.sub, pair.trace_rows(code.gen), code.n)


def test_trace_code_and_restriction_examples():
    pair = gf.quadratic_extension(2)
    f4 = pair.ext
    # full space traces onto the full space; restriction of full is full
    full = full_space(f4, 3)
    assert trace_code(full) == full_space(pair.sub, 3)
    assert full.restriction() == full_space(pair.sub, 3)
    z = LinearCode.zero_code(f4, 3)
    assert trace_code(z).k == 0 and z.restriction().k == 0
    # D = span{(zeta, zeta)}: scaling by zeta^{-1} keeps (1,1) in D
    zeta = f4.generator
    D = LinearCode(f4, np.array([[zeta, zeta]], dtype=np.uint8), 2)
    R = D.restriction()
    assert R == LinearCode(pair.sub, np.array([[1, 1]], dtype=np.uint8), 2)
    # span{(1, zeta)} has no nonzero word over GF(2): the kernel is empty
    E = LinearCode(f4, np.array([[1, zeta]], dtype=np.uint8), 2)
    assert E.restriction() == LinearCode.zero_code(pair.sub, 2) == reference_restriction(E)


TOWERS = (2, 3, 4, 5, 7, 8)  # base fields of the designated quadratic towers


@pytest.mark.parametrize(
    "q,m", [(q, m) for q in TOWERS for m in (1, 2, 3, 4) if q ** (2 * m) <= 256]
)
def test_restriction_matches_reference_on_grm_codes(q, m):
    q2 = q * q
    for nu in range(m * (q2 - 1) + 1):
        C = build_grm(q2, m, nu).code
        R = C.restriction()
        assert R == reference_restriction(C)
        # memoized on the shared code; an uncached copy computes the same code
        assert C.restriction() is R is build_grm(q2, m, nu).code.restriction()
        assert R == LinearCode(C.field, C.gen.copy()).restriction()
        # the constants lie in every GRM code and are over GF(q)
        assert R.contains(np.ones(C.n, dtype=np.uint8))


@pytest.mark.parametrize("q", TOWERS)
def test_restriction_matches_reference_with_planted_base_rows(q):
    pair = gf.quadratic_extension(q)
    f = pair.ext
    rng = np.random.default_rng(500 + q)
    for n, planted, extra in ((1, 1, 0), (5, 1, 1), (9, 3, 2), (16, 4, 5), (40, 6, 10)):
        base = rng.integers(0, q, size=(planted, n)).astype(np.uint8)
        base[np.arange(planted), np.arange(planted) % n] = 1
        ext_rows = rng.integers(0, f.q, size=(extra, n)).astype(np.uint8)
        C = LinearCode(f, np.vstack([pair.emb[base], ext_rows]), n)
        R = C.restriction()
        assert R == reference_restriction(C)
        planted_code = LinearCode(pair.sub, base, n)
        assert planted_code.k > 0 and planted_code.is_subcode_of(R)


@pytest.mark.parametrize("q", TOWERS)
def test_restriction_matches_reference_at_the_extremes(q):
    # k = n has no free column: the restriction is the whole base space.
    # G = [I | X + gamma Y] with Y of full row rank has dec_b[G] of rank k on
    # the free columns, so no nonzero base message survives: it is zero.
    pair = gf.quadratic_extension(q)
    ext, sub = pair.ext, pair.sub
    rng = np.random.default_rng(700 + q)
    for n in (1, 7):
        full = full_space(ext, n)
        assert full.restriction() == reference_restriction(full) == full_space(sub, n)
    for k, n in ((1, 2), (3, 8), (5, 10)):
        X, Y = (rng.integers(0, q, size=(k, n - k)).astype(np.uint8) for _ in range(2))
        Y[:, :k] = np.eye(k, dtype=np.uint8)
        right = ext.ADD[pair.emb[X], ext.MUL[pair.gamma, pair.emb[Y]]]
        C = LinearCode(ext, np.hstack([np.eye(k, dtype=np.uint8), right]), n)
        assert C.k == k
        assert C.restriction() == reference_restriction(C) == LinearCode.zero_code(sub, n)


@pytest.mark.parametrize("q", TOWERS)
def test_restriction_matches_reference_on_random_codes(q):
    # the kernel over the n - k free columns against the 2k-unknown reference;
    # k close to n forces a restriction of dimension at least 2k - n
    pair = gf.quadratic_extension(q)
    rng = np.random.default_rng(600 + q)
    for n, rows in ((1, 0), (1, 1), (4, 2), (6, 6), (9, 3), (12, 11), (20, 17), (33, 30)):
        C = LinearCode(pair.ext, rng.integers(0, pair.ext.q, size=(rows, n)).astype(np.uint8), n)
        R = C.restriction()
        assert R == reference_restriction(C)
        assert R.k >= 2 * C.k - n
        assert np.array_equal(R.gen, reference_rref(pair.sub, R.gen)[0])
        assert R.pivots == reference_rref(pair.sub, R.gen)[1]


def test_restriction_codewords_are_exactly_subfield_codewords():
    rng = np.random.default_rng(14)
    for base_q in (2, 3):
        pair = gf.quadratic_extension(base_q)
        f = pair.ext
        for _ in range(6):
            D = random_code(f, 4, 2, rng)
            R = D.restriction()
            subwords = {
                w
                for w in oracle_codewords(f, D.gen)
                if all(pair.emb_inv[x] >= 0 for x in w)
            }
            down = {
                tuple(int(pair.emb_inv[x]) for x in w) for w in subwords
            }
            assert oracle_codewords(pair.sub, R.gen) == down


def test_delsarte_identity_random_codes():
    rng = np.random.default_rng(15)
    for base_q in (2, 3):
        pair = gf.quadratic_extension(base_q)
        f = pair.ext
        for _ in range(20):
            n = int(rng.integers(2, 8))
            D = random_code(f, n, int(rng.integers(1, n + 1)), rng)
            assert trace_code(D).dual() == D.dual().restriction()


def test_punctured_to_and_scaled_by():
    f = gf.get_field(3)
    C = LinearCode(f, np.array([[1, 0, 1, 2], [0, 1, 1, 1]], dtype=np.uint8), 4)
    P = C.punctured_to([0, 2, 3])
    assert P.n == 3 and P.k == 2
    x = np.array([1, 2, 1, 1], dtype=np.uint8)
    S = C.scaled_by(x)
    for w in oracle_codewords(f, C.gen):
        scaled = f.MUL[list(w), x]
        assert S.contains(scaled)


def test_kernel_basis_of_empty_matrix_is_identity():
    f = gf.get_field(3)
    K = kernel_basis(f, np.zeros((0, 4), dtype=np.uint8))
    assert np.array_equal(K, np.eye(4, dtype=np.uint8))
