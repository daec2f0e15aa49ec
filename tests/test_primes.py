import bisect
import dataclasses
import itertools
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semipi.primes as primes_module
from reference_impls import (
    textbook_primes,
    textbook_quotient_pi,
    trial_is_prime,
    trial_pi,
    trial_primes,
)
from semipi import (
    InternalConsistencyError,
    PrimeTable,
    QuotientPiTable,
    RangeError,
    ResourceLimitError,
    SUPPORTED_MAX_N,
    build_prime_table,
    build_quotient_pi,
    isqrt,
    quotient_tables,
)


# ---------------------------------------------------------------------------
# isqrt


@pytest.mark.parametrize(
    "n,expected",
    [(0, 0), (1, 1), (24, 4), (25, 5), (26, 5), (10**18, 10**9), (10**18 - 1, 10**9 - 1)],
)
def test_isqrt_known_values(n, expected):
    assert isqrt(n) == expected


def test_isqrt_rejects_negative():
    with pytest.raises(RangeError):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_isqrt_bracketing(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


def test_isqrt_bracketing_bulk():
    rng = random.Random(0xC0FFEE)
    for _ in range(1_000_000):
        n = rng.randrange(2**63)
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


# ---------------------------------------------------------------------------
# PrimeTable


def test_build_prime_table_small():
    t = build_prime_table(5)
    assert t.primes.tolist() == [2, 3, 5]
    assert t.pi(5) == 3


def test_build_prime_table_limit_one():
    t = build_prime_table(1)
    assert t.primes.tolist() == []
    assert t.pi_dense.tolist() == [0, 0]


def test_build_prime_table_peak_is_the_table_it_keeps():
    # pi_dense is written RUN_CHUNK runs between primes at a time, and the
    # sieve holds one block, so the peak is the table kept plus one chunk's
    # temporaries, with no second limit-sized array (a mask or a full
    # repeat) beside it.  At 10**7 a full repeat's counts and values alone
    # would be 7.6 MiB.
    for limit, scale, extra in ((10**6, 1.25, 0), (10**7, 1, 2 * 2**20)):
        tracemalloc.start()
        try:
            t = build_prime_table(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scale * (t.pi_dense.nbytes + t.primes.nbytes) + extra, limit


def test_build_quotient_pi_peak_is_about_its_tables():
    # The loop holds quot, larges above its int64 head and smalls, all
    # int32, and an int32 row of r // 2 + 1 entries, about 14 bytes per
    # root entry.  The peak is the join after it: the int64 larges (8)
    # beside smalls and its int64 cast (4 + 8), about 20 bytes per root
    # entry, against the 16 of the tables it returns, plus the root
    # primes and scratch rows of at most FAR_BLOCK entries.
    for n in (10**8, 10**10, 10**11):
        tracemalloc.start()
        try:
            q = build_quotient_pi(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (q.smalls.nbytes + q.larges.nbytes) + 2**20, n


def test_prime_table_pi_100():
    assert build_prime_table(100).pi(100) == 25 == trial_pi(100)


def test_prime_table_matches_trial_division_exhaustively():
    limit = 10**4
    t = build_prime_table(limit)
    assert t.primes.tolist() == trial_primes(limit)
    # pi_dense steps by one exactly at primes, is 0 at 0 and 1
    diffs = np.diff(t.pi_dense)
    assert t.pi_dense[0] == t.pi_dense[1] == 0
    assert set(np.unique(diffs).tolist()) <= {0, 1}
    step_positions = (np.flatnonzero(diffs) + 1).tolist()
    assert step_positions == t.primes.tolist()


# The odd-only sieve holds one bool per odd number, in blocks of S entries,
# each a slice of a pattern that repeats every 2 * _ODD_WHEEL integers.
S = primes_module.SIEVE_SEGMENT
WHEEL_SPAN = 2 * primes_module._ODD_WHEEL
# The largest base prime of a limit past the first block: 2039^2 > 2 * S.
LAST_BASE = trial_primes(isqrt(4 * S + 1))[-1]
# The primes that end the first and second chunk of runs of pi_dense, where
# a limit's prime count is a multiple of RUN_CHUNK.
CHUNK_ENDS = textbook_primes(10**5)[[k * primes_module.RUN_CHUNK - 1 for k in (1, 2)]]
SIEVE_EDGES = sorted({
    # Pattern periods, the last one in the second block.
    *(k * WHEEL_SPAN + e for k in (1, 2, 3, 70) for e in (-2, -1, 0, 1, 2)),
    # The odd number 2 * S + 1 is the second block's first entry.
    *range(2 * S - 1, 2 * S + 4),
    4 * S - 1,
    4 * S + 1,
    # Squares of the first base primes above the pattern, and of the last.
    *(p * p + e for p in (17, 19, 23, LAST_BASE) for e in (-1, 0, 1, 2)),
    *(int(p) + e for p in CHUNK_ENDS for e in (-1, 0, 1)),
})


@pytest.mark.parametrize("period", [7, 100])
@pytest.mark.parametrize("periods, extra", [(0, 0), (1, -1), (1, 5)])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 131])
def test_tiled_blocks(monkeypatch, period, periods, extra, count):
    # Blocks of at most 64 entries of the tiling from entry `first` on,
    # every one a view of one row: both sieves write into their blocks,
    # and no write may reach a later block's values.
    monkeypatch.setattr(primes_module, "SIEVE_SEGMENT", 64)
    first = periods * period + extra
    pattern = np.arange(period)
    got, rows = [], []
    for block in primes_module._tiled_blocks(pattern, first, count):
        assert len(block) <= 64
        got.append(block.copy())
        rows.append(block.base)
        block[:] = -1
    assert np.array_equal(np.concatenate(got), np.resize(pattern, first + count)[first:])
    assert rows[0] is not None and all(row is rows[0] for row in rows)
    assert np.array_equal(pattern, np.arange(period))


def test_scratch_lends_each_holder_its_own_row():
    # Two holders at once get two rows; a row comes back on exit and is
    # lent again, and a longer need takes a new row in its place.
    with primes_module._scratch(np.int16, 10) as a, primes_module._scratch(np.int16, 5) as b:
        assert len(a) == 10 and len(b) == 5 and not np.shares_memory(a.base, b.base)
    with primes_module._scratch(np.int16, 8) as c:
        assert len(c) == 8 and c.base is a.base
    with primes_module._scratch(np.int16, 12) as d:
        assert len(d) == 12 and d.base is not a.base


def test_warm_one_block_primes_allocate_only_their_result():
    # The block row outlives the call, so a warm one-block sieve allocates
    # its result and a few small rows: the wheel pattern (29 KiB) and the
    # base primes' offsets.
    for limit in ((3 * 10**6 + 17) // 2, 2 * primes_module.SIEVE_SEGMENT - 1):
        primes_module._primes(limit)
        tracemalloc.start()
        try:
            got = primes_module._primes(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + 64 * 2**10, limit


@pytest.mark.parametrize(
    "lo",
    [
        1, 3, 9, 13, 15,
        2 * 12345 + 1,  # inside the first block
        2 * primes_module._ODD_WHEEL - 1,
        2 * primes_module._ODD_WHEEL + 1,  # the first entry of a pattern period
        2 * primes_module.SIEVE_SEGMENT - 1,
        2 * primes_module.SIEVE_SEGMENT + 1,  # the first entry of _primes' second block
    ],
)
def test_prime_blocks_from_any_odd_lo(lo):
    hi = 6 * primes_module.SIEVE_SEGMENT + 11
    blocks = list(primes_module._prime_blocks(lo, hi))
    assert len(blocks) == -(-((hi + 1) // 2 - lo // 2) // primes_module.SIEVE_SEGMENT)
    assert all(b.dtype == np.int64 for b in blocks)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(blocks, 2))
    want = primes_module._primes(hi)
    assert np.array_equal(np.concatenate(blocks), want[want >= lo])


def test_prime_blocks_over_small_ranges():
    want = trial_primes(400)
    for lo in range(1, 200, 2):
        for hi in range(max(lo, 2), lo + 200, 3):
            got = np.concatenate([np.zeros(0, np.int64), *primes_module._prime_blocks(lo, hi)])
            assert got.tolist() == [p for p in want if lo <= p <= hi], (lo, hi)


def test_two_live_sieve_walks_of_one_dtype(monkeypatch):
    # Two uint8 walks in lockstep hold a row each, and yield what each
    # yields alone.
    monkeypatch.setattr(primes_module, "SIEVE_SEGMENT", 1000)
    base = primes_module._primes(isqrt(30000))
    ones = np.ones(len(base), dtype=np.uint8)

    def walk(lo, hi, step):
        b = base[step - 1 :]
        return primes_module._sieve_blocks(lo, hi, b, ones[step - 1 :], np.add, step)

    cases = [(1, 20001, 2), (5000, 30000, 1)]
    alone = [[(start, h.copy()) for start, h in walk(*case)] for case in cases]
    together = [[], []]
    for pair in itertools.zip_longest(*(walk(*case) for case in cases)):
        for got, item in zip(together, pair):
            if item is not None:
                got.append((item[0], item[1].copy()))
    for a, b in zip(alone, together):
        assert [s for s, _ in a] == [s for s, _ in b] and len(a) > 5
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))


def test_primes_match_trial_division_up_to_3000():
    want = trial_primes(3000)
    for limit in range(3001):
        got = primes_module._primes(limit)
        assert got.dtype == np.int64, limit
        assert got.tolist() == want[: bisect.bisect_right(want, limit)], limit


@pytest.mark.parametrize("limit", SIEVE_EDGES)
def test_primes_and_dense_table_at_sieve_edges(limit):
    got = primes_module._primes(limit)
    assert got.dtype == np.int64
    assert np.array_equal(got, textbook_primes(limit))
    t = build_prime_table(limit)
    assert np.array_equal(t.primes, got)
    # pi_dense starts at 0 and steps by 1 exactly at the primes.
    steps = np.diff(t.pi_dense)
    assert t.pi_dense[0] == 0 and set(np.unique(steps).tolist()) <= {0, 1}
    assert np.array_equal(np.flatnonzero(steps) + 1, got)
    assert len(t.pi_dense) == limit + 1 and t.pi_dense[-1] == len(got)


def test_prime_table_primes_strictly_increasing_and_prime(dense_10k):
    p = dense_10k.primes
    assert (np.diff(p) > 0).all()
    rng = random.Random(7)
    for k in rng.sample(range(len(p)), 200):
        assert trial_is_prime(int(p[k]))


def test_prime_table_is_immutable(dense_10k):
    with pytest.raises(ValueError):
        dense_10k.primes[0] = 4
    with pytest.raises(ValueError):
        dense_10k.pi_dense[10] = 99


def test_build_prime_table_budget_errors():
    # The guard raises before the sieve allocates, so the real budget is testable.
    with pytest.raises(ResourceLimitError, match=f"budget {2**31}"):
        build_prime_table(2**31 + 1)
    with pytest.raises(RangeError):
        build_prime_table(0)


# ---------------------------------------------------------------------------
# pi at a rational argument: pi(a/b) = pi(a // b)


@pytest.mark.parametrize("num,den,expected", [(25, 2, 5), (25, 3, 4), (25, 11, 1)])
def test_pi_floor_quarter_values(dense_10k, num, den, expected):
    assert dense_10k.pi(num // den) == expected


def test_pi_floor_exhaustive_small(dense_10k):
    primes = trial_primes(1024)
    for a in range(1, 1025):
        for b in range(1, a + 1):
            assert dense_10k.pi(a // b) == bisect.bisect_right(primes, a // b)


@given(st.integers(min_value=1, max_value=10**4), st.data())
def test_pi_floor_matches_dense(dense_10k, a, data):
    b = data.draw(st.integers(min_value=1, max_value=a))
    assert dense_10k.pi(a // b) == int(dense_10k.pi_dense[a // b])


def test_pi_floor_errors(dense_10k):
    with pytest.raises(RangeError):
        dense_10k.pi(10**5 // 1)  # quotient beyond table limit
    with pytest.raises(RangeError):
        dense_10k.pi(-1)


# ---------------------------------------------------------------------------
# the k-th prime: primes[k - 1]


@pytest.mark.parametrize("k,expected", [(1, 2), (2, 3), (3, 5), (25, 97)])
def test_nth_prime_values(dense_10k, k, expected):
    assert dense_10k.primes[k - 1] == expected


def test_nth_prime_out_of_range(dense_10k):
    # k runs over 1..pi(limit); the last k holds the largest prime <= limit
    assert len(dense_10k.primes) == dense_10k.pi(dense_10k.limit) == 1229
    assert dense_10k.primes[-1] == 9973
    with pytest.raises(IndexError):
        dense_10k.primes[len(dense_10k.primes)]


# ---------------------------------------------------------------------------
# QuotientPiTable


def quotient_set(n: int) -> list[int]:
    """Every distinct floor(n/d), d = 1..n, ascending."""
    return sorted({n // d for d in range(1, n + 1)})


def test_quotient_table_n25_golden():
    q = build_quotient_pi(25)
    assert quotient_set(25) == [1, 2, 3, 4, 5, 6, 8, 12, 25]
    m = {v: q.pi(v) for v in quotient_set(25)}
    assert m[12] == 5 and m[8] == 4 and m[5] == 3 and m[3] == 2 and m[2] == 1
    assert m[1] == 0


def test_quotient_table_n1():
    q = build_quotient_pi(1)
    assert {v: q.pi(v) for v in quotient_set(1)} == {1: 0}


def test_quotient_table_pi_of_n_at_1e6():
    q = build_quotient_pi(10**6)
    # independent dense sieve count of primes <= 10^6
    assert q.pi(10**6) == int(build_prime_table(10**6).pi_dense[-1]) == 78498


def test_quotient_table_every_quotient_is_covered(dense_10k):
    for n in (1, 2, 3, 4, 30, 100, 9973):
        q = build_quotient_pi(n)
        for d in range(1, n + 1):
            assert q.pi(n // d) == dense_10k.pi(n // d)  # must not raise


def test_quotient_table_rejects_non_quotient_points():
    q = build_quotient_pi(25)
    with pytest.raises(RangeError):
        q.pi(13)  # 25 // 13 == 1 and 25 // 1 == 25 != 13
    with pytest.raises(RangeError):
        q.pi(-1)
    with pytest.raises(RangeError):
        q.pi(26)  # beyond n


def test_quotient_table_matches_dense_for_all_small_n(dense_10k):
    # every floor(n/d) must agree with an independent dense sieve
    pd = dense_10k.pi_dense
    for n in range(1, 10**4 + 1):
        q = build_quotient_pi(n)
        r = q.root
        assert np.array_equal(q.smalls, pd[: r + 1])
        d = np.arange(1, r + 2, dtype=np.int64)
        assert np.array_equal(q.larges[1:], pd[n // d])


def test_quotient_table_nondecreasing_and_zero_at_one():
    for n in (1, 7, 360, 10**5 + 7):
        q = build_quotient_pi(n)
        vals = [q.pi(v) for v in quotient_set(n)]
        assert vals[0] == q.pi(1) == 0
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def recurrence_edge_ns(limit: int) -> list[int]:
    """n <= limit at the edges of the recurrence, plus seeded random n."""
    rng = random.Random(11)
    ns = [1, 2, 3, 4, 25, 10**5, limit]
    ns += [rng.randrange(1, 10**5) for _ in range(50)]
    ns += [rng.randrange(1, limit + 1) for _ in range(200)]
    # Edges of the recurrence: at n = p^2 p joins the root primes, at
    # n = p^3 it leaves the batched band for the per-prime loop; plus
    # roots that are multiples of p.
    for p in trial_primes(math.isqrt(limit)):
        if p**3 <= limit:
            ns += [p * p - 1, p * p, p**3 - 1, p**3, p**3 + 1]
        m = math.isqrt(limit) // p * p  # largest multiple of p with m^2 <= limit
        ns += [m * m, min((m + 1) ** 2 - 1, limit)]
    # Edges of the smalls step, for the p with p^2 <= isqrt(limit): roots
    # r with p | r + 1 leave no partial row, and r = p^2 steps one entry.
    for p in trial_primes(math.isqrt(math.isqrt(limit))):
        r = (math.isqrt(limit) + 1) // p * p - 1  # largest r with p | r + 1
        ns += [r * r, min((r + 1) ** 2 - 1, limit), p**4, (p * p + 1) ** 2 - 1]
    return ns


def test_from_dense_is_bit_identical_to_recurrence(dense_10m):
    for n in recurrence_edge_ns(dense_10m.limit):
        a = build_quotient_pi(n)
        b = QuotientPiTable.from_dense(n, dense_10m)
        assert_same_table(b, a)
        assert b.dense is dense_10m and a.dense is None
    # dense is kept out of repr and ==.
    assert "dense" not in repr(b)
    assert dataclasses.replace(b, dense=None) == b


def test_from_dense_views_the_shared_prefix_on_both_sides_of_squares(dense_10m):
    # A root prime joins at n = p^2 and the root steps at n = (r + 1)^2;
    # on both sides of each, up to 10**7, the table equals the recurrence's
    # and its smalls is a view of the dense table's one int64 prefix, not a
    # copy made per n.
    limit = dense_10m.limit
    ns = {p * p + e for p in trial_primes(isqrt(limit)) for e in (-1, 0, 1)}
    ns |= {(r + 1) ** 2 - 1 + e for r in range(1, isqrt(limit), 7) for e in (-1, 0, 1)}
    for n in sorted(m for m in ns if 1 <= m <= limit):
        b = QuotientPiTable.from_dense(n, dense_10m)
        assert_same_table(b, build_quotient_pi(n))
        assert np.shares_memory(b.smalls, dense_10m.pi_prefix), n


def test_prime_table_rows_for_from_dense():
    for limit in (1, 2, 3, 24, 25, 3000, 10**6):
        t = build_prime_table(limit)
        root = isqrt(limit)
        assert t.pi_prefix.dtype == np.int64 and t.divisors.dtype == np.float64
        assert np.array_equal(t.pi_prefix, t.pi_dense[: root + 1])
        assert np.array_equal(t.divisors, np.arange(1, root + 2))
        assert not t.pi_prefix.flags.writeable and not t.divisors.flags.writeable
    # Derived from the other fields: not arguments, and not in repr.
    assert "pi_prefix" not in repr(t) and "divisors" not in repr(t)
    with pytest.raises(TypeError):
        PrimeTable(limit=1, primes=t.primes, pi_dense=t.pi_dense, pi_prefix=t.pi_prefix)


@pytest.mark.parametrize("ns", [range(1, 3001), range(2**31 - 2000, 2**31 + 1)])
def test_dense_quotients_are_exact_floor_division(ns):
    # from_dense's float division must floor to n // d for every d it
    # reads, 1..isqrt(n) + 1, up to MAX_DENSE_LIMIT = 2**31.
    assert ns[-1] <= primes_module.MAX_DENSE_LIMIT
    top = isqrt(ns[-1]) + 1
    exact = np.arange(1, top + 1, dtype=np.int64)
    divisors = exact.astype(np.float64)
    for n in ns:
        count = isqrt(n) + 1
        got = primes_module._dense_quotients(n, divisors[:count])
        assert got.dtype == np.int64
        assert np.array_equal(got, n // exact[:count]), n


@pytest.mark.parametrize(
    "far,band,start,stride", [(2, 3, 0, 64), (3, 2, 1, 64), (7, 5, 2, 16), (61, 127, 3, 4)]
)
def test_recurrence_is_bit_identical_across_block_edges(
    dense_10m, monkeypatch, far, band, start, stride
):
    # At the real sizes the near and far steps leave their first block
    # only when p = 3's far step, r - r // 3 entries, exceeds FAR_BLOCK:
    # from about n = 2.4 * 10**9.  With blocks of a few entries the
    # inputs here cross block edges; the smaller the blocks, the slower
    # the build, so the fewer of the inputs each case takes.
    monkeypatch.setattr(primes_module, "FAR_BLOCK", far)
    monkeypatch.setattr(primes_module, "BAND_BLOCK", band)
    for n in recurrence_edge_ns(dense_10m.limit)[start::stride]:
        assert_same_table(build_quotient_pi(n), QuotientPiTable.from_dense(n, dense_10m))


@pytest.mark.parametrize(
    "bound,far,start,stride", [(2**10, 2**15, 0, 4), (2**14, 7, 1, 16), (2**17, 61, 2, 8)]
)
def test_recurrence_is_bit_identical_with_a_wide_int64_head(
    dense_10m, monkeypatch, bound, far, start, stride
):
    # At the real INT32_BOUND = 2**31 the int64 head of larges, d < t =
    # n // 2**31 + 1, holds far entries only above about 1.6 * 10**11.
    # With a lower bound, at these n below 10**7 it holds near entries
    # that read the head and near entries that read the int32 entries,
    # far entries, entries over many FAR_BLOCK lengths, and at 2**10 all
    # of larges; the int32 entries' blocks start at t, off the block grid.
    monkeypatch.setattr(primes_module, "INT32_BOUND", bound)
    monkeypatch.setattr(primes_module, "FAR_BLOCK", far)
    ns = recurrence_edge_ns(dense_10m.limit)[start::stride]
    # Some head holds far entries: r // p < d <= min(n // p^2, t - 1) for
    # a p with p^3 <= n, all of them below 216 here.
    steps = trial_primes(215)
    assert any(
        isqrt(n) // p < min(n // (p * p), n // bound) for n in ns for p in steps if p**3 <= n
    )
    for n in ns:
        assert_same_table(build_quotient_pi(n), QuotientPiTable.from_dense(n, dense_10m))


def recurrence_cases(n: int, bound: int, block: int) -> set[str]:
    """The split points of the per-prime loop and the band that n reaches.

    Worked out from n, INT32_BOUND and FAR_BLOCK alone: t splits larges
    into head and body, the j-th loop prime p (p^3 <= n) steps the d <=
    dmax_j = min(r, n // p^2), its near d <= r // p read live entries up
    to d = dmax_j // p, and after its step the d in (dmax_(j+1), dmax_j]
    retire, with dmax = 0 after the last loop prime.  The head's near d
    with d*p < t read head entries.
    """
    r = isqrt(n)
    t = min(n // bound + 1, r + 1)
    primes = trial_primes(r)
    loop = [p for p in primes if p**3 <= n]
    band = primes[len(loop) :]
    dmaxes = [min(r, n // (p * p)) for p in loop] + [0]
    cases = set()
    for j, p in enumerate(loop):
        dmax, nxt = dmaxes[j], dmaxes[j + 1]
        split = dmax // p + 1  # the first near d whose read is retired
        if 0 < nxt < dmax and nxt + 1 < t:
            cases.add("a retirement in the head")
        if nxt == dmax:
            cases.add("an empty retirement")
        if t < split <= r // p and (split - t) % block:
            cases.add("a live/retired split inside a near block")
        if split <= min(r // p, (t - 1) // p):
            cases.add("a retired read of a head entry")
    if not band:
        cases.add("an empty band")
    elif n // band[0] ** 2 == 1:
        cases.add("a band whose top d is 1")
    return cases


@pytest.mark.parametrize("bound,far", [(2**14, 7), (2**31, 61), (2**31, 2**15)])
def test_recurrence_reaches_every_live_and_retired_split(dense_10m, monkeypatch, bound, far):
    # Each split of the per-prime loop's live and retired entries, and
    # each edge of the band's once-per-d pi(p - 1) sum, on inputs shown
    # to reach it.  Below 10**7 only a low INT32_BOUND makes a head that
    # the next prime's dmax falls inside.
    monkeypatch.setattr(primes_module, "INT32_BOUND", bound)
    monkeypatch.setattr(primes_module, "FAR_BLOCK", far)
    ns = [1, 2, 3, 4, 7, 8, 9, 17, 10**6 + 3, 3 * 10**6 + 1, 10**7 - 1]
    reached = set().union(*(recurrence_cases(n, bound, far) for n in ns))
    assert reached >= {"an empty retirement", "an empty band", "a band whose top d is 1"}
    if bound < 2**31:
        assert reached >= {"a retirement in the head", "a retired read of a head entry"}
    else:
        assert "a live/retired split inside a near block" in reached
    for n in ns:
        assert_same_table(build_quotient_pi(n), QuotientPiTable.from_dense(n, dense_10m))


@pytest.mark.parametrize(
    "n",
    [
        2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1, 2**31, 2**31 + 1,
        2**32 - 1, 2**32 + 15, 3 * 2**31 - 1, 3 * 2**31 + 1,
    ],
)
def test_recurrence_matches_the_textbook_recurrence_at_real_block_sizes(n):
    # r = 2**15 = FAR_BLOCK at 2**30; at 2**32 + 15, r = 2**16 and the
    # p = 2 steps fill one block each exactly, and p = 3's far step
    # crosses a block edge.  larges is int32 from t = n // 2**31 + 1 on:
    # t = 1 up to 2**31 - 1, then an int64 head of t - 1 entries, one at
    # 2**31, 2**31 + 1 and 2**32 - 1, two at 3 * 2**31 - 1 and three at
    # 3 * 2**31 + 1, where larges[3] starts at 2**31, one above the int32
    # range.  At 2**32 - 1 and 3 * 2**31 - 1, quot[t] = n // t = 2**31 - 1,
    # the largest value the far step's uint32 view of quot holds.
    q = build_quotient_pi(n, max_n=n)
    smalls, larges = textbook_quotient_pi(n)
    for got, want in ((q.smalls, smalls), (q.larges, larges)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)
    assert np.array_equal(q.root_primes, textbook_primes(q.root))


def test_from_dense_requires_coverage(dense_10k):
    with pytest.raises(RangeError):
        QuotientPiTable.from_dense(10**4 + 1, dense_10k)


def test_quotient_table_root_primes(dense_10k):
    q = build_quotient_pi(10**4)
    assert q.root_primes.tolist() == trial_primes(100)


def test_build_quotient_pi_range_guard():
    with pytest.raises(RangeError):
        build_quotient_pi(0)
    with pytest.raises(RangeError, match="max_n"):
        build_quotient_pi(SUPPORTED_MAX_N + 1)
    # override lets larger n through the guard, but not the memory budget,
    # which raises before anything is allocated
    n = (2**25 + 1) ** 2
    with pytest.raises(ResourceLimitError, match=f"budget {2**25}"):
        build_quotient_pi(n, max_n=n)


def test_quotient_table_immutable():
    q = build_quotient_pi(100)
    with pytest.raises(ValueError):
        q.smalls[0] = 1
    with pytest.raises(ValueError):
        q.larges[1] = 1


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=3000))
def test_quotient_pi_agrees_with_dense_hypothesis(dense_10k, n):
    q = build_quotient_pi(n)
    for v in quotient_set(n):
        assert q.pi(v) == int(dense_10k.pi_dense[v])


# ---------------------------------------------------------------------------
# quotient_tables: every table of a range from one anchor


def assert_same_table(got: QuotientPiTable, want: QuotientPiTable) -> None:
    """Equal n and root, and arrays equal in values, int64 and read-only;
    got's arrays are contiguous, as the formulas' slices expect."""
    assert (got.n, got.root) == (want.n, want.root)
    for name in ("smalls", "larges", "root_primes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, (got.n, name)
        assert np.array_equal(a, b), (got.n, name)
        assert not a.flags.writeable and not b.flags.writeable, (got.n, name)
        assert a.flags.c_contiguous, (got.n, name)


def check_range(ns: range, reference) -> list[QuotientPiTable]:
    tables = list(quotient_tables(ns))
    assert [t.n for t in tables] == list(ns)
    for t in tables:
        assert_same_table(t, reference(t.n))
    return tables


@pytest.mark.parametrize("r", [3163, 31623])
def test_quotient_tables_cross_a_square(r):
    # At n = r^2, smalls, larges and root_primes each gain an entry.
    tables = check_range(range(r * r - 30, r * r + 31), build_quotient_pi)
    assert tables[29].root == r - 1 and tables[30].root == r


def test_quotient_tables_at_1e10_cross_a_square():
    """r^2 - 30 .. r^2 + 40 for r = 10^5, so the window 10^10 .. 10^10 + 40 too.

    Above 2^31 the step sieve's smooth parts are int64.  The last table
    is compared entry by entry inside quotient_tables; every fifth table
    and every table within 3 of the square are compared here, which
    keeps the test to about 25 builds of 10^10.
    """
    r = 10**5
    for t in quotient_tables(range(r * r - 30, r * r + 41)):
        if abs(t.n - r * r) <= 3 or t.n % 5 == 0:
            assert_same_table(t, build_quotient_pi(t.n))


def test_quotient_tables_above_the_dense_limit():
    check_range(range(10**7 + 1, 10**7 + 301), build_quotient_pi)


@pytest.mark.parametrize("q", [3163, 31627, 99991])
def test_quotient_tables_step_bound_is_exact(q):
    # A base prime q steps larges[d] at m = q * d for d <= q + 1 only:
    # m = q(q + 1) takes the step d = q + 1, and m = q(q + 2) must not
    # take d = q + 2.  Both m are above the dense limit.
    assert trial_is_prime(q)
    for m in (q * (q + 1), q * (q + 2)):
        check_range(range(m - 3, m + 4), build_quotient_pi)


def test_quotient_tables_around_prime_cubes(dense_10m):
    # At n = p^3 the recurrence moves p from its batched band to its
    # per-prime loop; the derived tables must not notice.
    primes = trial_primes(4641)
    for p in primes:
        if p**3 + 5 <= dense_10m.limit:
            check_range(
                range(p**3 - 5, p**3 + 6), lambda n: QuotientPiTable.from_dense(n, dense_10m)
            )
    # Above 10^7: the last table is checked inside quotient_tables, p^3 here.
    big = [p for p in primes if 10**7 < p**3 < 10**10]
    assert primes[-1] == 4639  # the largest p with p^3 < 10^11
    for p in random.Random(13).sample(big, 4) + [primes[-1]]:
        for t in quotient_tables(range(p**3 - 5, p**3 + 6)):
            if t.n == p**3:
                assert_same_table(t, build_quotient_pi(t.n))


def test_quotient_tables_random_windows(dense_10m):
    rng = random.Random(2024)
    for _ in range(40):
        a, width, step = rng.randrange(1, 10**6), rng.randrange(0, 120), rng.choice([1, 1, 2, 9])
        check_range(
            range(a, a + width + 1, step), lambda n: QuotientPiTable.from_dense(n, dense_10m)
        )


def test_quotient_tables_one_n_and_a_strided_pair():
    check_range(range(10**8 + 7, 10**8 + 8), build_quotient_pi)
    check_range(range(10**6 - 1, 10**6 + 10**5, 10**5), build_quotient_pi)
    check_range(range(1, 3), build_quotient_pi)


@pytest.mark.parametrize("width", [2, 7, 50])
def test_quotient_tables_tiny_walks(width):
    # From every ns[0] in 1..40: across m = 6, the one m with two steps,
    # and the squares up to 89, where smalls and larges grow.
    for a in range(1, 41):
        check_range(range(a, a + width), build_quotient_pi)


def brute_steps(lo: int, hi: int) -> list[tuple[int, int]]:
    """The (m, d) of every walk step in [lo, hi] by trial division:
    d <= isqrt(m) + 1 with m / d a prime factor q of m."""
    steps = []
    for m in range(lo, hi + 1):
        rest, qs = m, []
        for p in range(2, math.isqrt(m) + 1):
            if p * p > rest:
                break
            if rest % p == 0:
                qs.append(p)
                while rest % p == 0:
                    rest //= p
        qs += [rest] * (rest > 1)
        steps += sorted((m, m // q) for q in qs if m // q <= math.isqrt(m) + 1)
    return steps


@pytest.mark.parametrize(
    "lo,hi",
    [(1, 3000), (10**8 - 1000, 10**8 + 1000), (3163 * 3164 - 3, 3163 * 3164 + 3)],
)
def test_walk_steps_are_every_prime_quotient_step(lo, hi):
    # 3163 is prime, so m = 3163 * 3164 takes the base-prime step d = q + 1.
    base = primes_module._primes(isqrt(hi))
    got, start = [], lo
    for end, ms, ds in primes_module._walk_steps(lo, hi, base):
        assert ms.dtype == np.int64 and ds.dtype == np.int32  # hi < 2**31
        assert np.all(np.diff(ms) >= 0) and np.all((start <= ms) & (ms < end))
        got += sorted(zip(ms.tolist(), ds.tolist()))
        start = end
    assert start == hi + 1
    assert got == brute_steps(lo, hi)
    if lo <= 6:
        assert [d for m, d in got if m == 6] == [2, 3]
    if lo < 3163 * 3164 <= hi:
        assert (3163 * 3164, 3164) in got


def test_two_quotient_table_walks_zipped(monkeypatch):
    # Each walk's smooth parts come in blocks of its own int32 row, so two
    # walks in lockstep yield the tables that each yields alone.
    monkeypatch.setattr(primes_module, "SIEVE_SEGMENT", 64)
    ranges = [range(10**7 + 1, 10**7 + 501), range(2 * 10**7 + 1, 2 * 10**7 + 801, 2)]
    alone = [list(quotient_tables(ns)) for ns in ranges]
    together = [[], []]
    for pair in itertools.zip_longest(*(quotient_tables(ns) for ns in ranges)):
        for got, table in zip(together, pair):
            if table is not None:
                got.append(table)
    for a, b in zip(alone, together):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_table(y, x)

INT32_EDGE_WALKS = [
    ("ns0-int32", range(2**31 - 8, 2**31), np.int32),
    ("ns1-int64", range(2**31 - 4, 2**31 + 4), np.int64),
]


@pytest.mark.parametrize(
    "ns,dtype,strikes",
    [
        *(pytest.param(ns, dtype, "default", id=name) for name, ns, dtype in INT32_EDGE_WALKS),
        *(
            pytest.param(ns, dtype, split, id=f"{name}-{split}")
            for name, ns, dtype in INT32_EDGE_WALKS
            for split in ("strided", "scattered")
        ),
    ],
    indirect=["strikes"],
)
def test_quotient_tables_across_the_int32_edge(ns, dtype, strikes):
    # The walk's smooth parts are int32 when the range ends below 2**31,
    # whether each block strikes its prime powers strided or scattered.
    base = primes_module._primes(isqrt(ns[-1]))
    parts = [part for _, part in primes_module._factor_blocks(ns[0] + 1, ns[-1], base)]
    assert [part.dtype for part in parts] == [dtype]
    check_range(ns, build_quotient_pi)


def test_quotient_tables_build_two_tables(monkeypatch):
    # The anchor and the check at the last n; the tables between are derived.
    built, real = [], primes_module.build_quotient_pi
    monkeypatch.setattr(
        primes_module, "build_quotient_pi", lambda n, **kw: built.append(n) or real(n, **kw)
    )
    assert len(list(quotient_tables(range(10**9, 10**9 + 50)))) == 50
    assert built == [10**9, 10**9 + 49]


def test_quotient_tables_name_the_first_wrong_entry(monkeypatch):
    # A wrong anchor entry reaches every derived table; the check at the
    # last n names it.
    real = primes_module.build_quotient_pi
    calls = []

    def wrong_anchor(n, **kw):
        qpi = real(n, **kw)
        calls.append(n)
        if len(calls) > 1:
            return qpi
        larges = qpi.larges.copy()
        larges[6] += 1
        return dataclasses.replace(qpi, larges=larges)

    monkeypatch.setattr(primes_module, "build_quotient_pi", wrong_anchor)
    want = int(real(10**7 + 20).larges[6])
    with pytest.raises(InternalConsistencyError) as err:
        list(quotient_tables(range(10**7, 10**7 + 21)))
    assert str(err.value) == (
        f"derived table at n={10**7 + 20} differs from build_quotient_pi({10**7 + 20}): "
        f"larges[6] want {want} got {want + 1}"
    )


def test_quotient_tables_refuse_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(primes_module, "build_quotient_pi", lambda n, **kw: built.append(n))
    for ns in (range(5, 5), range(9, 1, -1)):
        with pytest.raises(RangeError):
            next(quotient_tables(ns))
    with pytest.raises(RangeError, match="max_n"):
        next(quotient_tables(range(10, SUPPORTED_MAX_N + 2)))
    with pytest.raises(ResourceLimitError, match="budget"):
        next(quotient_tables(range(10, 2**52 + 1), max_n=2**52))
    assert built == []


def test_quotient_table_is_read_only_by_type():
    # Arrays handed to the constructor or to dataclasses.replace are frozen.
    smalls = np.array([0, 0, 1, 2], dtype=np.int64)
    larges = np.array([0, 4, 3, 2, 1], dtype=np.int64)
    root_primes = np.array([2, 3], dtype=np.int64)
    q = QuotientPiTable(n=10, root=3, smalls=smalls, larges=larges, root_primes=root_primes)
    want = build_quotient_pi(10)
    for name in ("smalls", "larges", "root_primes"):
        assert np.array_equal(getattr(q, name), getattr(want, name))
        assert not getattr(q, name).flags.writeable
    qpi = build_quotient_pi(10**6)
    copy = dataclasses.replace(qpi, larges=qpi.larges.copy())
    for a in (copy.smalls, copy.larges, copy.root_primes):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        copy.larges[1] = 0


def test_quotient_tables_sieve_only_in_their_two_builds(monkeypatch):
    # The walk's base primes are the check build's root_primes.
    limits, real = [], primes_module._primes
    monkeypatch.setattr(
        primes_module, "_primes", lambda limit: limits.append(limit) or real(limit)
    )
    assert len(list(quotient_tables(range(10**8, 10**8 + 50)))) == 50
    assert limits == [isqrt(10**8), isqrt(10**8 + 49)]


def test_quotient_tables_share_one_read_only_smalls():
    tables = list(quotient_tables(range(10**8, 10**8 + 50)))
    derived = tables[1:]
    for t in derived[1:]:
        assert np.shares_memory(t.smalls, derived[0].smalls)
    with pytest.raises(ValueError):
        derived[-1].smalls[0] = 1
    assert not np.shares_memory(derived[0].larges, derived[1].larges)


def test_tables_stay_read_only_through_pickling():
    # Unpickling sets a dataclass's fields without __post_init__, and
    # numpy unpickles arrays writable.
    dense = build_prime_table(3000)
    walked = list(quotient_tables(range(10**7 + 1, 10**7 + 4)))[1]
    for table in (build_quotient_pi(10**6), QuotientPiTable.from_dense(2999, dense), walked):
        assert_same_table(pickle.loads(pickle.dumps(table)), table)
    copy = pickle.loads(pickle.dumps(dense))
    for name in ("primes", "pi_dense", "pi_prefix", "divisors"):
        a, b = getattr(copy, name), getattr(dense, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert not a.flags.writeable, name
