import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import trial_is_prime, trial_pi, trial_primes
from semipi import (
    QuotientPiTable,
    RangeError,
    ResourceLimitError,
    SUPPORTED_MAX_N,
    build_prime_table,
    build_quotient_pi,
    isqrt,
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


def test_from_dense_is_bit_identical_to_recurrence(dense_10m):
    limit = dense_10m.limit
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
    for n in ns:
        a = build_quotient_pi(n)
        b = QuotientPiTable.from_dense(n, dense_10m)
        assert a.n == b.n and a.root == b.root
        assert np.array_equal(a.smalls, b.smalls)
        assert np.array_equal(a.larges, b.larges)
        assert np.array_equal(a.root_primes, b.root_primes)


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
