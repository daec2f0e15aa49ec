import bisect
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import trial_primes
from semipi import (
    InternalConsistencyError,
    QuotientPiTable,
    RangeError,
    build_quotient_pi,
    check_identity,
    count_semiprimes_eq1,
    count_semiprimes_eq3,
    identity_lhs,
    identity_rhs,
    oracle_counts,
)
from semipi.semiprimes import _naive_sum


def test_identity_golden_25():
    rep = check_identity(25, build_quotient_pi(25))
    assert (rep.head_sum, rep.tail_sum) == (12, 3)  # (5+4+3) and (2+1)
    assert rep.lhs == rep.rhs == 9  # 3^2
    assert rep.residual == 0


def test_identity_trivial_n1_n2():
    for n in (1, 2):
        rep = check_identity(n, build_quotient_pi(n))
        assert rep.head_sum == rep.tail_sum == rep.lhs == rep.rhs == rep.residual == 0


def test_identity_lhs_golden_25():
    assert identity_lhs(25, build_quotient_pi(25)) == (12, 3, 9)


def test_identity_rhs_golden(dense_10k):
    assert identity_rhs(25, dense_10k) == 9
    assert identity_rhs(1, dense_10k) == 0
    assert identity_rhs(10**4, dense_10k) == 625


def test_identity_at_1e4_with_naive_per_prime_summation(dense_10k):
    # independent route: literal per-prime sums using trial-division primes
    n = 10**4
    primes = trial_primes(n // 2)
    pi = lambda x: bisect.bisect_right(primes, x)  # noqa: E731
    head = sum(pi(n // p) for p in primes if p * p <= n)
    tail = sum(pi(n // p) for p in primes if p * p > n)
    assert (head, tail) == (2925, 2300)
    rep = check_identity(n, QuotientPiTable.from_dense(n, dense_10k))
    assert (rep.head_sum, rep.tail_sum) == (head, tail)
    assert rep.lhs == rep.rhs == 625
    assert rep.residual == 0


def test_identity_residual_zero_exhaustive(dense_10k):
    for n in range(1, 5001):
        rep = check_identity(n, QuotientPiTable.from_dense(n, dense_10k))
        assert rep.residual == 0, n


def test_identity_residual_zero_random_large():
    rng = random.Random(0x5EED)
    for _ in range(25):
        n = rng.randrange(1, 10**9)
        assert check_identity(n, build_quotient_pi(n)).residual == 0, n


def test_window_check_where_the_recurrence_keeps_an_int64_head():
    # From 2**31 up, _prime_steps steps larges[d] in int64 for every d <
    # n // 2**31 + 1.  As selftest does at 10^9, 10^10 and 10^11, the
    # table-free oracle counts the window between two builds.
    rng = random.Random(0x2_31)
    for _ in range(3):
        n = rng.randrange(2**31, 10**10)
        a = n - 10**4
        below, qpi = build_quotient_pi(a), build_quotient_pi(n)
        window = int(oracle_counts(a + 1, range(n, n + 1))[0])
        gained = count_semiprimes_eq1(n, qpi).count - count_semiprimes_eq1(a, below).count
        assert gained == window, n
        assert check_identity(a, below).residual == check_identity(n, qpi).residual == 0, n


def test_identity_regression_pin_1e9():
    rep = check_identity(10**9, build_quotient_pi(10**9))
    assert (rep.head_sum, rep.tail_sum) == (166570236, 155003435)
    assert rep.lhs == rep.rhs == 11566801  # pi(31622)^2 = 3401^2
    assert rep.residual == 0


def test_head_plus_tail_equals_pair_sum(dense_10k):
    rng = random.Random(3)
    for n in [1, 2, 3, 4, 25, 10**4] + [rng.randrange(1, 10**4) for _ in range(100)]:
        q = QuotientPiTable.from_dense(n, dense_10k)
        head, tail, _ = identity_lhs(n, q)
        assert head + tail == _naive_sum(n, q), n


def test_double_head_minus_pair_equals_rhs(dense_10k):
    # twice the head minus the full pair sum, every prime visited, must equal the rhs
    for n in range(1, 2001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        head, tail, _ = identity_lhs(n, q)
        pair = _naive_sum(n, q)
        assert 2 * head - pair == identity_rhs(n, dense_10k), n


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_identity_residual_zero_hypothesis(n):
    assert check_identity(n, build_quotient_pi(n)).residual == 0


def test_identity_rejects_bad_n():
    with pytest.raises(RangeError):
        check_identity(0, build_quotient_pi(1))


def test_identity_lhs_rejects_mismatched_table():
    with pytest.raises(RangeError):
        identity_lhs(24, build_quotient_pi(25))


def test_check_identity_sieves_only_the_root_primes(monkeypatch):
    # Both sides read one quotient table: the right side counts its root
    # primes, so the sieve of isqrt(n) that made them is the only one.
    import semipi.primes as sp

    calls, real = [], sp._primes
    monkeypatch.setattr(sp, "_primes", lambda limit: calls.append(limit) or real(limit))
    assert check_identity(100000007, build_quotient_pi(100000007)).residual == 0
    assert calls == [10000]


def _with_larges_entry(qpi: QuotientPiTable, d: int, delta: int) -> QuotientPiTable:
    larges = qpi.larges.copy()
    larges[d] += delta
    larges.setflags(write=False)
    return dataclasses.replace(qpi, larges=larges)


def test_residual_is_twice_the_eq1_eq3_gap_on_a_wrong_table():
    # One wrong larges entry moves the identity's left side, eq1 and
    # eq3_grouped together: eq3's parity guard fires exactly when the
    # residual is odd, and otherwise residual == 2 * (eq1 - eq3_grouped).
    # So the identity cannot see a table fault that eq1 = eq3_grouped
    # misses.  smalls stays intact: eq3 reads smalls[isqrt(n)] as pi(r).
    fired = held = 0
    for n in (10**6 + 3, 10**8 + 7, 123456789):
        qpi = build_quotient_pi(n)
        rng = random.Random(n)
        # Random entries, plus every entry from n // (r+1) up, where the
        # head and the tail read the table differently.
        top = range(n // (qpi.root + 1), qpi.root + 2)
        cases = [(rng.randint(1, qpi.root + 1), rng.choice((-2, -1, 1, 2))) for _ in range(200)]
        cases += [(d, delta) for d in top for delta in (-2, -1, 1, 2)]
        for d, delta in cases:
            table = _with_larges_entry(qpi, d, delta)
            residual = check_identity(n, table).residual
            eq1 = count_semiprimes_eq1(n, table).count
            try:
                eq3 = count_semiprimes_eq3(n, table).count
            except InternalConsistencyError:
                assert residual % 2 == 1, (n, d, delta)
                fired += 1
                continue
            assert residual == 2 * (eq1 - eq3), (n, d, delta)
            held += 1
    assert fired and held  # both branches were taken
