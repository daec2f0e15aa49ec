import collections
import dataclasses
import hashlib
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import (
    brute_ordered_pair_count,
    brute_semiprime_count,
    textbook_semiprimes,
    trial_omega,
    trial_smooth_omega,
)
from semipi import (
    InternalConsistencyError,
    NAIVE_MAX_N,
    ORACLE_MAX_N,
    QuotientPiTable,
    RangeError,
    build_prime_table,
    build_quotient_pi,
    count_semiprimes_eq1,
    count_semiprimes_eq3,
    count_semiprimes_oracle,
    identity_rhs,
    isqrt,
    oracle_counts,
    quotient_tables,
)
from semipi import semiprimes
from semipi.cli import GOLDEN
from semipi.primes import _WHEEL, SIEVE_SEGMENT, _primes, _sieve_blocks
from semipi.semiprimes import _head_sum, _naive_sum, _tail_sum, formula_counts


def smooth_omega_blocks(lo: int, hi: int) -> list:
    """Copies of the h blocks of _sieve_blocks over [lo, hi], base primes <= isqrt(hi)."""
    base = _primes(isqrt(hi))
    ones = np.ones(len(base), dtype=np.uint8)
    return [(start, h.copy()) for start, h in _sieve_blocks(lo, hi, base, ones, np.add)]


def oracle_window(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(h, semiprime) for m in [lo, hi].

    h[m - lo] counts m's prime factors <= isqrt(hi) with multiplicity,
    the h blocks of _sieve_blocks joined, and semiprime[m - lo] is
    the step of oracle_counts at m.
    """
    h = np.concatenate([h for _, h in smooth_omega_blocks(lo, hi)])
    first = max(lo, 1)  # oracle_counts starts at 1; 0 is no semiprime
    counts = oracle_counts(first, range(first, hi + 1)) if hi >= first else []
    steps = np.diff(counts, prepend=0)
    return h, np.concatenate([np.zeros(first - lo, dtype=bool), steps == 1])


def assert_window_by_trial_division(h, semiprime, lo: int, hi: int, ms) -> None:
    """h and the semiprime flags of [lo, hi] at each m of ms, by trial division."""
    for m in ms:
        assert int(h[m - lo]) == trial_smooth_omega(m, isqrt(hi)), m
        assert bool(semiprime[m - lo]) == (trial_omega(m) == 2), m


@pytest.fixture(scope="module")
def qpi25():
    return build_quotient_pi(25)


# ---------------------------------------------------------------------------
# eq1


def test_eq1_golden_25(qpi25):
    rec = count_semiprimes_eq1(25, qpi25)
    assert rec.count == 9
    assert rec.term_count == 3  # primes 2, 3, 5
    assert rec.method == "eq1"


def test_eq1_empty_sum():
    assert count_semiprimes_eq1(3, build_quotient_pi(3)).count == 0


def test_eq1_at_100_against_brute_force():
    assert brute_semiprime_count(100) == 34
    assert count_semiprimes_eq1(100, build_quotient_pi(100)).count == 34


def test_eq1_rejects_mismatched_table(qpi25):
    with pytest.raises(RangeError):
        count_semiprimes_eq1(24, qpi25)


# ---------------------------------------------------------------------------
# pair sums: the sum over primes p <= n/2 of pi(n // p), visiting every
# prime (_naive_sum) or as the head sum plus the grouped tail


def grouped_sum(qpi: QuotientPiTable) -> int:
    return _head_sum(qpi) + _tail_sum(qpi)


def test_pair_sum_naive_golden_25(qpi25):
    assert _naive_sum(25, qpi25) == 15  # 5 + 4 + 3 + 2 + 1
    assert count_semiprimes_eq3(25, qpi25, "naive").term_count == 5 + 1  # pi(12) + 1


def test_pair_sum_trivial_n3():
    q = build_quotient_pi(3)
    assert _naive_sum(3, q) == 0
    assert grouped_sum(q) == 0


def test_pair_sum_grouped_n4():
    assert grouped_sum(build_quotient_pi(4)) == 1  # only p=2


def test_pair_sum_50_against_double_loop():
    assert brute_ordered_pair_count(50) == 30
    q = build_quotient_pi(50)
    assert _naive_sum(50, q) == 30
    assert grouped_sum(q) == 30


def test_pair_sums_agree_exhaustively_small(dense_10k):
    for n in range(1, 2001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        assert _naive_sum(n, q) == grouped_sum(q), n


def test_pair_sums_agree_at_1e6():
    q = build_quotient_pi(10**6)
    assert _naive_sum(10**6, q) == grouped_sum(q)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**5))
def test_pair_sums_agree_hypothesis(n):
    q = build_quotient_pi(n)
    assert _naive_sum(n, q) == grouped_sum(q)


def test_pair_sum_naive_cap():
    q = build_quotient_pi(NAIVE_MAX_N + 1)
    with pytest.raises(RangeError, match="use eq3_grouped"):
        _naive_sum(NAIVE_MAX_N + 1, q)
    with pytest.raises(RangeError, match="use eq3_grouped"):
        count_semiprimes_eq3(NAIVE_MAX_N + 1, q, "naive")


def _plus(qpi: QuotientPiTable, name: str, i: int, delta: int) -> QuotientPiTable:
    """A read-only copy of qpi with delta added to entry i of smalls or larges."""
    a = getattr(qpi, name).copy()
    a[i] += delta
    a.setflags(write=False)
    return dataclasses.replace(qpi, **{name: a})


@pytest.mark.parametrize("source", ["recurrence", "dense"])
@pytest.mark.parametrize("n", [125, 994014, 10**6 + 3])
def test_pair_sum_naive_reads_larges_above_root_and_smalls_below(n, source, dense_10m):
    # Which table entries eq3_naive's pair sum reads: larges[p] for the
    # primes p <= n/2 with n // p > isqrt(n), and smalls[n // p] for the
    # rest.  At n = 125 and 994014, r = isqrt(n) is prime with n // r == r,
    # so p = r must read smalls; a split at p <= r would read larges[r].
    q = build_quotient_pi(n) if source == "recurrence" else QuotientPiTable.from_dense(n, dense_10m)
    r = q.root
    ps = build_prime_table(n // 2).primes.tolist()
    base = _naive_sum(n, q)
    rng = random.Random(n)
    head = [p for p in ps if n // p > r]
    for p in head[:3] + head[-3:] + rng.sample(head, min(10, len(head))):
        delta = rng.choice((-3, -1, 2, 5))
        assert _naive_sum(n, _plus(q, "larges", p, delta)) == base + delta, p
    # Entries no prime reads: larges at 1, at composites and at r + 1.
    for d in (1, 4, r - 1 if r % 2 else r, r + 1):
        assert _naive_sum(n, _plus(q, "larges", d, 7)) == base, d
    hits = collections.Counter(n // p for p in ps)
    vs = range(r + 1) if r < 50 else [0, 1, 2, 3, r - 1, r] + rng.sample(range(4, r - 1), 20)
    for v in vs:
        delta = rng.choice((-3, -1, 2, 5))
        moved = _naive_sum(n, _plus(q, "smalls", v, delta)) - base
        assert moved == delta * hits[v], v


def test_pair_parity_property(dense_10k):
    for n in range(1, 2001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        sq = dense_10k.pi(isqrt(n))
        assert (grouped_sum(q) + sq) % 2 == 0, n


# ---------------------------------------------------------------------------
# pi(isqrt(n)), the number of primes p with p*p <= n


@pytest.mark.parametrize("n,expected", [(25, 3), (3, 0), (4, 1), (10**4, 25)])
def test_square_root_prime_count(dense_10k, n, expected):
    assert dense_10k.pi(isqrt(n)) == expected
    assert identity_rhs(n, dense_10k) == expected**2


def test_square_root_prime_count_out_of_range():
    t = build_prime_table(10)
    with pytest.raises(RangeError):
        identity_rhs(200, t)  # isqrt(200) = 14 > 10
    with pytest.raises(RangeError):
        identity_rhs(0, t)


# ---------------------------------------------------------------------------
# eq3


def test_eq3_golden_25(qpi25):
    assert count_semiprimes_eq3(25, qpi25, "naive").count == 9  # (15 + 3) / 2
    assert count_semiprimes_eq3(25, qpi25, "grouped").count == 9


def test_eq3_trivial_4():
    q = build_quotient_pi(4)
    assert count_semiprimes_eq3(4, q, "grouped").count == 1  # (1 + 1) / 2


def test_eq3_matches_eq1_at_1e6():
    q = build_quotient_pi(10**6)
    assert (
        count_semiprimes_eq3(10**6, q, "grouped").count
        == count_semiprimes_eq1(10**6, q).count
    )


def test_eq3_mode_validation(qpi25):
    with pytest.raises(ValueError):
        count_semiprimes_eq3(25, qpi25, "fancy")


def test_eq3_parity_guard_fires_on_corrupt_pair_sum(qpi25, monkeypatch):
    real = semiprimes._tail_sum
    monkeypatch.setattr(semiprimes, "_tail_sum", lambda qpi: real(qpi) + 1)
    with pytest.raises(InternalConsistencyError, match=r"pair_sum\(25\) .* = 16 \+ 3 is odd"):
        count_semiprimes_eq3(25, qpi25, "grouped")


def test_eq3_method_labels(qpi25):
    assert count_semiprimes_eq3(25, qpi25, "naive").method == "eq3_naive"
    assert count_semiprimes_eq3(25, qpi25, "grouped").method == "eq3_grouped"


# ---------------------------------------------------------------------------
# oracle


def test_oracle_golden_25():
    assert count_semiprimes_oracle(25).count == 9


def test_oracle_semiprime_list_to_25():
    _, semiprime = oracle_window(0, 25)
    semiprimes = [m for m in range(26) if semiprime[m]]
    assert semiprimes == [4, 6, 9, 10, 14, 15, 21, 22, 25]


def test_oracle_trivial_and_30():
    assert count_semiprimes_oracle(1).count == 0
    # hand enumeration: 4, 6, 9, 10, 14, 15, 21, 22, 25, 26
    assert count_semiprimes_oracle(30).count == 10


def test_oracle_cap():
    with pytest.raises(RangeError):
        count_semiprimes_oracle(ORACLE_MAX_N + 1)


def test_omega_table_matches_trial_factoring():
    h, semiprime = oracle_window(0, 500)
    assert_window_by_trial_division(h, semiprime, 0, 500, range(501))


@pytest.mark.parametrize(
    "limit",
    [0, 1, 2, 3, SIEVE_SEGMENT - 1, SIEVE_SEGMENT, SIEVE_SEGMENT + 1, 2 * SIEVE_SEGMENT + 3],
)
def test_omega_table_at_block_edges(limit):
    # Every m within 50 of a block boundary (a multiple of SIEVE_SEGMENT)
    # or of the window's end, checked by trial division.
    h, semiprime = oracle_window(0, limit)
    assert h.dtype == np.uint8 and len(h) == len(semiprime) == limit + 1
    edges = [*range(0, limit + 1, SIEVE_SEGMENT), limit + 1]
    near = {m for e in edges for m in range(e - 50, e + 51) if 0 <= m <= limit}
    assert_window_by_trial_division(h, semiprime, 0, limit, sorted(near))


#: The names of the conftest `strikes` splits of each block's strikes.
SPLITS = ("default", "strided", "scattered")


@pytest.mark.parametrize(
    "edge,strikes",
    [
        *(pytest.param(edge, "default", id=str(edge)) for edge in (2**21, 3**13)),
        *((edge, split) for edge in (2**21, 3**13) for split in SPLITS[1:]),
    ],
    indirect=["strikes"],
)
def test_omega_window_with_a_block_edge_on_a_prime_power(edge, strikes):
    # A window starting above 1 whose second block starts at a prime power.
    # At 2**21 the odd pass from 0 ends in a block of the 50 odd m from
    # 2**21 + 1 to 2**21 + 99, where 29 odd prime powers, 71 the least,
    # have only even multiples.
    lo, hi = edge - SIEVE_SEGMENT, edge + 100
    assert [start for start, _ in smooth_omega_blocks(lo, hi)] == [lo, edge]
    h, semiprime = oracle_window(lo, hi)
    from_zero = oracle_window(0, hi)
    assert np.array_equal(h, from_zero[0][lo:])
    assert np.array_equal(semiprime, from_zero[1][lo:])
    assert_window_by_trial_division(h, semiprime, lo, hi, range(edge - 50, edge + 51))


def assert_omega_by_trial_division(lo: int, hi: int, ms) -> None:
    assert all(h.dtype == np.uint8 for _, h in smooth_omega_blocks(lo, hi))
    h, semiprime = oracle_window(lo, hi)
    assert len(h) == len(semiprime) == hi - lo + 1
    assert_window_by_trial_division(h, semiprime, lo, hi, ms)


@pytest.mark.parametrize("lo", [5 * _WHEEL - 1, 5 * _WHEEL, 5 * _WHEEL + 1])
def test_omega_window_at_a_wheel_period_edge(lo):
    # Blocks start from the wheel pattern rolled to start % _WHEEL.
    assert_omega_by_trial_division(lo, lo + 300, range(lo, lo + 301))


@pytest.mark.parametrize("strikes", SPLITS, indirect=True)
def test_omega_window_across_wheel_and_segment_edges(strikes):
    # The second block starts at lo + SIEVE_SEGMENT, at another wheel offset.
    lo = 38 * _WHEEL - 1
    hi = lo + SIEVE_SEGMENT + 50
    edges = (lo, 38 * _WHEEL, lo + SIEVE_SEGMENT, hi)
    near = {m for e in edges for m in range(e - 50, e + 51) if lo <= m <= hi}
    assert_omega_by_trial_division(lo, hi, sorted(near))


@pytest.mark.parametrize("hi", [3, 8, 24, 48, 120, 121, 122])
def test_omega_window_with_wheel_primes_above_the_root(hi):
    # A wheel prime above isqrt(hi) is not in the pattern: no base prime.
    assert_omega_by_trial_division(0, hi, range(hi + 1))


@pytest.mark.parametrize("hi", [2**31 - 1, 2**31 + 40])
def test_omega_window_at_the_int32_edge(hi):
    # Windows that end just below 2**31 and just above it.
    assert_omega_by_trial_division(hi - 1000, hi, range(hi - 40, hi + 1))


@pytest.mark.parametrize("strikes", SPLITS, indirect=True)
def test_omega_window_where_most_base_primes_miss(strikes):
    lo = 10**10
    assert_omega_by_trial_division(lo, lo + 5, range(lo, lo + 6))


@pytest.mark.parametrize("k", range(1, 8))
def test_oracle_matches_oeis_at_powers_of_ten(k):
    assert count_semiprimes_oracle(10**k).count == GOLDEN["oeis"][k][1]  # A072000


def test_oracle_count_table_prefix():
    oc = oracle_counts(1, range(1, 101))
    assert int(oc[25 - 1]) == 9
    assert int(oc[100 - 1]) == 34
    assert [int(oc[n - 1]) for n in (1, 3, 4, 10, 30)] == [0, 0, 1, 4, 10]


S = SIEVE_SEGMENT
# The odd pass of a count from 1 sieves the odd numbers in blocks of S,
# which start at 1, 1 + 2S, 1 + 4S, ...; BELOW_EDGE is the largest prime
# below the second start, so 2 * BELOW_EDGE is counted by the odd prime
# on the last entry of the first block.
BELOW_EDGE = 2 * S + 1 - 10
# The semiprimes up to 4S + 3, by a sieve that shares no code with the
# package: oracle_counts(lo, ns)[i] must equal cum[ns[i]] - cum[lo - 1].
TEXTBOOK_LIMIT = 4 * S + 3


@pytest.fixture(scope="module")
def textbook_cum():
    return np.cumsum(textbook_semiprimes(TEXTBOOK_LIMIT), dtype=np.int64)


@pytest.mark.parametrize(
    "lo,ns",
    [
        (1, range(1, 2)),
        # n on a block's first entry (lo + k*S) and on its last (one less)
        (1, range(S, S + 1)),
        (1, range(S - 1, S + 2)),
        (1, range(1 + 2 * S - 1, 1 + 2 * S + 1)),
        (7, range(7 + S - 1, 7 + 3 * S, S)),
        (7, range(7 + S, 7 + 2 * S + 1, S)),
        # strides >= S: some blocks hold no n
        (1, range(5, 3 * S + 10, S)),
        (1, range(100, 3 * S + 10, 2 * S + 1)),
        (3, range(3, 3 * S, 3 * S - 4)),
        # windows above 1 whose second block starts at a prime power
        (2**21 - S, range(2**21 - 50, 2**21 + 51)),
        (3**13 - S, range(3**13 - S, 3**13 + 100, 7)),
        # n and n // 2 on the edges of the odd pass's blocks of odd numbers
        (1, range(2 * S - 3, 2 * S + 4)),
        (1, range(4 * S - 3, 4 * S + 4)),
        # 2p for the largest prime p below an odd block's edge
        (1, range(2 * BELOW_EDGE - 1, 2 * BELOW_EDGE + 2)),
        # every n from lo up to 40: m = 4 and m = 6 = 2 * 3 at the edge of [lo, n]
        *((lo, range(lo, 41)) for lo in range(2, 8)),
        # the squares of odd base primes, 1009 the largest
        (1, range(8, 11)),
        (1, range(1009**2 - 1, 1009**2 + 2)),
        (5, range(9, 1009**2 + 2, 1009**2 - 8)),
        # from a few n per block to one n per entry, and every n
        (1, range(1, 3 * S, 997)),
        (1, range(10, 3 * S, 53)),
        (1, range(1, 300001)),
        # the odd pass's last block holds 2S + 1, 2S + 3 and 2S + 5 alone,
        # and 17 divides 2S + 2 between them: it hits the block but strikes
        # no entry of it
        (1, range(2 * S + 5, 2 * S + 6)),
    ],
)
def test_oracle_counts_match_cumsum(lo, ns, textbook_cum):
    got = oracle_counts(lo, ns)
    assert got.dtype == np.int64 and len(got) == len(ns)
    assert got.tolist() == [int(textbook_cum[n] - textbook_cum[lo - 1]) for n in ns]


def test_textbook_reference_is_exact_at_the_edges(textbook_cum):
    assert trial_omega(BELOW_EDGE) == 1 and 2 * S + 1 - BELOW_EDGE == 10
    assert all(trial_omega(m) != 1 for m in range(BELOW_EDGE + 1, 2 * S + 1))
    assert [int(textbook_cum[10**k]) for k in range(1, 7)] == [
        GOLDEN["oeis"][k][1] for k in range(1, 7)
    ]


def _passes(monkeypatch) -> list:
    """The step of every _sieve_blocks call that oracle_counts makes."""
    steps, real = [], semiprimes._sieve_blocks

    def spy(*args, **kwargs):
        steps.append(args[5] if len(args) > 5 else kwargs.get("step", 1))
        return real(*args, **kwargs)

    monkeypatch.setattr(semiprimes, "_sieve_blocks", spy)
    return steps


@pytest.mark.parametrize("lo,step", [(666668, 2), (666669, 1)])
def test_oracle_counts_on_both_sides_of_the_pass_choice(lo, step, monkeypatch, textbook_cum):
    # N = 10**6 + 3: the odd m of [(lo + 1) // 2, N] are fewer than the
    # integers of [lo, N] up to lo = 666668, and not from 666669 on.
    n = 10**6 + 3
    steps = _passes(monkeypatch)
    for ns in (range(n, n + 1), range(lo + (n - lo) % 997, n + 1, 997)):
        got = oracle_counts(lo, ns)
        assert got.tolist() == [int(textbook_cum[m] - textbook_cum[lo - 1]) for m in ns]
    assert steps == [step, step]


@pytest.mark.parametrize("lo,ns", [(5, range(4, 10)), (0, range(1, 2)), (1, range(1, 1))])
def test_oracle_counts_refuses_n_below_lo(lo, ns):
    with pytest.raises(RangeError):
        oracle_counts(lo, ns)


def trial_count(a: int, b: int) -> int:
    """#{a <= m <= b : Omega(m) = 2}, by trial division."""
    return sum(trial_omega(m) == 2 for m in range(a, b + 1))


@pytest.mark.parametrize("hi", [101**2 - 1, 101**2, 101**2 + 1, 97 * 101])
def test_oracle_counts_in_windows_that_start_at_or_below_the_root(hi):
    # An m <= isqrt(hi) with one base-prime factor is that prime, no
    # semiprime; at 101^2 and 101^2 + 1 the root 101 is itself a prime.
    # 97 * 101 ends the window with one base-prime factor and a prime
    # cofactor above the root 98.
    cum = np.cumsum([trial_omega(m) == 2 for m in range(hi + 1)])
    r = isqrt(hi)
    for lo in (2, r - 1, r):
        got = oracle_counts(lo, range(lo, hi + 1))
        assert got.tolist() == (cum[lo:] - cum[lo - 1]).tolist(), lo


@pytest.mark.parametrize("p", [101, 1009, 10007, 46349, 99991])
def test_oracle_counts_in_a_window_ending_on_the_square_of_the_largest_base_prime(p):
    # b = p^2 has two base-prime factors and no cofactor; 46349^2 > 2**31.
    b = p * p
    a = b - 10
    assert oracle_counts(a, range(a, b + 1)).tolist() == [
        trial_count(a, n) for n in range(a, b + 1)
    ]


@pytest.mark.parametrize("m", [1031 * 1033, 1033**2])
@pytest.mark.parametrize("shift", [0, SIEVE_SEGMENT, SIEVE_SEGMENT - 1])
def test_oracle_counts_with_a_base_pair_on_a_block_edge(m, shift):
    # lo = m - shift puts the product m of two base primes on the first
    # entry of the first block, on the first entry of the second, or on
    # the last entry of the first.  The n fall on m and, at stride w, on
    # 1033^2 as well, so that 1033 is a base prime.
    w = 1033**2 - 1031 * 1033
    lo = m - shift
    ns = range(max(lo, m - w), 1033**2 + 1, w)
    assert m in ns
    got = oracle_counts(lo, ns).tolist()
    if lo == ns[0]:
        assert got[0] == trial_count(lo, ns[0])
    steps = [b - a for a, b in zip(got, got[1:])]
    assert steps == [trial_count(a + 1, b) for a, b in zip(ns, ns[1:])]


@pytest.mark.parametrize("lo", [1, 2, 16000, 127 * 139])
def test_oracle_counts_with_n_on_products_of_base_primes(lo):
    # ns = 127 * 139, 139^2: both products of two base primes <= 139.
    ns = range(127 * 139, 139**2 + 1, 12 * 139)
    assert list(ns) == [127 * 139, 139**2]
    assert oracle_counts(lo, ns).tolist() == [trial_count(lo, n) for n in ns]


# ---------------------------------------------------------------------------
# cross-method properties


def test_four_way_equality_exhaustive_small(dense_10k):
    oc = oracle_counts(1, range(1, 3001))
    for n in range(1, 3001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        c1 = count_semiprimes_eq1(n, q).count
        c3n = count_semiprimes_eq3(n, q, "naive").count
        c3g = count_semiprimes_eq3(n, q, "grouped").count
        assert c1 == c3n == c3g == int(oc[n - 1]), n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**5))
def test_four_way_equality_hypothesis(n):
    q = build_quotient_pi(n)
    counts = {
        count_semiprimes_eq1(n, q).count,
        count_semiprimes_eq3(n, q, "naive").count,
        count_semiprimes_eq3(n, q, "grouped").count,
        count_semiprimes_oracle(n).count,
    }
    assert len(counts) == 1


def test_step_property_small(dense_10k):
    _, semiprime = oracle_window(0, 3000)
    prev = 0
    for n in range(1, 3001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        c = count_semiprimes_eq3(n, q, "grouped").count
        step = c - prev
        assert step in (0, 1)
        assert (step == 1) == bool(semiprime[n]), n
        assert c <= n
        prev = c


def test_count_records_carry_diagnostics(qpi25):
    rec = count_semiprimes_eq3(25, qpi25, "grouped")
    assert rec.n == 25
    assert rec.method == "eq3_grouped"
    assert rec.term_count > 0


def test_shared_table_concurrent_reads():
    # tables are immutable; concurrent readers must all see the same counts
    from concurrent.futures import ThreadPoolExecutor

    q = build_quotient_pi(10**6)
    expected = count_semiprimes_eq3(10**6, q, "grouped").count
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(
                lambda _: count_semiprimes_eq3(10**6, q, "grouped").count, range(32)
            )
        )
    assert results == [expected] * 32


def test_oracle_and_prime_sieve_on_two_threads_at_once():
    # Each thread lends block rows from its own free list, so two threads
    # that sieve at once get the serial results.
    from concurrent.futures import ThreadPoolExecutor

    def work(n):
        primes = _primes(n // 2)
        return int(oracle_counts(1, range(n, n + 1))[0]), hashlib.sha256(primes).hexdigest()

    ns = [3 * 10**6 + 17, 2**21 + 5, 4 * 10**6 + 1, 10**6 + 3, 7 * 10**6 + 9, 2 * 10**6 + 11]
    want = [work(n) for n in ns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between numpy calls too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(work, ns + ns[::-1], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want + want[::-1]


def test_warm_oracle_count_allocates_no_block():
    # The odd pass's uint8 count row and its bool flag row outlive the
    # call, so a warm count from 1 over its two blocks allocates no
    # block-sized array: with fresh rows it peaked at 4.2 MiB.
    n = 3 * 10**6 + 17
    oracle_counts(1, range(n, n + 1))
    tracemalloc.start()
    try:
        oracle_counts(1, range(n, n + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20

FORMULAS = ("eq1", "eq3_grouped", "eq3_naive")


@pytest.mark.parametrize("source", ["build_quotient_pi", "from_dense", "quotient_tables"])
def test_formula_counts_equal_the_per_method_counts(source, dense_10m):
    """formula_counts against the table-free oracle, not the per-method path.

    The per-method counts now run formula_counts themselves, so the
    reference is one oracle_counts pass; the name is kept as the test id.
    """
    # Every non-empty ordered subset of the formulas, at n = 1..3000 and
    # at p^2 - 1, p^2 and p^2 + 1 for every prime p <= 1000, where
    # isqrt(n) and the split of the pair sum change, against one
    # table-free oracle pass over 1..max(ns).
    squares = [p * p for p in _primes(1000).tolist()]
    ns = [*range(1, 3001), *(s + d for s in squares for d in (-1, 0, 1))]
    oracle = oracle_counts(1, range(1, max(ns) + 1)).tolist()
    primes = None  # eq3_naive sieves n // 2 itself, except on dense tables
    if source == "build_quotient_pi":
        tables = ((n, build_quotient_pi(n)) for n in ns)
    elif source == "from_dense":
        tables = ((n, QuotientPiTable.from_dense(n, dense_10m)) for n in ns)
        primes = dense_10m.primes
    else:
        walks = [range(1, 3001), *(range(s - 1, s + 2) for s in squares)]
        tables = ((n, q) for w in walks for n, q in zip(w, quotient_tables(w)))
    subsets = [s for k in (1, 2, 3) for s in itertools.permutations(FORMULAS, k)]
    assert len(subsets) == 15
    seen = 0
    for n, qpi in tables:
        for subset in subsets:
            got = formula_counts(n, qpi, subset, primes)
            assert got == [oracle[n - 1]] * len(subset), (n, subset)
            assert all(type(c) is int for c in got), (n, subset)
        seen += 1
    assert seen == len(ns)


def test_naive_sum_reads_given_primes_as_its_own_sieve(dense_10m):
    # A caller's primes may be exactly those <= n // 2, more of them, or a
    # read-only array; each gives the sum of the naive sum's own sieve, at
    # n = 1..3000, around every p^2 for p <= 1000 and at the cap, and
    # leaves a writable array's bytes as they were.
    squares = [p * p for p in _primes(1000).tolist()]
    ns = [*range(1, 3001), *(s + d for s in squares for d in (-1, 0, 1)), 10**7 - 1, 10**7]
    supersets = {limit: _primes(limit) for limit in (10**6, 10**7)}
    pristine = {limit: ps.copy() for limit, ps in supersets.items()}
    assert not dense_10m.primes.flags.writeable
    for n in ns:
        qpi = build_quotient_pi(n)
        want = _naive_sum(n, qpi)
        exact = _primes(n // 2)
        kept = exact.tobytes()
        limit = 10**6 if n // 2 <= 10**6 else 10**7
        for given in (exact, supersets[limit], dense_10m.primes):
            assert _naive_sum(n, qpi, given) == want, (n, len(given))
        # int64 in place: equal values are equal bytes.
        assert exact.tobytes() == kept, n
        assert np.array_equal(supersets[limit], pristine[limit]), n


def test_formula_counts_read_each_sum_only_for_the_methods_that_need_it(monkeypatch):
    q = build_quotient_pi(10**4)
    calls = collections.Counter()
    for name in ("_head_sum", "_tail_sum", "_naive_sum"):
        real = getattr(semiprimes, name)
        monkeypatch.setattr(
            semiprimes, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
        )
    for methods, want in (
        (("eq1",), {"_head_sum": 1}),
        (("eq3_grouped",), {"_head_sum": 1, "_tail_sum": 1}),
        (("eq3_naive",), {"_naive_sum": 1}),
        (FORMULAS, {"_head_sum": 1, "_tail_sum": 1, "_naive_sum": 1}),
    ):
        calls.clear()
        assert formula_counts(10**4, q, methods) == [2625] * len(methods)
        assert calls == want, methods


def test_formula_counts_refuse_the_oracle_and_unknown_names(qpi25):
    for methods in (("oracle",), ("eq1", "oracle"), ("eq2",), ("eq1", "grouped")):
        with pytest.raises(ValueError):
            formula_counts(25, qpi25, methods)
    with pytest.raises(RangeError):
        formula_counts(24, qpi25, ("eq1",))
