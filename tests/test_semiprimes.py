import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import (
    brute_ordered_pair_count,
    brute_semiprime_count,
    trial_omega,
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
    omega_table,
    oracle_count_table,
    pair_sum_grouped,
    pair_sum_naive,
)


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
# pair sums


def test_pair_sum_naive_golden_25(qpi25):
    ps = pair_sum_naive(25, qpi25)
    assert ps.value == 15  # 5 + 4 + 3 + 2 + 1
    assert ps.upper_index == 5  # pi(12)


def test_pair_sum_trivial_n3():
    q = build_quotient_pi(3)
    assert pair_sum_naive(3, q).value == 0
    assert pair_sum_grouped(3, q).value == 0


def test_pair_sum_grouped_n4():
    assert pair_sum_grouped(4, build_quotient_pi(4)).value == 1  # only p=2


def test_pair_sum_50_against_double_loop():
    assert brute_ordered_pair_count(50) == 30
    q = build_quotient_pi(50)
    assert pair_sum_naive(50, q).value == 30
    assert pair_sum_grouped(50, q).value == 30


def test_pair_sums_agree_exhaustively_small(dense_10k):
    for n in range(1, 2001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        naive = pair_sum_naive(n, q, table=dense_10k)
        grouped = pair_sum_grouped(n, q)
        assert naive.value == grouped.value, n
        assert naive.upper_index == grouped.upper_index, n


def test_pair_sums_agree_at_1e6():
    q = build_quotient_pi(10**6)
    assert pair_sum_naive(10**6, q).value == pair_sum_grouped(10**6, q).value


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**5))
def test_pair_sums_agree_hypothesis(n):
    q = build_quotient_pi(n)
    assert pair_sum_naive(n, q).value == pair_sum_grouped(n, q).value


def test_pair_sum_naive_cap():
    q = build_quotient_pi(NAIVE_MAX_N + 1)
    with pytest.raises(RangeError, match="pair_sum_grouped"):
        pair_sum_naive(NAIVE_MAX_N + 1, q)


def test_pair_sum_naive_table_must_cover(dense_10k):
    n = 10**5
    q = build_quotient_pi(n)
    with pytest.raises(RangeError):
        pair_sum_naive(n, q, table=dense_10k)  # table covers only 10^4 < n/2


def test_pair_parity_property(dense_10k):
    for n in range(1, 2001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        sq = dense_10k.pi(isqrt(n))
        assert (pair_sum_grouped(n, q).value + sq) % 2 == 0, n


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
    import semipi.semiprimes as sp

    real = sp.pair_sum_grouped

    def off_by_one(n, qpi):
        ps = real(n, qpi)
        object.__setattr__(ps, "value", ps.value + 1)
        return ps

    monkeypatch.setattr(sp, "pair_sum_grouped", off_by_one)
    with pytest.raises(InternalConsistencyError, match="odd"):
        count_semiprimes_eq3(25, qpi25, "grouped")


def test_eq3_method_labels(qpi25):
    assert count_semiprimes_eq3(25, qpi25, "naive").method == "eq3_naive"
    assert count_semiprimes_eq3(25, qpi25, "grouped").method == "eq3_grouped"


# ---------------------------------------------------------------------------
# oracle


def test_oracle_golden_25():
    assert count_semiprimes_oracle(25).count == 9


def test_oracle_semiprime_list_to_25():
    omega = omega_table(25)
    semiprimes = [m for m in range(26) if omega[m] == 2]
    assert semiprimes == [4, 6, 9, 10, 14, 15, 21, 22, 25]


def test_oracle_trivial_and_30():
    assert count_semiprimes_oracle(1).count == 0
    # hand enumeration: 4, 6, 9, 10, 14, 15, 21, 22, 25, 26
    assert count_semiprimes_oracle(30).count == 10


def test_oracle_cap():
    with pytest.raises(RangeError):
        count_semiprimes_oracle(ORACLE_MAX_N + 1)


def test_omega_table_matches_trial_factoring():
    omega = omega_table(500)
    for m in range(501):
        assert int(omega[m]) == trial_omega(m), m


def test_oracle_count_table_prefix():
    oc = oracle_count_table(100)
    assert int(oc[25]) == 9
    assert int(oc[100]) == 34
    assert [int(oc[n]) for n in (1, 3, 4, 10, 30)] == [0, 0, 1, 4, 10]


# ---------------------------------------------------------------------------
# cross-method properties


def test_four_way_equality_exhaustive_small(dense_10k):
    oc = oracle_count_table(3000)
    for n in range(1, 3001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        c1 = count_semiprimes_eq1(n, q).count
        c3n = count_semiprimes_eq3(n, q, "naive", table=dense_10k).count
        c3g = count_semiprimes_eq3(n, q, "grouped").count
        assert c1 == c3n == c3g == int(oc[n]), n


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
    omega = omega_table(3000)
    prev = 0
    for n in range(1, 3001):
        q = QuotientPiTable.from_dense(n, dense_10k)
        c = count_semiprimes_eq3(n, q, "grouped").count
        step = c - prev
        assert step in (0, 1)
        assert (step == 1) == (int(omega[n]) == 2), n
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
