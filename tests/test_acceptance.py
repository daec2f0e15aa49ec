"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every check is exact (integer equality); the only tolerances are the
wall-clock budgets, which are asserted as stated.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from semipi import (
    QuotientPiTable,
    build_prime_table,
    build_quotient_pi,
    check_identity,
    count_semiprimes_eq1,
    count_semiprimes_eq3,
    count_semiprimes_oracle,
    isqrt,
    oracle_counts,
    quotient_tables,
)
from semipi.cli import GOLDEN
from semipi.primes import _primes, _sieve_blocks
from semipi.semiprimes import _head_sum, _naive_sum, _tail_sum

SWEEP_LIMIT = 10**5


def _report(criterion: str, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL  [{time.perf_counter() - t0:.2f}s]")
        raise
    print(f"ACCEPTANCE {criterion}: PASS  [{time.perf_counter() - t0:.2f}s]")


@pytest.fixture(scope="module")
def sweep():
    """Counts for every n in [1, SWEEP_LIMIT] by eq1, eq3_grouped, oracle.

    Also records the pair-sum parity dividends.  The eq3 calls run the
    live evenness assertion, so completing the sweep proves it never
    fired.  Elapsed build time is charged to criterion 3's budget.
    """
    t0 = time.perf_counter()
    table = build_prime_table(SWEEP_LIMIT)
    oracle_cum = np.concatenate([[0], oracle_counts(1, range(1, SWEEP_LIMIT + 1))])
    eq1 = np.zeros(SWEEP_LIMIT + 1, dtype=np.int64)
    eq3g = np.zeros(SWEEP_LIMIT + 1, dtype=np.int64)
    parity_even = True
    for n in range(1, SWEEP_LIMIT + 1):
        qpi = QuotientPiTable.from_dense(n, table)
        eq1[n] = count_semiprimes_eq1(n, qpi).count
        eq3g[n] = count_semiprimes_eq3(n, qpi, "grouped").count
        dividend = _head_sum(qpi) + _tail_sum(qpi) + table.pi(isqrt(n))
        parity_even &= dividend % 2 == 0
    return {
        "table": table,
        "oracle_cum": oracle_cum,
        "eq1": eq1,
        "eq3g": eq3g,
        "parity_even": parity_even,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_1_golden_count_at_25():
    def body():
        t0 = time.perf_counter()
        qpi = build_quotient_pi(25)
        golden = GOLDEN["n25"]
        pi_25 = golden["pi_at_quotients"]
        assert {v: qpi.pi(v) for v in pi_25} == pi_25
        assert _naive_sum(25, qpi) == golden["pair_sum"]
        assert _head_sum(qpi) + _tail_sum(qpi) == golden["pair_sum"]
        assert count_semiprimes_eq1(25, qpi).count == golden["pi2"]
        assert count_semiprimes_eq3(25, qpi, "naive").count == golden["pi2"]
        assert count_semiprimes_eq3(25, qpi, "grouped").count == golden["pi2"]
        assert count_semiprimes_oracle(25).count == golden["pi2"]
        assert time.perf_counter() - t0 < 1.0

    _report("1 (golden count at n=25)", body)


def test_criterion_2_golden_identity_at_25():
    def body():
        t0 = time.perf_counter()
        rep = check_identity(25, build_quotient_pi(25))
        got = (rep.head_sum, rep.tail_sum, rep.lhs, rep.rhs, rep.residual)
        assert got == GOLDEN["n25"]["identity"]
        assert time.perf_counter() - t0 < 1.0

    _report("2 (golden identity at n=25)", body)


def test_criterion_3_oracle_equivalence_to_1e5(sweep):
    def body():
        ns = np.arange(1, SWEEP_LIMIT + 1)
        assert np.array_equal(sweep["eq1"][ns], sweep["eq3g"][ns])
        assert np.array_equal(sweep["eq1"][ns], sweep["oracle_cum"][ns])
        # spot-check the cumulative oracle against per-n oracle runs
        rng = random.Random(1)
        for n in [1, 25, SWEEP_LIMIT] + [rng.randrange(1, SWEEP_LIMIT) for _ in range(20)]:
            assert count_semiprimes_oracle(n).count == int(sweep["oracle_cum"][n])
        assert sweep["elapsed"] < 60.0, f"sweep took {sweep['elapsed']:.1f}s"

    _report("3 (eq1 = eq3_grouped = oracle on [1, 1e5])", body)


def test_criterion_4_naive_grouped_equivalence(sweep):
    def body():
        t0 = time.perf_counter()
        table = sweep["table"]
        for n in range(1, 10**4 + 1):
            qpi = QuotientPiTable.from_dense(n, table)
            assert _naive_sum(n, qpi) == _head_sum(qpi) + _tail_sum(qpi), n
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randrange(10**4, 10**6 + 1)
            qpi = build_quotient_pi(n)
            assert _naive_sum(n, qpi) == _head_sum(qpi) + _tail_sum(qpi), n
        assert time.perf_counter() - t0 < 120.0

    _report("4 (pair_sum naive = grouped, exhaustive + 200 random)", body)


def test_criterion_5_identity_sweep(sweep):
    def body():
        t0 = time.perf_counter()
        table = sweep["table"]
        for n in range(1, SWEEP_LIMIT + 1):
            assert check_identity(n, QuotientPiTable.from_dense(n, table)).residual == 0, n
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randrange(1, 10**9 + 1)
            assert check_identity(n, build_quotient_pi(n)).residual == 0, n
        assert time.perf_counter() - t0 < 120.0

    _report("5 (identity residual 0 on [1, 1e5] + 100 random <= 1e9)", body)


def test_criterion_6_parity(sweep):
    def body():
        # the eq3 evenness assertion ran live for every n in the sweep
        # fixture and never fired; the dividends were also even directly
        assert sweep["parity_even"]

    _report("6 (pair_sum + pi(sqrt n) even on [1, 1e5])", body)


def test_criterion_7_scale_1e10():
    def body():
        script = (
            "import json, resource, time\n"
            "from semipi import build_quotient_pi, count_semiprimes_eq1, "
            "count_semiprimes_eq3\n"
            "t0 = time.perf_counter()\n"
            "n = 10**10\n"
            "qpi = build_quotient_pi(n)\n"
            "g = count_semiprimes_eq3(n, qpi, 'grouped')\n"
            "e = count_semiprimes_eq1(n, qpi)\n"
            "print(json.dumps({\n"
            "    'eq3_grouped': g.count,\n"
            "    'eq1': e.count,\n"
            "    'elapsed_s': time.perf_counter() - t0,\n"
            "    'rss_kib': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,\n"
            "    'table_bytes': qpi.smalls.nbytes + qpi.larges.nbytes,\n"
            "}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        data = json.loads(proc.stdout)
        assert data["eq3_grouped"] == data["eq1"]
        assert data["elapsed_s"] < 60.0
        # tables are O(sqrt n): ~2.4 MB at n = 1e10
        assert data["table_bytes"] < 32 * 2**20
        # whole process stays far below a desktop budget (incl. interpreter)
        assert data["rss_kib"] < 512 * 1024
        print(
            f"  [n=1e10: count={data['eq3_grouped']} "
            f"elapsed={data['elapsed_s']:.2f}s rss={data['rss_kib'] // 1024}MiB]"
        )

    _report("7 (n=1e10 grouped in <60s with O(sqrt n) memory, = eq1)", body)


def test_criterion_8_step_property(sweep):
    def body():
        # Omega(m) = 2 exactly when m > r has one prime factor <= r,
        # counted with multiplicity, or m is a product of two primes <= r.
        r = isqrt(SWEEP_LIMIT)
        base = _primes(r)
        ones = np.ones(len(base), dtype=np.uint8)
        h = np.concatenate([h.copy() for _, h in _sieve_blocks(0, SWEEP_LIMIT, base, ones, np.add)])
        semiprime = h == 1
        semiprime[: r + 1] = False
        semiprime[np.outer(base, base)] = True  # every product is <= r^2
        steps = np.diff(sweep["eq3g"][: SWEEP_LIMIT + 1])  # steps at n = 1..limit
        assert set(np.unique(steps).tolist()) <= {0, 1}
        semiprime_positions = np.flatnonzero(semiprime)
        step_positions = np.flatnonzero(steps) + 1
        assert np.array_equal(step_positions, semiprime_positions)

    _report("8 (count steps by 1 exactly at two-factor n)", body)


def test_criterion_9_oeis_golden_powers_of_ten():
    def body():
        for k, (pi_golden, pi2_golden) in GOLDEN["oeis"].items():
            n = 10**k
            # 10^12 is past SUPPORTED_MAX_N and needs the override.
            qpi = build_quotient_pi(n, max_n=n)
            got = (
                qpi.pi(n),
                count_semiprimes_eq1(n, qpi).count,
                count_semiprimes_eq3(n, qpi, "grouped").count,
            )
            assert got == (pi_golden, pi2_golden, pi2_golden), f"n=10^{k}: {got}"

    _report("9 (pi and pi2 at 10^k, k = 1..12, match OEIS)", body)


def test_criterion_10_table_free_window_above_1e7():
    """eq1(b) - eq1(a - 1) equals the Omega == 2 count of [a, b].

    b = 10^k for k = 9, 10, 11 and a = b - 10^5 + 1.  The window is
    counted by oracle_counts, which reads no quotient table, so this
    catches a fault that differs between the tables of a - 1 and b.  It
    cannot catch a fault shared by both tables: that cancels in the
    difference.
    """

    def body():
        for k in (9, 10, 11):
            b = 10**k
            a = b - 10**5 + 1
            pair = [count_semiprimes_eq1(n, build_quotient_pi(n)).count for n in (a - 1, b)]
            window = int(oracle_counts(a, range(b, b + 1))[0])
            assert pair[1] - pair[0] == window, f"b=10^{k}: {pair} vs {window}"

    _report("10 (eq1(b) - eq1(a-1) = oracle window, b = 10^9..10^11)", body)


def test_criterion_11_derived_window_table_above_1e7():
    """table(b) derived from table(a - 1) equals build_quotient_pi(b) entry by entry.

    b = 10^k for k = 9, 10, 11 and a = b - 10^5 + 1, the windows of
    criterion 10.  quotient_tables derives table(b) from table(a - 1) by
    exact steps over [a, b] and raises at its first entry that differs
    from build_quotient_pi(b); the comparison is repeated here.  It
    covers every entry, composite d included, and catches a fault that
    differs between the recurrence tables of a - 1 and b.  A fault that
    both share passes.
    """

    def body():
        for k in (9, 10, 11):
            b = 10**k
            a = b - 10**5 + 1
            below, derived = quotient_tables(range(a - 1, b + 1, b - a + 1))
            assert (below.n, derived.n) == (a - 1, b)
            want = build_quotient_pi(b)
            for name in ("smalls", "larges", "root_primes"):
                assert np.array_equal(getattr(derived, name), getattr(want, name)), (k, name)

    _report("11 (derived table(b) = build_quotient_pi(b) entry by entry, b = 10^9..10^11)", body)
