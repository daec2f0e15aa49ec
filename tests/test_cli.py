import csv
import io
import json
import multiprocessing
import os
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import semipi.cli as cli
from semipi import semiprimes
from semipi.cli import (
    EXIT_DISAGREE,
    EXIT_OK,
    EXIT_USAGE,
    SweepConfig,
    main,
    parse_methods,
    parse_number,
    parse_range,
)
from semipi.semiprimes import METHOD_CAPS, METHODS

CAPPED = {m: cap for m, cap in METHOD_CAPS.items() if cap is not None}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def slow_builds(monkeypatch) -> list[int]:
    """Make every cli.build_quotient_pi call take >= 50 ms; returns its n list."""
    builds = []
    real = cli.build_quotient_pi

    def slow(n, **kwargs):
        builds.append(n)
        time.sleep(0.05)
        return real(n, **kwargs)

    monkeypatch.setattr(cli, "build_quotient_pi", slow)
    return builds


# ---------------------------------------------------------------------------
# parsing helpers


@pytest.mark.parametrize(
    "text,expected",
    [
        ("25", 25),
        ("1_000_000", 10**6),
        ("10^6", 10**6),
        ("2^20", 2**20),
        (" 42 ", 42),
        ("10^0", 1),
    ],
)
def test_parse_number(text, expected):
    assert parse_number(text) == expected


@pytest.mark.parametrize("bad", ["abc", "1.5", "10^-2", "", "^4", "1e6", "0x10"])
def test_parse_number_rejects(bad):
    with pytest.raises(ValueError):
        parse_number(bad)


@given(st.integers(min_value=0, max_value=10**18))
def test_parse_number_roundtrip(n):
    assert parse_number(str(n)) == n
    assert parse_number(format(n, "_d")) == n


def test_parse_range():
    assert parse_range("1:100") == (1, 100, 1)
    assert parse_range("5:50:5") == (5, 50, 5)
    assert parse_range("10^2:10^3:2") == (100, 1000, 2)
    with pytest.raises(ValueError):
        parse_range("100")


def test_parse_methods():
    assert parse_methods("eq1,oracle") == ("eq1", "oracle")
    assert parse_methods("oracle,eq1,oracle") == ("oracle", "eq1")
    with pytest.raises(ValueError):
        parse_methods("eq2")


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(10, 5, 1, ("eq1",), "table", 1)
    with pytest.raises(ValueError):
        SweepConfig(1, 5, 0, ("eq1",), "table", 1)
    with pytest.raises(ValueError):
        SweepConfig(1, 5, 1, (), "table", 1)
    with pytest.raises(ValueError):
        SweepConfig(1, 5, 1, ("eq1",), "table", 0)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        SweepConfig(1, 5, 1, ("bogus",), "csv", 1)
    with pytest.raises(ValueError, match="distinct"):
        SweepConfig(1, 5, 1, ("eq1", "eq1"), "csv", 1)


# ---------------------------------------------------------------------------
# count


def test_count_golden_all_methods(capsys):
    code, out, err = run(
        capsys, "count", "25", "--methods", "eq1,eq3_grouped,oracle", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["count"] for r in rows] == [9, 9, 9]
    # the agree line names the methods it compared
    assert "agree: pi2(25) = 9 by eq1, eq3_grouped, oracle" in err


def test_count_trivial_one(capsys):
    code, out, _ = run(capsys, "count", "1", "--format", "json")
    assert code == EXIT_OK
    assert all(r["count"] == 0 for r in json.loads(out))


def test_count_large_cross_method(capsys):
    code, out, _ = run(
        capsys, "count", "10^6", "--methods", "eq1,eq3_grouped", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["count"] == rows[1]["count"] == 210035


def test_count_usage_errors(capsys):
    assert run(capsys, "count", "abc")[0] == EXIT_USAGE
    assert run(capsys, "count", "0")[0] == EXIT_USAGE
    assert run(capsys, "count", "25", "--methods", "bogus")[0] == EXIT_USAGE


def test_count_oracle_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "10^8", "--methods", "oracle")
    assert code == EXIT_USAGE
    assert "oracle" in err
    for method, cap in CAPPED.items():
        code, _, err = run(capsys, "count", str(cap + 1), "--methods", method)
        assert code == EXIT_USAGE
        assert f"{method} method supports n <= {cap}" in err


def test_count_rows_carry_measured_time(capsys):
    code, out, _ = run(
        capsys, "count", "10^5", "--methods", "eq1,eq3_grouped,oracle", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["method"] for r in rows] == ["eq1", "eq3_grouped", "oracle"]
    assert all(type(r["elapsed_ns"]) is int and r["elapsed_ns"] > 0 for r in rows)


def test_count_builds_one_table_and_charges_it(capsys, monkeypatch):
    builds = slow_builds(monkeypatch)
    code, out, _ = run(
        capsys, "count", "10^4", "--methods", "eq1,eq3_grouped,oracle", "--format", "json"
    )
    assert code == EXIT_OK
    assert builds == [10**4]
    elapsed = {r["method"]: r["elapsed_ns"] for r in json.loads(out)}
    # eq1 and eq3_grouped read the table, so its build is part of their time
    assert elapsed["eq1"] >= 5e7 and elapsed["eq3_grouped"] >= 5e7
    # the oracle reads no table and is charged its own call only
    assert elapsed["oracle"] < 5e7


def test_count_names_the_table_build_on_stderr(capsys, monkeypatch):
    slow_builds(monkeypatch)
    code, _, err = run(capsys, "count", "10^4,25", "--methods", "eq1,oracle", "--reps", "3")
    assert code == EXIT_OK
    lines = err.splitlines()
    for n in (10**4, 25):
        # one build line per n, right before its agree line, reading >= 50 ms
        (i,) = [i for i, s in enumerate(lines) if s.startswith(f"build: build_quotient_pi({n})")]
        assert lines[i + 1].startswith(f"agree: pi2({n})")
        assert float(lines[i].split(" took ")[1].split(" ms")[0]) >= 50
    # no method reads the table: no build line
    code, _, err = run(capsys, "count", "10^4", "--methods", "oracle")
    assert code == EXIT_OK
    assert "build" not in err


def test_count_max_n_guard_override(capsys):
    code, _, err = run(capsys, "count", "100", "--max-n", "50")
    assert code == EXIT_USAGE
    assert "max_n" in err


def test_count_csv_json_same_values(capsys):
    argv = ["count", "25", "--methods", "eq1,eq3_naive,oracle"]
    code, out_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    code, out_json, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    json_rows = json.loads(out_json)
    # elapsed_ns is wall time and differs between runs; all else must match
    for c, j in zip(csv_rows, json_rows, strict=True):
        for key in ("n", "method", "count", "terms"):
            assert str(j[key]) == c[key]


def test_count_disagreement_exit_code(capsys, monkeypatch):
    real = cli.count_semiprimes_eq1

    def broken(n, qpi):
        rec = real(n, qpi)
        object.__setattr__(rec, "count", rec.count + 1)
        return rec

    monkeypatch.setattr(cli, "count_semiprimes_eq1", broken)
    code, _, err = run(capsys, "count", "25", "--methods", "eq1,eq3_grouped")
    assert code == EXIT_DISAGREE
    assert "DISAGREEMENT" in err


# ---------------------------------------------------------------------------
# identity


def test_identity_single(capsys):
    code, out, _ = run(capsys, "identity", "25", "--format", "json")
    assert code == EXIT_OK
    (row,) = json.loads(out)
    assert row == {
        "n": 25,
        "head_sum": 12,
        "tail_sum": 3,
        "lhs": 9,
        "rhs": 9,
        "residual": 0,
    }


def test_identity_trivial(capsys):
    code, out, _ = run(capsys, "identity", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)[0]["residual"] == 0


def test_identity_range(capsys):
    code, out, _ = run(capsys, "identity", "1:500", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 500
    assert all(r["residual"] == "0" for r in rows)


def test_identity_range_parallel_output_identical(capsys):
    argv = ("identity", "1:400:2", "--format", "csv")
    code1, out1, _ = run(capsys, *argv, "--workers", "1")
    code2, out2, _ = run(capsys, *argv, "--workers", "3")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_identity_requires_n_xor_range(capsys):
    # one target, an n or a range: none and two are both usage errors
    assert run(capsys, "identity")[0] == EXIT_USAGE
    assert run(capsys, "identity", "25", "1:10")[0] == EXIT_USAGE


def test_dense_sweep_naive_column_reads_the_shared_sieve(capsys, monkeypatch):
    # Below DENSE_SWEEP_LIMIT each table comes from the sweep's one dense
    # sieve, and eq3_naive takes its primes <= n/2 from it: no sieve of its own.
    calls, real = [], semiprimes._sieve_mask
    monkeypatch.setattr(
        semiprimes, "_sieve_mask", lambda limit: calls.append(limit) or real(limit)
    )
    argv = ("sweep", "1:3000", "--methods", "eq1,eq3_naive", "--format", "csv")
    assert run(capsys, *argv)[0] == EXIT_OK
    assert calls == []


def test_identity_one_n_builds_no_dense_sieve(capsys, monkeypatch):
    # One n runs the range path as n:n, with one quotient table and no
    # shared dense sieve; a range of two or more n shares one sieve.
    tables, sieves = [], []
    real_table, real_sieve = cli.build_quotient_pi, cli.build_prime_table
    monkeypatch.setattr(
        cli, "build_quotient_pi", lambda n, **kw: tables.append(n) or real_table(n, **kw)
    )
    monkeypatch.setattr(
        cli, "build_prime_table", lambda limit: sieves.append(limit) or real_sieve(limit)
    )
    assert run(capsys, "identity", "10^6")[0] == EXIT_OK
    assert (tables, sieves) == ([10**6], [])
    assert run(capsys, "identity", "999999:1000000")[0] == EXIT_OK
    assert (tables, sieves) == ([10**6], [10**6])  # both n read the one sieve


def test_sweep_one_n_builds_no_dense_sieve(capsys, monkeypatch):
    # As for identity: one n builds its own quotient table, and a range of
    # two or more n shares one dense sieve.
    sieves = []
    real_sieve = cli.build_prime_table
    monkeypatch.setattr(
        cli, "build_prime_table", lambda limit: sieves.append(limit) or real_sieve(limit)
    )
    assert run(capsys, "sweep", "10^6:10^6")[0] == EXIT_OK
    assert sieves == []
    assert run(capsys, "sweep", "999999:10^6")[0] == EXIT_OK
    assert sieves == [10**6]


def test_identity_bad_workers(capsys):
    for target in (("25",), ("1:10",)):
        for workers in ("0", "banana"):
            code, _, err = run(capsys, "identity", *target, "--workers", workers)
            assert code == EXIT_USAGE, (target, workers)
            assert "workers" in err or "parse" in err


def test_identity_range_guard(capsys):
    code, _, err = run(capsys, "identity", "1:10^12")
    assert code == EXIT_USAGE
    assert "max" in err


def test_identity_violation_exit_code(capsys, monkeypatch):
    real = cli.check_identity

    def broken(n, qpi):
        rep = real(n, qpi)
        object.__setattr__(rep, "residual", 1)
        return rep

    monkeypatch.setattr(cli, "check_identity", broken)
    code, _, err = run(capsys, "identity", "25")
    assert code == EXIT_DISAGREE
    assert "IDENTITY VIOLATION" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_oracle_to_30(capsys):
    code, out, _ = run(capsys, "sweep", "1:30:1", "--methods", "oracle", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 30
    assert rows[-1] == {"n": "30", "oracle": "10", "agree": "true"}


def test_sweep_single_n_25(capsys):
    code, out, _ = run(capsys, "sweep", "25:25:1", "--methods", "eq1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [{"n": 25, "eq1": 9, "agree": True}]


def test_sweep_default_methods_at_10(capsys):
    code, out, _ = run(capsys, "sweep", "10:10:1", "--format", "json")
    assert code == EXIT_OK
    (row,) = json.loads(out)
    assert row["eq1"] == row["eq3_grouped"] == 4  # 4, 6, 9, 10
    assert row["agree"] is True


def test_sweep_stride(capsys):
    code, out, _ = run(capsys, "sweep", "10:100:17", "--format", "json")
    assert code == EXIT_OK
    assert [r["n"] for r in json.loads(out)] == [10, 27, 44, 61, 78, 95]


def test_sweep_rows_ascending_and_agreeing(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "1:400:1",
        "--methods",
        "eq1,eq3_naive,eq3_grouped,oracle",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(1, 401))
    assert all(r["agree"] for r in rows)
    counts = [r["eq1"] for r in rows]
    assert counts == sorted(counts)  # monotone count function


def test_sweep_parallel_output_identical(capsys):
    argv = ("sweep", "1:800:3", "--methods", "eq1,eq3_grouped,oracle", "--format", "csv")
    code1, out1, _ = run(capsys, *argv, "--workers", "1")
    code2, out2, _ = run(capsys, *argv, "--workers", "3")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_sweep_csv_json_same_values(capsys):
    argv = ("sweep", "1:50:1", "--methods", "eq1,oracle")
    _, out_csv, _ = run(capsys, *argv, "--format", "csv")
    _, out_json, _ = run(capsys, *argv, "--format", "json")
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    json_rows = json.loads(out_json)
    for c, j in zip(csv_rows, json_rows, strict=True):
        assert c["n"] == str(j["n"])
        assert c["eq1"] == str(j["eq1"])
        assert c["oracle"] == str(j["oracle"])
        assert c["agree"] == ("true" if j["agree"] else "false")


def test_sweep_caps_rejected_before_work(capsys):
    code, _, err = run(capsys, "sweep", "1:10^8:1", "--methods", "oracle")
    assert code == EXIT_USAGE
    assert "oracle" in err
    code, _, err = run(capsys, "sweep", "1:10^8:1", "--methods", "eq3_naive")
    assert code == EXIT_USAGE


def test_strided_range_checked_at_last_n(capsys, monkeypatch):
    # The range holds only n = 5, well inside the oracle cap.
    code, out, _ = run(
        capsys, "sweep", "5:10000003:10000000", "--methods", "oracle", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["n,oracle,agree", "5,1,true"]
    # The --max-n guard reads the last n (15), not the nominal end (20).
    code, out, _ = run(
        capsys, "identity", "5:20:10", "--max-n", "18", "--format", "json"
    )
    assert code == EXIT_OK
    assert [r["n"] for r in json.loads(out)] == [5, 15]
    # The shared tables are sized to the last n.
    sizes = []
    real_sieve, real_counts = cli.build_prime_table, cli.oracle_counts
    monkeypatch.setattr(
        cli, "build_prime_table", lambda limit: sizes.append(limit) or real_sieve(limit)
    )
    monkeypatch.setattr(
        cli, "oracle_counts", lambda lo, ns: sizes.append(ns[-1]) or real_counts(lo, ns)
    )
    assert run(capsys, "sweep", "1:100:7", "--methods", "eq1,oracle")[0] == EXIT_OK
    assert sizes == [99, 99]


def test_sweep_oracle_column_holds_no_n_sized_table(capsys):
    # The oracle column counts block by block: 11 n just below the oracle
    # cap must not allocate a table with one entry per integer up to 10^7.
    tracemalloc.start()
    try:
        code, out, _ = run(
            capsys, "sweep", "9999990:10^7", "--methods", "oracle", "--format", "csv"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "10000000,1904324,true"
    assert peak < 40 * 2**20


def test_sweep_bad_range(capsys):
    assert run(capsys, "sweep", "50:10:1")[0] == EXIT_USAGE
    assert run(capsys, "sweep", "0:10:1")[0] == EXIT_USAGE


def test_sweep_single_point_n1(capsys):
    code, out, _ = run(capsys, "sweep", "1:1:1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [{"n": 1, "eq1": 0, "eq3_grouped": 0, "agree": True}]


def test_sweep_beyond_dense_limit_uses_recurrence(capsys):
    # ends past the shared-sieve cutoff fall back to per-n tables
    start, end = 10**7 + 1, 10**7 + 5
    code, out, _ = run(
        capsys, "sweep", f"{start}:{end}:2", "--methods", "eq1,eq3_grouped",
        "--format", "json",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [start, start + 2, start + 4]
    assert all(r["agree"] for r in rows)


def test_sweep_bad_workers(capsys):
    assert run(capsys, "sweep", "1:10:1", "--workers", "0")[0] == EXIT_USAGE
    assert run(capsys, "sweep", "1:10:1", "--workers", "x")[0] == EXIT_USAGE


@pytest.fixture
def fake_pool(monkeypatch) -> list[int]:
    """Replace the process pool; returns the max_workers it is asked for.

    The stand-in runs the initializer twice, as two workers would, and the
    chunks in this process, so no worker process is ever started.
    """
    requested = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            for _ in range(2):
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    return requested


def test_sweep_workers_capped_at_cpu_count(capsys, monkeypatch, fake_pool):
    requested = fake_pool
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ("sweep", "1:100", "--methods", "eq1,oracle", "--format", "csv")
    code, out_big, _ = run(capsys, *argv, "--workers", "100000")
    assert code == EXIT_OK
    assert requested == [3]
    assert not multiprocessing.active_children()
    code, out_one, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert requested == [3]  # one worker never asks for a pool
    assert out_big == out_one


def test_pooled_sweep_counts_the_oracle_column_once(capsys, monkeypatch, fake_pool):
    # The oracle column is counted in the calling process and handed to
    # every worker's initializer, not counted again by each worker.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    calls = []
    real = cli.oracle_counts
    monkeypatch.setattr(
        cli, "oracle_counts", lambda lo, ns: calls.append((lo, ns)) or real(lo, ns)
    )
    argv = ("sweep", "1:100", "--methods", "eq1,oracle", "--format", "csv")
    code, out_two, _ = run(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert fake_pool == [2]
    assert calls == [(1, range(1, 101))]
    code, out_one, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert out_two == out_one


def test_max_n_override_stops_at_the_quotient_table_budget(capsys):
    # isqrt(2^52) = 2^26 is past MAX_QUOTIENT_ROOT = 2^25: every command
    # refuses it before allocating, whatever --max-n says.
    for argv in (("count", "2^52"), ("identity", "2^52"), ("sweep", "2^52:2^52")):
        code, _, err = run(capsys, *argv, "--max-n", "2^52")
        assert code == EXIT_USAGE, argv
        assert "quotient-table budget" in err, argv


def test_quotient_table_budget_checked_before_any_table(capsys, monkeypatch):
    # Work whose last n is past the table budget is refused before the
    # earlier n build their tables: no row, no agree line, no build.
    builds = []
    real = cli.build_quotient_pi
    monkeypatch.setattr(
        cli, "build_quotient_pi", lambda n, **kw: builds.append(n) or real(n, **kw)
    )
    two_n = f"10^10:2^52:{2**52 - 10**10}"  # the range 10^10, 2^52
    for argv in (("count", "10^11,2^52"), ("identity", two_n), ("sweep", two_n)):
        code, out, err = run(capsys, *argv, "--max-n", "2^52")
        assert (code, out, builds) == (EXIT_USAGE, "", []), argv
        assert "quotient-table budget" in err and "agree" not in err, argv


# ---------------------------------------------------------------------------
# count --reps: several n, each timed as the median of repeated runs
# (the former `bench` subcommand)


def test_bench_golden(capsys):
    code, out, err = run(
        capsys, "count", "25", "--methods", "eq1", "--reps", "3", "--format", "json"
    )
    assert code == EXIT_OK
    (row,) = json.loads(out)
    assert row["count"] == 9
    assert row["elapsed_ns"] > 0
    assert err.startswith("# semipi")  # environment header on stderr


def test_bench_oracle_method(capsys):
    code, out, _ = run(
        capsys, "count", "1000", "--methods", "oracle", "--reps", "2^1", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)[0]["count"] == 299


def test_bench_multiple_n_and_methods(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "25,10^4",
        "--methods",
        "eq3_naive,eq3_grouped",
        "--reps",
        "2",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 4
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], set()).add(r["count"])
    assert all(len(v) == 1 for v in by_n.values())
    # every method at every decade, rows ordered by n and then by method
    code, out, _ = run(
        capsys, "count", "10,100,1000", "--methods", ",".join(METHODS), "--reps", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert [(r["n"], r["method"], r["count"]) for r in json.loads(out)] == [
        (n, m, count) for n, count in ((10, 4), (100, 34), (1000, 299)) for m in METHODS
    ]


def test_bench_builds_one_table_per_rep(capsys, monkeypatch):
    builds = slow_builds(monkeypatch)
    code, out, _ = run(
        capsys, "count", "10^4", "--methods", "eq1,eq3_grouped", "--reps", "3",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert builds == [10**4] * 3
    assert all(r["elapsed_ns"] >= 5e7 for r in json.loads(out))


def test_bench_usage_errors(capsys):
    assert run(capsys, "count", "25", "--reps", "0")[0] == EXIT_USAGE
    assert run(capsys, "count", "10^8", "--methods", "oracle")[0] == EXIT_USAGE
    for method, cap in CAPPED.items():
        code, _, err = run(capsys, "count", f"25,{cap + 1}", "--methods", method)
        assert code == EXIT_USAGE
        assert f"{method} method supports n <= {cap}" in err


def test_bench_grouped_comparable_to_eq1(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "10^6",
        "--methods",
        "eq1,eq3_grouped",
        "--reps",
        "3",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    by_method = {r["method"]: r for r in json.loads(out)}
    assert by_method["eq1"]["count"] == by_method["eq3_grouped"]["count"]
    # both timings include the shared table build, so grouped stays well
    # within an order of magnitude of eq1
    assert by_method["eq3_grouped"]["elapsed_ns"] < 10 * by_method["eq1"]["elapsed_ns"]


# ---------------------------------------------------------------------------
# selftest / misc


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "selftest passed" in err


def test_version_and_help(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "count", "--help")[0] == 0


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def test_machine_output_separated_from_diagnostics(capsys):
    code, out, err = run(capsys, "count", "25", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,method,count,terms,elapsed_ns"
    assert "agree" in err and "agree" not in out.splitlines()[0]
