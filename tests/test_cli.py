import collections
import csv
import dataclasses
import gc
import hashlib
import io
import json
import multiprocessing
import os
import time
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import semipi.cli as cli
from semipi import primes, semiprimes
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
        # a leading sign applies to the whole power, which a square cannot cancel
        ("-3^2", -9),
        ("-2^3", -8),
        ("+3^2", 9),
        ("-1_0^2", -100),
        ("-0^0", -1),
        ("-00^0", -1),
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


def test_a_negative_power_is_refused_as_an_n_an_end_or_a_stride(capsys):
    for argv in (
        ("sweep", "1:-2^2"),
        ("sweep", "1:10:-1^2"),
        ("sweep", "1:10:-0^0"),
        ("count", "--", "-0^0"),
        ("count", "--", "-3^2"),
        ("count", "25", "--max-n=-3^2"),
    ):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv


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
        # and the MiB of the table's smalls and larges to 3 digits
        (i,) = [i for i, s in enumerate(lines) if s.startswith(f"build: build_quotient_pi({n})")]
        assert lines[i + 1].startswith(f"agree: pi2({n})")
        assert float(lines[i].split(" took ")[1].split(" ms")[0]) >= 50
        q = primes.build_quotient_pi(n)
        mib = float(lines[i].split(", tables ")[1].removesuffix(" MiB"))
        assert mib == pytest.approx((q.smalls.nbytes + q.larges.nbytes) / 2**20, rel=5e-3)
    # no method reads the table: no build line
    code, _, err = run(capsys, "count", "10^4", "--methods", "oracle")
    assert code == EXIT_OK
    assert "build" not in err


def test_count_max_n_guard_override(capsys):
    code, _, err = run(capsys, "count", "100", "--max-n", "50")
    assert code == EXIT_USAGE
    assert "max_n" in err
    for argv in (
        ("count", "100", "--max-n", "50", "--methods", "oracle"),
        ("identity", "100", "--max-n", "50"),
        ("sweep", "90:100", "--max-n", "50"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "max_n" in err, argv


#: The terms column of `count` by method (eq1, eq3_grouped, eq3_naive,
#: oracle): eq1 has one term per root prime p <= isqrt(n); eq3_grouped
#: those plus n // (isqrt(n) + 1) - 1 tail blocks and the halving;
#: eq3_naive one per prime <= n / 2 and the halving; the oracle one per m <= n.
COUNT_TERMS = {
    1: (0, 1, 1, 1),
    2: (0, 1, 1, 2),
    3: (0, 1, 1, 3),
    4: (1, 2, 2, 4),
    8: (1, 3, 3, 8),
    9: (2, 4, 3, 9),
    24: (2, 6, 6, 24),
    25: (3, 7, 6, 25),
    26: (3, 7, 7, 26),
    10**4: (25, 124, 670, 10**4),
    10**6: (168, 1167, 41539, 10**6),
    10**7: (446, 3607, 348514, 10**7),
}


def test_count_terms_are_pinned(capsys):
    ns = ",".join(map(str, COUNT_TERMS))
    methods = "eq1,eq3_grouped,eq3_naive,oracle"
    code, out, _ = run(capsys, "count", ns, "--methods", methods, "--format", "csv")
    assert code == EXIT_OK
    got = collections.defaultdict(tuple)
    for row in csv.DictReader(io.StringIO(out)):
        got[int(row["n"])] += (int(row["terms"]),)
    assert got == COUNT_TERMS


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
    calls, real = [], semiprimes._primes
    monkeypatch.setattr(
        semiprimes, "_primes", lambda limit: calls.append(limit) or real(limit)
    )
    argv = ("sweep", "1:3000", "--methods", "eq1,eq3_naive", "--format", "csv")
    assert run(capsys, *argv)[0] == EXIT_OK
    assert calls == []


def test_identity_one_n_builds_no_dense_sieve(capsys, monkeypatch):
    # One n runs the range path as n:n, with one quotient table and no
    # shared dense sieve; a range of two or more n shares one sieve.
    tables, sieves = [], []
    real_table, real_sieve = primes.build_quotient_pi, cli.build_prime_table
    monkeypatch.setattr(
        primes, "build_quotient_pi", lambda n, **kw: tables.append(n) or real_table(n, **kw)
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
    # Over a range the report names the first wrong n with both sides,
    # and counts the wrong rows; every row is still written.
    def wrong_lhs(n, qpi):
        rep = real(n, qpi)
        if n % 10 != 3:
            return rep
        return dataclasses.replace(rep, lhs=rep.lhs + 1, residual=rep.residual + 1)

    monkeypatch.setattr(cli, "check_identity", wrong_lhs)
    code, out, err = run(capsys, "identity", "20:60", "--format", "csv")
    assert code == EXIT_DISAGREE
    assert err == "IDENTITY VIOLATION at n=23: lhs=5 rhs=4 (4 of 41 rows nonzero)\n"
    assert out.splitlines()[4] == "23,9,5,5,4,1"
    assert len(out.splitlines()) == 42


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
    # JSON keys come in the order of the CSV header, also when the oracle
    # column is not the last method.
    for argv in (
        ("sweep", "1:50:1", "--methods", "eq1,oracle"),
        ("sweep", "1:6", "--methods", "oracle,eq1"),
    ):
        _, out_csv, _ = run(capsys, *argv, "--format", "csv")
        _, out_json, _ = run(capsys, *argv, "--format", "json")
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)
        header = out_csv.splitlines()[0].split(",")
        for c, j in zip(csv_rows, json_rows, strict=True):
            assert list(j) == header
            assert c["n"] == str(j["n"])
            assert c["eq1"] == str(j["eq1"])
            assert c["oracle"] == str(j["oracle"])
            assert c["agree"] == ("true" if j["agree"] else "false")


#: One case per kind of row the CLI emits: count rows with method strings,
#: a sweep with an oracle column and a false agree, identity rows at
#: 3 * 2^60 and 2^62, and an empty sweep.
_BIG = 2**53 + 1
_SWEEP_COLUMNS = ("n", "eq1", "eq3_grouped", "oracle", "agree")
WRITER_CASES = [
    (cli.COUNT_COLUMNS, [
        {"n": 10**17, "method": m, "count": _BIG + i, "terms": 2**40, "elapsed_ns": 10**15}
        for i, m in enumerate(METHODS)
    ]),
    (_SWEEP_COLUMNS, [
        {"n": _BIG + i, "eq1": 10**16 + i, "eq3_grouped": 10**16 + i,
         "oracle": 10**16 + i - (i == 1), "agree": i != 1}
        for i in range(3)
    ]),
    (cli.IDENTITY_COLUMNS, [
        {"n": 10**18, "head_sum": 3 * 2**60, "tail_sum": _BIG, "lhs": 3 * 2**60 - _BIG,
         "rhs": 2**62, "residual": 3 * 2**60 - _BIG - 2**62},
        {"n": 1, "head_sum": 0, "tail_sum": 0, "lhs": 0, "rhs": 0, "residual": 0},
    ]),
    (_SWEEP_COLUMNS, []),
]
#: EMIT_CHUNK values: a row per chunk, a last chunk shorter than the
#: others, and the default.
CHUNKS = (1, 2, cli.EMIT_CHUNK)


def emitted(columns, rows, fmt: str, chunk: int) -> str:
    """What emit_rows writes for rows given as one array per column,
    EMIT_CHUNK set to chunk rows."""
    cols = {c: np.array([row[c] for row in rows], dtype=None if rows else np.int64)
            for c in columns}
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "EMIT_CHUNK", chunk)
        cli.emit_rows(cols, fmt, out)
    return out.getvalue()


def test_csv_bytes_are_what_csv_writer_writes():
    # emit_rows joins cells itself; the bytes must be those of a
    # minimally quoting csv.writer, for every kind of row the CLI emits,
    # however the rows fall into chunks.
    for columns, rows in WRITER_CASES:
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([str(row[c]).lower() for c in columns])  # True -> true
        for chunk in CHUNKS:
            got = emitted(columns, rows, "csv", chunk)
            assert got.encode() == want.getvalue().encode()


def test_json_bytes_are_json_dumps_of_the_row_dicts():
    for columns, rows in WRITER_CASES:
        want = json.dumps([{c: row[c] for c in columns} for row in rows]) + "\n"
        for chunk in CHUNKS:
            assert emitted(columns, rows, "json", chunk).encode() == want.encode()


#: The table text of each WRITER_CASES entry, as the row-dict writer wrote it.
WRITER_TABLES = [
    "n                   method       count             terms          elapsed_ns\n"
    "100000000000000000  eq1          9007199254740993  1099511627776  1000000000000000\n"
    "100000000000000000  eq3_naive    9007199254740994  1099511627776  1000000000000000\n"
    "100000000000000000  eq3_grouped  9007199254740995  1099511627776  1000000000000000\n"
    "100000000000000000  oracle       9007199254740996  1099511627776  1000000000000000\n",
    "n                 eq1                eq3_grouped        oracle             agree\n"
    "9007199254740993  10000000000000000  10000000000000000  10000000000000000  true\n"
    "9007199254740994  10000000000000001  10000000000000001  10000000000000000  false\n"
    "9007199254740995  10000000000000002  10000000000000002  10000000000000002  true\n",
    "n                    head_sum             tail_sum          lhs                  "
    "rhs                  residual\n"
    "1000000000000000000  3458764513820540928  9007199254740993  3449757314565799935  "
    "4611686018427387904  -1161928703861587969\n"
    "1                    0                    0                 0                    "
    "0                    0\n",
    "n  eq1  eq3_grouped  oracle  agree\n",
]


def test_table_text_pads_every_cell_to_its_column():
    for (columns, rows), want in zip(WRITER_CASES, WRITER_TABLES, strict=True):
        for chunk in CHUNKS:
            assert emitted(columns, rows, "table", chunk) == want


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


def test_sweep_holds_columns_not_row_objects():
    # A dense sweep keeps one int64 per cell and writes its text a chunk
    # at a time, so its peak grows by about 35 bytes per row, where a
    # dict per row grew it by about 290.  The slope between two ranges
    # leaves out the fixed cost of a text chunk of EMIT_CHUNK rows, which
    # a single range's peak per row would carry.
    class Discard:
        def write(self, text):
            pass

        def writelines(self, lines):
            for _ in lines:
                pass

    def peak(end):
        config = SweepConfig(1, end, 1, ("eq1", "eq3_grouped"), "csv", 1)
        tracemalloc.start()
        try:
            code = cli.run_sweep(config, out=Discard())
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (code_lo, lo), (code_hi, hi) = peak(20000), peak(60000)
    assert code_lo == code_hi == EXIT_OK
    assert hi - lo < 100 * 40000


def test_sweep_bad_range(capsys):
    assert run(capsys, "sweep", "50:10:1")[0] == EXIT_USAGE
    assert run(capsys, "sweep", "0:10:1")[0] == EXIT_USAGE


def test_sweep_single_point_n1(capsys):
    code, out, _ = run(capsys, "sweep", "1:1:1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [{"n": 1, "eq1": 0, "eq3_grouped": 0, "agree": True}]


def test_sweep_beyond_dense_limit_uses_recurrence(capsys):
    # ends past the shared-sieve cutoff walk from one anchor: stride 2 is
    # below isqrt(ns[-1])
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


def test_only_pool_workers_install_the_range_context(capsys, monkeypatch, fake_pool):
    # An in-process range runs its rows directly; only the pool's
    # initializer sets the module state that _range_chunk reads.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    inits, real = [], cli._range_init
    monkeypatch.setattr(cli, "_range_init", lambda ctx: inits.append(ctx) or real(ctx))
    argv = ("sweep", "1:100", "--format", "csv")
    code, out_one, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert inits == [] and fake_pool == []
    code, out_two, _ = run(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert fake_pool == [2] and len(inits) == 2  # the fake pool's two workers
    assert out_two == out_one


def test_pooled_sweep_counts_the_oracle_column_once(capsys, monkeypatch, fake_pool):
    # The oracle column is counted once, in the calling process, after the
    # formula rows; no worker counts it.  An oracle-only sweep reads no
    # table, so it starts no pool at all.
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
    fake_pool.clear()
    calls.clear()
    argv = ("sweep", "1:100", "--methods", "oracle", "--format", "csv")
    code, out_two, _ = run(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert fake_pool == []
    assert calls == [(1, range(1, 101))]
    code, out_one, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert out_two == out_one


def test_pooled_sweep_builds_the_dense_sieve_once(capsys, monkeypatch, fake_pool):
    # The dense sieve is built in the calling process and handed to every
    # worker's initializer, not sieved again by each worker.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sieves, real = [], cli.build_prime_table
    monkeypatch.setattr(
        cli, "build_prime_table", lambda limit: sieves.append(limit) or real(limit)
    )
    argv = ("sweep", "1:100", "--format", "csv")
    code, out_two, _ = run(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert fake_pool == [2]
    assert sieves == [100]
    code, out_one, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert out_two == out_one


def test_pooled_range_holds_its_rows_once(monkeypatch, fake_pool):
    # Each chunk is written into one array of every row as the pool
    # yields it.  Keeping every chunk and then their join would hold the
    # rows twice; 40 columns make the rows dwarf the range's dense sieve.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ns, columns = range(1, 20001), tuple(f"c{k}" for k in range(40))

    def row(n, qpi):
        return [qpi.n + k for k in range(len(columns))]

    tracemalloc.start()
    try:
        cols = cli._run_chunked(row, columns, ns, 10**11, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fake_pool == [2]
    assert cols["c0"].tolist() == list(ns) and cols["c39"][-1] == ns[-1] + 39
    assert peak < 1.5 * len(ns) * len(columns) * 8


def test_in_process_range_returns_the_row_loop_array(monkeypatch):
    # One worker takes the row loop's own array, without a copy.
    made = []
    real = cli._rows
    monkeypatch.setattr(cli, "_rows", lambda *a: made.append(real(*a)) or made[-1])
    cols = cli._run_chunked(lambda n, qpi: [n, n], ("a", "b"), range(1, 50), 10**11, 1)
    (rows,) = made
    assert np.shares_memory(cols["a"], rows) and np.shares_memory(cols["b"], rows)


def test_in_process_sweep_frees_its_dense_sieve(monkeypatch):
    # Once a range ends, nothing holds its dense sieve, so the next range
    # does not build its own table while the old one is still held.
    built, real = [], cli.build_prime_table

    def build(limit):
        table = real(limit)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(cli, "build_prime_table", build)
    config = SweepConfig(1, 3000, 1, ("eq1",), "csv", 1)
    assert cli.run_sweep(config, out=io.StringIO()) == EXIT_OK
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None


def wrong_first_build(monkeypatch, d: int, at=None) -> None:
    """Add 1 to larges[d] of the first primes.build_quotient_pi table (of n = at, if given)."""
    real, calls = primes.build_quotient_pi, []

    def build(n, **kwargs):
        qpi = real(n, **kwargs)
        if calls or (at is not None and n != at):
            return qpi
        calls.append(n)
        larges = qpi.larges.copy()
        larges[d] += 1
        return dataclasses.replace(qpi, larges=larges)

    monkeypatch.setattr(primes, "build_quotient_pi", build)


@pytest.mark.parametrize("d", [12, 13])
def test_stride_one_sweep_names_a_wrong_anchor_entry(capsys, monkeypatch, d):
    # One wrong larges[d] in the anchor, composite d = 12 or prime d = 13:
    # eq1 and eq3_grouped still agree, but the check of the last table
    # against its own build names the entry, and no row is printed.  A
    # strided range walks too, and is checked the same way.
    for b, stride in ((10**8 + 17, 1), (10**8 + 1007, 10)):
        want = int(primes.build_quotient_pi(b).larges[d])
        with monkeypatch.context() as patch:
            wrong_first_build(patch, d)
            code, out, err = run(capsys, "sweep", f"{10**8 + 7}:{b}:{stride}")
        assert (code, out) == (EXIT_DISAGREE, "")
        assert err == (
            f"internal consistency failure: derived table at n={b} differs from "
            f"build_quotient_pi({b}): larges[{d}] want {want} got {want + 1}\n"
        )


def test_selftest_checks_the_derived_window_table(capsys, monkeypatch):
    # selftest derives table(10^9) from table(10^9 - 10^5) and compares it
    # with build_quotient_pi(10^9) entry by entry.
    a = 10**9 - 10**5
    wrong_first_build(monkeypatch, 20, at=a)
    code, out, err = run(capsys, "selftest")
    assert code == EXIT_DISAGREE
    assert "FAIL" not in out
    assert err.startswith(
        f"internal consistency failure: derived table at n={10**9} differs from "
        f"build_quotient_pi({10**9}): larges[20] want "
    )


def test_stride_one_sweep_above_the_dense_limit_builds_two_tables(capsys, monkeypatch):
    # A stride up to isqrt(ns[-1]) walks: one anchor and one check, and
    # the tables between are derived.  A wider stride builds each n's
    # table alone and walks nothing.
    built, walked, real = [], [], primes.build_quotient_pi
    real_blocks = primes._factor_blocks
    monkeypatch.setattr(
        primes, "build_quotient_pi", lambda n, **kw: built.append(n) or real(n, **kw)
    )
    monkeypatch.setattr(
        primes, "_factor_blocks", lambda *a, **kw: walked.append(a[:2]) or real_blocks(*a, **kw)
    )
    monkeypatch.setattr(cli, "build_quotient_pi", None)  # no build outside the walk
    for a, b, stride, walks in (
        (10**9, 10**9 + 200, 1, True),
        (10**8, 10**8 + 1000, 10, True),
        (10**8, 10**8 + 10**6, 10**5, False),
    ):
        built.clear()
        walked.clear()
        code, out, _ = run(capsys, "sweep", f"{a}:{b}:{stride}", "--format", "csv")
        assert code == EXIT_OK
        ns = range(a, b + 1, stride)
        assert built == ([a, b] if walks else list(ns))
        assert walked == ([(a + 1, b)] if walks else [])
        lines = out.splitlines()
        assert len(lines) == len(ns) + 1
        for n in ns[::10]:  # each row as a build of its own n gives it
            qpi = real(n)
            counts = [cli.method_count(n, m, qpi).count for m in ("eq1", "eq3_grouped")]
            assert lines[1 + ns.index(n)] == f"{n},{counts[0]},{counts[1]},true"


def test_pooled_stride_one_sweep_matches_in_process(capsys, monkeypatch, fake_pool):
    # A pooled walk has one chunk per worker, each with one anchor and one
    # check build.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    built, real = [], primes.build_quotient_pi
    monkeypatch.setattr(
        primes, "build_quotient_pi", lambda n, **kw: built.append(n) or real(n, **kw)
    )
    a = 10**8
    argv = ("sweep", f"{a}:{a + 40}", "--format", "csv")
    code, out_two, _ = run(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert fake_pool == [2]
    assert built == [a, a + 20, a + 21, a + 40]  # 2 builds per worker
    code, out_one, _ = run(capsys, *argv, "--workers", "1")
    assert code == EXIT_OK
    assert out_two == out_one


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "1:200", "--methods", "eq1,eq3_naive,oracle", "--format", "csv"),
        ("identity", "100000000:100000040", "--format", "csv"),
    ],
)
def test_spawn_pool_prints_what_one_worker_prints(capsys, monkeypatch, argv):
    # A spawn pool pickles the range context (the row function and the
    # dense PrimeTable) to each worker, where fork would inherit it.
    pools = []

    def spawn_pool(**kwargs):
        pools.append(kwargs["max_workers"])
        return ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn"), **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", spawn_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out_two, _ = run(capsys, *argv, "--workers", "2")
    assert code == EXIT_OK
    assert pools == [2]
    assert not multiprocessing.active_children()
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
    # count builds through cli's name, and a range walk through primes'.
    builds = []
    real = primes.build_quotient_pi

    def build(n, **kw):
        builds.append(n)
        return real(n, **kw)

    monkeypatch.setattr(cli, "build_quotient_pi", build)
    monkeypatch.setattr(primes, "build_quotient_pi", build)
    two_n = f"10^10:2^52:{2**52 - 10**10}"  # the range 10^10, 2^52
    for argv in (("count", "10^11,2^52"), ("identity", two_n), ("sweep", two_n)):
        code, out, err = run(capsys, *argv, "--max-n", "2^52")
        assert (code, out, builds) == (EXIT_USAGE, "", []), argv
        assert "quotient-table budget" in err and "agree" not in err, argv


def wrong_small(qpi, v: int):
    """A copy of qpi with 1 added to smalls[v]; smalls may view a shared prefix."""
    smalls = qpi.smalls.copy()
    smalls[v] += 1
    return dataclasses.replace(qpi, smalls=smalls)


def tail_entry(n: int, parity: int) -> tuple[int, int]:
    """(v, g): the least 2 <= v <= n // (r + 1) whose prime count
    g = larges[v] - larges[v + 1] is nonzero and of the given parity.

    The grouped tail weighs smalls[v] by g, so 1 more in smalls[v] moves
    the ordered pair sum by g and leaves eq1 and pi(isqrt(n)) as they are.
    """
    qpi = primes.build_quotient_pi(n)
    last = n // (qpi.root + 1)
    gaps = (qpi.larges[2 : last + 1] - qpi.larges[3 : last + 2]).tolist()
    return next((v, g) for v, g in enumerate(gaps, 2) if g and g % 2 == parity and v < qpi.root)


@pytest.mark.parametrize("parity", [0, 1])
def test_dense_sweep_catches_a_wrong_tail_entry(capsys, monkeypatch, parity):
    # An even shift moves eq3_grouped by g / 2 and the rows disagree; an
    # odd one makes the eq3 dividend odd, which its parity guard refuses.
    n = 10**6 + 3
    v, g = tail_entry(n, parity)
    real = primes.QuotientPiTable.from_dense
    monkeypatch.setattr(
        primes.QuotientPiTable,
        "from_dense",
        staticmethod(lambda m, table: wrong_small(real(m, table), v) if m == n else real(m, table)),
    )
    code, out, err = run(capsys, "sweep", f"{n - 3}:{n + 3}", "--format", "csv")
    assert code == EXIT_DISAGREE
    if parity:
        assert out == ""
        assert err.startswith(f"internal consistency failure: pair_sum({n}) + pi(isqrt({n})) = ")
    else:
        eq1 = cli.method_count(n, "eq1", primes.build_quotient_pi(n)).count
        assert f"{n},{eq1},{eq1 + g // 2},false\n" in out
        assert err == f"DISAGREEMENT at n={n}: eq1={eq1}, eq3_grouped={eq1 + g // 2}\n"


@pytest.mark.parametrize("parity", [0, 1])
def test_walked_sweep_catches_a_wrong_tail_entry_in_its_anchor(capsys, monkeypatch, parity):
    a, b = 10**8 + 7, 10**8 + 17
    v, _ = tail_entry(a, parity)
    real, calls = primes.build_quotient_pi, []

    def build(n, **kwargs):
        qpi = real(n, **kwargs)
        calls.append(n)
        return wrong_small(qpi, v) if len(calls) == 1 else qpi

    monkeypatch.setattr(primes, "build_quotient_pi", build)
    code, out, err = run(capsys, "sweep", f"{a}:{b}", "--format", "csv")
    assert (code, out, calls[0]) == (EXIT_DISAGREE, "", a)
    assert err.startswith("internal consistency failure: ")


@pytest.mark.parametrize("span", ["1000:1200", f"{10**8}:{10**8 + 60}"], ids=["dense", "walked"])
def test_sweep_reads_one_head_sum_and_one_tail_sum_per_n(capsys, monkeypatch, span):
    # eq1 and eq3_grouped share one head sum per n, and a row without
    # eq3_grouped reads no tail.
    calls = collections.Counter()
    for name in ("_head_sum", "_tail_sum"):
        real = getattr(semiprimes, name)
        monkeypatch.setattr(
            semiprimes, name, lambda qpi, real=real, name=name: calls.update([name]) or real(qpi)
        )
    a, b = map(int, span.split(":"))
    for methods, want in (
        ("eq1,eq3_grouped", {"_head_sum": b - a + 1, "_tail_sum": b - a + 1}),
        ("eq3_grouped,eq1", {"_head_sum": b - a + 1, "_tail_sum": b - a + 1}),
        ("eq1", {"_head_sum": b - a + 1}),
    ):
        calls.clear()
        assert run(capsys, "sweep", span, "--methods", methods, "--format", "csv")[0] == EXIT_OK
        assert calls == want, methods


#: sha256 of stdout, and the exit code, of commands whose output must not
#: change with how rows are computed.
STDOUT_DIGESTS = {
    "sweep 1000000:1005000 --format csv": (
        0,
        "6d3109c533586dbc1eec2a198b975533e6f2d661c908f85a978b301a13d13757",
    ),
    "sweep 1:3000 --methods eq1,eq3_grouped,eq3_naive,oracle --format json": (
        0,
        "e50864effff4b333f3d8191cce74ff5ad8fbf78cc3b3e9262c89e66b3d71aa53",
    ),
    "sweep 1:2000 --methods eq3_grouped,eq1 --format table": (
        0,
        "aeaef3bedcce9d227c007ec689a3c803775c0cd0c092da300e7dd8decb649569",
    ),
    "sweep 1000000000:1000000200 --format csv": (
        0,
        "7ca32bcec8622273505565c79ca67330db18ad9b75f3d9dda41c12cfa67bdfbc",
    ),
    "sweep 1:800:3 --methods eq1,eq3_grouped,oracle --format csv --workers 2": (
        0,
        "98524c9da5e56f6a01274fff56836adf8dff95c2ed74399d89127def5779e54c",
    ),
    "identity 1:5000 --format csv": (
        0,
        "2c1f66fff639d278212fc11fb01d0577dd617a653410cf89f2c68ef7b1d1ece8",
    ),
    "identity 1:5000 --format json": (
        0,
        "b4522d8249387f58e1955d6d223f411f35e97d06ef84595a78032548a56ef97b",
    ),
    "identity 1:5000 --format table": (
        0,
        "b2493be568299690a9292d2f4c160a4e09a7e0ff34b6311a3407dc6ef0accb1b",
    ),
    "selftest": (
        0,
        "3bb8ad104f5c2bd78933eeee7ae70c4049685c68db88f456399b85d5156fecbc",
    ),
}


@pytest.mark.parametrize("command", STDOUT_DIGESTS)
def test_stdout_bytes_are_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_DIGESTS[command]


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
