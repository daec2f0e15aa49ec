"""Command-line front end: `semipi`.

Subcommands
-----------
count     timed semiprime counts at one or more n, by one or more methods
identity  evaluate both sides of the pi identity at one n or over a range
sweep     per-n counts over a range, optionally across worker processes
selftest  the GOLDEN values (n = 25, OEIS pi and pi2 at 10^k), oracle windows

Methods are chosen in one place: `semiprimes.METHOD_CAPS` holds their caps
and `method_count` maps a name to its function, for `count`, which times
each method alone, and for `selftest`.  A `sweep` row reads all of its
formula methods through one `semiprimes.formula_counts`: one head sum
per n, a tail sum only for eq3_grouped, and for eq3_naive the primes of
one sieve per range.  Its oracle column is one pass over the range.
`sweep` and `identity` share one range path (one n is the range n:n),
run in-process or on a pool capped at the CPU count, which gives one
int64 array per column: no object is kept per row, and agree and the
identity's residual test are vector operations.  Every command writes
its rows through `emit_rows`, which reads columns and formats them a
chunk of rows at a time.  Each setting is checked by one `_check_*`.

Exit codes: 0 success (and all methods agree), 1 usage or range error,
2 mathematical disagreement between methods (a differential-test hit).
Machine-readable rows go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import partial
from itertools import chain

import numpy as np

from . import __version__
from .errors import InternalConsistencyError, ResourceLimitError
from .identity import IdentityReport, check_identity
from .primes import (
    MAX_QUOTIENT_ROOT,
    PrimeTable,
    QuotientPiTable,
    SUPPORTED_MAX_N,
    _primes,
    _quotient_root,
    build_prime_table,
    build_quotient_pi,
    isqrt,
    quotient_tables,
)
from .semiprimes import (
    METHOD_CAPS,
    METHODS,
    _naive_sum,
    count_semiprimes_eq1,
    count_semiprimes_eq3,
    count_semiprimes_oracle,
    formula_counts,
    oracle_counts,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2

#: Ranges ending at or below this share one dense sieve across the sweep.
DENSE_SWEEP_LIMIT = 10**7

FORMATS = ("table", "csv", "json")

#: Rows that emit_rows formats per write: what writing holds, whatever
#: the length of the range.
EMIT_CHUNK = 2**14

COUNT_COLUMNS = ("n", "method", "count", "terms", "elapsed_ns")
IDENTITY_COLUMNS = tuple(f.name for f in fields(IdentityReport))

#: Independently known values, checked by `selftest` and the acceptance
#: suite.  "n25" holds the worked example at n = 25: pi at the quotients
#: 25 // d, pi2(25), eq1's term count, the ordered pair sum with its upper
#: index pi(25 // 2), and the identity's (head_sum, tail_sum, lhs, rhs,
#: residual).  "oeis" maps k to pi(10^k) (OEIS A006880) and pi2(10^k)
#: (OEIS A072000) for k = 1..12.
GOLDEN = {
    "n25": {
        "pi_at_quotients": {12: 5, 8: 4, 5: 3, 3: 2, 2: 1},
        "pi2": 9,
        "eq1_terms": 3,
        "pair_sum": 15,
        "pair_sum_upper_index": 5,
        "identity": (12, 3, 9, 9, 0),
    },
    "oeis": {
        1: (4, 4),
        2: (25, 34),
        3: (168, 299),
        4: (1229, 2625),
        5: (9592, 23378),
        6: (78498, 210035),
        7: (664579, 1904324),
        8: (5761455, 17427258),
        9: (50847534, 160788536),
        10: (455052511, 1493776443),
        11: (4118054813, 13959990342),
        12: (37607912018, 131126017178),
    },
}


@dataclass(frozen=True)
class SweepConfig:
    """Validated parameters of one sweep invocation."""

    start: int
    end: int
    stride: int
    methods: tuple[str, ...]
    output_format: str
    parallelism: int
    max_n: int = SUPPORTED_MAX_N

    def __post_init__(self):
        _check_range(self.start, self.end, self.stride)
        _check_methods(self.methods)
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")
        _check_workers(self.parallelism)


def _check_range(start: int, end: int, stride: int) -> None:
    if start < 1:
        raise ValueError(f"range start must be >= 1, got {start}")
    if start > end:
        raise ValueError(f"range start {start} > end {end}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def _range_ns(start: int, end: int, stride: int, methods: tuple, max_n: int) -> range:
    """Every n of a validated range, refused when its last n is past a cap.

    The last n, not the nominal end, is what the method caps and max_n
    are checked against and what the range's shared tables must cover.
    """
    _check_range(start, end, stride)
    ns = range(start, end + 1, stride)
    _check_n(ns[-1], methods, max_n)
    return ns


# ---------------------------------------------------------------------------
# argument parsing


def parse_number(text: str) -> int:
    """Exact decimal integer with optional `_` separators and `^` powers.

    Accepts forms like 25, 1_000_000 and 10^6.  A leading sign applies
    to the whole power, so -3^2 is -9.  Floating-point input is
    rejected: prime counts are floor-evaluated, so real arguments would
    be ambiguous.
    """
    s = text.strip().replace("_", "")
    try:
        if "^" in s:
            base_s, exp_s = s.split("^", 1)
            base, exp = int(base_s, 10), int(exp_s, 10)
            if not 0 <= exp <= 128:
                raise ValueError
            sign = -1 if base_s.startswith("-") else 1
            return sign * abs(base) ** exp
        return int(s, 10)
    except ValueError:
        raise ValueError(
            f"cannot parse {text!r} as an integer (digits, '_' separators "
            "and base^exp with exponent <= 128 are accepted)"
        ) from None


def parse_range(text: str) -> tuple[int, int, int]:
    """'a:b' or 'a:b:s' -> (start, end, stride), numbers via parse_number."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"range must look like a:b or a:b:s, got {text!r}")
    start, end = parse_number(parts[0]), parse_number(parts[1])
    stride = parse_number(parts[2]) if len(parts) == 3 else 1
    return start, end, stride


def parse_methods(text: str) -> tuple[str, ...]:
    """Comma-separated method list, validated, deduplicated, order kept."""
    methods = tuple(dict.fromkeys(name.strip() for name in text.split(",")))
    _check_methods(methods)
    return methods


def _check_methods(methods: tuple[str, ...]) -> None:
    if not methods:
        raise ValueError("at least one method is required")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods must be distinct, got {methods}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _check_n(n: int, methods: tuple[str, ...], max_n: int) -> None:
    """Refuse n below 1, past the cap of one of the methods, or past max_n.

    When the work reads a quotient table, the table's own bounds
    (_quotient_root) refuse n, isqrt(n) past the table budget included,
    so that no command builds a table before it fails.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for m, cap in METHOD_CAPS.items():
        if m in methods and cap is not None and n > cap:
            raise ValueError(f"{m} method supports n <= {cap}, got {n}")
    if _needs_qpi(methods):
        _quotient_root(n, max_n)
    elif n > max_n:
        raise ValueError(f"n={n} exceeds the supported range (max_n={max_n})")


# ---------------------------------------------------------------------------
# output formatting


def _cells(col: np.ndarray) -> list:
    """The entries of a column as Python values, a bool as the word true or false."""
    values = col.tolist()
    return [("false", "true")[b] for b in values] if col.dtype == bool else values


def emit_rows(cols: dict[str, np.ndarray], fmt: str, out) -> None:
    """Write equal-length columns to `out` as an aligned table, CSV, or a JSON array.

    All three formats carry identical values, one row per index, in the
    order of cols.  Each format is written EMIT_CHUNK rows at a time from
    .tolist() of every column, so writing holds one chunk of text, not
    the range's: json as the rows of one json.dumps per chunk, whose bytes
    equal one json.dumps of every row's dict; csv and table one line per
    row from a %-template.  A CSV cell is an integer, true or false, a
    method name or a column name, none of which holds a comma, a quote or
    a line break, so the lines are plain joins, byte for byte what
    csv.writer would quote minimally.  The table pads every cell to the
    widest of its column, found in a first pass over the chunks.
    """
    names, values = tuple(cols), tuple(cols.values())
    chunks = [slice(i, i + EMIT_CHUNK) for i in range(0, len(values[0]), EMIT_CHUNK)]
    if fmt == "json":
        out.write("[")
        for k, s in enumerate(chunks):
            rows = [dict(zip(names, r)) for r in zip(*(c[s].tolist() for c in values))]
            out.write((", " if k else "") + json.dumps(rows)[1:-1])
        out.write("]\n")
        return
    if fmt == "csv":
        line = ",".join(["%s"] * len(names))
    else:
        widths = [len(name) for name in names]
        for s in chunks:
            widths = [max(w, *map(len, map(str, _cells(c[s])))) for w, c in zip(widths, values)]
        line = "  ".join(f"%-{w}s" for w in widths)
    out.write((line % names).rstrip() + "\n")
    for s in chunks:
        rows = zip(*(_cells(c[s]) for c in values))
        out.write("".join([(line % r).rstrip() + "\n" for r in rows]))


def _report_disagreement(n: int, counts: dict[str, int]) -> None:
    detail = ", ".join(f"{m}={c}" for m, c in counts.items())
    print(f"DISAGREEMENT at n={n}: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# per-n computation shared by count / sweep / selftest


def method_count(n: int, method: str, qpi: QuotientPiTable | None):
    """One (n, method) evaluation; returns the SemiprimeCount record.

    Every method but the oracle reads only qpi, the quotient table for n;
    the oracle reads no table and may be passed None.  The counting
    functions are read from this module's globals at each call, so a
    replacement installed here is used.
    """
    if method == "oracle":
        return count_semiprimes_oracle(n)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "eq1":
        return count_semiprimes_eq1(n, qpi)
    return count_semiprimes_eq3(n, qpi, method.removeprefix("eq3_"))


def _needs_qpi(methods: tuple[str, ...]) -> bool:
    """Whether the work reads a quotient table: every method but the
    oracle does, and so does the identity, which passes no methods."""
    return not methods or any(m != "oracle" for m in methods)


def _timed_counts(n: int, methods: tuple[str, ...], max_n: int) -> tuple[list[tuple], int, int]:
    """(count, terms, elapsed_ns) of each method at n, each timed from n alone.

    The quotient table is built once, and only if a method reads it.  Its
    build time, also returned, is added to the formula time of every
    method that reads it, so elapsed_ns is the wall time of that count
    from n alone; the oracle reads no table and is charged its own call only.
    The bytes of the table's smalls and larges are returned last (0 with
    no table).
    """
    qpi, build_ns, table_bytes = None, 0, 0
    if _needs_qpi(methods):
        t0 = time.perf_counter_ns()
        qpi = build_quotient_pi(n, max_n=max_n)
        build_ns = time.perf_counter_ns() - t0
        table_bytes = qpi.smalls.nbytes + qpi.larges.nbytes
    rows = []
    for m in methods:
        t0 = time.perf_counter_ns()
        rec = method_count(n, m, qpi)
        elapsed = time.perf_counter_ns() - t0 + (build_ns if m != "oracle" else 0)
        rows.append((rec.count, rec.term_count, elapsed))
    return rows, build_ns, table_bytes


# ---------------------------------------------------------------------------
# range machinery for sweep / identity (module-level so it pickles under
# process pools)

_WORKER_CTX: tuple | None = None


def _range_init(ctx: tuple) -> None:
    """Install, in a pool worker, the (row, width, tables) triple that _range_chunk reads."""
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _rows(row, width: int, tables, ns: range) -> np.ndarray:
    """row(n, qpi) of each n of ns, read from the table that the range's
    source gives, as the len(ns) rows of one int64 array of width columns."""
    values = chain.from_iterable(row(n, qpi) for n, qpi in zip(ns, tables(ns)))
    return np.fromiter(values, np.int64, count=len(ns) * width).reshape(-1, width)


def _range_chunk(ns: range) -> np.ndarray:
    """The rows of ns in a pool worker, from the triple that _range_init installed."""
    return _rows(*_WORKER_CTX, ns)


def _dense_tables(table: PrimeTable, ns: range):
    """The quotient table of each n of ns, looked up in the range's dense sieve."""
    return (QuotientPiTable.from_dense(n, table) for n in ns)


def _one_by_one(ns: range, *, max_n: int):
    """The quotient table of each n of ns from a walk of that n alone,
    which yields just its anchor build."""
    return (qpi for n in ns for qpi in quotient_tables(range(n, n + 1), max_n=max_n))


def _identity_row(n: int, qpi: QuotientPiTable) -> list[int]:
    rep = check_identity(n, qpi)
    return [getattr(rep, c) for c in IDENTITY_COLUMNS]


def _run_chunked(row, columns: tuple[str, ...], ns: range, max_n: int, workers: int) -> dict:
    """The column of each name in columns: row(n, qpi) gives their values
    at n, for every n of ns, in order, mapped over contiguous chunks.

    The table source and the chunk size are picked here, once per range:

    * two or more n up to DENSE_SWEEP_LIMIT share one dense sieve, built
      here once: forked workers inherit it, spawn or forkserver pickles
      it to each worker, its pi_prefix and divisors rows with it, and
      in-process it is freed when the range ends.  Each n's from_dense
      then views the prefix and divides by the row, copying neither;
    * any other range walks, in one chunk per worker: each walk pays
      one anchor build and one check build, so more chunks only add
      builds.  A stride up to isqrt(ns[-1]) walks the whole chunk
      (quotient_tables).  A wider one walks each n alone (_one_by_one),
      which yields just its anchor: one build per n beats sieving the
      gaps.  It does not make each n a chunk of its own: a chunk frees
      all it holds when it ends, and the next build pages it in again.

    The pool never exceeds the CPU count or the number of chunks.  One
    worker, or a range of one chunk, runs its rows directly in-process,
    through the same row loop (_rows) that each pool worker runs, so the
    output is the same at any worker count; only pool workers set module
    state.  Each chunk comes back as one int64 array, filled as its rows
    come, and is written into one int64 array of every row as pool.map
    yields it, so a pooled range holds its rows once, plus the chunks
    not yet written, never every chunk and their join.
    """
    _check_workers(workers)
    workers = min(workers, os.cpu_count() or 1)
    chunk_size = len(ns) if workers == 1 else min(5000, -(-len(ns) // (workers * 4)))
    if len(ns) > 1 and ns[-1] <= DENSE_SWEEP_LIMIT:
        tables = partial(_dense_tables, build_prime_table(ns[-1]))
    else:
        walk = quotient_tables if ns.step <= isqrt(ns[-1]) else _one_by_one
        tables = partial(walk, max_n=max_n)
        chunk_size = -(-len(ns) // workers)
    if chunk_size >= len(ns):  # one chunk, as at one worker
        return dict(zip(columns, _rows(row, len(columns), tables, ns).T))
    chunks = [ns[i : i + chunk_size] for i in range(0, len(ns), chunk_size)]
    rows = np.empty((len(ns), len(columns)), dtype=np.int64)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_range_init,
        initargs=((row, len(columns), tables),),
    ) as pool:
        for i, part in zip(range(0, len(ns), chunk_size), pool.map(_range_chunk, chunks)):
            rows[i : i + len(part)] = part
    return dict(zip(columns, rows.T))


# ---------------------------------------------------------------------------
# subcommands


def cmd_count(args) -> int:
    """Median time of --reps counts at every n; all n are checked before any work."""
    ns = [parse_number(part) for part in args.n.split(",")]
    methods = parse_methods(args.methods)
    if args.reps < 1:
        raise ValueError(f"reps must be >= 1, got {args.reps}")
    for n in ns:
        _check_n(n, methods, args.max_n)
    print(
        f"# semipi {__version__} count  date={datetime.now(timezone.utc).isoformat()}  "
        f"python={sys.version.split()[0]}  numpy={np.__version__}  "
        f"cpus={os.cpu_count()}  reps={args.reps}",
        file=sys.stderr,
    )
    rows = []
    exit_code = EXIT_OK
    for n in ns:
        counts: dict[str, int] = {}
        runs, builds, sizes = zip(
            *(_timed_counts(n, methods, args.max_n) for _ in range(args.reps))
        )
        for m, per_rep in zip(methods, zip(*runs)):
            seen = sorted({count for count, _, _ in per_rep})
            if len(seen) > 1:
                raise InternalConsistencyError(f"{m} at n={n} is nondeterministic: {seen}")
            counts[m], terms, _ = per_rep[0]
            rows.append((n, m, counts[m], terms, int(statistics.median(t for *_, t in per_rep))))
        if _needs_qpi(methods):
            ms = statistics.median(builds) / 1e6
            print(
                f"build: build_quotient_pi({n}) took {ms:.3f} ms (median), "
                f"tables {sizes[0] / 2**20:.3g} MiB",
                file=sys.stderr,
            )
        if len(set(counts.values())) == 1:
            print(f"agree: pi2({n}) = {counts[m]} by {', '.join(methods)}", file=sys.stderr)
        else:
            _report_disagreement(n, counts)
            exit_code = EXIT_DISAGREE
    emit_rows(dict(zip(COUNT_COLUMNS, map(np.array, zip(*rows)))), args.format, sys.stdout)
    return exit_code


def cmd_identity(args) -> int:
    target = args.target if ":" in args.target else f"{args.target}:{args.target}"
    ns = _range_ns(*parse_range(target), (), args.max_n)
    cols = _run_chunked(_identity_row, IDENTITY_COLUMNS, ns, args.max_n, args.workers)
    emit_rows(cols, args.format, sys.stdout)
    bad = np.flatnonzero(cols["residual"])
    if len(bad):
        n, lhs, rhs = (cols[c][bad[0]] for c in ("n", "lhs", "rhs"))
        print(
            f"IDENTITY VIOLATION at n={n}: lhs={lhs} rhs={rhs} "
            f"({len(bad)} of {len(ns)} rows nonzero)",
            file=sys.stderr,
        )
        return EXIT_DISAGREE
    print(f"residual 0 for all {len(ns)} n", file=sys.stderr)
    return EXIT_OK


def run_sweep(config: SweepConfig, out=None) -> int:
    """Execute a sweep and write its rows in ascending n; returns exit code.

    The oracle column is counted once over the range after the formula
    rows; an oracle-only sweep reads no table and starts no pool.
    eq3_naive's primes come from one sieve of ns[-1] // 2, made here
    only when eq3_naive is asked and bound into the row, so every row
    of the range reads it, whatever its table source, and pool workers
    receive it with the row.

    Every column, one int64 array each and agree one vector comparison,
    is computed before emit_rows writes the first line: a failed end
    check of a range walk must leave stdout empty, and the table format
    needs the width of every column before its first line.
    """
    out = out if out is not None else sys.stdout
    methods = config.methods
    ns = _range_ns(config.start, config.end, config.stride, methods, config.max_n)
    formulas = tuple(m for m in methods if m != "oracle")
    primes = _primes(ns[-1] // 2) if "eq3_naive" in methods else None
    row = partial(formula_counts, methods=formulas, primes=primes)
    cols = _run_chunked(row, formulas, ns, config.max_n, config.parallelism) if formulas else {}
    # Made after the tables: made before them, it outlived a walk's builds,
    # and a run of 6-n walks near 5 * 10^9 peaked 0.4 MiB higher in RSS,
    # most likely because the heap could not shrink below it.
    cols["n"] = np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)
    if "oracle" in methods:
        cols["oracle"] = oracle_counts(1, ns)
    cols = {c: cols[c] for c in ("n", *methods)}
    cols["agree"] = np.logical_and.reduce([cols[m] == cols[methods[0]] for m in methods])
    emit_rows(cols, config.output_format, out)
    disagreeing = np.flatnonzero(~cols["agree"])
    if len(disagreeing):
        i = disagreeing[0]
        _report_disagreement(cols["n"][i], {m: cols[m][i] for m in methods})
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_sweep(args) -> int:
    start, end, stride = parse_range(args.range)
    config = SweepConfig(
        start=start,
        end=end,
        stride=stride,
        methods=parse_methods(args.methods),
        output_format=args.format,
        parallelism=args.workers,
        max_n=args.max_n,
    )
    return run_sweep(config)


def cmd_selftest(args) -> int:
    """Check every value in GOLDEN and, from 10^9 up, two window checks.

    With a = 10^k - 10^5 + 1, quotient_tables derives table(10^k) from
    table(a - 1) and raises unless it equals build_quotient_pi(10^k) entry
    by entry, and eq1(10^k) - eq1(a - 1) must equal the table-free oracle
    count of [a, 10^k].
    """
    failures = 0

    def check(name: str, got, want) -> None:
        nonlocal failures
        if got == want:
            print(f"ok   {name}: {got}")
        else:
            failures += 1
            print(f"FAIL {name}: got {got}, want {want}")

    golden = GOLDEN["n25"]
    qpi = build_quotient_pi(25)
    pi_25 = golden["pi_at_quotients"]
    check("pi at quotients of 25", [qpi.pi(v) for v in pi_25], list(pi_25.values()))
    for m in METHODS:
        check(f"pi2(25) via {m}", method_count(25, m, qpi).count, golden["pi2"])
    eq1 = count_semiprimes_eq1(25, qpi)
    check("eq1 term count at 25", eq1.term_count, golden["eq1_terms"])

    rep = check_identity(25, qpi)  # its head and tail are the grouped pair sum's
    check("pair sum 25 naive", _naive_sum(25, qpi), golden["pair_sum"])
    check("pair sum 25 grouped", rep.head_sum + rep.tail_sum, golden["pair_sum"])
    check("pair sum 25 upper index", qpi.pi(25 // 2), golden["pair_sum_upper_index"])
    check(
        "identity at 25 (head, tail, lhs, rhs, residual)",
        (rep.head_sum, rep.tail_sum, rep.lhs, rep.rhs, rep.residual),
        golden["identity"],
    )

    for k, (pi_k, pi2_k) in GOLDEN["oeis"].items():
        n = 10**k
        if n > SUPPORTED_MAX_N:
            continue
        if k >= 9:
            a = n - 10**5 + 1
            below_qpi, qpi = quotient_tables(range(a - 1, n + 1, n - a + 1))
        else:
            qpi = build_quotient_pi(n)
        eq1, eq3 = (method_count(n, m, qpi).count for m in ("eq1", "eq3_grouped"))
        got = (qpi.pi(n), eq1, eq3)
        check(f"pi, eq1, eq3_grouped at 10^{k} (OEIS)", got, (pi_k, pi2_k, pi2_k))
        if k >= 9:  # table-free: shows a fault that differs between a - 1 and n
            below = count_semiprimes_eq1(a - 1, below_qpi).count
            window = int(oracle_counts(a, range(n, n + 1))[0])
            check(f"eq1 - eq1(a - 1) = oracle count of [a, 10^{k}], a = {a}", eq1 - below, window)

    if failures:
        print(f"{failures} selftest check(s) FAILED", file=sys.stderr)
        return EXIT_DISAGREE
    print("selftest passed", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the CLI contract reserves
    # 2 for mathematical disagreement, so remap usage errors to 1.
    def error(self, message):
        raise _UsageError(message)


def _add_common(sub, *, methods_default=None, workers=False):
    sub.add_argument(
        "--format",
        choices=FORMATS,
        default="table",
        help="output format for stdout rows (default: table)",
    )
    sub.add_argument(
        "--max-n",
        type=parse_number,
        default=SUPPORTED_MAX_N,
        metavar="N",
        help=f"raise the supported-range guard (default {SUPPORTED_MAX_N}); "
        f"the quotient table still refuses isqrt(n) > {MAX_QUOTIENT_ROOT}, "
        "so n < (2^25 + 1)^2 = 2^50 + 2^26 + 1",
    )
    if methods_default is not None:
        sub.add_argument(
            "--methods",
            default=methods_default,
            help=f"comma-separated subset of {{{','.join(METHODS)}}} "
            f"(default: {methods_default})",
        )
    if workers:
        sub.add_argument(
            "--workers",
            type=parse_number,
            default=1,
            metavar="K",
            help="worker processes, at most the CPU count (default 1)",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semipi",
        description="Exact semiprime counting and prime-counting identity checks.",
    )
    parser.add_argument("--version", action="version", version=f"semipi {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="count semiprimes <= n, timed")
    p.add_argument("n", metavar="N[,N...]", help="one or more n (10^6 and 1_000_000 accepted)")
    _add_common(p, methods_default="eq1,eq3_grouped")
    p.add_argument(
        "--reps", type=parse_number, default=1, help="runs per n; elapsed_ns is their median"
    )
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("identity", help="check lhs = rhs of the pi identity")
    p.add_argument("target", metavar="N|A:B[:S]", help="one n, or an inclusive range")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_identity)

    p = subs.add_parser("sweep", help="per-n counts over a range")
    p.add_argument("range", metavar="A:B[:S]", help="inclusive range with optional stride")
    _add_common(p, methods_default="eq1,eq3_grouped", workers=True)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("selftest", help="run built-in golden checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # --help / --version
        return int(err.code or 0)
    try:
        return args.func(args)
    except (ResourceLimitError, ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
