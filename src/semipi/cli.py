"""Command-line front end: `semipi`.

Subcommands
-----------
count     exact semiprime count at one n, by one or more methods
identity  evaluate both sides of the pi identity, single n or a range
sweep     per-n counts over a range, optionally across worker processes
bench     wall-time comparison of the counting methods
selftest  built-in golden checks (known values at n = 25 and friends)

Methods are chosen in one place: `semiprimes.METHOD_CAPS` holds their caps
and `method_count` maps a name to its function.  `sweep` and `identity
--range` share one range path, run in-process or on a pool capped at the
CPU count.

Exit codes: 0 success (and all methods agree), 1 usage or range error,
2 mathematical disagreement between methods (a differential-test hit).
Machine-readable rows go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import InternalConsistencyError, RangeError, ResourceLimitError
from .identity import IdentityReport, check_identity
from .primes import (
    QuotientPiTable,
    SUPPORTED_MAX_N,
    build_prime_table,
    build_quotient_pi,
)
from .semiprimes import (
    METHOD_CAPS,
    METHODS,
    count_semiprimes_eq1,
    count_semiprimes_eq3,
    count_semiprimes_oracle,
    oracle_count_table,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2

#: Ranges ending at or below this share one dense sieve across the sweep.
DENSE_SWEEP_LIMIT = 10**7

FORMATS = ("table", "csv", "json")

COUNT_COLUMNS = ("n", "method", "count", "terms", "elapsed_ns")
IDENTITY_COLUMNS = tuple(f.name for f in fields(IdentityReport))


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
        if not self.methods:
            raise ValueError("at least one method is required")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.parallelism < 1:
            raise ValueError(f"workers must be >= 1, got {self.parallelism}")


def _check_range(start: int, end: int, stride: int) -> None:
    if start < 1:
        raise ValueError(f"range start must be >= 1, got {start}")
    if start > end:
        raise ValueError(f"range start {start} > end {end}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def _range_ns(start: int, end: int, stride: int, max_n: int) -> list[int]:
    """Every n of a validated range, refused when it ends past max_n."""
    _check_range(start, end, stride)
    if end > max_n:
        raise ValueError(f"range end {end} exceeds max n {max_n}")
    return list(range(start, end + 1, stride))


# ---------------------------------------------------------------------------
# argument parsing


def parse_number(text: str) -> int:
    """Exact decimal integer with optional `_` separators and `^` powers.

    Accepts forms like 25, 1_000_000 and 10^6.  Floating-point input is
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
            return base**exp
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
    out: list[str] = []
    for name in text.split(","):
        name = name.strip()
        if name not in METHODS:
            raise ValueError(
                f"unknown method {name!r}; choose from {', '.join(METHODS)}"
            )
        if name not in out:
            out.append(name)
    if not out:
        raise ValueError("at least one method is required")
    return tuple(out)


def _resolve_workers(value: str | None) -> int:
    if value is None:
        value = os.environ.get("SEMIPI_WORKERS", "1")
    workers = parse_number(value)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _check_caps(methods: tuple[str, ...], biggest_n: int) -> None:
    for m, cap in METHOD_CAPS.items():
        if m in methods and cap is not None and biggest_n > cap:
            raise ValueError(f"{m} method supports n <= {cap}, got {biggest_n}")


# ---------------------------------------------------------------------------
# output formatting


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_rows(rows: list[dict], columns: tuple[str, ...], fmt: str, out) -> None:
    """Write rows to `out` as an aligned table, CSV, or a JSON array.

    All three formats carry identical values for the same rows.
    """
    if fmt == "json":
        out.write(json.dumps(rows) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    else:
        cells = [[_cell(row[c]) for c in columns] for row in rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for r in cells:
            out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _count_row(rec, elapsed_ns: int) -> dict:
    """A COUNT_COLUMNS row for one SemiprimeCount and its reported time."""
    values = (rec.n, rec.method, rec.count, rec.term_count, elapsed_ns)
    return dict(zip(COUNT_COLUMNS, values))


def _report_disagreement(n: int, counts: dict[str, int]) -> None:
    detail = ", ".join(f"{m}={c}" for m, c in counts.items())
    print(f"DISAGREEMENT at n={n}: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# per-n computation shared by count / sweep / bench / selftest


def method_count(
    n: int,
    method: str,
    qpi: QuotientPiTable | None = None,
    *,
    dense_table=None,
    max_n: int = SUPPORTED_MAX_N,
):
    """One (n, method) evaluation; returns the SemiprimeCount record.

    Every method but the oracle reads a quotient table, built under max_n
    when qpi is None.  The counting functions are read from this module's
    globals at each call, so a replacement installed here is used.
    """
    if method == "oracle":
        return count_semiprimes_oracle(n)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if qpi is None:
        qpi = build_quotient_pi(n, max_n=max_n)
    if method == "eq1":
        return count_semiprimes_eq1(n, qpi)
    return count_semiprimes_eq3(n, qpi, method.removeprefix("eq3_"), table=dense_table)


def _needs_qpi(methods: tuple[str, ...]) -> bool:
    return any(m != "oracle" for m in methods)


# ---------------------------------------------------------------------------
# range machinery for sweep / identity (module-level so it pickles under
# process pools)

_WORKER_CTX: dict | None = None


def _range_init(row_fn, end: int, methods: tuple[str, ...], max_n: int, dense: bool):
    """Build the shared read-only tables once per worker process."""
    global _WORKER_CTX
    _WORKER_CTX = {
        "row": row_fn,
        "methods": methods,
        "max_n": max_n,
        "table": build_prime_table(end) if dense and end <= DENSE_SWEEP_LIMIT else None,
        "oracle": oracle_count_table(end) if "oracle" in methods else None,
    }


def _range_chunk(ns: list[int]) -> list[dict]:
    ctx = _WORKER_CTX
    return [ctx["row"](n, ctx) for n in ns]


def _sweep_row(n: int, ctx: dict) -> dict:
    methods, table = ctx["methods"], ctx["table"]
    qpi = None
    if _needs_qpi(methods):
        if table is not None:
            qpi = QuotientPiTable.from_dense(n, table)
        else:
            qpi = build_quotient_pi(n, max_n=ctx["max_n"])
    row: dict = {"n": n}
    for m in methods:
        if m == "oracle":
            row[m] = int(ctx["oracle"][n])
        else:
            row[m] = method_count(n, m, qpi, dense_table=table).count
    row["agree"] = len({row[m] for m in methods}) == 1
    return row


def _identity_row(n: int, ctx: dict) -> dict:
    return asdict(check_identity(n, table=ctx["table"], max_n=ctx["max_n"]))


def _run_chunked(init_args: tuple, ns: list[int], workers: int) -> list[dict]:
    """Map _range_chunk over contiguous chunks of ns, preserving order.

    The pool never exceeds the CPU count or the number of chunks.  One
    worker runs in-process through the exact same code path, so the
    output is byte-identical regardless of parallelism.
    """
    workers = min(workers, os.cpu_count() or 1)
    chunk_size = max(1, min(5000, (len(ns) + workers * 4 - 1) // (workers * 4)))
    chunks = [ns[i : i + chunk_size] for i in range(0, len(ns), chunk_size)]
    if workers == 1 or len(chunks) <= 1:
        _range_init(*init_args)
        parts = [_range_chunk(c) for c in chunks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_range_init,
            initargs=init_args,
        ) as pool:
            parts = list(pool.map(_range_chunk, chunks))
    return [row for part in parts for row in part]


# ---------------------------------------------------------------------------
# subcommands


def cmd_count(args) -> int:
    n = parse_number(args.n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    methods = parse_methods(args.methods)
    _check_caps(methods, n)
    qpi = build_quotient_pi(n, max_n=args.max_n) if _needs_qpi(methods) else None
    rows = []
    for m in methods:
        rec = method_count(n, m, qpi)
        rows.append(_count_row(rec, rec.elapsed_ns))
    emit_rows(rows, COUNT_COLUMNS, args.format, sys.stdout)
    counts = {row["method"]: row["count"] for row in rows}
    if len(set(counts.values())) == 1:
        print(
            f"agree: pi2({n}) = {rows[0]['count']} across {len(methods)} method(s)",
            file=sys.stderr,
        )
        return EXIT_OK
    _report_disagreement(n, counts)
    return EXIT_DISAGREE


def cmd_identity(args) -> int:
    if (args.n is None) == (args.range is None):
        raise ValueError("provide exactly one of: a single n, or --range a:b[:s]")
    if args.range is not None:
        start, end, stride = parse_range(args.range)
        ns = _range_ns(start, end, stride, args.max_n)
        init_args = (_identity_row, end, (), args.max_n, True)
        rows = _run_chunked(init_args, ns, _resolve_workers(args.workers))
    else:
        rows = [asdict(check_identity(parse_number(args.n), max_n=args.max_n))]
    emit_rows(rows, IDENTITY_COLUMNS, args.format, sys.stdout)
    bad = [row for row in rows if row["residual"] != 0]
    if bad:
        print(
            f"IDENTITY VIOLATION at n={bad[0]['n']}: "
            f"lhs={bad[0]['lhs']} rhs={bad[0]['rhs']} "
            f"({len(bad)} of {len(rows)} rows nonzero)",
            file=sys.stderr,
        )
        return EXIT_DISAGREE
    print(f"residual 0 for all {len(rows)} n", file=sys.stderr)
    return EXIT_OK


def run_sweep(config: SweepConfig, out=None) -> int:
    """Execute a sweep and stream rows in ascending n; returns exit code."""
    out = out if out is not None else sys.stdout
    _check_caps(config.methods, config.end)
    ns = _range_ns(config.start, config.end, config.stride, config.max_n)
    dense = _needs_qpi(config.methods)
    init_args = (_sweep_row, config.end, config.methods, config.max_n, dense)
    rows = _run_chunked(init_args, ns, config.parallelism)
    columns = ("n", *config.methods, "agree")
    emit_rows(rows, columns, config.output_format, out)
    disagreeing = [row for row in rows if not row["agree"]]
    if disagreeing:
        first = disagreeing[0]
        _report_disagreement(first["n"], {m: first[m] for m in config.methods})
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
        parallelism=_resolve_workers(args.workers),
        max_n=args.max_n,
    )
    return run_sweep(config)


def cmd_bench(args) -> int:
    ns = [parse_number(part) for part in args.n_list.split(",")]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n list must contain positive integers")
    methods = parse_methods(args.methods)
    reps = args.reps
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for n in ns:
        _check_caps(methods, n)
        if n > args.max_n and _needs_qpi(methods):
            raise ValueError(f"n={n} exceeds max n {args.max_n}")
    print(
        f"# semipi {__version__} bench  date={datetime.now(timezone.utc).isoformat()}  "
        f"python={sys.version.split()[0]}  numpy={np.__version__}  "
        f"cpus={os.cpu_count()}  workers=1  reps={reps}",
        file=sys.stderr,
    )
    rows = []
    exit_code = EXIT_OK
    for n in ns:
        seen: dict[str, int] = {}
        for m in methods:
            timings = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                rec = method_count(n, m, max_n=args.max_n)
                timings.append(time.perf_counter_ns() - t0)
                if seen.setdefault(m, rec.count) != rec.count:
                    raise InternalConsistencyError(
                        f"{m} at n={n} is nondeterministic: {seen[m]} vs {rec.count}"
                    )
            rows.append(_count_row(rec, int(statistics.median(timings))))
        if len(set(seen.values())) != 1:
            _report_disagreement(n, seen)
            exit_code = EXIT_DISAGREE
    emit_rows(rows, COUNT_COLUMNS, args.format, sys.stdout)
    return exit_code


def cmd_selftest(args) -> int:
    """Golden checks over small n with independently known values."""
    failures = 0

    def check(name: str, got, want) -> None:
        nonlocal failures
        if got == want:
            print(f"ok   {name}: {got}")
        else:
            failures += 1
            print(f"FAIL {name}: got {got}, want {want}")

    qpi = build_quotient_pi(25)
    check("pi at quotients of 25", [qpi.pi(v) for v in (12, 8, 5, 3, 2)], [5, 4, 3, 2, 1])
    for m in METHODS:
        check(f"pi2(25) via {m}", method_count(25, m, qpi).count, 9)
    check("eq1 term count at 25", count_semiprimes_eq1(25, qpi).term_count, 3)

    from .semiprimes import pair_sum_grouped, pair_sum_naive

    check("pair sum 25 naive", pair_sum_naive(25, qpi).value, 15)
    check("pair sum 25 grouped", pair_sum_grouped(25, qpi).value, 15)
    check("pair sum 25 upper index", pair_sum_grouped(25, qpi).upper_index, 5)

    rep = check_identity(25)
    check(
        "identity at 25 (head, tail, lhs, rhs, residual)",
        (rep.head_sum, rep.tail_sum, rep.lhs, rep.rhs, rep.residual),
        (12, 3, 9, 9, 0),
    )

    small = {1: 0, 3: 0, 4: 1, 10: 4, 30: 10, 100: 34}
    for m in ("oracle", "eq3_grouped"):
        check(f"{m} small counts", {n: method_count(n, m).count for n in small}, small)

    residuals = [check_identity(n).residual for n in range(1, 2001)]
    check("identity residuals 1..2000", sum(1 for r in residuals if r != 0), 0)

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
        help=f"override the supported-range guard (default {SUPPORTED_MAX_N})",
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
            default=None,
            metavar="K",
            help="worker processes, at most the CPU count "
            "(default: $SEMIPI_WORKERS or 1)",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semipi",
        description="Exact semiprime counting and prime-counting identity checks.",
    )
    parser.add_argument("--version", action="version", version=f"semipi {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="count semiprimes <= n")
    p.add_argument("n", help="positive integer (1_000_000 and 10^6 accepted)")
    _add_common(p, methods_default="eq1,eq3_grouped")
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("identity", help="check lhs = rhs of the pi identity")
    p.add_argument("n", nargs="?", default=None, help="single n to check")
    p.add_argument("--range", default=None, metavar="A:B[:S]", help="check every n in a range")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_identity)

    p = subs.add_parser("sweep", help="per-n counts over a range")
    p.add_argument("range", metavar="A:B[:S]", help="inclusive range with optional stride")
    _add_common(p, methods_default="eq1,eq3_grouped", workers=True)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("bench", help="time the methods at one or more n")
    p.add_argument("n_list", metavar="N[,N...]", help="comma-separated n values")
    _add_common(p, methods_default="eq1,eq3_grouped")
    p.add_argument("--reps", type=int, default=3, help="repetitions per method (default 3)")
    p.set_defaults(func=cmd_bench)

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
    except (RangeError, ResourceLimitError, ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as err:
        print(f"internal consistency failure: {err}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
