"""Span tracing from outside the program, and the per-layer metrics.

A ``Tracer`` swaps public functions of semipi for wrappers that record
one span per call: name, parent span, op index, start and end, the n
the call was made for, and the bytes of a returned quotient table.
Spans are kept in flat int64 arrays (a traced dense sweep records
hundreds of thousands of them) and written as gzipped JSON lines at the
end.
The wrappers exist only between ``install`` and ``uninstall``.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

import numpy as np

import semipi.cli as cli
from semipi import identity, primes, semiprimes

_FIELDS = ("parent", "name", "op", "start_ns", "end_ns", "n", "nbytes")


def _eq3_name(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "grouped")
    return f"semiprimes.eq3_{mode}"


#: (owner, attribute, span name) for every call the traced run times:
#: the names the CLI binds, the classmethod on the table class, and the
#: module attributes the large_n and crosscheck ops call directly.
TARGETS = (
    (cli, "run_sweep", "cli.run_sweep"),
    (cli, "emit_rows", "cli.emit_rows"),
    (cli, "build_quotient_pi", "primes.build_quotient_pi"),
    (cli, "build_prime_table", "primes.build_prime_table"),
    (cli, "count_semiprimes_eq1", "semiprimes.eq1"),
    (cli, "count_semiprimes_eq3", _eq3_name),
    (cli, "count_semiprimes_oracle", "semiprimes.oracle"),
    (primes.QuotientPiTable, "from_dense", "primes.from_dense"),
    (primes, "build_quotient_pi", "primes.build_quotient_pi"),
    (primes, "build_prime_table", "primes.build_prime_table"),
    (semiprimes, "count_semiprimes_eq1", "semiprimes.eq1"),
    (semiprimes, "count_semiprimes_eq3", _eq3_name),
    (semiprimes, "count_semiprimes_oracle", "semiprimes.oracle"),
    (identity, "identity_lhs", "identity.lhs"),
    (identity, "identity_rhs", "identity.rhs"),
)


def _first_int(args: tuple) -> int:
    """The n (or limit) a call was made for: its first int argument, else -1."""
    for a in args[:2]:
        if type(a) is int:
            return a
    return -1


def table_bytes(qpi: primes.QuotientPiTable) -> int:
    """Bytes held by a quotient table's three arrays, computed from nbytes."""
    return qpi.smalls.nbytes + qpi.larges.nbytes + qpi.root_primes.nbytes


class Tracer:
    """In-memory span recorder; spans are numbered in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {f: array("q") for f in _FIELDS}
        self.op = -1  # index of the op being traced; set by the caller
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.cols["parent"])

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def name_id(self, name: str) -> int:
        """The id spans of this name carry; -1 if none was recorded."""
        return self._name_ids.get(name, -1)

    def wrap(self, name, fn):
        """fn, recording a span per call; name may be a function of the args."""
        c = self.cols
        parent, names, ops, starts, ends, ns, nbytes = (c[f] for f in _FIELDS)
        stack, clock, intern = self._stack, time.perf_counter_ns, self._intern
        name_of = name if callable(name) else None
        fixed_id = None if name_of else intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(parent)
            parent.append(stack[-1])
            names.append(fixed_id if name_of is None else intern(name_of(args, kwargs)))
            ops.append(self.op)
            ns.append(_first_int(args))
            nbytes.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if isinstance(result, primes.QuotientPiTable):
                nbytes[i] = table_bytes(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target with its wrapper."""
        for owner, attr, name in TARGETS:
            orig = owner.__dict__[attr]
            if isinstance(orig, classmethod):
                new = classmethod(self.wrap(name, orig.__func__))
            else:
                new = self.wrap(name, orig)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def columns(self) -> dict[str, np.ndarray]:
        """Span fields as int64 arrays, plus duration and self time."""
        cols = {f: np.frombuffer(a, dtype=np.int64) for f, a in self.cols.items()}
        dur = cols["end_ns"] - cols["start_ns"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(
            cols["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        cols["dur_ns"] = dur
        cols["self_ns"] = dur - child.astype(np.int64)
        return cols

    def write_jsonl(self, path) -> None:
        """One JSON object per span, gzipped; the parent of a root span is null."""
        c = self.cols
        with gzip.open(path, "wt", compresslevel=1) as f:
            for i in range(len(self)):
                p = c["parent"][i]
                f.write(
                    f'{{"id":{i},"parent":{p if p >= 0 else "null"},'
                    f'"op":{c["op"][i]},"name":"{self.names[c["name"][i]]}",'
                    f'"start_ns":{c["start_ns"][i]},"end_ns":{c["end_ns"][i]},'
                    f'"n":{c["n"][i] if c["n"][i] >= 0 else "null"},'
                    f'"nbytes":{c["nbytes"][i]}}}\n'
                )


#: Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "primes.build_quotient_pi.calls": "1/op",
    "primes.build_quotient_pi.p50_ms": "ms",
    "primes.build_quotient_pi.share": "ratio",
    "primes.build_quotient_pi.exponent": "1",
    "primes.quotient_table_bytes": "B",
    "primes.from_dense.calls": "1/op",
    "primes.from_dense.p50_us": "us",
    "primes.from_dense.share": "ratio",
    "primes.build_prime_table.p50_ms": "ms",
    "primes.build_prime_table.share": "ratio",
    "semiprimes.eq1.p50_us": "us",
    "semiprimes.eq3_grouped.p50_us": "us",
    "semiprimes.eq3_naive.p50_ms": "ms",
    "semiprimes.eq3_naive.share": "ratio",
    "semiprimes.oracle.p50_ms": "ms",
    "semiprimes.oracle.share": "ratio",
    "identity.lhs.p50_us": "us",
    "identity.rhs.p50_us": "us",
    "identity.share": "ratio",
    "cli.run_sweep.p50_ms": "ms",
    "cli.sweep.self_share": "ratio",
    "cli.emit_rows.p50_ms": "ms",
    "cli.emit_rows.share": "ratio",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "ratio",
}

_NS_PER = {"ms": 1e6, "us": 1e3}

#: The paper's cost model: the quotient table takes O(n^(3/4)) operations.
PAPER_EXPONENT = 0.75


def layer_metrics(tracer: Tracer, records: list) -> dict:
    """Per-layer values from the spans of the traced ops.

    A share is the summed span time of a layer over the summed latency
    of the traced ops; a p50 is the median span duration; calls are per
    traced op.  Layers a workload never calls report 0.
    ``trace.overhead_frac`` is the median, over inputs run both ways, of
    traced over untraced latency, minus 1.
    """
    traced_ops = [r for r in records if r.traced]
    pairs: dict[int, dict[bool, int]] = {}
    for r in records:
        pairs.setdefault(r.index // 2, {})[r.traced] = r.ns
    ratios = [p[True] / p[False] for p in pairs.values() if len(p) == 2]
    cols = tracer.columns()
    op_ns = sum(r.ns for r in traced_ops) or 1
    n_ops = len(traced_ops) or 1

    def spans(name: str, field: str = "dur_ns") -> np.ndarray:
        return cols[field][cols["name"] == tracer.name_id(name)]

    def calls(name: str) -> float:
        return len(spans(name)) / n_ops

    def p50(name: str, unit: str) -> float:
        durs = spans(name)
        return float(np.median(durs)) / _NS_PER[unit] if len(durs) else 0.0

    def share(name: str, field: str = "dur_ns") -> float:
        return float(spans(name, field).sum()) / op_ns

    def median(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    bq, fd, pt = "primes.build_quotient_pi", "primes.from_dense", "primes.build_prime_table"
    values = {
        f"{bq}.calls": calls(bq),
        f"{bq}.p50_ms": p50(bq, "ms"),
        f"{bq}.share": share(bq),
        f"{bq}.exponent": build_exponent(spans(bq, "n"), spans(bq)),
        "primes.quotient_table_bytes": int(cols["nbytes"].max(initial=0)),
        f"{fd}.calls": calls(fd),
        f"{fd}.p50_us": p50(fd, "us"),
        f"{fd}.share": share(fd),
        f"{pt}.p50_ms": p50(pt, "ms"),
        f"{pt}.share": share(pt),
        "semiprimes.eq1.p50_us": p50("semiprimes.eq1", "us"),
        "semiprimes.eq3_grouped.p50_us": p50("semiprimes.eq3_grouped", "us"),
        "semiprimes.eq3_naive.p50_ms": p50("semiprimes.eq3_naive", "ms"),
        "semiprimes.eq3_naive.share": share("semiprimes.eq3_naive"),
        "semiprimes.oracle.p50_ms": p50("semiprimes.oracle", "ms"),
        "semiprimes.oracle.share": share("semiprimes.oracle"),
        "identity.lhs.p50_us": p50("identity.lhs", "us"),
        "identity.rhs.p50_us": p50("identity.rhs", "us"),
        "identity.share": share("identity.lhs") + share("identity.rhs"),
        "cli.run_sweep.p50_ms": p50("cli.run_sweep", "ms"),
        "cli.sweep.self_share": share("cli.run_sweep", "self_ns"),
        "cli.emit_rows.p50_ms": p50("cli.emit_rows", "ms"),
        "cli.emit_rows.share": share("cli.emit_rows"),
        "cli.output_bytes": median([r.output_bytes for r in traced_ops]),
        "trace.overhead_frac": median(ratios) - 1 if ratios else 0.0,
    }
    return {m: values[m] for m in LAYER_UNITS}


def build_exponent(ns: np.ndarray, durs: np.ndarray) -> float:
    """Slope of log(build time) against log(n); 0 without two distinct n."""
    if len(np.unique(ns)) < 2:
        return 0.0
    return float(np.polyfit(np.log(ns.astype(float)), np.log(durs.astype(float)), 1)[0])
