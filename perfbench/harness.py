"""Run one workload for a fixed time and report its metrics.

A run, in order: time half of the set-up probes in fresh processes;
generate the inputs from the seed; run one small warm-up op; run ops in
a closed loop (one op at a time, the next as soon as the last returns)
until the time is up, checking each op's result; read the peak RSS;
time the other half of the set-up probes; check the golden values;
stamp the environment.  A failed check or an exception
marks that op failed and the loop goes on.

Right before and after each op and set-up probe, the harness times a
fixed calibration kernel of interpreter and numpy work, and reports
every end-to-end time scaled to a machine on which that kernel takes
CAL_REF_NS.  The shared machine's speed drifts by a third from one half
minute to the next, and the kernel slows with it: over half-minute
blocks, the median of an op's time over the kernel's time next to it
varies a tenth as much as the median of its wall time.  The wall times
are kept in the run record.

With tracing on, every input runs twice, once with the span wrappers
installed, so the latency ratio of traced to untraced ops is the
tracing overhead on identical work.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh processes timed per run for setup_s, half before the timed loop
#: and half after it: set-up time drifts with the load on the shared
#: machine, so probes ~30 s apart see more than one state of it.
SETUP_REPS = 10

#: Inputs cycle through the log-size strata (see
#: workloads.stratified_points); a run stops only after whole cycles, so
#: every stratum holds the same share of its ops.
INPUTS_PER_STOP = workloads.STRATA

#: Problems kept per failed op; one bad sweep can report thousands of rows.
MAX_PROBLEMS_PER_OP = 3

#: End-to-end metric name -> unit, in the order they are reported.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "n_per_s": "n/s",
    "peak_rss_mib": "MiB",
}

#: The calibration kernel's time on an unloaded machine of the kind the
#: figures come from; end-to-end times are scaled to it.
CAL_REF_NS = 10_000_000

#: Data the calibration kernel reads: a 512 KiB array, a 4 MiB array
#: (twice the L2 cache), and 100k small objects in shuffled order.
_CAL_SMALL = np.arange(1 << 16, dtype=np.int64)
_CAL_LARGE = np.ones(1 << 19, dtype=np.int64)
_CAL_OBJECTS = [object() for _ in range(100_000)]
random.Random(0).shuffle(_CAL_OBJECTS)

_SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.setup(sys.argv[3], int(sys.argv[4]))"
)


@dataclass
class OpRecord:
    """One op: its latency, the n it verified and what its check found."""

    index: int
    traced: bool
    ns: int
    cal_ns: float
    n_count: int
    output_bytes: int
    problems: list[str]


def calibrate() -> int:
    """Nanoseconds the fixed calibration kernel takes now.

    The kernel mixes the kinds of work the ops do, because the host's
    load slows them by different amounts: interpreter arithmetic, numpy
    passes in and beyond the L2 cache, pointer chasing through scattered
    objects, and building small dicts and strings.
    """
    t0 = time.perf_counter_ns()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    a = _CAL_SMALL
    for _ in range(3):
        a = a * 3 % 1_000_003
    for _ in range(4):
        total += int(_CAL_LARGE.sum())
    for obj in _CAL_OBJECTS:
        total += id(obj) & 1
    rows = [{"n": i, "count": i, "agree": "true"} for i in range(8_000)]
    ",".join(str(row["n"]) for row in rows)
    return time.perf_counter_ns() - t0


def at_ref(value: float, cal_ns: float) -> float:
    """value, a time measured while the kernel took cal_ns, scaled to CAL_REF_NS."""
    return value * CAL_REF_NS / cal_ns


def setup_times(name: str, seed: int, reps: int) -> list[tuple[float, float]]:
    """(wall seconds, kernel ns) for each of reps fresh interpreters to import
    and make inputs; the kernel time is the geometric mean of the kernel
    timed before and after the probe."""
    times = []
    cal_before = calibrate()
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), name, str(seed)],
            check=True,
            timeout=60,
        )
        wall = time.perf_counter() - t0
        cal_after = calibrate()
        times.append((wall, math.sqrt(cal_before * cal_after)))
        cal_before = cal_after
    return times


def schedule(inputs: list, trace: bool):
    """(op index, input, traced) in run order.

    A traced run makes each input twice, once with the wrappers, once
    without, alternating which goes first, so the overhead is measured
    on identical work.
    """
    for i, x in enumerate(inputs):
        if trace:
            yield 2 * i, x, i % 2 == 0
            yield 2 * i + 1, x, i % 2 == 1
        else:
            yield i, x, False


def run_ops(wl, inputs: list, seconds: float, tracer=None) -> list[OpRecord]:
    """Closed loop over inputs until `seconds` have passed and a cycle ended."""
    records = []
    ops_per_stop = INPUTS_PER_STOP * (2 if tracer is not None else 1)
    deadline = time.perf_counter() + seconds
    for i, x, traced in schedule(inputs, tracer is not None):
        cal_before = calibrate()
        op = wl.op
        if traced:
            tracer.op = i
            op = tracer.wrap("op", wl.op)
            tracer.install()
        result, problems = None, []
        t0 = time.perf_counter_ns()
        try:
            result = op(x)
        except Exception as exc:  # an op that raises is a failed op
            problems = [f"n={x}: {type(exc).__name__}: {exc}"]
        finally:
            elapsed = time.perf_counter_ns() - t0
            if traced:
                tracer.uninstall()
        cal_after = calibrate()
        if not problems:
            try:
                problems = wl.check(x, result)
            except Exception as exc:  # a check that cannot read the result
                problems = [f"n={x}: check raised {type(exc).__name__}: {exc}"]
        output_bytes = wl.output_bytes(result) if result is not None else 0
        problems = problems[:MAX_PROBLEMS_PER_OP]
        cal_ns = math.sqrt(cal_before * cal_after)
        records.append(
            OpRecord(i, traced, elapsed, cal_ns, wl.n_count(x), output_bytes, problems)
        )
        if time.perf_counter() >= deadline and len(records) % ops_per_stop == 0:
            break
    return records


def e2e_metrics(records: list[OpRecord], setup_s: float, peak_rss_mib: float) -> dict:
    """End-to-end values over the untraced ops, times scaled to CAL_REF_NS."""
    plain = [r for r in records if not r.traced]
    lat_ms = np.array([at_ref(r.ns, r.cal_ns) for r in plain]) / 1e6
    values = {
        "setup_s": setup_s,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "n_per_s": sum(r.n_count for r in plain) / (lat_ms.sum() / 1e3),
        "peak_rss_mib": peak_rss_mib,
    }
    return {m: values[m] for m in E2E_UNITS}


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    """Versions, CPU and cache sizes, and the git sha of the checkout."""
    model = next(
        (line.split(":", 1)[1].strip()
         for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "git_sha": sha,
    }


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """One full run of workload wl; returns the result and its details."""
    probes = setup_times(wl.name, seed, SETUP_REPS // 2)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    inputs = wl.inputs(seed)
    wl.op(wl.warmup_input)
    tracer = tracing.Tracer() if trace else None
    records = run_ops(wl, inputs, seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += setup_times(wl.name, seed, SETUP_REPS - SETUP_REPS // 2)
    setup_s = statistics.median(at_ref(wall, cal) for wall, cal in probes)
    golden_problems = workloads.golden_mismatches()
    env["loadavg_after"] = os.getloadavg()

    failed = sum(1 for r in records if r.problems)
    if trace:
        metrics = tracing.layer_metrics(tracer, records)
        units = tracing.LAYER_UNITS
    else:
        metrics = e2e_metrics(records, setup_s, peak_rss_mib)
        units = E2E_UNITS
    return {
        "result": {
            "correct": failed == 0 and not golden_problems,
            "attempted": len(records),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        },
        "fail_frac": failed / len(records),
        "problems": golden_problems + [p for r in records for p in r.problems],
        "op_latency_ms": [r.ns / 1e6 for r in records if not r.traced],
        "op_cal_ms": [r.cal_ns / 1e6 for r in records if not r.traced],
        "setup_probes": [{"wall_s": wall, "cal_ms": cal / 1e6} for wall, cal in probes],
        "env": env,
        "tracer": tracer,
    }


def report(name: str, seed: int, trace: bool, run_out: dict, out=None) -> None:
    """Save the run record (and spans), print a summary and the result line."""
    out = out if out is not None else sys.stdout
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    record = {k: v for k, v in run_out.items() if k != "tracer"}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run_out["tracer"] is not None:
        run_out["tracer"].write_jsonl(OUT_DIR / f"spans-{name}.jsonl.gz")
    result = run_out["result"]
    for problem in run_out["problems"][:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"# env {json.dumps(run_out['env'])}", file=out)
    print(
        f"# {name} seed={seed} trace={int(trace)} ops={result['attempted']} "
        f"failed={result['failed']} fail_frac={run_out['fail_frac']:.4f}",
        file=out,
    )
    wall_ms, cal_ms = run_out["op_latency_ms"], run_out["op_cal_ms"]
    print(
        f"# wall op_p50_ms={np.percentile(wall_ms, 50):.6g} "
        f"op_p90_ms={np.percentile(wall_ms, 90):.6g} "
        f"calibration p50_ms={np.median(cal_ms):.6g} (ref {CAL_REF_NS / 1e6:g})",
        file=out,
    )
    for metric, v in result["metrics"].items():
        paper = metric.endswith(".exponent")
        note = f"  (paper: {tracing.PAPER_EXPONENT})" if paper else ""
        print(f"#   {metric} = {v['value']:.6g} {v['unit']}{note}", file=out)
    print(json.dumps(result), file=out)
