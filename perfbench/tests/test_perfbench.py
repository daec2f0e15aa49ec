"""Tests of the benchmark itself: tiny workloads, metric names, failure counting.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gzip
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from semipi import cli, primes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload on inputs small enough for a test, on the same code path.
TINY = {
    "large_n": workloads.LargeN(10**5, 10**6),
    "high_sweep": workloads.Sweep("high_sweep", cli.DENSE_SWEEP_LIMIT + 1, 10**8, 2),
    "dense_sweep": workloads.Sweep("dense_sweep", 10**4, 10**5, 50),
    "crosscheck": workloads.CrossCheck(10**3, 10**4),
}


@pytest.fixture
def quick(monkeypatch, tmp_path):
    """One set-up probe, goldens to 10^6 only, records under tmp_path."""
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "GOLDEN_POWERS", range(1, 7))
    return tmp_path


def run_tiny(name: str, trace: bool, seconds: float = 0.2) -> tuple[dict, str]:
    run_out = harness.run(TINY[name], seed=3, seconds=seconds, trace=trace)
    out = io.StringIO()
    harness.report(name, 3, trace, run_out, out=out)
    return run_out, out.getvalue()


def test_workload_names_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(TINY)
    for w in SPEC["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_come_from_the_seed_alone(name):
    wl = workloads.WORKLOADS[name]
    a, b = wl.inputs(7), wl.inputs(7)
    assert a == b
    assert a != wl.inputs(8)
    width = getattr(wl, "width", 1)
    assert all(wl.lo <= x and x + width - 1 < wl.hi for x in a)
    assert len(set(a)) == len(a)
    # input i lies in stratum i % STRATA, in log scale
    k = workloads.STRATA
    log_range = math.log((wl.hi - width + 1) / wl.lo)
    for i, x in enumerate(a):
        centre = (i % k + 0.5) / k
        assert abs(math.log(x / wl.lo) / log_range - centre) <= workloads.JITTER + 1e-5


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(quick, name, trace):
    run_out, text = run_tiny(name, trace)
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, run_out["problems"]
    assert result["failed"] == 0
    assert result["attempted"] % (harness.INPUTS_PER_STOP * (1 + trace)) == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert (quick / f"{name}-seed3-trace{int(trace)}.json").is_file()
    assert (quick / f"spans-{name}.jsonl.gz").is_file() == trace


def test_traced_layers_follow_the_code_path(quick):
    layers = {}
    for name in TINY:
        _, text = run_tiny(name, trace=True, seconds=0.5)
        metrics = json.loads(text.strip().splitlines()[-1])["metrics"]
        layers[name] = {m: v["value"] for m, v in metrics.items()}
    assert layers["large_n"]["primes.build_quotient_pi.calls"] == 1
    assert layers["large_n"]["identity.lhs.p50_us"] > 0
    assert layers["high_sweep"]["primes.build_quotient_pi.calls"] == 2
    assert layers["high_sweep"]["primes.from_dense.calls"] == 0
    assert layers["dense_sweep"]["primes.build_quotient_pi.calls"] == 0
    assert layers["dense_sweep"]["primes.from_dense.calls"] == 50
    assert layers["dense_sweep"]["cli.output_bytes"] > 0
    assert layers["crosscheck"]["semiprimes.oracle.p50_ms"] > 0
    assert layers["crosscheck"]["semiprimes.eq3_naive.p50_ms"] > 0


def test_wrong_expected_value_counts_as_failed(quick, monkeypatch):
    true_count = workloads.reference_count
    monkeypatch.setattr(workloads, "reference_count", lambda n: true_count(n) + 1)
    run_out, text = run_tiny("dense_sweep", trace=False)
    result = json.loads(text.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= harness.INPUTS_PER_STOP
    assert result["failed"] == result["attempted"]
    assert run_out["fail_frac"] == 1.0
    assert any("want" in p for p in run_out["problems"])


def test_end_to_end_times_are_scaled_to_the_reference_kernel_time():
    def op(ns, cal_ns):
        return harness.OpRecord(0, False, ns, cal_ns, 1, 0, [])

    quiet = harness.e2e_metrics([op(10**8, harness.CAL_REF_NS)], 0.5, 40.0)
    busy = harness.e2e_metrics([op(3 * 10**8, 3 * harness.CAL_REF_NS)], 0.5, 40.0)
    assert quiet == busy
    assert quiet["op_p50_ms"] == pytest.approx(100.0)
    assert quiet["n_per_s"] == pytest.approx(10.0)


def test_op_that_raises_counts_as_failed_and_the_loop_goes_on():
    wl = TINY["large_n"]
    records = harness.run_ops(wl, [0, 10**4, 0, 10**4], seconds=60)
    assert [bool(r.problems) for r in records] == [True, False, True, False]
    assert "RangeError" in records[0].problems[0]


def test_goldens_pass_to_1e11():
    assert workloads.golden_mismatches() == []


def test_tracer_restores_every_original():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.build_quotient_pi is not before[(cli, "build_quotient_pi")]
    tracer.uninstall()
    after = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS}
    assert after == before
    assert primes.QuotientPiTable.from_dense(10, primes.build_prime_table(10)).pi(10) == 4


def test_spans_link_parents_and_give_self_time(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda n: sum(range(n)))
    outer = tracer.wrap("outer", lambda n: inner(n) + inner(n))
    outer(20000)
    cols = tracer.columns()
    assert list(cols["parent"]) == [-1, 0, 0]
    assert cols["self_ns"][0] == cols["dur_ns"][0] - cols["dur_ns"][1:].sum()
    path = tmp_path / "spans.jsonl.gz"
    tracer.write_jsonl(path)
    with gzip.open(path, "rt") as f:
        spans = [json.loads(line) for line in f]
    assert [(s["name"], s["parent"], s["n"]) for s in spans] == [
        ("outer", None, 20000),
        ("inner", 0, 20000),
        ("inner", 0, 20000),
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=skip)
    args = ["--workload", "large_n", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [*SPEC["command"], *args], cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
