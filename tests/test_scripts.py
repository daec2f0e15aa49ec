"""The experiment scripts under scripts/, each run once as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_bench_methods_grid():
    proc = run_script(
        "bench_methods.py", "--min-exp", "1", "--max-exp", "3", "--reps", "1"
    )
    assert proc.returncode == 0, proc.stderr
    rows = [
        line.split("|") for line in proc.stdout.splitlines() if line.startswith("| 10^")
    ]
    assert [r[1].strip() for r in rows] == ["10^1", "10^2", "10^3"]
    assert [r[2].strip() for r in rows] == ["4", "34", "299"]
    # every method is within its cap up to 10^3, so no cell is blank
    assert all(cell.strip() for r in rows for cell in r[3:-1])


def test_identity_fuzz_holds():
    proc = run_script(
        "identity_fuzz.py", "--seed", "7", "--per-decade", "3", "--max-exp", "4"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("all residuals 0") == 5
    assert "identity held at every draw" in proc.stdout
