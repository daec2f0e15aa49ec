"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from its
``src/`` directory, never from an installed copy.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from the span wrappers.
Exit code 0 means a result was printed (check ``correct``); 2 means
nothing was measured.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semipi" / "__init__.py").is_file():
        print(f"error: no semipi sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semipi

    if not Path(semipi.__file__).resolve().is_relative_to(SRC):
        print(f"error: semipi was imported from {semipi.__file__}", file=sys.stderr)
        return 2
    import harness  # needs semipi importable

    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.workloads.WORKLOADS)}")
    wl = harness.workloads.WORKLOADS[args.workload]
    run_out = harness.run(wl, args.seed, args.seconds, bool(args.trace))
    harness.report(args.workload, args.seed, bool(args.trace), run_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
