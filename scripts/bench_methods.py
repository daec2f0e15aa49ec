#!/usr/bin/env python3
"""Timing grid: counting methods vs n, one row per decade.

Times each method end to end (table construction included) and prints a
markdown-ish table of median wall times.  Methods beyond their caps are
skipped, which is why the oracle and naive columns go blank after 10^7.

    python3 scripts/bench_methods.py --min-exp 4 --max-exp 10 --reps 3
"""

import argparse
import statistics
import sys
import time

from semipi import METHOD_CAPS
from semipi.cli import method_count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-exp", type=int, default=4)
    ap.add_argument("--max-exp", type=int, default=10)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    methods = list(METHOD_CAPS)
    print(f"| n | count | " + " | ".join(f"{m} (ms)" for m in methods) + " |")
    print("|---" * (len(methods) + 2) + "|")
    for exp in range(args.min_exp, args.max_exp + 1):
        n = 10**exp
        cells, counts = [], set()
        for m, cap in METHOD_CAPS.items():
            if cap is not None and n > cap:
                cells.append("")
                continue
            timings = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                counts.add(method_count(n, m).count)
                timings.append(time.perf_counter() - t0)
            cells.append(f"{1e3 * statistics.median(timings):.1f}")
        if len(counts) != 1:
            print(f"DISAGREEMENT at n={n}: {sorted(counts)}", file=sys.stderr)
            return 2
        print(f"| 10^{exp} | {counts.pop()} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
