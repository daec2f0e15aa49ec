#!/usr/bin/env python3
"""Fuzz the prime-counting identity at random n across magnitude decades.

Draws `--per-decade` random n uniformly from each decade [10^k, 10^(k+1))
up to --max-exp, checks lhs == rhs at every draw, and prints a one-line
summary per decade.  Any nonzero residual is a bug and aborts loudly.
--per-decade below 1, or --max-exp outside 0..10 (the 10^10 decade's
draws are the last below SUPPORTED_MAX_N = 10^11), is refused as a
usage error before the first draw.

    python3 scripts/identity_fuzz.py --seed 7 --per-decade 50 --max-exp 9
"""

import argparse
import random
import sys
import time

from semipi import SUPPORTED_MAX_N, build_quotient_pi, check_identity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    ap.add_argument("--per-decade", type=int, default=50, help="draws per decade")
    ap.add_argument("--max-exp", type=int, default=9, help="largest decade 10^k")
    args = ap.parse_args()
    # The 10^k decade draws n < 10^(k + 1), which must not pass SUPPORTED_MAX_N.
    top = len(str(SUPPORTED_MAX_N)) - 2
    if args.per_decade < 1:
        ap.error("--per-decade must be at least 1")
    if not 0 <= args.max_exp <= top:
        ap.error(f"--max-exp must lie in 0..{top}: the 10^{top + 1} decade passes SUPPORTED_MAX_N")

    rng = random.Random(args.seed)
    worst = 0
    for exp in range(0, args.max_exp + 1):
        lo, hi = 10**exp, 10 ** (exp + 1)
        t0 = time.perf_counter()
        max_lhs = 0
        for _ in range(args.per_decade):
            n = rng.randrange(lo, hi)
            rep = check_identity(n, build_quotient_pi(n))
            if rep.residual != 0:
                print(
                    f"RESIDUAL {rep.residual} at n={n} "
                    f"(head={rep.head_sum} tail={rep.tail_sum} rhs={rep.rhs})",
                    file=sys.stderr,
                )
                return 2
            max_lhs = max(max_lhs, rep.lhs)
        worst = max(worst, max_lhs)
        print(
            f"decade 10^{exp}..10^{exp + 1}: {args.per_decade} draws, "
            f"all residuals 0, max lhs {max_lhs}, "
            f"{time.perf_counter() - t0:.2f}s"
        )
    print(f"identity held at every draw (largest side seen: {worst})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
