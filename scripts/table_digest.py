#!/usr/bin/env python3
"""Print one sha256 over the quotient tables of a fixed list of n.

Each table is build_quotient_pi(n, max_n=n).  The digest covers n and
root, and for each of smalls, larges and root_primes its name, dtype,
shape, read-only flag and bytes, so two trees that print the same line
build bit-identical tables on that list.  Run it from two checkouts to
check that a change to the recurrence keeps every table:

    PYTHONPATH=src python3 scripts/table_digest.py
    PYTHONPATH=src python3 scripts/table_digest.py --full --seed 2

The default list is ten n from 10^8 + 7 to 10^11, across the int32
edges of larges (2^31, 2^32 and 3 * 2^31), and takes under a second on
a 2-vCPU VM.  --full adds 1..2999, 300 random n <= 10^7, 60 log-uniform
random n in [10^8, 10^11] drawn from --seed, and 2^32 - 1, 2^32,
3 * 2^31 - 1, 10^12 - 1, 10^12 and 2^40 + 3: 3375 n in about 5 s there.
"""

import argparse
import hashlib
import random
import sys

from semipi import build_quotient_pi

DEFAULT_NS = [
    10**8 + 7, 10**9 + 7, 2**31 - 1, 2**31 + 1, 2**32 + 1, 2**32 + 15,
    3 * 2**31 + 1, 10**10 + 9, 31_600_000_000, 10**11,
]


def full_ns(seed: int) -> list[int]:
    rng = random.Random(seed)
    ns = list(range(1, 3000))
    ns += [rng.randrange(1, 10**7 + 1) for _ in range(300)]
    ns += [round(10 ** rng.uniform(8, 11)) for _ in range(60)]
    extra = [2**32 - 1, 2**32, 3 * 2**31 - 1, 10**12 - 1, 10**12, 2**40 + 3]
    return ns + DEFAULT_NS + extra


def digest(ns: list[int]) -> str:
    h = hashlib.sha256()
    for n in ns:
        q = build_quotient_pi(n, max_n=n)
        h.update(f"{n} {q.root}".encode())
        for name in ("smalls", "larges", "root_primes"):
            a = getattr(q, name)
            h.update(f"{name} {a.dtype.str} {a.shape} {a.flags.writeable}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="the 3375-n list, not the ten default n")
    ap.add_argument("--seed", type=int, default=1, help="seed of --full's random n (default 1)")
    args = ap.parse_args()
    ns = full_ns(args.seed) if args.full else DEFAULT_NS
    print(f"sha256 {digest(ns)} over {len(ns)} n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
