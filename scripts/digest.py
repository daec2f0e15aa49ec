#!/usr/bin/env python3
"""Print three sha256 lines that pin the sieve blocks, built tables and walked tables.

    blocks sha256 ...
    tables sha256 ... over N n
    walks sha256 ... over M tables

Two trees that print the same line yield bit-identical data on its
list, so run the script from two checkouts: a change to the block sieve
must keep `blocks`, a change to the recurrence `tables`, and a change
to the walk `walks`.

    PYTHONPATH=src python3 scripts/digest.py
    PYTHONPATH=src python3 scripts/digest.py --full --seed 2

`blocks` hashes every block of primes._sieve_blocks as it is yielded,
before the next one: its start, dtype, length and bytes.  The cases are
the oracle's odd pass over 1..3162277 (uint8 counts, np.add); the
every-integer pass over 0..200000; windows of the 10^5 integers ending
at 10^9 and at 10^11, at both steps; _factor_blocks over the 10^5
integers from 10^8 (int32 parts) and from 10^10 (int64 parts); and a
grid of small ranges: lo in 0..2999 in steps of 7 and next to the
multiples 27720, 55440 and 83160 of the wheel, widths 0, 1, 13 and 500,
each at both steps (lo made odd at step 2) and with both ufuncs.

`tables` hashes build_quotient_pi(n, max_n=n) over ten n from
10^8 + 7 to 10^11, across the int32 edges of larges (2^31, 2^32 and
3 * 2^31).  --full adds 1..2999, 300 random n <= 10^7, 60 log-uniform
random n in [10^8, 10^11] drawn from --seed, and 2^32 - 1, 2^32,
3 * 2^31 - 1, 10^12 - 1, 10^12 and 2^40 + 3: 3375 n.

`walks` hashes every table that quotient_tables yields, as it is
yielded, on walks of 2, 7 and 50 n from every ns[0] in 1..40 (across
the squares and m = 6, the one m with two steps); 6-n walks, high_sweep's
shape, from 2 * 10^8 + 1, 10^9 + 7, 5 * 10^9 + 3 and 3 * 10^10; 200 n
from 10^10; a stride-7 walk of 300 n from 10^9; and selftest's window
pair at 10^9: 10^9 - 10^5 and 10^9.

A table is hashed by its n and root, and for each of smalls, larges and
root_primes its name, dtype, shape, read-only flag and bytes.  The
default run takes about 4 s on a 2-vCPU VM; --full adds about 5 s.
"""

import argparse
import hashlib
import random
import sys

import numpy as np

from semipi import build_quotient_pi
from semipi.primes import _WHEEL, _factor_blocks, _primes, _sieve_blocks, isqrt, quotient_tables

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


def counts(lo: int, hi: int, step: int = 1):
    """The h blocks of the oracle's sieve over [lo, hi] at a step."""
    base = _primes(isqrt(hi))[step - 1 :]
    return _sieve_blocks(lo, hi, base, np.ones(len(base), dtype=np.uint8), np.add, step)


def parts(lo: int, hi: int, step: int = 1):
    """The smooth parts over [lo, hi] at a step, in int32."""
    base = _primes(isqrt(hi))[step - 1 :]
    return _sieve_blocks(lo, hi, base, base.astype(np.int32), np.multiply, step)


def block_cases():
    yield counts(1, 3162277, 2)
    yield counts(0, 200000)
    for top in (10**9, 10**11):
        for step in (1, 2):
            yield counts(top - 99999, top, step)
    for lo in (10**8, 10**10):
        yield _factor_blocks(lo, lo + 99999, _primes(isqrt(lo + 99999)))
    los = [*range(0, 3000, 7), *(k * _WHEEL + e for k in (1, 2, 3) for e in (-1, 0, 1))]
    for lo in los:
        for width in (0, 1, 13, 500):
            for step in (1, 2):
                first = lo | 1 if step == 2 else lo
                yield counts(first, first + width, step)
                yield parts(first, first + width, step)


def walks():
    for width in (2, 7, 50):
        for a in range(1, 41):
            yield range(a, a + width)
    for a in (2 * 10**8 + 1, 10**9 + 7, 5 * 10**9 + 3, 3 * 10**10):
        yield range(a, a + 6)
    yield range(10**10, 10**10 + 200)
    yield range(10**9, 10**9 + 7 * 300, 7)
    yield range(10**9 - 10**5, 10**9 + 1, 10**5)


def block_digest() -> str:
    h = hashlib.sha256()
    for blocks in block_cases():
        for start, block in blocks:
            h.update(f"{start} {block.dtype.str} {len(block)}".encode())
            h.update(block.tobytes())
    return h.hexdigest()


def table_digest(tables) -> tuple[str, int]:
    """The sha256 over tables, each hashed as it comes, and their number."""
    h = hashlib.sha256()
    count = 0
    for q in tables:
        h.update(f"{q.n} {q.root}".encode())
        for name in ("smalls", "larges", "root_primes"):
            a = getattr(q, name)
            h.update(f"{name} {a.dtype.str} {a.shape} {a.flags.writeable}".encode())
            h.update(a.tobytes())
        count += 1
    return h.hexdigest(), count


def blocks_line() -> str:
    return f"blocks sha256 {block_digest()}"


def tables_line(ns) -> str:
    sha, count = table_digest(build_quotient_pi(n, max_n=n) for n in ns)
    return f"tables sha256 {sha} over {count} n"


def walks_line() -> str:
    sha, count = table_digest(q for walk in walks() for q in quotient_tables(walk))
    return f"walks sha256 {sha} over {count} tables"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="3375 table n, not the ten default n")
    ap.add_argument("--seed", type=int, default=1, help="seed of --full's random n (default 1)")
    args = ap.parse_args()
    print(blocks_line())
    print(tables_line(full_ns(args.seed) if args.full else DEFAULT_NS))
    print(walks_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
