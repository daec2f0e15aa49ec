#!/usr/bin/env python3
"""Print one sha256 over every table that quotient_tables yields on a fixed walk list.

Each table is hashed as it is yielded: its n and root, and for each of
smalls, larges and root_primes its name, dtype, shape, read-only flag
and bytes, as scripts/table_digest.py hashes a build.  Two trees that
print the same line walk bit-identical tables on the list, so run it
from two checkouts to check that a change to the walk keeps every table:

    PYTHONPATH=src python3 scripts/walk_digest.py

The list:

* walks of 2, 7 and 50 n from every ns[0] in 1..40, across the squares
  and m = 6, the one m with two steps;
* 6-n walks, high_sweep's shape, from 2 * 10^8 + 1, 10^9 + 7,
  5 * 10^9 + 3 and 3 * 10^10;
* 200 n from 10^10, and a stride-7 walk of 300 n from 10^9;
* selftest's window pair at 10^9: 10^9 - 10^5 and 10^9.

It takes about 2 s on a 2-vCPU VM.
"""

import hashlib
import sys

from semipi.primes import quotient_tables


def walks():
    for width in (2, 7, 50):
        for a in range(1, 41):
            yield range(a, a + width)
    for a in (2 * 10**8 + 1, 10**9 + 7, 5 * 10**9 + 3, 3 * 10**10):
        yield range(a, a + 6)
    yield range(10**10, 10**10 + 200)
    yield range(10**9, 10**9 + 7 * 300, 7)
    yield range(10**9 - 10**5, 10**9 + 1, 10**5)


def digest() -> tuple[str, int]:
    h = hashlib.sha256()
    tables = 0
    for ns in walks():
        for q in quotient_tables(ns):
            h.update(f"{q.n} {q.root}".encode())
            for name in ("smalls", "larges", "root_primes"):
                a = getattr(q, name)
                h.update(f"{name} {a.dtype.str} {a.shape} {a.flags.writeable}".encode())
                h.update(a.tobytes())
            tables += 1
    return h.hexdigest(), tables


def main() -> int:
    sha, tables = digest()
    print(f"sha256 {sha} over {tables} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
