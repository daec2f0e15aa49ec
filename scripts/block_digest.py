#!/usr/bin/env python3
"""Print one sha256 over the blocks of the factoring sieve on a fixed case list.

Every block of primes._sieve_blocks is hashed as it is yielded, before
the next one: its start, dtype, length and bytes.  Two trees that print
the same line yield bit-identical blocks on the list, so run it from two
checkouts to check that a change to the block sieve keeps every block:

    PYTHONPATH=src python3 scripts/block_digest.py

The list:

* the oracle's odd pass over 1..3162277 (uint8 counts, np.add);
* the every-integer pass over 0..200000;
* windows of the 10^5 integers ending at 10^9 and at 10^11, at both
  steps;
* _factor_blocks over the 10^5 integers from 10^8 (int32 parts) and
  from 10^10 (int64 parts);
* a grid of small ranges: lo in 0..2999 in steps of 7 and next to the
  multiples 27720, 55440 and 83160 of the wheel, widths 0, 1, 13 and
  500, each at both steps (lo made odd at step 2) and with both ufuncs.

It takes about 2 s on a 2-vCPU VM.
"""

import hashlib
import sys

import numpy as np

from semipi.primes import _WHEEL, _factor_blocks, _primes, _sieve_blocks, isqrt


def counts(lo: int, hi: int, step: int = 1):
    """The h blocks of the oracle's sieve over [lo, hi] at a step."""
    base = _primes(isqrt(hi))[step - 1 :]
    return _sieve_blocks(lo, hi, base, np.ones(len(base), dtype=np.uint8), np.add, step)


def parts(lo: int, hi: int, step: int = 1):
    """The smooth parts over [lo, hi] at a step, in int32."""
    base = _primes(isqrt(hi))[step - 1 :]
    return _sieve_blocks(lo, hi, base, base.astype(np.int32), np.multiply, step)


def cases():
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


def digest() -> str:
    h = hashlib.sha256()
    for blocks in cases():
        for start, block in blocks:
            h.update(f"{start} {block.dtype.str} {len(block)}".encode())
            h.update(block.tobytes())
    return h.hexdigest()


def main() -> int:
    print(f"sha256 {digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
