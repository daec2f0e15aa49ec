"""Exact integer prime-counting primitives.

Two table types back everything else in the package:

* ``PrimeTable``: a dense sieve up to a limit L, giving pi(x) for every
  x <= L in O(1) plus the ordered list of primes.
* ``QuotientPiTable``: for a fixed n, exact pi at every distinct value
  floor(n/d).  Built by a sieve-like recurrence over the ~2*sqrt(n)
  quotient points in O(n^(3/4)) arithmetic ops and O(sqrt(n)) memory,
  so pi(n/p) sums never require sieving anywhere near n/2.

All values are exact integers; no floating point is involved anywhere.
Tables are immutable after construction and safe to share between
threads or forked workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ResourceLimitError

#: Largest n accepted by build_quotient_pi without an explicit override.
SUPPORTED_MAX_N = 10**11

#: Budget for dense tables (index range of pi_dense).
MAX_DENSE_LIMIT = 2**31

#: Budget for sqrt(n) when building a quotient table (~0.5 GB).
MAX_QUOTIENT_ROOT = 2**25

#: Dense sieves are processed in blocks of this many entries.
SIEVE_SEGMENT = 2**20

#: The p > n^(1/3) band of build_quotient_pi is scattered in blocks of
#: at most this many (p, d) pairs.
BAND_BLOCK = 2**16


def isqrt(n: int) -> int:
    """Exact integer square root: the r with r*r <= n < (r+1)*(r+1).

    Thin wrapper over math.isqrt that rejects negatives with a package
    error.  Never rounds through floats, so perfect-square boundaries
    (n = p^2) are always classified correctly.
    """
    if n < 0:
        raise RangeError(f"isqrt requires n >= 0, got {n}")
    return math.isqrt(n)


def _sieve_mask(limit: int) -> np.ndarray:
    """Boolean primality mask for 0..limit, sieved segment by segment."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[: min(2, limit + 1)] = False
    root = math.isqrt(limit)
    base: list[int] = []
    for p in range(2, root + 1):
        if mask[p]:
            base.append(p)
            mask[p * p : root + 1 : p] = False
    lo = root + 1
    while lo <= limit:
        hi = min(lo + SIEVE_SEGMENT, limit + 1)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start:hi:p] = False
        lo = hi
    return mask


@dataclass(frozen=True)
class PrimeTable:
    """Dense prime table: all primes <= limit plus an O(1) pi lookup.

    pi_dense[x] = number of primes <= x, for 0 <= x <= limit.
    primes[k-1] is the k-th prime (1-indexed).
    """

    limit: int
    primes: np.ndarray = field(repr=False)
    pi_dense: np.ndarray = field(repr=False)

    def pi(self, x: int) -> int:
        """pi(x) for 0 <= x <= limit."""
        if not 0 <= x <= self.limit:
            raise RangeError(f"pi({x}) outside table limit {self.limit}")
        return int(self.pi_dense[x])


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit and the dense pi array.

    Deterministic for a given limit.  Raises ResourceLimitError, before
    allocating, if the limit exceeds MAX_DENSE_LIMIT.
    """
    if limit < 1:
        raise RangeError(f"limit must be >= 1, got {limit}")
    if limit > MAX_DENSE_LIMIT:
        raise ResourceLimitError(
            f"limit {limit} exceeds dense table budget {MAX_DENSE_LIMIT}"
        )
    mask = _sieve_mask(limit)
    primes = np.flatnonzero(mask).astype(np.int64)
    pi_dense = np.cumsum(mask, dtype=np.int32)
    primes.setflags(write=False)
    pi_dense.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes, pi_dense=pi_dense)


@dataclass(frozen=True)
class QuotientPiTable:
    """Exact pi at every distinct quotient floor(n/d), d = 1..n.

    Storage is two arrays indexed by the two halves of the quotient set:

    * ``smalls[v]``  = pi(v)          for 0 <= v <= root
    * ``larges[d]``  = pi(n // d)     for 1 <= d <= root + 1

    where root = isqrt(n).  Every floor(n/d) falls in one half or the
    other, so pi() is total on quotient points.  ``root_primes`` caches
    the primes <= root (the p_k over which the counting formulas sum).
    ``dense`` is the PrimeTable that from_dense read, kept so that
    eq3_naive takes its primes <= n/2 from it; build_quotient_pi leaves
    it None.  It is left out of repr and ==.
    """

    n: int
    root: int
    smalls: np.ndarray = field(repr=False)
    larges: np.ndarray = field(repr=False)
    root_primes: np.ndarray = field(repr=False)
    dense: PrimeTable | None = field(default=None, repr=False, compare=False)

    def pi(self, v: int) -> int:
        """pi(v) for any v in the quotient set of n (plus any v <= root)."""
        if v < 0:
            raise RangeError(f"pi({v}) undefined for negative v")
        if v <= self.root:
            return int(self.smalls[v])
        if v > self.n:
            raise RangeError(f"pi({v}) outside table range (n = {self.n})")
        d = self.n // v
        if self.n // d != v:
            raise RangeError(f"{v} is not a quotient point of {self.n}")
        return int(self.larges[d])

    @classmethod
    def from_dense(cls, n: int, table: PrimeTable) -> "QuotientPiTable":
        """Fast-path construction by direct lookup in a covering dense table.

        Requires table.limit >= n.  Bit-identical to build_quotient_pi(n)
        and keeps table as ``dense``; used by sweeps where thousands of
        tables are needed.
        """
        if n < 1:
            raise RangeError(f"n must be >= 1, got {n}")
        if table.limit < n:
            raise RangeError(
                f"dense table limit {table.limit} does not cover n={n}"
            )
        r = math.isqrt(n)
        smalls = table.pi_dense[: r + 1].astype(np.int64)
        d = np.arange(1, r + 2, dtype=np.int64)
        larges = np.concatenate([[0], table.pi_dense[n // d]]).astype(np.int64)
        k = int(np.searchsorted(table.primes, r, side="right"))
        root_primes = table.primes[:k].copy()
        for a in (smalls, larges, root_primes):
            a.setflags(write=False)
        return cls(
            n=n, root=r, smalls=smalls, larges=larges, root_primes=root_primes, dense=table
        )


def _pair_blocks(lo: np.ndarray, hi: np.ndarray):
    """Yield (i, d) arrays covering d = lo[i]..hi[i] for every i.

    The pairs are listed i by i and cut into blocks of at most
    BAND_BLOCK pairs; a block boundary may fall inside one i's range.
    """
    counts = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for j0 in range(0, total, BAND_BLOCK):
        j1 = min(j0 + BAND_BLOCK, total)
        i0 = int(np.searchsorted(ends, j0, side="right"))
        i1 = int(np.searchsorted(ends, j1 - 1, side="right")) + 1
        took = np.minimum(ends[i0:i1], j1) - np.maximum(starts[i0:i1], j0)
        # Pair j of the whole list is d = lo[i] + (j - starts[i]).
        shift = np.repeat(starts[i0:i1] - lo[i0:i1], took)
        yield np.repeat(np.arange(i0, i1), took), np.arange(j0, j1) - shift


def build_quotient_pi(n: int, *, max_n: int = SUPPORTED_MAX_N) -> QuotientPiTable:
    """Compute pi at all quotient points of n in O(n^(3/4)) time.

    Starts from S(v) = v - 1 (every integer in [2, v] a prime candidate)
    and, for each prime p <= sqrt(n) in increasing order, removes the
    composites whose least prime factor is p:

        S(v) -= S(v // p) - pi(p - 1)      for all quotient points v >= p^2

    After the last prime, S(v) = pi(v) exactly.  Only the ~2*sqrt(n)
    quotient points are tracked, which is what keeps the cost at
    O(n^(3/4)) arithmetic operations and O(sqrt(n)) memory.

    The primes fall into three bands by what their step touches:

    * p <= n^(1/4) (p^2 <= sqrt(n)): updates both larges and smalls.
    * n^(1/4) < p <= n^(1/3): updates larges only, one prime at a time.
    * p > n^(1/3) (p^3 > n): updates only larges[d] with
      d <= n // p^2 < n^(1/3), and reads only larges[d*p] at indices
      >= p > n^(1/3), or smalls, which no step with p^2 > sqrt(n)
      changes.  Every value this band reads is therefore final when the
      band starts, so its updates commute and are applied together as
      one scatter over all (p, d) pairs, in blocks of at most
      BAND_BLOCK pairs to keep memory flat.

    n beyond max_n (default 10**11) is rejected with RangeError rather
    than silently degrading; the cap can be overridden by callers that
    accept the cost.  isqrt(n) beyond MAX_QUOTIENT_ROOT raises
    ResourceLimitError before anything is allocated.
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if n > max_n:
        raise RangeError(
            f"n={n} exceeds the supported range (max_n={max_n}); "
            "pass a larger max_n to override"
        )
    r = math.isqrt(n)
    if r > MAX_QUOTIENT_ROOT:
        raise ResourceLimitError(
            f"isqrt(n)={r} exceeds quotient-table budget {MAX_QUOTIENT_ROOT}"
        )

    # smalls[v] tracks S(v) for v <= r; larges[d] tracks S(n // d).
    # quot[d - 1] = n // d, so S(n // (d*p)) at d*p > r is
    # smalls[quot[d - 1] // p], a division by a scalar.
    quot = n // np.arange(1, r + 1, dtype=np.int64)
    smalls = np.arange(r + 1, dtype=np.int64) - 1
    larges = np.zeros(r + 2, dtype=np.int64)
    larges[1 : r + 1] = quot - 1

    root_primes = np.flatnonzero(_sieve_mask(r)).astype(np.int64)
    # p^3 <= n exactly when p^2 <= n // p: these primes step one by one.
    cut = int(np.count_nonzero(root_primes * root_primes <= n // root_primes))

    for p in root_primes[:cut].tolist():
        sp = int(smalls[p - 1])  # pi(p - 1): final, since p - 1 < p^2
        p2 = p * p
        dmax = min(r, n // p2)
        # Each right-hand side is gathered before its write, so the
        # recurrence sees pre-update values throughout.
        k = min(dmax, r // p)
        larges[1 : k + 1] -= larges[p : k * p + 1 : p] - sp
        larges[k + 1 : dmax + 1] -= smalls[quot[k:dmax] // p] - sp
        if p2 <= r:
            # smalls[v // p] for v = p^2..r: each of smalls[p..r//p] p times.
            src = np.repeat(smalls[p : r // p + 1], p)[: r + 1 - p2]
            smalls[p2:] -= src - sp

    # The p > n^(1/3) band in one scatter.  For each p it covers
    # d = 1..n // p^2, reading larges[d*p] up to d = r // p and
    # smalls[n // (d*p)] above.
    band = root_primes[cut:]
    sp = smalls[band - 1]
    near = r // band
    for i, d in _pair_blocks(np.ones_like(band), near):
        np.subtract.at(larges, d, larges[d * band[i]] - sp[i])
    for i, d in _pair_blocks(near + 1, n // (band * band)):
        np.subtract.at(larges, d, smalls[n // (d * band[i])] - sp[i])

    smalls[0] = 0
    larges[r + 1] = smalls[n // (r + 1)] if r + 1 <= n else 0
    for a in (smalls, larges, root_primes):
        a.setflags(write=False)
    return QuotientPiTable(
        n=n, root=r, smalls=smalls, larges=larges, root_primes=root_primes
    )

