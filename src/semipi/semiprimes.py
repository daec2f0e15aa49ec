"""Semiprime counting: three formulas plus a factoring-sieve oracle.

A semiprime is a product of exactly two primes, not necessarily
distinct (4, 6, 9, 10, ...).  Writing pi2(n) for the number of
semiprimes <= n and r = isqrt(n), the package computes pi2 four ways:

* ``eq1``         sum over primes p_k <= r of  pi(n // p_k) - k + 1
* ``eq3_naive``   (sum over ALL primes p <= n/2 of pi(n // p) + pi(r)) / 2
* ``eq3_grouped`` same value, but the primes beyond r are never
                  enumerated: they are grouped by the shared quotient
                  v = n // p, costing O(sqrt(n)) terms total
* ``oracle``      factor every m <= n with a sieve and count those with
                  exactly two prime factors (with multiplicity)

All four must agree for every n; the CLI and the test suite treat any
disagreement as a bug signal.  Agreement proves less than four
independent routes would: eq1 and eq3_grouped read one quotient table
(eq3_naive reads it too, its tail through ``smalls``), and only the
oracle reads none.  A wrong ``larges`` entry can pass eq1 = eq3_grouped;
the oracle catches it and eq3_naive can, both up to their 10**7 caps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, RangeError
from .primes import PrimeTable, QuotientPiTable, _sieve_mask

#: eq3_naive enumerates every prime <= n/2; refuse beyond this.
NAIVE_MAX_N = 10**7

#: The oracle factors every integer <= n; refuse beyond this.
ORACLE_MAX_N = 10**7

#: Every method with its largest accepted n, in canonical order.  None
#: means the method is bounded only by the quotient table's max_n guard.
METHOD_CAPS = {
    "eq1": None,
    "eq3_naive": NAIVE_MAX_N,
    "eq3_grouped": None,
    "oracle": ORACLE_MAX_N,
}

#: Methods accepted throughout the package, in canonical order.
METHODS = tuple(METHOD_CAPS)


@dataclass(frozen=True)
class SemiprimeCount:
    """Result of one counting run: the count plus work diagnostics.

    Callers that report a time measure the call themselves.
    """

    n: int
    method: str
    count: int
    term_count: int


@dataclass(frozen=True)
class PairSum:
    """Sum over primes p <= n/2 of pi(n // p).

    Counts ordered pairs of primes (p, q) with p*q <= n.  value plus
    pi(isqrt(n)) is always even: unordered pairs with p != q are hit
    twice, and the diagonal correction makes the double-count uniform.
    """

    n: int
    value: int
    upper_index: int  # pi(n // 2): number of summation terms in full form
    term_count: int  # terms actually evaluated (grouped collapses the tail)


def _require_match(n: int, qpi: QuotientPiTable) -> None:
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if qpi.n != n:
        raise RangeError(f"quotient table was built for {qpi.n}, not {n}")


def _head_sum(qpi: QuotientPiTable) -> int:
    """Sum of pi(n // p) over primes p <= isqrt(n).

    int64 cannot overflow: the sum counts ordered prime pairs (p, q) with
    p <= sqrt(n) and p*q <= n.  All such pairs number at most n (two per
    semiprime, and at most ceil(n/2) semiprimes are <= n), and
    MAX_QUOTIENT_ROOT = 2**25 keeps n below 2**50 even under a max_n
    override.
    """
    if len(qpi.root_primes) == 0:
        return 0
    return int(qpi.larges[qpi.root_primes].sum())


def _tail_sum(qpi: QuotientPiTable) -> tuple[int, int]:
    """Sum of pi(n // p) over primes isqrt(n) < p <= n/2, by grouping.

    Every such prime has v = n // p < sqrt(n), so instead of visiting
    primes we visit the candidate quotient values v = 2..n//(r+1) and
    weight pi(v) by the number of primes in (n//(v+1), n//v], all read
    from the quotient table.  Returns (tail, blocks evaluated).

    The int64 dot product cannot overflow: its terms are nonnegative and
    its partial sums count ordered prime pairs (p, q) with p*q <= n, which
    number at most n (see _head_sum), below 2**50.
    """
    n, r = qpi.n, qpi.root
    last = n // (r + 1)
    if last < 2:
        return 0, 0
    # v runs over 2..last, and last <= r keeps larges[v + 1] in the table.
    hi = qpi.larges[2 : last + 1]  # pi(n // v)
    # pi(max(n//(v+1), r)) == max(pi(n//(v+1)), pi(r)) by monotonicity.
    lo = np.maximum(qpi.larges[3 : last + 2], qpi.smalls[r])
    tail = int(np.dot(qpi.smalls[2 : last + 1], hi - lo))
    return tail, last - 1


def count_semiprimes_eq1(n: int, qpi: QuotientPiTable) -> SemiprimeCount:
    """Count semiprimes <= n as sum_k [pi(n // p_k) - k + 1], p_k <= isqrt(n).

    The k-th term counts pairs (p_k, q) with q >= p_k, so each unordered
    pair is counted once.  Empty sum (n < 4) gives 0.
    """
    _require_match(n, qpi)
    k = len(qpi.root_primes)
    count = _head_sum(qpi) - k * (k - 1) // 2
    return SemiprimeCount(n=n, method="eq1", count=count, term_count=k)


def pair_sum_naive(
    n: int, qpi: QuotientPiTable, *, table: PrimeTable | None = None
) -> PairSum:
    """Ordered prime-pair count by literally visiting every prime <= n/2.

    Test-oracle counterpart of pair_sum_grouped; refuses n beyond
    NAIVE_MAX_N since the term count alone is pi(n/2).  A dense table
    with limit >= n // 2 may be supplied to skip the internal sieve.
    """
    _require_match(n, qpi)
    if n > NAIVE_MAX_N:
        raise RangeError(
            f"n={n} exceeds the naive-form cap {NAIVE_MAX_N}; "
            "use pair_sum_grouped"
        )
    half = n // 2
    if half < 2:
        return PairSum(n=n, value=0, upper_index=0, term_count=0)
    if table is None:
        ps = np.flatnonzero(_sieve_mask(half)).astype(np.int64)
    else:
        if table.limit < half:
            raise RangeError(
                f"dense table limit {table.limit} does not cover n//2 = {half}"
            )
        ps = table.primes[: int(np.searchsorted(table.primes, half, side="right"))]
    if len(ps) == 0:
        return PairSum(n=n, value=0, upper_index=0, term_count=0)
    value = int(qpi.pi_many(n // ps).sum())
    return PairSum(n=n, value=value, upper_index=len(ps), term_count=len(ps))


def pair_sum_grouped(n: int, qpi: QuotientPiTable) -> PairSum:
    """Ordered prime-pair count in O(sqrt(n)) terms.

    Identical value to pair_sum_naive for every n: the sum is split at
    isqrt(n), the head evaluated prime by prime and the tail grouped by
    shared quotient value.
    """
    _require_match(n, qpi)
    head = _head_sum(qpi)
    tail, blocks = _tail_sum(qpi)
    upper = qpi.pi(n // 2) if n >= 2 else 0
    return PairSum(
        n=n,
        value=head + tail,
        upper_index=upper,
        term_count=len(qpi.root_primes) + blocks,
    )


def count_semiprimes_eq3(
    n: int,
    qpi: QuotientPiTable,
    mode: str = "grouped",
    *,
    table: PrimeTable | None = None,
) -> SemiprimeCount:
    """Count semiprimes <= n as (pair_sum(n) + pi(isqrt(n))) / 2.

    The dividend double-counts every unordered pair exactly twice, so it
    must be even; the halving is exact integer division guarded by a
    parity assertion.  A parity failure can only mean a bug in the pair
    sum or the pi tables and raises InternalConsistencyError.  `table`
    is forwarded to pair_sum_naive in naive mode to skip its sieve.
    """
    _require_match(n, qpi)
    if mode == "naive":
        pair = pair_sum_naive(n, qpi, table=table)
    elif mode == "grouped":
        pair = pair_sum_grouped(n, qpi)
    else:
        raise ValueError(f"mode must be 'naive' or 'grouped', got {mode!r}")
    sq = int(qpi.smalls[qpi.root])  # pi(isqrt(n))
    dividend = pair.value + sq
    if dividend % 2 != 0:
        raise InternalConsistencyError(
            f"pair_sum({n}) + pi(isqrt({n})) = {pair.value} + {sq} is odd; "
            "this indicates a counting bug"
        )
    return SemiprimeCount(
        n=n,
        method=f"eq3_{mode}",
        count=dividend // 2,
        term_count=pair.term_count + 1,
    )


def omega_table(limit: int) -> np.ndarray:
    """Omega(m) (prime factors with multiplicity) for every m <= limit.

    Sieve-based: each prime power q = p^e <= limit contributes 1 to all
    of its multiples, which totals the p-adic valuation per m.  uint8 is
    ample (Omega(m) <= log2(m) < 64).
    """
    if limit < 0:
        raise RangeError(f"limit must be >= 0, got {limit}")
    omega = np.zeros(limit + 1, dtype=np.uint8)
    if limit < 2:
        return omega
    for p in np.flatnonzero(_sieve_mask(limit)).tolist():
        q = p
        while q <= limit:
            omega[q::q] += 1
            q *= p
    return omega


def oracle_count_table(limit: int) -> np.ndarray:
    """Cumulative semiprime counts: out[m] = #{k <= m : Omega(k) = 2}."""
    return np.cumsum(omega_table(limit) == 2, dtype=np.int64)


def count_semiprimes_oracle(n: int) -> SemiprimeCount:
    """Count semiprimes <= n by factoring every integer up to n.

    Fully independent of the pi tables and the counting formulas; used
    for differential testing.  Capped at ORACLE_MAX_N.
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if n > ORACLE_MAX_N:
        raise RangeError(f"n={n} exceeds the oracle cap {ORACLE_MAX_N}")
    count = int(oracle_count_table(n)[n])
    return SemiprimeCount(n=n, method="oracle", count=count, term_count=n)
