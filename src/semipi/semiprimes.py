"""Semiprime counting: three formulas plus a factoring-sieve oracle.

A semiprime is a product of exactly two primes, not necessarily
distinct (4, 6, 9, 10, ...).  Writing pi2(n) for the number of
semiprimes <= n and r = isqrt(n), the package computes pi2 four ways:

* ``eq1``         sum over primes p_k <= r of  pi(n // p_k) - k + 1
* ``eq3_naive``   (sum over ALL primes p <= n/2 of pi(n // p) + pi(r)) / 2
* ``eq3_grouped`` same value, but the primes beyond r are never
                  enumerated: they are grouped by the shared quotient
                  v = n // p, costing O(sqrt(n)) terms total
* ``oracle``      count the m <= n with exactly two prime factors (with
                  multiplicity) by a sieve that counts each m's prime
                  factors up to r: those m > r with one such factor,
                  and the products of two primes up to r; an even m
                  counts as 4 or twice an odd prime

The three formulas share their sums.  eq1 and eq3 both read the head
sum of pi(n // p) over the primes p <= r; eq3_grouped adds the grouped
tail, and eq3_naive visits every prime instead.  ``formula_counts`` is
the one place each formula and eq3's parity guard are written: it gives
every formula asked for at one n from one head sum.
``count_semiprimes_eq1`` and ``count_semiprimes_eq3`` read their count
from it and add only the term count.

All four must agree for every n; the CLI and the test suite treat any
disagreement as a bug signal.  Agreement proves less than four
independent routes would: eq1 and eq3_grouped read one quotient table
(eq3_naive reads it too, its tail through ``smalls``), and only the
oracle reads none.  A wrong ``larges`` entry can pass eq1 = eq3_grouped;
the oracle catches it and eq3_naive can, both up to their 10**7 caps.
Above 10**7 the table-free window check (``selftest``, criterion 10)
can catch it too, and so can the comparison of a table derived by
``quotient_tables`` with its own build (``selftest``, criterion 11, and
every walked range of the CLI: two or more n ending above 10**7, at a
stride up to isqrt of the last n), both unless the recurrence tables of
a - 1 and b share the fault.  The oracle shares only the base-prime
sieve ``_primes`` with the recurrence; its block sieve
``primes._sieve_blocks`` also finds the smooth parts that step
``quotient_tables``.  ``oracle_counts``, which the count, the sweep's
oracle column and the window check all read, holds one count per n and
no smooth part, and two block rows that ``primes._scratch`` lends and
the thread keeps for its next call: one uint8 count of small prime
factors per entry and one bool flag per entry.  A count from 1 sieves
only the odd numbers, in blocks of SIEVE_SEGMENT of them, and counts an
even semiprime 2o by the odd prime o; a window near n sieves every
integer, in blocks of at most SIEVE_SEGMENT.  The blocks are those of
``primes._tiled_blocks`` over a 27720-entry pattern of the share of 2,
4, 8, 3, 9, 5, 7 and 11 (only the odd ones over odd numbers), and each
walks only the other prime powers with a multiple in it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, RangeError
from .primes import QuotientPiTable, _primes, _scratch, _sieve_blocks, isqrt

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
    MAX_QUOTIENT_ROOT = 2**25 keeps n below (2**25 + 1)**2 = 2**50 +
    2**26 + 1 even under a max_n override.
    """
    return int(qpi.larges[qpi.root_primes].sum())


def _tail_sum(qpi: QuotientPiTable) -> int:
    """Sum of pi(n // p) over primes isqrt(n) < p <= n/2, by grouping.

    Every such prime has v = n // p < sqrt(n), so instead of visiting
    primes we visit the candidate quotient values v = 2..n//(r+1) and
    weight pi(v) by the number of primes in (n//(v+1), n//v], all read
    from the quotient table: n//(r+1) - 1 blocks.

    The int64 dot product cannot overflow: its terms are nonnegative and
    its partial sums count ordered prime pairs (p, q) with p*q <= n, which
    number at most n (see _head_sum), below 2**51.  A dot product per
    bound has no such cap: each passes 2**63 from about n = 2 * 10**14.
    """
    last = qpi.n // (qpi.root + 1)
    if last < 2:
        return 0
    # v runs over 2..last, and last <= r keeps larges[v + 1] in the table.
    # n // (v + 1) >= n // (last + 1) = r, so every prime counted is > r.
    primes_at = qpi.larges[2 : last + 1] - qpi.larges[3 : last + 2]
    return int(np.dot(qpi.smalls[2 : last + 1], primes_at))


def _naive_sum(n: int, qpi: QuotientPiTable) -> int:
    """Sum of pi(n // p) over ALL primes p <= n/2, visiting every prime.

    The test-oracle counterpart of _head_sum + _tail_sum; refuses n beyond
    NAIVE_MAX_N since the term count alone is pi(n/2).  The primes come
    from qpi.dense (the sieve the table was read from) if set, else from
    a sieve of n // 2.  Each prime p reads larges[p] where n // p >
    isqrt(n), that is p <= n // (isqrt(n) + 1), the first k primes by one
    searchsorted, and smalls[n // p] elsewhere, so the tail reads smalls.
    The tail's quotients are divided into the sieve's own result and read
    by smalls.take into the same slice; a dense table's primes are a
    read-only view, so there they go into a copy.
    """
    if n > NAIVE_MAX_N:
        raise RangeError(f"n={n} exceeds the naive-form cap {NAIVE_MAX_N}; use eq3_grouped")
    ps = _primes(n // 2) if qpi.dense is None else qpi.dense.primes[: qpi.dense.pi(n // 2)]
    k = int(np.searchsorted(ps, n // (qpi.root + 1), side="right"))
    head = int(qpi.larges[ps[:k]].sum())
    quot = ps[k:] if qpi.dense is None else ps[k:].copy()
    np.floor_divide(n, quot, out=quot)
    return head + int(qpi.smalls.take(quot, out=quot, mode="wrap").sum())


def formula_counts(n: int, qpi: QuotientPiTable, methods: tuple[str, ...]) -> list[int]:
    """The count of each formula method at n, in the order of methods.

    The one place each formula is written.  With k = pi(isqrt(n)):

    * eq1 is the head sum minus the sum 0 + 1 + ... + (k - 1): the j-th
      root prime's term drops j - 1, and counts the pairs (p_j, q) with
      q >= p_j;
    * eq3 halves an ordered pair sum plus k, under a parity guard: the
      dividend counts every unordered pair twice, so an odd one can only
      mean a bug in the sums or the tables.

    qpi is checked once; its head sum is read once and only for eq1 or
    eq3_grouped, the grouped tail only for eq3_grouped and the naive
    pair sum only for eq3_naive.  Raises ValueError for the oracle and
    for unknown names.
    """
    if not set(methods) <= {"eq1", "eq3_grouped", "eq3_naive"}:
        raise ValueError(f"formula methods are eq1, eq3_grouped and eq3_naive, got {methods}")
    _require_match(n, qpi)
    counts = {}
    if "eq1" in methods or "eq3_grouped" in methods:
        head = _head_sum(qpi)
        k = len(qpi.root_primes)
        counts["eq1"] = head - k * (k - 1) // 2
    sq = int(qpi.smalls[qpi.root])  # pi(isqrt(n))
    for method in ("eq3_grouped", "eq3_naive"):
        if method in methods:
            pair = head + _tail_sum(qpi) if method == "eq3_grouped" else _naive_sum(n, qpi)
            if (pair + sq) % 2 != 0:
                raise InternalConsistencyError(
                    f"pair_sum({n}) + pi(isqrt({n})) = {pair} + {sq} is odd; "
                    "this indicates a counting bug"
                )
            counts[method] = (pair + sq) // 2
    return [counts[m] for m in methods]


def count_semiprimes_eq1(n: int, qpi: QuotientPiTable) -> SemiprimeCount:
    """Count semiprimes <= n as sum_k [pi(n // p_k) - k + 1], p_k <= isqrt(n).

    The k-th term counts pairs (p_k, q) with q >= p_k, so each unordered
    pair is counted once.  Empty sum (n < 4) gives 0.
    """
    (count,) = formula_counts(n, qpi, ("eq1",))
    return SemiprimeCount(n=n, method="eq1", count=count, term_count=len(qpi.root_primes))


def count_semiprimes_eq3(n: int, qpi: QuotientPiTable, mode: str = "grouped") -> SemiprimeCount:
    """Count semiprimes <= n as (pair_sum(n) + pi(isqrt(n))) / 2.

    The pair sum, of pi(n // p) over the primes p <= n/2, is the head sum
    plus the grouped tail in grouped mode, and visits every prime in
    naive mode (capped at NAIVE_MAX_N; its primes come from qpi.dense
    when set).  term_count counts the halving as one term, and the root
    primes and tail blocks, or the primes <= n/2, as one each.
    """
    method = f"eq3_{mode}"
    (count,) = formula_counts(n, qpi, (method,))
    if mode == "grouped":
        terms = len(qpi.root_primes) + max(n // (qpi.root + 1) - 1, 0)
    else:
        terms = qpi.pi(n // 2)
    return SemiprimeCount(n=n, method=method, count=count, term_count=terms + 1)


def _base_pairs(base: np.ndarray, start: int, end: int) -> np.ndarray:
    """Every product p * q in [start, end) of base primes p <= q.

    For each p with p * p < end, the q form one run of base, found by
    searchsorted.  The products are distinct integers of [start, end),
    so there are at most end - start of them.
    """
    ps = base[: np.searchsorted(base, isqrt(end - 1), side="right")]
    first = np.searchsorted(base, np.maximum(ps, -(-start // ps)))
    took = np.maximum(np.searchsorted(base, (end - 1) // ps, side="right") - first, 0)
    at = np.repeat(first - np.cumsum(took) + took, took) + np.arange(took.sum())
    return np.repeat(ps, took) * base[at]


#: A block reads the counts of its n from its flags in one of three ways,
#: by how many entries it holds per n: a count_nonzero between each two n
#: when it holds at least _SPARSE, one cumulative sum when it holds fewer
#: than _DENSE, and a binary search of its flagged entries between.  Over
#: 2**20 flags on a 2-vCPU Xeon, a count_nonzero took 0.06 ms, the
#: flatnonzero that a binary search needs 1.0-1.3 ms and an int32 cumsum
#: 4 ms; 10**5 binary searches took 4.4 ms.
_SPARSE, _DENSE = 1024, 8


def _tally(
    out: np.ndarray, ns: range, scale: int, flags: np.ndarray, start: int, step: int, total: int
) -> int:
    """Add to out[i] the flagged m <= ns[i] // scale, for each such bound in the block.

    flags[k] stands for m = start + step * k, and total counts the flags
    before the block; each n whose bound ns[i] // scale lies in the
    block, [start, start + step * len(flags)), gets total plus the flags
    up to its bound.  Returns the count after the block.
    """
    i = bisect_left(ns, scale * start)
    j = bisect_left(ns, scale * (start + step * len(flags)))
    if i == j:
        return total + int(np.count_nonzero(flags))
    at = (np.arange(ns[i], ns[j - 1] + 1, ns.step) // scale - start) // step
    if (j - i) * _SPARSE <= len(flags):
        cuts = [0, *(at + 1).tolist(), len(flags)]
        counts = np.cumsum([np.count_nonzero(flags[a:b]) for a, b in zip(cuts, cuts[1:])])
        after = int(counts[-1])
        counts = counts[:-1]
    elif (j - i) * _DENSE > len(flags):
        counts = np.cumsum(flags, dtype=np.int32)  # a block holds < 2**31 entries
        after = int(counts[-1])
        counts = counts[at]
    else:
        hits = np.flatnonzero(flags)
        after = len(hits)
        counts = np.searchsorted(hits, at, side="right")
    out[i:j] += counts
    out[i:j] += total
    return total + after


def oracle_counts(lo: int, ns: range) -> np.ndarray:
    """out[i] = #{lo <= m <= ns[i] : Omega(m) = 2} for an ascending range ns[0] >= lo >= 1.

    With R = isqrt(ns[-1]) and h(m) the count of m's prime factors
    p <= R with multiplicity, an m <= ns[-1] has Omega(m) = 2 exactly
    when h(m) = 1 and m > R, or m = p * q for primes p <= q <= R:

    * h(m) = 1: m = p * c, where c has no prime factor <= R and
      c <= ns[-1] / 2 < (R + 1)^2, so c is 1 or one prime.  c = 1 means
      m = p <= R, and m > R means c is a prime.
    * h(m) = 2: m is a semiprime exactly when it has no cofactor, that
      is, when m = p * q.
    * h(m) = 0 means m is 1 or a prime, and h(m) >= 3 means Omega >= 3.

    An even m = 2k has Omega(m) = 2 exactly when Omega(k) = 1, that is,
    when k is prime: m = 4, or m = 2o for an odd prime o, and lo <= 2o <= n
    exactly when (lo + 1) // 2 <= o <= n // 2.  By the same rules, an odd
    o <= ns[-1] // 2 is prime exactly when h(o) = 1 and o <= R (its one
    factor <= R is all of it) or h(o) = 0 and o > R (1, with h(1) = 0,
    is <= R).  So the odd pass sieves h only over the odd m of
    [(lo + 1) // 2, ns[-1]], with the odd base primes, and counts for
    each n the odd semiprimes in [lo, n], the odd primes up to n // 2,
    and 4.  It runs whenever those odd m are fewer than the integers of
    [lo, ns[-1]], as for every count from 1; a window near ns[-1] takes
    the every-integer pass over [lo, ns[-1]], which counts its
    semiprimes, the even ones too, by the first rules alone.

    Either pass reads h from the blocks of _sieve_blocks, which adds 1 at
    the multiples of every power of a base prime, and holds len(ns)
    counts.  Each block's flags are written by np.equal into one bool row
    that _scratch lends: the semiprimes, with the products p * q of the
    block from _base_pairs, then the primes, once the semiprimes are
    tallied.  Each n's count is a running count plus the block's flags
    (_tally).  Reads no quotient table and applies no cap.
    """
    if lo < 1 or len(ns) == 0 or ns.step < 1 or ns[0] < lo:
        raise RangeError(f"need an ascending range of n >= lo >= 1, got lo={lo}, ns={ns}")
    last = ns[-1]
    root = isqrt(last)
    base = _primes(root)
    half = (lo + 1) // 2  # the least o with 2 * o >= lo
    out = np.zeros(len(ns), dtype=np.int64)
    if (last + 1) // 2 - half // 2 < last - lo + 1:  # odd m of [half, last] are fewer
        first, step, base = half | 1, 2, base[1:]
        if lo <= 4:
            out[bisect_left(ns, 4) :] = 1
    else:
        first, step = lo, 1
    ones = np.ones(len(base), dtype=np.uint8)
    semiprime_count = prime_count = 0
    for start, h in _sieve_blocks(first, last, base, ones, np.add, step):
        end = start + step * len(h)
        # Entries below `small` hold the m <= R, and below `cut` the m <= R or m < lo.
        small = max((root - start) // step + 1, 0)
        cut = max(small, -(-(lo - start) // step))
        with _scratch(bool, len(h)) as flags:
            semiprime = np.equal(h, 1, out=flags)
            semiprime[:cut] = False
            semiprime[(_base_pairs(base, max(start, lo), end) - start) // step] = True
            semiprime_count = _tally(out, ns, 1, semiprime, start, step, semiprime_count)
            if step == 2 and start <= last // 2:
                prime = np.equal(h, 0, out=flags)
                np.equal(h[:small], 1, out=prime[:small])
                prime_count = _tally(out, ns, 2, prime, start, step, prime_count)
    return out


def count_semiprimes_oracle(n: int) -> SemiprimeCount:
    """Count semiprimes <= n by the small prime factors of every odd number up to n.

    Reads no pi table and none of the counting formulas; used for
    differential testing.  It is the odd pass of oracle_counts(1, ...),
    which counts the odd semiprimes <= n, the odd primes <= n // 2 and 4
    block by block, so its memory is bounded by one block, not by n.
    Capped at ORACLE_MAX_N.
    """
    if n > ORACLE_MAX_N:
        raise RangeError(f"n={n} exceeds the oracle cap {ORACLE_MAX_N}")
    count = int(oracle_counts(1, range(n, n + 1))[0])
    return SemiprimeCount(n=n, method="oracle", count=count, term_count=n)
