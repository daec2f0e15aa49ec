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
                  exactly two prime factors (with multiplicity): the
                  prime powers of the primes up to sqrt(n), plus at
                  most one cofactor prime above sqrt(n) per m

All four must agree for every n; the CLI and the test suite treat any
disagreement as a bug signal.  Agreement proves less than four
independent routes would: eq1 and eq3_grouped read one quotient table
(eq3_naive reads it too, its tail through ``smalls``), and only the
oracle reads none.  A wrong ``larges`` entry can pass eq1 = eq3_grouped;
the oracle catches it and eq3_naive can, both up to their 10**7 caps.
Above 10**7 the table-free window check (``selftest``, criterion 10)
can catch it too, unless the tables of a - 1 and b share the fault.
The oracle shares only the base-prime sieve ``_sieve_mask`` with the
quotient table.  It factors in blocks of at most SIEVE_SEGMENT integers,
and ``oracle_counts``, which the count, the sweep's oracle column and the
window check all read, holds one block at a time plus one count per n.
Each block starts from the 27720-periodic share of 2, 4, 8, 3, 9, 5, 7
and 11, walks only the other prime powers with a multiple in it, and
keeps the smooth part in int32 below 2**31, where it cannot overflow.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, RangeError
from .primes import SIEVE_SEGMENT, QuotientPiTable, _sieve_mask, isqrt

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


def pair_sum_naive(n: int, qpi: QuotientPiTable) -> PairSum:
    """Ordered prime-pair count by literally visiting every prime <= n/2.

    Test-oracle counterpart of pair_sum_grouped; refuses n beyond
    NAIVE_MAX_N since the term count alone is pi(n/2).  The primes come
    from qpi.dense (the sieve the table was read from) if set, else from
    a sieve of n // 2.  Each prime p reads larges[p] where n // p >
    isqrt(n) and smalls[n // p] elsewhere, so the tail reads smalls.
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
    if qpi.dense is None:
        ps = np.flatnonzero(_sieve_mask(half)).astype(np.int64)
    else:
        ps = qpi.dense.primes[: int(np.searchsorted(qpi.dense.primes, half, side="right"))]
    quot = n // ps
    k = int(np.count_nonzero(quot > qpi.root))  # quot descends: the first k read larges
    value = int(qpi.larges[ps[:k]].sum()) + int(qpi.smalls[quot[k:]].sum())
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


def count_semiprimes_eq3(n: int, qpi: QuotientPiTable, mode: str = "grouped") -> SemiprimeCount:
    """Count semiprimes <= n as (pair_sum(n) + pi(isqrt(n))) / 2.

    The dividend double-counts every unordered pair exactly twice, so it
    must be even; the halving is exact integer division guarded by a
    parity assertion.  A parity failure can only mean a bug in the pair
    sum or the pi tables and raises InternalConsistencyError.  Both modes
    read only qpi (naive mode takes its primes from qpi.dense when set).
    """
    _require_match(n, qpi)
    if mode == "naive":
        pair = pair_sum_naive(n, qpi)
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


#: The oracle's wheel: the prime powers 2, 4, 8, 3, 9, 5, 7 and 11 that
#: divide it hit the same residues mod _WHEEL in every block.
_WHEEL = 8 * 9 * 5 * 7 * 11


def _omega_blocks(lo: int, hi: int):
    """Yield (start, omega) for consecutive blocks covering [lo, hi].

    omega[i] is Omega(start + i), prime factors counted with
    multiplicity, as uint8; each block holds at most SIEVE_SEGMENT
    entries, and 0 and 1 get 0.  The base primes p <= isqrt(hi) are
    sieved once.  In each block every prime power q = p^e adds 1 at its
    multiples and multiplies `part` there by p, so `part` ends as the
    isqrt(hi)-smooth part of m.  An m with part < m has a cofactor
    m // part whose prime factors all exceed sqrt(hi) >= sqrt(m), so it
    is one prime: one more factor.

    The prime powers that divide _WHEEL = 27720 (of base primes only: a
    wheel prime above isqrt(hi) is a cofactor) are applied once per call
    to a pattern of _WHEEL residues, and each block starts as that
    pattern rolled to start % _WHEEL.  Every other prime power q <= hi
    is listed once per call; a block walks only the q that have a
    multiple in it, with their first offsets found in one vector op.
    `part` is int32 when hi < 2**31 and int64 otherwise: it divides m,
    so part <= m <= hi and every product is exact.
    """
    dtype = np.int32 if hi < 2**31 else np.int64
    base = np.flatnonzero(_sieve_mask(isqrt(hi)))
    wheel_omega = np.zeros(_WHEEL, dtype=np.uint8)
    wheel_part = np.ones(_WHEEL, dtype=dtype)
    ps, qs = [base[:0]], [base[:0]]  # concatenate needs one array
    p, q = base, base
    while len(p):
        in_wheel = _WHEEL % q == 0
        for pw, qw in zip(p[in_wheel].tolist(), q[in_wheel].tolist()):
            wheel_omega[::qw] += 1
            wheel_part[::qw] *= pw
        ps.append(p[~in_wheel])
        qs.append(q[~in_wheel])
        grows = q <= hi // p
        p, q = p[grows], q[grows] * p[grows]
    ps, qs = np.concatenate(ps), np.concatenate(qs)
    for start in range(lo, hi + 1, SIEVE_SEGMENT):
        end = min(start + SIEVE_SEGMENT, hi + 1)
        off = start % _WHEEL
        omega = np.resize(np.roll(wheel_omega, -off), end - start)
        part = np.resize(np.roll(wheel_part, -off), end - start)
        # 0 is a multiple of every q but no product of primes: skip it.
        m0 = max(start, 1)
        if start == 0:
            omega[0], part[0] = 0, 1
        hit = (end - 1) // qs > (m0 - 1) // qs
        hit_q = qs[hit]
        firsts = (m0 - start) + (-m0) % hit_q
        for pw, qw, first in zip(ps[hit].tolist(), hit_q.tolist(), firsts.tolist()):
            omega[first::qw] += 1
            part[first::qw] *= pw
        omega += part < np.arange(start, end, dtype=dtype)
        yield start, omega


def oracle_counts(lo: int, ns: range) -> np.ndarray:
    """out[i] = #{lo <= m <= ns[i] : Omega(m) = 2} for an ascending range ns[0] >= lo >= 1.

    One pass of _omega_blocks(lo, ns[-1]) with a running count: it holds
    one block and len(ns) counts, and locates semiprimes only in blocks
    that hold some n.  Reads no quotient table and applies no cap.
    """
    if lo < 1 or len(ns) == 0 or ns.step < 1 or ns[0] < lo:
        raise RangeError(f"need an ascending range of n >= lo >= 1, got lo={lo}, ns={ns}")
    out = np.empty(len(ns), dtype=np.int64)
    total = 0
    for start, omega in _omega_blocks(lo, ns[-1]):
        i, j = bisect_left(ns, start), bisect_left(ns, start + len(omega))
        if i == j:
            total += int(np.count_nonzero(omega == 2))
            continue
        hits = np.flatnonzero(omega == 2)
        offsets = np.arange(ns[i], ns[j - 1] + 1, ns.step) - start
        out[i:j] = total + np.searchsorted(hits, offsets, side="right")
        total += len(hits)
    return out


def count_semiprimes_oracle(n: int) -> SemiprimeCount:
    """Count semiprimes <= n by factoring every integer up to n.

    Reads no pi table and none of the counting formulas; used for
    differential testing.  It counts Omega == 2 block by block, so its
    memory is bounded by one block, not by n.  Capped at ORACLE_MAX_N.
    """
    if n > ORACLE_MAX_N:
        raise RangeError(f"n={n} exceeds the oracle cap {ORACLE_MAX_N}")
    count = int(oracle_counts(1, range(n, n + 1))[0])
    return SemiprimeCount(n=n, method="oracle", count=count, term_count=n)
