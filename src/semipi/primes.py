"""Exact integer prime-counting primitives.

Two table types back everything else in the package:

* ``PrimeTable``: a dense sieve up to a limit L, giving pi(x) for every
  x <= L in O(1) plus the ordered list of primes.
* ``QuotientPiTable``: for a fixed n, exact pi at every distinct value
  floor(n/d).  Built by a sieve-like recurrence over the ~2*sqrt(n)
  quotient points in O(n^(3/4)) arithmetic ops and O(sqrt(n)) memory,
  so pi(n/p) sums never require sieving anywhere near n/2.

``_prime_blocks`` is the one prime sieve: it yields the primes of [lo, hi]
block by block from any odd lo, and ``_primes`` joins them from 1 for the
dense table's primes and the recurrence's base primes.  It sieves odd
numbers only, from a pattern with the multiples of 3, 5, 7, 11 and 13
already struck, in the blocks of ``_tiled_blocks``, never a limit-sized
mask.

Both block sieves, ``_prime_blocks`` and ``_sieve_blocks``, write every
block of a walk into one row that ``_scratch`` lends from a free list of
the thread's, and the row goes back to the list when the walk ends, so a
warm call faults no block in again.  A thread keeps every row it was
ever lent, each at most SIEVE_SEGMENT entries long: a bool row for each
prime walk it held at once (1 MiB), and, once those have run, the
oracle's uint8 counts and bool flags (1 MiB each) and a walk's int32 or
int64 smooth parts (4 or 8 MiB).

``quotient_tables`` yields the QuotientPiTable of every n of an ascending
range from one anchor build: table(m) follows from table(m - 1) by the
steps that ``_walk_steps`` lists, one ascending list per block of the
smooth parts of ``_factor_blocks``, and the last table is checked against
its own build entry by entry.  Its block sieve ``_sieve_blocks`` also
counts the small prime factors that the oracle in ``semiprimes`` reads,
of every integer or of the odd numbers only.

All values are exact integers.  The one floating-point operation is
``from_dense``'s quotient row, n / d rounded and truncated, which equals
n // d for every n < 2**53, so for every n a dense table covers.  Every
QuotientPiTable, built, dense or walked, is assembled by ``_table_at``,
whose docstring says which of its arrays are fresh and which are views.
Both table types make their arrays read-only in ``__post_init__``, and
again when unpickled (``_Frozen``), so tables are safe to share between
threads or workers of any start method.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, RangeError, ResourceLimitError

#: Largest n accepted by build_quotient_pi without an explicit override.
SUPPORTED_MAX_N = 10**11

#: Budget for dense tables (index range of pi_dense).
MAX_DENSE_LIMIT = 2**31

#: Budget for sqrt(n) when building a quotient table, so n < (2**25 +
#: 1)**2 = 2**50 + 2**26 + 1.  Its two tables take 512 MiB at 2**25, and
#: build_quotient_pi peaks near 0.65 GiB.
MAX_QUOTIENT_ROOT = 2**25

#: _tiled_blocks cuts both sieves into blocks of at most this many
#: entries: odd numbers in _prime_blocks, integers or odd numbers in _sieve_blocks.
SIEVE_SEGMENT = 2**20

#: A _sieve_blocks block strikes each prime power with at least this many
#: multiples in it by one strided ufunc call, and all the others by one
#: ufunc.at scatter: a numpy call costs about 1-1.6 us, and in a 10**5
#: window above 10**9 nearly every prime power strikes a few times only.
#: On a 2-vCPU Xeon, 16, 32, 64, 128 and 256 read within 2% of each
#: other on the odd passes from 1 to 1.47, 3.16 and 6.81 * 10**6; on a
#: 10**5 window at 10**10, 128 read 0.95x of 64, and 16 read 1.37x.
SPARSE_STRIKES = 128

#: build_prime_table writes pi_dense this many runs between primes at a
#: time, about 2**16 int32 entries (256 KiB) near 10**7, where primes lie
#: about 16 apart: the build holds the table plus one such chunk.
RUN_CHUNK = 2**12

#: The p > n^(1/3) band of build_quotient_pi is scattered in blocks of
#: at most this many (p, d) pairs, about 64 KiB per int64 temporary.
BAND_BLOCK = 2**13

#: build_quotient_pi's near and far steps run in blocks of at most this
#: many entries of d, through scratch rows of that size.
FAR_BLOCK = 2**15

#: build_quotient_pi holds larges[d] in int32 for every d with n // d
#: below this bound: no step raises an entry above its start, n // d - 1.
INT32_BOUND = 2**31


def isqrt(n: int) -> int:
    """Exact integer square root: the r with r*r <= n < (r+1)*(r+1).

    Thin wrapper over math.isqrt that rejects negatives with a package
    error.  Never rounds through floats, so perfect-square boundaries
    (n = p^2) are always classified correctly.
    """
    if n < 0:
        raise RangeError(f"isqrt requires n >= 0, got {n}")
    return math.isqrt(n)


_free_rows = threading.local()


@contextlib.contextmanager
def _scratch(dtype, size: int):
    """Lend the first size entries of a row of dtype for the with block.

    The rows come from a free list of this thread's and go back to it on
    exit, so a row has one holder at a time: two live walks, or a walk
    and a call inside its loop, each hold their own, and so does every
    thread.  The largest free row is lent; one shorter than size gives
    way to a new row of size entries.  Rows are never freed, so a warm
    call allocates no row: each dtype keeps as many as were ever held at
    once in the thread, each as long as the longest need, and every
    caller needs at most SIEVE_SEGMENT entries.
    """
    free = vars(_free_rows).setdefault(np.dtype(dtype), [])
    row = free.pop() if free else None
    if row is None or len(row) < size:
        row = np.empty(size, dtype=dtype)
    try:
        yield row[:size]
    finally:
        free.append(row)
        free.sort(key=len)


def _tiled_blocks(pattern: np.ndarray, first: int, count: int):
    """Yield entries first .. first + count - 1 of pattern repeated, in blocks.

    Each block holds at most SIEVE_SEGMENT entries, written straight from
    the pattern into one row lent by _scratch for the whole walk: the
    pattern from the block's first entry mod len(pattern) to its end,
    then whole periods through a (k, period) reshape, then the rest.  So
    every block is a view of that row, valid only until the next one is
    yielded: a caller may write into a block, and one that keeps a block
    past the next must copy it.
    """
    period = len(pattern)
    end = first + count
    with _scratch(pattern.dtype, min(count, SIEVE_SEGMENT)) as row:
        for start in range(first, end, SIEVE_SEGMENT):
            block = row[: min(SIEVE_SEGMENT, end - start)]
            head = min(period - start % period, len(block))
            block[:head] = pattern[start % period :][:head]
            k, rest = divmod(len(block) - head, period)
            block[head : head + k * period].reshape(k, period)[:] = pattern
            block[head + k * period :] = pattern[:rest]
            yield block


#: The prime sieve's wheel, in odd numbers: the odd primes 3, 5, 7, 11
#: and 13 that divide it strike the same entries mod _ODD_WHEEL in every
#: block, and the pattern repeats every 2 * _ODD_WHEEL = 30030 integers.
_ODD_WHEEL = 3 * 5 * 7 * 11 * 13


def _prime_blocks(lo: int, hi: int):
    """Yield the primes of [lo, hi], ascending, one fresh int64 array per block.

    Requires an odd lo with 1 <= lo <= hi and hi >= 2.  Entry i stands for
    the odd number 2i + 1, and the entries of the odd numbers of [lo, hi]
    are sieved in the blocks of _tiled_blocks.  The base primes, the odd
    primes <= isqrt(hi), come first, from a sieve of the odd numbers up
    to isqrt(hi).  Those that divide _ODD_WHEEL strike their multiples
    once per call in the _ODD_WHEEL-entry pattern that every block starts
    from, and the first block restores those of them >= lo.  Every other
    base prime p strikes its odd multiples from max(p^2, its first odd
    multiple in the block) on, at a stride of p entries.

    A block's primes are 2i + 1 for every entry i left standing, except
    that entry 0, the number 1, which nothing strikes, reads 2.
    """
    root = math.isqrt(hi)
    small = np.ones((root + 1) // 2, dtype=bool)  # the odd numbers <= root
    small[:1] = False
    for i in range(1, (math.isqrt(root) + 1) // 2):
        if small[i]:  # p = 2i + 1 strikes p^2 = 2 * (2i(i + 1)) + 1 on
            small[2 * i * (i + 1) :: 2 * i + 1] = False
    odd_primes = 2 * np.flatnonzero(small) + 1
    in_wheel = _ODD_WHEEL % odd_primes == 0
    wheel, base = odd_primes[in_wheel], odd_primes[~in_wheel]

    first, count = lo // 2, (hi + 1) // 2 - lo // 2
    pattern = np.ones(_ODD_WHEEL, dtype=bool)
    for p in wheel.tolist():
        pattern[p // 2 :: p] = False
    starts = range(first, first + count, SIEVE_SEGMENT)
    for start, block in zip(starts, _tiled_blocks(pattern, first, count)):
        if start == first:
            block[wheel[wheel >= lo] // 2 - first] = True
        firsts = np.maximum(base * base // 2, start + (base // 2 - start) % base) - start
        hit = firsts < len(block)
        for p, at in zip(base[hit].tolist(), firsts[hit].tolist()):
            block[at::p] = False
        primes = np.flatnonzero(block).astype(np.int64, copy=False)
        primes *= 2
        primes += 2 * start + 1
        if start == 0:
            primes[0] = 2  # in place of 1
        yield primes


def _primes(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, as int64: the blocks of _prime_blocks(1, limit) joined.

    A one-block result is that block's array, not a copy of it.  No
    limit-sized mask is held, only one block row.
    """
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    found = list(_prime_blocks(1, limit))
    return found[0] if len(found) == 1 else np.concatenate(found)


class _Frozen:
    """Base of the two frozen table types, whose __post_init__ makes
    their arrays read-only: unpickling sets the fields without it, and
    numpy unpickles arrays writable, so __setstate__ runs it again."""

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()


@dataclass(frozen=True)
class PrimeTable(_Frozen):
    """Dense prime table: all primes <= limit plus an O(1) pi lookup.

    pi_dense[x] = number of primes <= x, for 0 <= x <= limit.
    primes[k-1] is the k-th prime (1-indexed).

    Two rows sized by isqrt(limit) are made once per table, for the
    QuotientPiTable.from_dense of every n the table covers:

    * pi_prefix[v] = pi(v) as int64, for 0 <= v <= isqrt(limit); each
      table's smalls is a view of it, not a copy.
    * divisors[d - 1] = d as float64, for 1 <= d <= isqrt(limit) + 1;
      n / divisors floors to n // d exactly while n < 2**53, and
      MAX_DENSE_LIMIT = 2**31 keeps every covered n far below that.

    Both are left out of __init__, repr and ==.  They are pickled with
    the table and made again when it is unpickled, since _Frozen's
    __setstate__ runs __post_init__, which also makes every array
    read-only.
    """

    limit: int
    primes: np.ndarray = field(repr=False)
    pi_dense: np.ndarray = field(repr=False)
    pi_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    divisors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        root = math.isqrt(self.limit)
        object.__setattr__(self, "pi_prefix", self.pi_dense[: root + 1].astype(np.int64))
        object.__setattr__(self, "divisors", np.arange(1, root + 2, dtype=np.float64))
        for a in (self.primes, self.pi_dense, self.pi_prefix, self.divisors):
            a.setflags(write=False)

    def pi(self, x: int) -> int:
        """pi(x) for 0 <= x <= limit."""
        if not 0 <= x <= self.limit:
            raise RangeError(f"pi({x}) outside table limit {self.limit}")
        return int(self.pi_dense[x])


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit and the dense pi array.

    pi_dense repeats k over each run [p_k, p_(k+1)) between consecutive
    primes, written into the table RUN_CHUNK runs at a time, so the
    build holds the table and one chunk's repeat, never a second
    limit-sized array.  Deterministic for a given limit.
    Raises ResourceLimitError, before allocating, if the limit exceeds
    MAX_DENSE_LIMIT.
    """
    if limit < 1:
        raise RangeError(f"limit must be >= 1, got {limit}")
    if limit > MAX_DENSE_LIMIT:
        raise ResourceLimitError(
            f"limit {limit} exceeds dense table budget {MAX_DENSE_LIMIT}"
        )
    primes = _primes(limit)
    pi_dense = np.empty(limit + 1, dtype=np.int32)
    # With p_0 = 0, run k = [p_k, p_(k+1)) repeats k, and the last run
    # ends at limit + 1.  Runs k .. k + RUN_CHUNK - 1 end at the primes
    # p_(k+1) .. p_(k+RUN_CHUNK) = primes[k : k + RUN_CHUNK].
    for k in range(0, len(primes) + 1, RUN_CHUNK):
        ends = primes[k : k + RUN_CHUNK]
        if k + RUN_CHUNK > len(primes):
            ends = np.append(ends, limit + 1)
        first = int(primes[k - 1]) if k else 0
        runs = np.diff(ends, prepend=first)
        pi_dense[first : ends[-1]] = np.repeat(np.arange(k, k + len(runs), dtype=np.int32), runs)
    return PrimeTable(limit=limit, primes=primes, pi_dense=pi_dense)


@dataclass(frozen=True)
class QuotientPiTable(_Frozen):
    """Exact pi at every distinct quotient floor(n/d), d = 1..n.

    Storage is two arrays indexed by the two halves of the quotient set:

    * ``smalls[v]``  = pi(v)          for 0 <= v <= root
    * ``larges[d]``  = pi(n // d)     for 1 <= d <= root + 1

    where root = isqrt(n).  Every floor(n/d) falls in one half or the
    other, so pi() is total on quotient points.  ``root_primes`` caches
    the primes <= root (the p_k over which the counting formulas sum).
    A table holds pi values only, whichever source made it: eq3_naive
    takes its primes <= n/2 from its caller or its own sieve.  Every
    source returns its tables through _table_at, which says which arrays
    a table owns and which it views.
    """

    n: int
    root: int
    smalls: np.ndarray = field(repr=False)
    larges: np.ndarray = field(repr=False)
    root_primes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # Read-only by type: every constructor, dataclasses.replace included.
        for a in (self.smalls, self.larges, self.root_primes):
            a.setflags(write=False)

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

        Requires table.limit >= n.  Bit-identical to build_quotient_pi(n),
        and keeps no reference to table beyond the views that _table_at
        takes of its read-only int64 pi_prefix and its primes; used by
        sweeps where thousands of tables are needed, so it does only the
        work that depends on n.  larges is the one fresh array: pi_dense
        read at the quotients n // d, d = 1..isqrt(n) + 1, which
        _dense_quotients divides in float64, exact since n <=
        MAX_DENSE_LIMIT < 2**53.
        """
        if n < 1:
            raise RangeError(f"n must be >= 1, got {n}")
        if table.limit < n:
            raise RangeError(
                f"dense table limit {table.limit} does not cover n={n}"
            )
        r = math.isqrt(n)
        larges = np.empty(r + 2, dtype=np.int64)
        larges[0] = 0
        larges[1:] = table.pi_dense[_dense_quotients(n, table.divisors[: r + 1])]
        return _table_at(n, table.pi_prefix, larges, table.primes)


def _dense_quotients(n: int, divisors: np.ndarray) -> np.ndarray:
    """n // d as int64 for each d of divisors, a float64 row of integers.

    Exact for integers n >= 0 and d >= 1 below 2**53.  n and d are then
    exact floats, and n = q*d + s with 0 <= s < d puts n / d in
    [q, q + 1 - 1/d].  Rounding to nearest moves it by at most half an
    ulp, at most (n / d) * 2**-53 < 1/d, so it stays below q + 1; it
    cannot fall below q, a float itself.  The cast to int64 truncates,
    and truncation is floor here.
    """
    return np.divide(n, divisors).astype(np.int64)


def _pair_blocks(values: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Yield (values, d) arrays of the pairs (values[i], d), d = lo[i]..hi[i].

    The pairs are listed i by i, values[i] repeated once per d, and cut
    into blocks of at most BAND_BLOCK pairs; a block boundary may fall
    inside one i's range.
    Requires hi >= lo - 1 for every i (an empty range, not a negative one).
    """
    counts = hi - lo + 1
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
        yield np.repeat(values[i0:i1], took), np.arange(j0, j1) - shift


def _quotient_root(n: int, max_n: int) -> int:
    """isqrt(n), once n is known to be one the quotient table accepts."""
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
    return r


def _prime_steps(
    n: int, r: int, primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """smalls, head and body after the steps of primes, the p^3 <= n.

    The steps of build_quotient_pi one prime at a time, on larges split
    at t = min(n // INT32_BOUND + 1, r + 1):

    * head[d] = larges[d] for d < t, int64, with head[0] = larges[0] = 0;
    * body[d] = larges[d] for t <= d <= r, int32; its first t entries are
      never read, though a retirement below may write them.

    larges takes no pi(p - 1) step by step.  The primes that step
    larges[d] are the first root primes, those with d <= dmax =
    min(r, n // p^2), and the j-th of them (from 0) has pi(p - 1) = j.
    So while that prime steps, with T_j = j(j - 1)/2 = 0 + 1 + ... + (j - 1):

    * a live entry, d <= dmax, holds S(n // d) - T_j;
    * a retired entry, d > dmax, holds S(n // d): no later prime steps it.

    A step subtracts S(n // (d*p)): a smalls entry, which keeps its exact
    steps since the far step reads it, or a larges entry, which the near
    step reads plus T_j where d*p <= dmax (d <= dmax // p) and as it is
    above.  A live entry so falls by j more than S does, to S - T_(j+1).
    Then the entries above the next prime's dmax (0 after the last prime)
    retire: d in (that dmax, dmax] gets T_(j+1), one slice per prime.

    Every S(v) starts at v - 1 and only falls, to pi(v) >= 0 at least.  t
    exceeds n / INT32_BOUND, so for d >= t both n // d and S(n // d) lie
    in [0, INT32_BOUND - 1]: quot, the n // d of the body, is int32 as
    well, and below 2**31 (t = 1) the whole loop is int32.  A live body
    entry then lies in [-T_cut, 2**31 - 1], cut = len(primes): under
    MAX_QUOTIENT_ROOT, p^3 <= n < 2**50 + 2**26 + 1 gives cut <=
    pi(104031) = 9936 and T_cut < 4.94 * 10**7, so int32 holds it, and a
    live read plus T_j is S again.  Being nonnegative, quot reads the
    same through its uint32 view, which the far step divides by
    np.uint32(p): numpy's unsigned division by a scalar skips the sign
    fix-up of a signed floor division.

    A prime's step reads only values from before that prime.  The body
    reads body entries and smalls alone: larges[d*p] with d*p >= d >= t.
    The head's near step reads larges[d*p], in the body once d*p >= t.
    So each prime steps the head first, while the body still holds its
    values from the prime before, then the body in blocks of ascending
    d, as build_quotient_pi sets out.  The head has its own two rows of t
    entries and takes one pass per step, not blocks.  It skips its
    subtract of head entries when no d*p < t (p > t - 1) and its far
    part when r // p >= t - 1: over 10**10..10**11, where t - 1 <= 46,
    both are empty for every prime above n^(1/4).

    quot and the scratch rows are locals, so they, and every view of
    them, are freed on return, before build_quotient_pi joins head and
    body into one int64 larges.
    """
    # head[d] tracks S(n // d) for d < t, body[d] for d >= t, smalls[v]
    # S(v) for v <= r.  quot[d] = n // d for d >= t, so S(n // (d*p)) at
    # d*p > r is smalls[uquot[d] // p], a division by a scalar; the head
    # keeps its own n // d, at least INT32_BOUND, in head_quot.
    t = min(n // INT32_BOUND + 1, r + 1)
    head_quot = n // np.arange(t, dtype=np.int64).clip(1)
    head = head_quot - 1
    head[0] = 0
    quot = np.arange(r + 1, dtype=np.int32)
    np.floor_divide(np.int64(n), quot[t:], out=quot[t:], casting="unsafe")
    uquot = quot.view(np.uint32)
    body = quot - 1
    smalls = np.arange(-1, r, dtype=np.int32)
    # The scratch rows that every step writes its right-hand side into:
    # two of t entries for the head, two of one block for the body's
    # blocks of d, and one for the smalls step.
    head_rhs = np.empty(t, dtype=np.int64)
    head_took = np.empty(t, dtype=np.int32)
    block = min(r, FAR_BLOCK)
    wide = np.empty(block, dtype=np.int64)
    narrow = np.empty(block, dtype=np.int32)
    row = np.empty(r // 2 + 1, dtype=np.int32)

    ps = primes.tolist()
    dmaxes = [min(r, n // (p * p)) for p in ps] + [0]
    for j, p in enumerate(ps):  # j = pi(p - 1)
        live = j * (j - 1) // 2  # T_j: a live entry holds S - T_j
        p2 = p * p
        dmax, nxt = dmaxes[j], dmaxes[j + 1]
        k = r // p  # <= dmax, since r * p <= r^2 <= n
        s = dmax // p  # near d <= s read live entries, d > s retired ones
        if t > 1:  # the head, first: it reads body entries before this prime
            h = min(k, t - 1)  # its near d
            m = min(h, (t - 1) // p)  # of those, the d with d*p < t
            far = slice(h + 1, min(dmax, t - 1) + 1)
            if m:
                head_rhs[1 : m + 1] = head[p : m * p + 1 : p]
            head_rhs[m + 1 : h + 1] = body[(m + 1) * p : h * p + 1 : p]
            head_rhs[1 : min(h, s) + 1] += live
            if far.start < far.stop:
                np.floor_divide(head_quot[far], p, out=head_rhs[far])
                smalls.take(head_rhs[far], out=head_took[far], mode="wrap")
                head_rhs[far] = head_took[far]
            head[1 : far.stop] -= head_rhs[1 : far.stop]
        for d0 in range(t, k + 1, block):  # near, in ascending d
            d1 = min(d0 + block, k + 1)
            if d0 * p < d1:  # a read may be a write: gather first (all live)
                rhs = narrow[: d1 - d0]
                np.add(body[d0 * p : (d1 - 1) * p + 1 : p], live, out=rhs)
                lhs = body[d0:d1]
                lhs -= rhs
            else:  # every read, d*p >= d0*p >= d1, lies past every write
                lhs = body[d0:d1]
                lhs -= body[d0 * p : (d1 - 1) * p + 1 : p]
                if s >= d0:  # d <= s read live entries
                    lhs = lhs[: s + 1 - d0]
                    lhs -= live
        for d0 in range(max(k + 1, t), dmax + 1, block):  # far
            d1 = min(d0 + block, dmax + 1)
            idx, rhs, lhs = wide[: d1 - d0], narrow[: d1 - d0], body[d0:d1]
            np.floor_divide(uquot[d0:d1], np.uint32(p), out=idx)
            smalls.take(idx, out=rhs, mode="wrap")
            lhs -= rhs
        if nxt < dmax:  # d in (nxt, dmax] retire, S = entry + T_(j+1)
            if nxt + 1 < t:
                head[nxt + 1 : dmax + 1] += live + j
            lhs = body[nxt + 1 : dmax + 1]
            lhs += live + j
        if p2 <= r:
            # smalls[v // p] for v = p^2..r is smalls[i] for i = p..r // p,
            # p times each in rows of p, and fewer times for the last i
            # when p does not divide r + 1.
            i = r // p + 1 - p
            np.subtract(smalls[p : r // p + 1], j, out=row[:i])
            f = (r + 1) // p - p  # full rows
            rows = smalls[p2 : p2 + f * p].reshape(f, p)
            rows -= row[:f, None]
            lhs = smalls[p2 + f * p :]
            lhs -= row[f:i]
    return smalls, head, body


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
      BAND_BLOCK pairs to keep memory flat.  The scatter subtracts
      S(v // p) alone.  larges[d] is stepped by the band primes with
      n // p^2 >= d, the first c of the band since n // p^2 falls as p
      grows, and the i-th band prime (from 0) has pi(p - 1) = cut + i
      for the cut primes before the band.  So their pi(p - 1) terms sum
      to c*cut + c(c - 1)/2, added once per d = 1..n // p^2 of the first
      band prime, with c from one searchsorted over the reversed n // p^2
      row.

    Every S(v) with v <= r lies in [-1, r], and r <= MAX_QUOTIENT_ROOT =
    2**25, so smalls is int32 through the per-prime loop.  larges[d]
    lies in [0, n // d - 1], which passes 2**31 only for d <= n // 2**31:
    pi(10**12) > 2**31, but of the 10**6 entries of larges at 10**12
    only the 465 with d <= 465 start above it.  So _prime_steps holds
    larges[d] in int32 from t = n // INT32_BOUND + 1 on, and the t - 1
    entries below t, at most 2**19 under MAX_QUOTIENT_ROOT, in a small
    int64 head that steps first within each prime.  Below 2**31, t = 1
    and the head is empty.  After the loop, head and body are joined
    into one int64 larges and smalls is cast to int64, both before the
    band.

    The loop adds no pi(p - 1) to larges step by step: a larges entry
    takes the sum of its steps' pi(p - 1) once, as _prime_steps sets out.
    No per-prime step allocates.  Each writes its right-hand side into
    scratch rows allocated once per build, through out=, or reads it from
    a strided view lying past the entries it writes, before subtracting
    it in place.  The body's steps run in blocks of at most FAR_BLOCK
    entries of d, through one int64 and one int32 row of that size; the
    head's run through two rows of its own:

    * near, d <= r // p: larges[d] -= larges[d*p], plus T_j where the
      read is live, d <= dmax // p.  The blocks run in ascending d.  A
      block of d >= d0 writes larges[d0..] and reads larges[d*p] with
      d*p >= 2*d0, so it never reads an entry that an earlier block
      wrote.  Where a read may be a write of its own block, d0*p < d1,
      p <= r // p gives p^2 <= r and dmax = r, so every read is live:
      the reads plus T_j are gathered into the int32 row first.
      Otherwise every read lies past every write of the block, d*p >=
      d0*p >= d1, so the reads are subtracted straight from the strided
      view, which numpy, seeing the two extents apart, neither buffers
      nor copies, and the d with live reads then take T_j in one slice.
    * far, r // p < d <= min(r, n // p^2): idx = (n // d) // p, in the
      body a division of quot's uint32 view by np.uint32(p) straight
      into the int64 row, then rhs = smalls.take(idx, mode="wrap").
      d*p > r gives idx <= n // (r + 1) <= r and d <= n // p^2 gives
      idx >= p, so idx lies in [p, r] and "wrap" never wraps: it reads
      the entries "clip" or "raise" would.  "raise", take's default,
      would buffer out and allocate again.  These blocks read only
      smalls, so their order is free, and their entries are live, so
      rhs is subtracted as it is.
    * smalls, p^2 <= r: smalls[v // p] for v = p^2..r is each of
      smalls[p..r // p] p times in a row, so rhs = smalls[p..r // p] -
      pi(p - 1) goes into an int32 row of r // 2 + 1 entries and is
      subtracted as a broadcast over rows of p entries, plus a partial
      last row when p does not divide r + 1.

    The scratch rows do not save arithmetic; they save page faults.  A
    fresh r-entry temporary is mapped anew by the allocator and faulted
    in page by page on every step: a fresh `semipi count 10**11` process
    took about 118k minor faults with such temporaries and 9k without.
    The set-up writes quot in place, n divided through the int64 loop
    into its own row of d, and derives body and smalls from nothing
    r-sized but quot.  The loop holds about 14 bytes per root entry:
    quot, body and smalls 4 each, the smalls row 2.  The peak is the
    join, about 20 bytes per root entry: quot and the rows are freed
    first, body is freed once copied into larges (8), and smalls (4) is
    then cast to int64 (8).  The tables returned take 16, and the peak
    is about 0.65 GiB at r = MAX_QUOTIENT_ROOT, root primes included.
    The root primes are sieved before any of these is allocated.

    n beyond max_n (default 10**11) is rejected with RangeError rather
    than silently degrading; the cap can be overridden by callers that
    accept the cost.  isqrt(n) beyond MAX_QUOTIENT_ROOT raises
    ResourceLimitError before anything is allocated.
    """
    r = _quotient_root(n, max_n)
    root_primes = _primes(r)
    # p^3 <= n exactly when p^2 <= n // p: these primes step one by one.
    cut = int(np.count_nonzero(root_primes * root_primes <= n // root_primes))
    smalls, head, body = _prime_steps(n, r, root_primes[:cut])
    t = len(head)
    larges = np.empty(r + 2, dtype=np.int64)
    larges[:t] = head
    larges[t : r + 1] = body[t:]
    del body
    smalls = smalls.astype(np.int64)

    # The p > n^(1/3) band in one scatter.  For each p it covers
    # d = 1..n // p^2, reading larges[d*p] up to d = r // p and
    # smalls[n // (d*p)] above.
    band = root_primes[cut:]
    top = n // (band * band)
    near = r // band
    for p, d in _pair_blocks(band, np.ones_like(band), near):
        np.subtract.at(larges, d, larges[d * p])
    for p, d in _pair_blocks(band, near + 1, top):
        np.subtract.at(larges, d, smalls.take(n // (d * p)))
    if len(band):
        # larges[d] took a step from the first c band primes, those with
        # n // p^2 >= d, and the i-th of them has pi(p - 1) = cut + i.
        d = np.arange(1, int(top[0]) + 1)
        c = len(band) - np.searchsorted(top[::-1], d)
        larges[1 : len(d) + 1] += c * cut + c * (c - 1) // 2

    smalls[0] = 0
    larges[r + 1] = smalls[n // (r + 1)]
    return _table_at(n, smalls, larges, root_primes)


#: The factoring sieve's wheel: the prime powers 2, 4, 8, 3, 9, 5, 7 and
#: 11 that divide it hit the same residues mod _WHEEL in every block.
_WHEEL = 8 * 9 * 5 * 7 * 11


def _sieve_blocks(
    lo: int, hi: int, base: np.ndarray, weights: np.ndarray, ufunc: np.ufunc, step: int = 1
):
    """Yield (start, block) for consecutive blocks covering [lo, hi] at a step.

    block[i] stands for m = start + step * i, and each block holds at
    most SIEVE_SEGMENT entries of weights.dtype.  step is 1, every
    integer, or 2, the odd numbers: then lo must be odd and the base
    primes odd, since no power of 2 divides an odd m.  block[i] starts as
    ufunc's identity, and every prime power q = p^e <= hi of a base prime
    p = base[k] applies ufunc with weights[k] at the multiples of q:
    np.multiply with the base primes leaves the smooth part of m over
    them, and np.add with ones the count of its base-prime factors with
    multiplicity.  0 is a multiple of every q but no product of primes,
    so it keeps the identity, as does 1.

    The prime powers that divide _WHEEL = 27720 (of base primes only: a
    wheel prime that is not a base prime is no smooth factor) are applied
    once per call to a pattern of _WHEEL entries, and the blocks are
    those of _tiled_blocks over it from entry lo // step on: views of one
    lent row, each valid until the next is yielded.  Pattern
    entry j stands for step * j + step - 1: the integer j, or the odd
    number 2j + 1, whose multiples of an odd q start at j = q // 2.
    Every odd q of the wheel divides 3465 = 27720 / 8, so over odd
    numbers the pattern repeats every 3465 entries and _WHEEL entries
    hold whole periods.  Every other prime power q <= hi is listed
    once per call; a block walks only the q with a multiple in the
    integers it spans, with their first offsets found in one vector op:
    the first multiple at or above start, or at step 2 the next one when
    that is even, q being odd.  A q with at least SPARSE_STRIKES
    multiples in the block (none, at step 2, if all are even) takes one
    strided ufunc call; the others take one ufunc.at per block, whose
    positions are expanded by cumsum and repeat.  Every position is a
    strike of that block, so each of the scatter's few int64 temporaries
    holds sum(ceil(len(block) / q)) entries over those q, fewer than
    SPARSE_STRIKES for each: at most 2702 per block from 0 to 2 * 10**6
    and 2657 on the odd pass from 1 to 10**7; 55628, 65104 and 74010 for
    a window of 10**5 integers ending at 10**10, 10**11 and 10**12.
    ufunc.at is unbuffered, so a position that two of them hit takes
    both, and np.add and np.multiply commute: the blocks equal those of
    one strided call per q.
    """
    p, q, w = base, base, weights
    qs, ws = [q], [w]
    while len(p):
        grows = q <= hi // p
        p, q, w = p[grows], q[grows] * p[grows], w[grows]
        qs.append(q)
        ws.append(w)
    qs, ws = np.concatenate(qs), np.concatenate(ws)
    pattern = np.full(_WHEEL, ufunc.identity, dtype=weights.dtype)
    in_wheel = _WHEEL % qs == 0
    for w, q in zip(ws[in_wheel].tolist(), qs[in_wheel].tolist()):
        view = pattern[(step - 1) * (q // 2) :: q]
        ufunc(view, w, out=view)
    ws, qs = ws[~in_wheel], qs[~in_wheel]
    starts = range(lo, hi + 1, step * SIEVE_SEGMENT)
    for start, block in zip(starts, _tiled_blocks(pattern, lo // step, (hi - lo) // step + 1)):
        m0 = max(start, 1)
        if start == 0:
            block[0] = ufunc.identity
        hit = (start + step * (len(block) - 1)) // qs > (m0 - 1) // qs
        hit_q = qs[hit]
        firsts = (-m0) % hit_q  # from m0 to the first multiple of q
        if step == 2:  # odd numbers: pass an even multiple, and count in entries
            firsts += hit_q * (firsts & 1)
            firsts >>= 1
        firsts += (m0 - start) // step
        took = np.maximum(len(block) - firsts + hit_q - 1, 0) // hit_q  # 0 if all even
        hit_w, few = ws[hit], took < SPARSE_STRIKES
        for w, q, first in zip(hit_w[~few].tolist(), hit_q[~few].tolist(), firsts[~few].tolist()):
            view = block[first::q]
            ufunc(view, w, out=view)
        took = took[few]
        k = np.arange(took.sum()) - np.repeat(np.cumsum(took) - took, took)  # 0..took - 1 per q
        at = np.repeat(firsts[few], took) + k * np.repeat(hit_q[few], took)
        ufunc.at(block, at, np.repeat(hit_w[few], took))
        yield start, block


def _factor_blocks(lo: int, hi: int, base: np.ndarray):
    """Yield (start, part) for consecutive blocks covering [lo, hi].

    part[i] is the isqrt(hi)-smooth part of start + i, the product of
    its prime factors p <= isqrt(hi) with multiplicity, and 0 and 1 get
    part 1; the caller passes the base primes p <= isqrt(hi), and the
    blocks are those of _sieve_blocks.  An m with part < m has a
    cofactor m // part whose prime factors all exceed sqrt(hi) >= sqrt(m),
    so it is one prime.  `part` is int32 when hi < 2**31 and int64
    otherwise: it divides m, so part <= m <= hi and every product is exact.
    """
    dtype = np.int32 if hi < 2**31 else np.int64
    return _sieve_blocks(lo, hi, base, base.astype(dtype), np.multiply)


def _walk_steps(lo: int, hi: int, base: np.ndarray):
    """Yield (end, ms, ds) for consecutive blocks covering [lo, hi]: a walk's steps.

    A step at m is larges[d] += 1 for a d <= isqrt(m) + 1 that divides m
    with m / d a prime q.  ms lists, ascending, the m of the block
    [start, end) once per step, and ds[k] is the d of the step at ms[k],
    in the dtype of the block's smooth parts.  The caller passes the
    base primes p <= isqrt(hi), and the blocks are those of
    _factor_blocks, whose smooth part s of m leaves a cofactor 1 or one
    prime q > isqrt(hi) >= isqrt(m), which gives d = s <= isqrt(m).  A
    base prime q gives d = m / q when (d - 1)^2 <= m = q * d, which holds
    exactly when d <= q + 1: then (d - 1)^2 <= q * (d - 1), and above it
    (d - 1)^2 >= (q + 1) * (d - 1) > q * d.  Those steps, far fewer, are
    sorted by m and inserted into the cofactor steps, so m = 6 = 2 * 3,
    the one m with two steps, appears twice.
    """
    for start, part in _factor_blocks(lo, hi, base):
        end = start + len(part)
        # part < m: m = part * q, q a prime > isqrt(hi), so d = part.
        ms = np.flatnonzero(part < np.arange(start, end, dtype=part.dtype))
        ds = part[ms]
        ms += start
        # Base primes q with a multiple m = q * d in the block, d <= q + 1.
        qs = base[np.searchsorted(base, max(isqrt(start) - 1, 0)) :]
        d0 = -(-start // qs)
        took = np.maximum(np.minimum((end - 1) // qs, qs + 1) - d0 + 1, 0)
        q = np.repeat(qs, took)
        if len(q):  # an empty np.insert would still copy both lists
            d = np.repeat(d0 - np.cumsum(took) + took, took) + np.arange(len(q))
            order = np.argsort(q * d)
            qd, d = (q * d)[order], d[order].astype(part.dtype)
            at = np.searchsorted(ms, qd)
            ms = np.insert(ms, at, qd)  # the old ms is freed before ds is copied
            ds = np.insert(ds, at, d)
        yield end, ms, ds


def _table_at(n: int, smalls: np.ndarray, larges: np.ndarray, primes: np.ndarray):
    """The QuotientPiTable of n: the one place a table is assembled.

    larges is the table's own array, larges[d] = pi(n // d) for d =
    0..isqrt(n) + 1, and fixes r = len(larges) - 2 = isqrt(n): the caller
    owns it and hands it over, fresh from a build or a dense lookup, or a
    walk's copy of its working row.  smalls, pi(v) for v = 0..r at least,
    and primes, ascending and holding every prime <= r, may be longer and
    are shared: the table views smalls[: r + 1] and primes[: pi(r)], so
    the caller must never write them again.  The table then freezes all
    three (__post_init__), and the views stay valid however long it lives.
    """
    r = len(larges) - 2
    smalls, root_primes = smalls[: r + 1], primes[: int(smalls[r])]
    return QuotientPiTable(n=n, root=r, smalls=smalls, larges=larges, root_primes=root_primes)


def _require_equal(want: QuotientPiTable, got: QuotientPiTable) -> None:
    """Raise InternalConsistencyError at the first entry where got differs from want.

    The error names it as (array, index, want, got); an entry that one
    table lacks reads as None.
    """
    for name in ("smalls", "larges", "root_primes"):
        a, b = getattr(want, name), getattr(got, name)
        k = min(len(a), len(b))
        diff = np.flatnonzero(a[:k] != b[:k]).tolist() + [k] * (len(a) != len(b))
        if diff:
            i = diff[0]
            w, g = (int(x[i]) if i < len(x) else None for x in (a, b))
            raise InternalConsistencyError(
                f"derived table at n={got.n} differs from build_quotient_pi({want.n}): "
                f"{name}[{i}] want {w} got {g}"
            )


def quotient_tables(ns: range, *, max_n: int = SUPPORTED_MAX_N):
    """Yield the quotient table of every n of an ascending range, from one anchor.

    Only the anchor, table(ns[0]), runs the recurrence.  Walking m up
    from there, table(m) follows from table(m - 1) by exact steps, with
    r = isqrt(m - 1):

    * larges[d] = pi(m // d) grows by 1 exactly when d divides m and
      m / d is a prime q, for d <= isqrt(m) + 1: at most two d per m.
    * At a square m = (r + 1)^2, smalls gains pi(r + 1), larges gains
      larges[r + 2] = pi(m // (r + 2)) = pi(r), and root_primes gains
      r + 1 if it is prime.

    The steps come from _walk_steps over the walked m, whose base primes
    are the check build's root_primes: one list per block, ascending in
    m.  The working tables are sized for ns[-1] up front: the entries
    born at a square hold their birth value from the start, and no step
    reaches them before then.  So every step commutes with the others,
    and the steps between two n are one slice of the block's list,
    applied with one np.add.at; one searchsorted per block finds where
    each n's slice ends.

    Each table is bit-identical to build_quotient_pi(n) in values, dtypes
    and flags; _table_at assembles it from a copy of the working larges
    and views of the walk's read-only smalls and primes.  The last one is
    compared entry by entry with build_quotient_pi(ns[-1]), built before
    the working tables exist so that the two builds are the peak; the
    first entry that differs raises InternalConsistencyError naming it
    as (array, index, want, got).
    The walk sieves every integer of (ns[0], ns[-1]], so a wide stride
    pays for gaps that it never reads: the CLI walks a stride up to
    isqrt(ns[-1]) and builds each n of a wider one alone.
    """
    if len(ns) == 0 or ns.step < 1:
        raise RangeError(f"need a non-empty ascending range, got {ns}")
    last = ns[-1]
    root = _quotient_root(last, max_n)
    anchor = build_quotient_pi(ns[0], max_n=max_n)
    yield anchor
    if len(ns) == 1:
        return
    want = build_quotient_pi(last, max_n=max_n)

    r0 = anchor.root
    primes = want.root_primes  # _primes(root), already read-only
    smalls = np.zeros(root + 1, dtype=np.int64)
    smalls[: r0 + 1] = anchor.smalls
    # pi(v) for r0 < v <= root: pi(r0) plus the primes in (r0, v].
    smalls[primes[len(anchor.root_primes) :]] = 1
    np.cumsum(smalls[r0:], out=smalls[r0:])
    smalls.setflags(write=False)  # final: every table of the walk shares it
    larges = np.empty(root + 2, dtype=np.int64)
    larges[: r0 + 2] = anchor.larges
    larges[r0 + 2 :] = smalls[r0:root]  # larges[d] is born as pi(d - 2)
    del anchor  # the caller decides how long the anchor lives

    i = 1  # ns[i] is the next table to yield
    for end, ms, ds in _walk_steps(ns[0] + 1, last, primes):
        j = len(range(ns.start, min(end, ns.stop), ns.step))  # ns[i:j] lie below end
        # ds[:upto] are the block's steps at m <= n, upto from one search.
        done = 0
        for n, upto in zip(ns[i:j], np.searchsorted(ms, ns[i:j], side="right").tolist()):
            np.add.at(larges, ds[done:upto], 1)
            done = upto
            table = _table_at(n, smalls, larges[: math.isqrt(n) + 2].copy(), primes)
            if n == last:
                _require_equal(want, table)
            yield table
        np.add.at(larges, ds[done:], 1)
        i = j
