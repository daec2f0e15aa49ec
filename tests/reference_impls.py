"""Independent brute-force reference implementations for the tests.

Everything here is deliberately naive (trial division, double loops, a
sieve over one full-range mask) and shares no code with the package, so
test expectations derived from these functions are independent oracles.
"""

import math

import numpy as np


def trial_is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % q for q in range(2, math.isqrt(m) + 1))


def trial_primes(limit: int) -> list[int]:
    return [m for m in range(2, limit + 1) if trial_is_prime(m)]


def textbook_primes(limit: int) -> np.ndarray:
    """The primes <= limit by the sieve of Eratosthenes over one mask of 0..limit."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def textbook_semiprimes(limit: int) -> np.ndarray:
    """is_semiprime[m] for 0 <= m <= limit: every product p * q <= limit of primes p <= q marked."""
    is_semiprime = np.zeros(limit + 1, dtype=bool)
    primes = textbook_primes(limit // 2)
    for i, p in enumerate(primes.tolist()):
        if p * p > limit:
            break
        qs = primes[i:]
        is_semiprime[p * qs[qs <= limit // p]] = True
    return is_semiprime


def textbook_quotient_pi(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(smalls, larges) of n by Lucy's recurrence, r = isqrt(n).

    smalls[v] = pi(v) for v <= r, larges[d] = pi(n // d) for 1 <= d <= r + 1
    and larges[0] = 0, both int64.  For each prime p <= r, every tracked
    S(v) with v >= p^2 drops by S(v // p) - S(p - 1), each right-hand side
    read into a fresh array before any entry is written.
    """
    r = math.isqrt(n)
    smalls = np.arange(r + 1, dtype=np.int64) - 1
    d = np.arange(1, r + 2, dtype=np.int64)
    larges = np.concatenate(([0], n // d - 1))
    for p in range(2, r + 1):
        if smalls[p] == smalls[p - 1]:
            continue  # p is composite
        sp = smalls[p - 1]
        ds = d[: n // (p * p)]  # the d with n // d >= p^2
        q = n // (ds * p)
        # q > r only when d * p <= r, whose pi(q) is larges[d * p].
        rhs = np.where(q > r, larges[np.minimum(ds * p, r + 1)], smalls[np.minimum(q, r)])
        larges[ds] -= rhs - sp
        vs = np.arange(p * p, r + 1)
        smalls[vs] -= smalls[vs // p] - sp
    smalls[0] = 0
    return smalls, larges


def trial_pi(x: int) -> int:
    return len(trial_primes(x))


def trial_omega(m: int) -> int:
    """Prime factors of m counted with multiplicity, by trial division."""
    count, q = 0, 2
    while q * q <= m:
        while m % q == 0:
            m //= q
            count += 1
        q += 1
    return count + (1 if m > 1 else 0)


def trial_smooth_omega(m: int, bound: int) -> int:
    """Prime factors q <= bound of m counted with multiplicity, by trial division."""
    count, q = 0, 2
    while q * q <= m and q <= bound:
        while m % q == 0:
            m //= q
            count += 1
        q += 1
    # What is left is 1, one prime (when q * q > m), or has no factor <= bound.
    return count + (1 if 1 < m <= bound else 0)


def brute_semiprime_count(n: int) -> int:
    """Count m <= n that are products of exactly two primes."""
    return sum(1 for m in range(4, n + 1) if trial_omega(m) == 2)


def brute_ordered_pair_count(n: int) -> int:
    """Ordered pairs of primes (p, q) with p * q <= n, by double loop."""
    ps = trial_primes(n // 2)
    return sum(1 for p in ps for q in ps if p * q <= n)
