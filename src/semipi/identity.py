"""The prime-counting identity behind the two semiprime formulas.

Equating the two counting formulas and simplifying leaves an identity
in pi alone, with r = isqrt(n):

    sum_{p <= r} pi(n // p)  -  sum_{r < p <= n/2} pi(n // p)  =  pi(r)^2

The left side reads a quotient table, the right side a dense sieve of
isqrt(n), and the residual is reported; a nonzero residual always means
an implementation bug, and the report carries the head/tail split.

The two routes are not independent.  The left side reads the same
QuotientPiTable as eq1 and eq3_grouped, and with k = pi(isqrt(n)) the
residual equals 2 * (eq1 - eq3_grouped) by algebra.  The right side's
sieve is the same _sieve_mask that made the table's root_primes.  So a
wrong `larges` entry can pass all three; only eq3_naive and the oracle
(n <= 10**7) and the OEIS goldens at 10**k can catch it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError
from .primes import (
    PrimeTable,
    QuotientPiTable,
    build_prime_table,
    build_quotient_pi,
    isqrt,
    SUPPORTED_MAX_N,
)
from .semiprimes import _head_sum, _require_match, _tail_sum


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the identity at one n, with term diagnostics."""

    n: int
    head_sum: int  # sum of pi(n // p) over primes p <= isqrt(n)
    tail_sum: int  # sum of pi(n // p) over primes isqrt(n) < p <= n/2
    lhs: int  # head_sum - tail_sum
    rhs: int  # pi(isqrt(n)) squared
    residual: int  # lhs - rhs; zero unless the implementation is broken


def identity_lhs(n: int, qpi: QuotientPiTable) -> tuple[int, int, int]:
    """(head_sum, tail_sum, lhs) with the sum split at isqrt(n).

    The tail is evaluated by quotient grouping (its primes all share
    quotients below isqrt(n)), never by enumerating primes to n/2, so
    the left side scales to n = 10**9 and beyond at desk scale.
    head_sum + tail_sum always equals the full ordered pair sum.
    """
    _require_match(n, qpi)
    head = _head_sum(qpi)
    tail, _ = _tail_sum(qpi)
    return head, tail, head - tail


def identity_rhs(n: int, table: PrimeTable) -> int:
    """pi(isqrt(n)) squared, read from a dense table covering isqrt(n)."""
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    return table.pi(isqrt(n)) ** 2


def check_identity(
    n: int,
    *,
    table: PrimeTable | None = None,
    max_n: int = SUPPORTED_MAX_N,
) -> IdentityReport:
    """Evaluate both sides of the identity at n and report the residual.

    A dense table covering n may be supplied to accelerate sweeps; by
    default the left side uses a fresh quotient table and the right side
    a fresh dense sieve up to isqrt(n), by the same _sieve_mask that made
    the table's root primes (see the module docstring).
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if table is not None and table.limit >= n:
        qpi = QuotientPiTable.from_dense(n, table)
        rhs = identity_rhs(n, table)
    else:
        qpi = build_quotient_pi(n, max_n=max_n)
        rhs = identity_rhs(n, build_prime_table(max(isqrt(n), 1)))
    head, tail, lhs = identity_lhs(n, qpi)
    return IdentityReport(
        n=n, head_sum=head, tail_sum=tail, lhs=lhs, rhs=rhs, residual=lhs - rhs
    )
