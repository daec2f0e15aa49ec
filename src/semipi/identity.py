"""The prime-counting identity behind the two semiprime formulas.

Equating the two counting formulas and simplifying leaves an identity
in pi alone, with r = isqrt(n):

    sum_{p <= r} pi(n // p)  -  sum_{r < p <= n/2} pi(n // p)  =  pi(r)^2

Both sides read only the quotient table passed in; this module builds
none.  The left side reads its pi values, the right side the count of
its root primes, pi(isqrt(n)).  A nonzero residual always means an
implementation bug, and the report carries the head/tail split.

The two sides are not independent routes.  The left side reads the same
QuotientPiTable as eq1 and eq3_grouped, and with k = pi(isqrt(n)) the
residual equals 2 * (eq1 - eq3_grouped) by algebra.  So a wrong `larges`
entry can pass all three; only eq3_naive and the oracle (n <= 10**7),
the OEIS goldens at 10**k, and above 10**7 the table-free window check
(selftest, criterion 10) and the entry-by-entry check of a derived
table against its own build (selftest, criterion 11, and every range
that the CLI walks) can catch it, the last two unless the recurrence
tables of a - 1 and b share the fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError
from .primes import PrimeTable, QuotientPiTable, isqrt
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
    """pi(isqrt(n))^2 from a dense table: what check_identity reads as
    len(qpi.root_primes) ** 2.  Public only for perfbench's large_n op."""
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    return table.pi(isqrt(n)) ** 2


def check_identity(n: int, qpi: QuotientPiTable) -> IdentityReport:
    """Both sides of the identity at n, read from qpi alone, and their residual."""
    head, tail, lhs = identity_lhs(n, qpi)
    rhs = len(qpi.root_primes) ** 2
    return IdentityReport(
        n=n, head_sum=head, tail_sum=tail, lhs=lhs, rhs=rhs, residual=lhs - rhs
    )
