"""semipi: exact semiprime counting and the prime-counting identity.

Public surface:

* primes:       isqrt, dense PrimeTable, QuotientPiTable over quotient
                 points (the performance substrate), and quotient_tables,
                 every table of a range from one anchor
* semiprimes:   the counting formulas (eq1, eq3 naive/grouped), each
                 written once in formula_counts, and the factoring-sieve
                 oracle (oracle_counts: one block pass)
* identity:     both sides of the pi identity with residual reports
* cli:          `semipi` command-line front end

Prime counts at rational arguments are floor-evaluated throughout:
pi(x) = pi(floor(x)), so pi(25/2) = pi(12) = 5.
"""

from .errors import (
    InternalConsistencyError,
    RangeError,
    ResourceLimitError,
    SemipiError,
)
from .identity import IdentityReport, check_identity, identity_lhs, identity_rhs
from .primes import (
    MAX_DENSE_LIMIT,
    PrimeTable,
    QuotientPiTable,
    SUPPORTED_MAX_N,
    build_prime_table,
    build_quotient_pi,
    isqrt,
    quotient_tables,
)
from .semiprimes import (
    METHOD_CAPS,
    METHODS,
    NAIVE_MAX_N,
    ORACLE_MAX_N,
    SemiprimeCount,
    count_semiprimes_eq1,
    count_semiprimes_eq3,
    count_semiprimes_oracle,
    oracle_counts,
)

__version__ = "0.1.0"

__all__ = [
    "SemipiError",
    "RangeError",
    "ResourceLimitError",
    "InternalConsistencyError",
    "PrimeTable",
    "QuotientPiTable",
    "SUPPORTED_MAX_N",
    "MAX_DENSE_LIMIT",
    "isqrt",
    "build_prime_table",
    "build_quotient_pi",
    "quotient_tables",
    "METHODS",
    "METHOD_CAPS",
    "NAIVE_MAX_N",
    "ORACLE_MAX_N",
    "SemiprimeCount",
    "count_semiprimes_eq1",
    "count_semiprimes_eq3",
    "count_semiprimes_oracle",
    "oracle_counts",
    "IdentityReport",
    "identity_lhs",
    "identity_rhs",
    "check_identity",
    "__version__",
]
