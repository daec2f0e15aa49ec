import pytest

import semipi.primes as primes
from semipi import build_prime_table

#: primes.SPARSE_STRIKES by name: the default split of a _sieve_blocks
#: block's strikes, every strike strided, and every strike scattered (no
#: block holds more than SIEVE_SEGMENT multiples of one prime power).
STRIKES = {"default": primes.SPARSE_STRIKES, "strided": 0, "scattered": primes.SIEVE_SEGMENT + 1}


@pytest.fixture
def strikes(request, monkeypatch):
    """Set primes.SPARSE_STRIKES to STRIKES[name], name the test's indirect parameter."""
    monkeypatch.setattr(primes, "SPARSE_STRIKES", STRIKES[request.param])


@pytest.fixture(scope="session")
def dense_10k():
    return build_prime_table(10**4)


@pytest.fixture(scope="session")
def dense_10m():
    return build_prime_table(10**7)
