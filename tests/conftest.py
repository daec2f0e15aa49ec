import pytest

from semipi import build_prime_table


@pytest.fixture(scope="session")
def dense_10k():
    return build_prime_table(10**4)


@pytest.fixture(scope="session")
def dense_10m():
    return build_prime_table(10**7)
