import pytest

from lucaspf.errors import DomainError
from lucaspf.primes import is_prime, nth_primes, primorial
from oracles import sieve_upto


def test_is_prime_matches_sieve_up_to_20000():
    table = sieve_upto(20000)
    for n in range(20001):
        assert is_prime(n) == bool(table[n]), n


def test_is_prime_on_known_hard_cases():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # classic composite Mersenne
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(561)  # Carmichael
    assert is_prime(10**18 + 9)


def test_nth_primes_and_primorial():
    assert nth_primes(5) == [2, 3, 5, 7, 11]
    assert nth_primes(4, skip_two=True) == [3, 5, 7, 11]
    assert primorial(4) == 210
    assert primorial(4, skip_two=True) == 3 * 5 * 7 * 11
    assert primorial(0) == 1
    with pytest.raises(DomainError):
        nth_primes(-1)
