import pytest

from lucaspf.errors import DomainError
from lucaspf.primes import nth_primes, primorial
from oracles import sieve_upto


def test_nth_primes_and_primorial():
    assert nth_primes(5) == [2, 3, 5, 7, 11]
    assert nth_primes(4, skip_two=True) == [3, 5, 7, 11]
    assert primorial(4) == 210
    assert primorial(4, skip_two=True) == 3 * 5 * 7 * 11
    assert primorial(0) == 1
    with pytest.raises(DomainError):
        nth_primes(-1)


def test_nth_primes_match_the_sieve():
    table = sieve_upto(2000)
    primes = [n for n in range(2001) if table[n]]
    # every k the cascade asks for, and all primes below 2000
    for k in [*range(12), len(primes) - 1]:
        assert nth_primes(k) == primes[:k], k
        assert nth_primes(k, skip_two=True) == primes[1 : k + 1], k
