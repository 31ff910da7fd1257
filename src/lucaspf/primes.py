"""Small prime utilities: deterministic Miller-Rabin, the first k primes and
primorials."""

from __future__ import annotations

from .errors import DomainError

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10**24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nth_primes(k: int, skip_two: bool = False) -> list[int]:
    """First k primes, optionally excluding 2."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    out = []
    n = 3 if skip_two else 2
    while len(out) < k:
        if is_prime(n):
            out.append(n)
        n += 1 if n == 2 else 2
    return out


def primorial(k: int, skip_two: bool = False) -> int:
    """Product of the first k primes (of the allowed set)."""
    out = 1
    for p in nth_primes(k, skip_two):
        out *= p
    return out
