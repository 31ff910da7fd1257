"""The first k primes and their products (primorials).

The cascade asks for at most the first nine primes (none above 29), so a
candidate is tested by trial division against the primes already found.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError


def nth_primes(k: int, skip_two: bool = False) -> list[int]:
    """First k primes, optionally excluding 2."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    out = [] if skip_two or k == 0 else [2]
    n = 3
    while len(out) < k:
        # every prime below n is in out (2 never divides an odd candidate)
        if all(n % p for p in out):
            out.append(n)
        n += 2
    return out


# the cascade asks for k <= 9 at either parity, once per margin evaluation
@lru_cache(maxsize=64)
def primorial(k: int, skip_two: bool = False) -> int:
    """Product of the first k primes (of the allowed set)."""
    out = 1
    for p in nth_primes(k, skip_two):
        out *= p
    return out
