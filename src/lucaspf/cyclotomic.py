"""Exact cyclotomic specialization and the arithmetic profile of an index.

Phi_n(alpha, beta) is computed as the exact integer
prod_{d | n} U_{n/d}^{mu(d)}; the sqrt(Delta) factors cancel because
sum_{d | n} mu(d) = 0 for n > 1.  Only squarefree d have mu(d) != 0, so the
product runs over the products of distinct prime factors of n.  The primitive
part M_n of U_n is at least |Phi_n(alpha, beta)| / n, which is how the
cascade's lower bounds for log M_n are audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NonIntegerResult
from .lucas import LucasParams, u_at


@dataclass(frozen=True)
class ArithmeticProfile:
    primes: tuple[int, ...]  # the distinct prime factors, increasing
    phi: int
    omega: int
    largest_prime_factor: int


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, (prime, exponent) pairs."""
    if n < 1:
        raise DomainError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# the cascades read the profile of an index in [151, 248] more than once: to
# pick its row, and again in its unit-case margin
@lru_cache(maxsize=512)
def arithmetic_profile(n: int) -> ArithmeticProfile:
    if n < 2:
        raise DomainError("n must be >= 2")
    primes = tuple(p for p, _ in factorize(n))
    phi = n
    for p in primes:
        phi -= phi // p
    return ArithmeticProfile(
        primes=primes, phi=phi, omega=len(primes), largest_prime_factor=primes[-1]
    )


def cyclotomic_value(p: LucasParams, n: int) -> int:
    """Exact Phi_n(alpha, beta) for n >= 2."""
    if n < 2:
        raise DomainError("n must be >= 2 (Phi_1 is not rational in general)")
    # (d, mu(d)) for every squarefree divisor d: k primes give mu = (-1)^k
    squarefree = [(1, 1)]
    for q in arithmetic_profile(n).primes:
        squarefree += [(d * q, -mu) for d, mu in squarefree]
    num = den = 1
    for d, mu in squarefree:
        term = u_at(p, n // d).value
        if mu == 1:
            num *= term
        else:
            den *= term
    if den == 0 or num % den:
        raise NonIntegerResult(f"Phi_{n}({p.r},{p.s}) quotient {num}/{den} not integral")
    return num // den
