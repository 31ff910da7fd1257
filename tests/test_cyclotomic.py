import random

import pytest
from sympy import factorint, totient

from lucaspf.cyclotomic import arithmetic_profile, cyclotomic_value, factorize
from lucaspf.errors import DomainError
from lucaspf.lucas import u_at, validate_params


def random_valid_pairs(count, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(-8, 8)
        s = rng.randint(-8, 8)
        try:
            out.append(validate_params(r, s))
        except Exception:
            continue
    return out


def test_divisor_product_law():
    # prod_{d | n, d > 1} Phi_d(alpha, beta) = U_n
    for p in random_valid_pairs(6):
        for n in range(2, 120):
            prod = 1
            for d in range(2, n + 1):
                if n % d == 0:
                    prod *= cyclotomic_value(p, d)
            assert prod == u_at(p, n).value, (p.r, p.s, n)


def test_phi_12_fibonacci_is_six():
    p = validate_params(1, 1)
    assert cyclotomic_value(p, 12) == 6


def test_phi_rejects_n_below_two():
    p = validate_params(1, 1)
    with pytest.raises(DomainError):
        cyclotomic_value(p, 1)


def test_factorize_matches_sympy():
    for n in list(range(2, 500)) + [2**31 - 1, 600851475143]:
        assert dict(factorize(n)) == factorint(n)


def test_arithmetic_profile_against_sympy():
    for n in range(2, 400):
        prof = arithmetic_profile(n)
        fac = factorint(n)
        assert prof.phi == totient(n)
        assert prof.omega == len(fac)
        assert prof.primes == tuple(sorted(fac))
        assert prof.largest_prime_factor == max(fac)


def test_primitive_prime_congruence_fibonacci():
    # every prime factor of Phi_n coprime to n*Delta is +-1 mod n
    p = validate_params(1, 1)
    for n in range(5, 121):
        value = abs(cyclotomic_value(p, n))
        for q in factorint(value):
            if (n * abs(p.delta)) % q == 0:
                continue
            assert q % n in (1, n - 1), (n, q)
