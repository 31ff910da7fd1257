from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from lucaspf.errors import DomainError, Undecidable
from lucaspf.interval import (
    Interval,
    decide_gt,
    euler_gamma,
    log2,
    log_int,
    pi,
)


def to_fraction(x):
    # exact rational value of an mpf from its raw (sign, man, exp, bc) tuple
    sign, man, exp, _ = x._mpf_
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


ints = st.integers(-(10**9), 10**9)
dens = st.integers(1, 10**6)


@given(ints, dens, ints, dens)
def test_arithmetic_encloses_exact_rationals(a, b, c, d):
    x, y = Fraction(a, b), Fraction(c, d)
    ix = Interval.from_fraction(a, b)
    iy = Interval.from_fraction(c, d)
    pairs = [(x + y, ix + iy), (x - y, ix - iy), (x * y, ix * iy)]
    if c != 0:
        pairs.append((x / y, ix / iy))
    for exact, enclosure in pairs:
        assert to_fraction(enclosure.lo) <= exact <= to_fraction(enclosure.hi)


@given(st.integers(1, 10**6))
def test_log_int_encloses_high_precision_log(n):
    enc = log_int(n, 64)
    with mp.workprec(200):
        exact = mp.log(n)
        assert enc.lo <= exact <= enc.hi


def test_log_int_handles_huge_integers():
    n = 10**500 + 12345
    enc = log_int(n, 64)
    with mp.workprec(2200):
        exact = mp.log(mp.mpf(n))
        assert enc.lo <= exact <= enc.hi
    assert float(enc.width()) < 1e-10


def test_coerce_refuses_floats():
    # 0.1 is not one tenth, so a float is no exact point to enclose
    with pytest.raises(DomainError):
        Interval.from_int(1) * 0.1


def test_one_third_is_properly_rounded():
    third = Interval.from_fraction(1, 3)
    assert to_fraction(third.lo) < Fraction(1, 3) < to_fraction(third.hi)
    assert third.width() > 0


def test_interval_constructor_rejects_reversed_endpoints():
    one = Interval.from_int(1)
    with pytest.raises(DomainError):
        Interval(one.hi + 1, one.lo)


def test_log_of_nonpositive_rejected():
    with pytest.raises(DomainError):
        Interval.from_int(-2).log()
    with pytest.raises(DomainError):
        log_int(0)


def test_constants_contain_reference_values():
    with mp.workprec(200):
        assert euler_gamma(64).lo <= mp.euler <= euler_gamma(64).hi
        assert pi(64).lo <= mp.pi <= pi(64).hi
        assert log2(64).lo <= mp.log(2) <= log2(64).hi


def test_precision_refines_enclosures():
    coarse = log_int(7, 64)
    fine = log_int(7, 256)
    assert fine.lo >= coarse.lo and fine.hi <= coarse.hi
    assert fine.width() < coarse.width()


def test_decide_gt_on_separated_quantities():
    assert decide_gt(lambda p: log_int(7, p), lambda p: log_int(6, p))
    assert not decide_gt(lambda p: log_int(6, p), lambda p: log_int(7, p))


def test_decide_gt_raises_on_exact_ties():
    # log 2 + log 3 = log 6 exactly; no precision can separate them
    with pytest.raises(Undecidable):
        decide_gt(lambda p: log_int(2, p) + log_int(3, p), lambda p: log_int(6, p))


def test_certainly_comparisons_need_separation():
    a = Interval.from_fraction(1, 3)
    b = Interval.from_fraction(1, 3)
    assert not a.certainly_gt(b)
    assert not a.certainly_lt(b)
    assert a.certainly_lt(Interval.from_fraction(1, 2))


@given(st.integers(2, 10**6))
def test_exp_log_roundtrip_contains_input(n):
    enc = log_int(n, 64).exp()
    assert enc.lo <= n <= enc.hi
