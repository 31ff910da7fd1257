import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, multiplicity, nextprime, primerange

from lucaspf import factorials
from lucaspf.errors import DomainError, ZeroInput
from lucaspf.factorials import (
    PFWitness,
    clear_member_cache,
    pf_decompose,
    pf_fast_reject,
    pf_member,
)


def dp_member_table(limit):
    # independent dynamic-programming oracle over [0, limit]
    facts = []
    f, m = 2, 2
    while f <= limit:
        facts.append(f)
        m += 1
        f *= m
    table = bytearray(limit + 1)
    if limit >= 1:
        table[1] = 1
    for n in range(2, limit + 1):
        for f in facts:
            if f > n:
                break
            if n % f == 0 and table[n // f]:
                table[n] = 1
                break
    return table


def test_member_agrees_with_dp_oracle_small_range():
    limit = 300_000
    oracle = dp_member_table(limit)
    clear_member_cache()
    for n in range(1, limit + 1):
        assert pf_member(n) == bool(oracle[n]), n


def test_member_memo_is_bounded(monkeypatch):
    # a small cap forces many clears, also in the middle of a recursion
    cap = 16
    monkeypatch.setattr(factorials, "MEMO_MAX_ENTRIES", cap)
    limit = 20_000
    oracle = dp_member_table(limit)
    clear_member_cache()
    for n in range(1, limit + 1):
        assert pf_member(n) == bool(oracle[n]), n
        assert len(factorials._member_memo) <= cap
    clear_member_cache()


def test_members_above_one_are_even():
    for n in range(2, 50_000):
        if n % 2 and pf_member(n):
            pytest.fail(f"odd member {n}")


def test_signs_and_trivial_member():
    assert pf_member(1) and pf_member(-1)
    assert pf_member(-12)  # |−12| = 2!·3!
    assert pf_decompose(1) == [PFWitness(sign=1, args=())]
    assert pf_decompose(-1)[0].sign == -1
    with pytest.raises(ZeroInput):
        pf_member(0)
    with pytest.raises(ZeroInput):
        pf_decompose(0)


def test_decompose_witnesses_remultiply_and_are_ordered():
    ws = pf_decompose(144)
    assert [w.args for w in ws] == [(2, 2, 3, 3), (3, 4)]
    for w in ws:
        assert w.product() == 144
    ws = pf_decompose(-3456)  # 3456 = 2!^2 · 24 · 36? let the witnesses speak
    for w in ws:
        assert w.product() == -3456
        assert list(w.args) == sorted(w.args)


def test_witness_validation():
    with pytest.raises(DomainError):
        PFWitness(sign=2, args=(2,))
    with pytest.raises(DomainError):
        PFWitness(sign=1, args=(1, 2))
    with pytest.raises(DomainError):
        PFWitness(sign=1, args=(3, 2))


def test_eleven_factorial():
    n = math.factorial(11)
    assert pf_member(n)
    assert (11,) in [w.args for w in pf_decompose(n)]


def test_fast_reject_never_rejects_members():
    for n in range(2, 30_001):
        member = pf_member(n)
        # the search reads an empty witness list as a non-member
        assert bool(pf_decompose(n, limit=1)) == member, n
        if pf_fast_reject(n) is not None:
            assert not member, n


def test_fast_reject_reasons():
    assert pf_fast_reject(3) == "odd"
    assert pf_fast_reject(2) is None
    # 2 * huge odd: nu_2 = 1 so any witness is a power of 2! = 2; reject by size
    assert pf_fast_reject(2 * (3**40)) == "size"


def test_size_table_is_the_bound_at_its_edge():
    # 2^(bits - 1) already exceeds ((2v+1)!)^v, and the smallest integer of
    # that bit length with nu_2 = v is rejected by size; v = 64 is past the
    # table, where pf_fast_reject computes the same bound
    assert sorted(factorials._SIZE_BITS) == list(range(1, 64))
    for v in range(1, 65):
        bits = factorials._SIZE_BITS[v] if v < 64 else factorials._size_bits(v)
        assert 2 ** (bits - 1) > math.factorial(2 * v + 1) ** v, v
        assert pf_fast_reject(2 ** (bits - 1) + 2**v) == "size", v
        assert pf_fast_reject(-(2 ** (bits - 1) + 2**v)) == "size", v


def test_fast_reject_rough():
    # 103424 = 2^10 * 101: any witness has arguments <= 21, so no factor 101
    assert pf_fast_reject(103424) == "rough"
    assert pf_fast_reject(-103424) == "rough"
    assert not pf_member(103424)
    # 19 <= 21 passes the rough test; membership is left to pf_member
    assert pf_fast_reject(2**10 * 19**3) is None
    assert not pf_member(2**10 * 19**3)


def _fast_reject_mod2(n):
    # the parity test as a remainder, the form pf_fast_reject used to take
    m = abs(n)
    if m % 2:
        return "odd"
    v = (m & -m).bit_length() - 1
    cap = math.factorial(2 * v + 1)
    if m.bit_length() >= v * cap.bit_length() + 1:
        return "size"
    if v * cap.bit_length() <= 4 * m.bit_length() + 64 and m > cap**v:
        return "size"
    # the rough step, computed independently: strip every odd prime <= 2v + 1
    odd = m // 2**v
    for p in primerange(3, 2 * v + 2):
        odd //= p ** multiplicity(p, odd)
    if odd > 1:
        return "rough"
    return None


odd_ints = st.integers(0, 2**300).map(lambda x: 2 * x + 1)
big_ints = st.one_of(
    st.integers(2, 2**70),
    st.integers(2**200, 2**4000),
    st.builds(lambda k, odd: (1 << k) * odd, st.integers(1, 60), odd_ints),
    # nu_2 >= 64: the low 64 bits are all zero, so nu_2 comes from the whole
    # term; odd parts up to 3^45000 (71 000 bits) reach the size test there
    st.builds(lambda k, odd: (1 << k) * odd, st.sampled_from([64, 128]), odd_ints),
    st.builds(lambda k, e, odd: (1 << k) * 3**e * odd, st.integers(63, 200),
              st.integers(0, 45_000), odd_ints),
    # negative before the drawn sign, so both signs meet every bump
    st.integers(-(2**200), -3),
    st.builds(lambda k: math.factorial(k) * math.factorial(k // 2), st.integers(2, 300)),
)


@settings(max_examples=300, deadline=None)
@given(big_ints, st.sampled_from([1, -1]), st.sampled_from([0, 1]))
def test_fast_reject_low_bit_parity_matches_remainder(m, sign, bump):
    n = sign * (m + bump)
    assert pf_fast_reject(n) == _fast_reject_mod2(n)


def test_fast_reject_parity_on_huge_terms():
    # about the size of the terms a search to the certified bound meets
    even = 2 * 3**200_000
    deep = 2**3000 * 3**200_000
    for n in (even, -even, even + 1, -(even + 1), deep, -deep):
        assert pf_fast_reject(n) == _fast_reject_mod2(n), n


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**9))
def test_fast_reject_soundness_random(n):
    if pf_fast_reject(n) is not None:
        assert not pf_member(n)


_SMALL_ODD_PRIMES = list(primerange(3, 2000))
# products of known primes up to about 2^128, with at most one factor above
# 2000, so that factorint is fast; the ones with 2^k and a prime near 2k + 1
# sit on both sides of the bound
rough_candidates = st.one_of(
    st.integers(1, 2**63).map(lambda x: 2 * x),
    st.builds(
        lambda k, ps, big: (1 << k) * math.prod(ps) * big,
        st.integers(4, 30),
        st.lists(st.sampled_from(_SMALL_ODD_PRIMES), max_size=6),
        st.one_of(st.just(1), st.integers(2, 2**32).map(nextprime)),
    ),
    st.integers(1, 60).flatmap(
        lambda k: st.builds(
            lambda p, e: (1 << k) * p**e,
            st.sampled_from(list(primerange(3, 4 * k + 8))),
            st.integers(1, 3),
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(rough_candidates, st.sampled_from([1, -1]))
def test_fast_reject_rough_iff_an_odd_prime_factor_exceeds_2_nu2_plus_1(m, sign):
    reason = pf_fast_reject(sign * m)
    if reason in ("odd", "size"):
        return
    factors = factorint(m)
    v = factors.pop(2, 0)
    assert (reason == "rough") == (max(factors, default=1) > 2 * v + 1)
