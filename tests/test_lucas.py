import math
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from lucaspf.bounds import stirling_log_factorial_sqrt
from lucaspf.errors import Degenerate, DomainError, NotCoprime, ZeroDiscriminant
from lucaspf.interval import Interval, log_int
from lucaspf.lucas import (
    SeqKind,
    parity_period,
    seq_kind,
    term_pair,
    term_pair_mod,
    u_at,
    v_at,
    validate_params,
)
from oracles import iter_terms, u_naive, v_naive


def valid_pairs():
    def ok(rs):
        try:
            validate_params(*rs)
            return True
        except Exception:
            return False

    return st.tuples(
        st.integers(-20, 20).filter(bool), st.integers(-20, 20).filter(bool)
    ).filter(ok)


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 200))
def test_fast_doubling_matches_recurrence(rs, n):
    p = validate_params(*rs)
    assert u_at(p, n).value == u_naive(p, n)
    assert v_at(p, n).value == v_naive(p, n)


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(1, 400), st.integers(1, 60))
@example((-3, -5), 1, 40)
@example((-7, 2), 1, 40)
@example((5, -3), 257, 9)
def test_stepped_terms_match_fast_doubling(rs, lo, length):
    p = validate_params(*rs)
    for kind, term in ((SeqKind.U, u_at), (SeqKind.V, v_at)):
        got = list(islice(iter_terms(p, kind, lo), length))
        assert got == [term(p, n).value for n in range(lo, lo + length)], kind
        assert term_pair(p, kind, lo) == (term(p, lo).value, term(p, lo + 1).value), kind


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 120))
def test_pell_like_identity(rs, n):
    # V_n^2 - Delta U_n^2 = 4 (-s)^n
    p = validate_params(*rs)
    u, v = u_at(p, n).value, v_at(p, n).value
    assert v * v - p.delta * u * u == 4 * (-p.s) ** n


@settings(max_examples=60, deadline=None)
@given(valid_pairs(), st.integers(0, 100))
def test_doubling_identity(rs, n):
    p = validate_params(*rs)
    assert u_at(p, 2 * n).value == u_at(p, n).value * v_at(p, n).value


def test_validation_errors():
    with pytest.raises(Degenerate):
        validate_params(0, 5)
    with pytest.raises(Degenerate):
        validate_params(5, 0)
    with pytest.raises(NotCoprime):
        validate_params(2, 4)
    with pytest.raises(ZeroDiscriminant):
        validate_params(2, -1)
    with pytest.raises(Degenerate):
        validate_params(1, -1)  # sixth root of unity ratio


def test_term_kinds_and_values():
    p = validate_params(1, 1)
    t = u_at(p, 12)
    assert (t.index, t.value, t.kind) == (12, 144, SeqKind.U)
    assert v_at(p, 12).value == 322
    assert u_at(p, 0).value == 0 and v_at(p, 0).value == 2


def test_term_functions_read_the_kind_they_are_given():
    # the strings "U" and "V" are equal to the members but not the same
    # objects; each must still select its own sequence and level, and any
    # other kind must be refused rather than read as V.  (1, -2) has even s
    # and negative terms: U = 0, 1, 1, -1, -3, -1, 5 and V = 2, 1, -3, -5, 1, 11, 9
    p, q, e = validate_params(1, 1), validate_params(2, -3), validate_params(1, -2)
    for kind, level, pair, period, even_s_pair in (
        (SeqKind.U, 1, (5, 8), 2, (-1, 5)),
        (SeqKind.V, 2, (11, 18), 1, (11, 9)),
    ):
        for given in (kind, kind.value):
            assert seq_kind(given).level == level, given
            for x, pair_n in ((p, pair), (e, even_s_pair)):
                assert term_pair(x, given, 5) == pair_n, given
                for m in (100, 64):  # 64: the masked path
                    assert term_pair_mod(x, given, 5, m) == tuple(t % m for t in pair_n), given
            assert parity_period(q, given) == period, given
            assert parity_period(e, given) is None, given
    for bad in ("W", "u", None):
        with pytest.raises(DomainError):
            seq_kind(bad)
        with pytest.raises(DomainError):
            term_pair(p, bad, 5)
        with pytest.raises(DomainError):
            term_pair_mod(p, bad, 5, 100)
        with pytest.raises(DomainError):
            parity_period(q, bad)
        with pytest.raises(DomainError):
            parity_period(validate_params(1, 2), bad)  # even s: no period at all


def test_negative_index_rejected():
    p = validate_params(1, 1)
    with pytest.raises(DomainError):
        u_at(p, -1)
    with pytest.raises(DomainError):
        term_pair_mod(p, SeqKind.U, -1, 10)


def test_fibonacci_alpha_log_is_golden_ratio():
    p = validate_params(1, 1)
    with mp.workprec(200):
        golden = mp.log((1 + mp.sqrt(5)) / 2)
        assert p.alpha_abs_log.lo <= golden <= p.alpha_abs_log.hi


def test_complex_case_alpha_log():
    # delta = 1 + 4*(-3) < 0, |alpha| = sqrt(3)
    p = validate_params(1, -3)
    assert not p.roots_real
    with mp.workprec(200):
        expected = mp.log(3) / 2
        assert p.alpha_abs_log.lo <= expected <= p.alpha_abs_log.hi


def test_binet_rounding_oracle():
    # independent growth oracle: F_n = round(alpha^n / sqrt 5)
    p = validate_params(1, 1)
    with mp.workprec(300):
        alpha = (1 + mp.sqrt(5)) / 2
        for n in range(1, 90):
            assert int(mp.nint(alpha**n / mp.sqrt(5))) == u_at(p, n).value


def test_stirling_bounds_are_lower_bounds():
    for m in list(range(2, 60)) + [150, 500, 2000]:
        exact = log_int(math.factorial(m), 128)
        bound = stirling_log_factorial_sqrt(Interval.from_int(m, 128), log_int(m, 128))
        assert bound.hi <= exact.lo


def _expected_error(r, s):
    # the standing hypotheses as exact integer rules, for nonzero r and s
    if math.gcd(r, s) != 1:
        return NotCoprime
    if r * r + 4 * s == 0:
        return ZeroDiscriminant
    if r * r in (-s, -2 * s, -3 * s):  # alpha/beta a root of unity
        return Degenerate
    return None


def test_validate_params_makes_no_interval_operation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("validate_params made an Interval operation")

    for name in ("from_int", "sqrt", "log"):
        monkeypatch.setattr(Interval, name, forbidden)
    validate_params.cache_clear()  # every pair is checked here, none read from the cache
    accepted = 0
    for r in [x for k in range(1, 6) for x in (k, -k)]:
        for s in [x for k in range(1, 11) for x in (k, -k)]:
            expected = _expected_error(r, s)
            if expected is None:
                p = validate_params(r, s)
                assert (p.r, p.s, p.delta) == (r, s, r * r + 4 * s)
                assert (p.roots_real, p.unit_norm) == (r * r + 4 * s > 0, abs(s) == 1)
                accepted += 1
            else:
                with pytest.raises(expected):
                    validate_params(r, s)
    assert accepted > 100


def test_validated_pairs_compare_as_data():
    for rs in ((1, 1), (1, -3), (-3, 5)):
        a, b = validate_params(*rs), validate_params(*rs)
        assert a == b and hash(a) == hash(b)
    assert validate_params(1, 1) != validate_params(-1, 1)
