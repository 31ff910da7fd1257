import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, libmp, mp, mpf

from lucaspf import bounds, cyclotomic, factorials, interval, pipeline, primes
from lucaspf.errors import DomainError
from lucaspf.lucas import validate_params
from lucaspf.interval import (
    PREC_LADDER,
    Interval,
    euler_gamma,
    exp_euler_gamma,
    log2,
    log_2pi,
    log_int,
    pi,
)
from oracles import certainly_lt, mid_float, width


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
    pairs = [(x + y, ix + iy), (x - y, ix - iy), (x * y, ix * iy), (-x, -ix)]
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
    assert float(width(enc)) < 1e-10


@given(st.integers(-(2**80), 2**80), st.integers(0, 2**80), st.sampled_from([64, 128]))
def test_int_range_encloses_every_integer_inside(a, w, prec):
    r = Interval.from_int_range(a, a + w, prec)
    assert r.prec == prec
    assert to_fraction(r.lo) <= a and a + w <= to_fraction(r.hi)
    point = Interval.from_int_range(a, a, prec)
    assert (point.lo, point.hi) == (Interval.from_int(a, prec).lo, Interval.from_int(a, prec).hi)


def test_coerce_refuses_floats():
    # 0.1 is not one tenth, so a float is no exact point to enclose
    with pytest.raises(DomainError):
        Interval.from_int(1) * 0.1


def test_powers_refuse_non_int_exponents():
    # int(k) truncated them: 4 ** 0.5 and 4 ** (1/2) came out as [1, 1]
    four = Interval.from_int(4)
    for k in (0.5, Fraction(1, 2)):
        with pytest.raises(DomainError):
            four**k
    assert _raw(four**2) == _raw(Interval.from_int(16))
    assert _raw(four**-1) == _raw(Interval.from_fraction(1, 4))


def test_one_third_is_properly_rounded():
    third = Interval.from_fraction(1, 3)
    assert to_fraction(third.lo) < Fraction(1, 3) < to_fraction(third.hi)
    assert width(third) > 0


def test_interval_constructor_rejects_reversed_endpoints():
    one = Interval.from_int(1)
    with pytest.raises(DomainError):
        Interval(one.hi + 1, one.lo)
    with pytest.raises(DomainError):
        Interval(1, 2)
    with pytest.raises(DomainError):
        Interval(mpf(2), mpf(1))
    # the constructors that take caller data check it too
    with pytest.raises(DomainError):
        Interval.from_int_range(5, 3)
    with pytest.raises(DomainError):
        Interval.from_str("[2, 1]")


@pytest.mark.parametrize("prec", PREC_LADDER)
@pytest.mark.parametrize("s", ["2.50637", "1.28", "1/1155", "0.0027", "[1, 2]", "-7.5"])
def test_from_str_is_the_libmp_parse(s, prec):
    expected = libmp.mpi_from_str(s, prec)
    for _ in range(2):  # the first call fills the cache, the second reads it
        x = Interval.from_str(s, prec)
        assert (x.lo._mpf_, x.hi._mpf_, x.prec) == (*expected, prec)


@pytest.mark.parametrize("make", [lambda: log2(128), lambda: Interval.from_str("1.28", 128),
                                  lambda: pi(128), lambda: euler_gamma(128),
                                  lambda: exp_euler_gamma(128), lambda: log_2pi(128),
                                  lambda: log_int(15015, 128)])
def test_cached_values_come_back_unchanged(make):
    before = _raw(make())
    x = make()
    assert x is not make()
    -x
    x + 1
    x - x
    with pytest.raises(AttributeError):  # the endpoints are read-only
        x.lo, x.hi = x.hi + 1, x.hi + 2
    assert _raw(make()) == before


def test_caches_are_bounded():
    modules = (interval, bounds, cyclotomic, primes, factorials)
    caches = [f for mod in modules for f in vars(mod).values() if hasattr(f, "cache_info")]
    assert len(caches) >= 7
    assert cyclotomic.arithmetic_profile in caches and primes.primorial in caches
    assert factorials._odd_primorial in caches
    for f in caches:
        assert f.cache_info().maxsize is not None, f.__name__


def test_log_of_nonpositive_rejected():
    with pytest.raises(DomainError):
        Interval.from_int(-2).log()
    with pytest.raises(DomainError):
        log_int(0)


def test_constants_contain_reference_values():
    with mp.workprec(200):
        assert euler_gamma(64).lo <= mp.euler <= euler_gamma(64).hi
        assert exp_euler_gamma(64).lo <= mp.exp(mp.euler) <= exp_euler_gamma(64).hi
        assert pi(64).lo <= mp.pi <= pi(64).hi
        assert log2(64).lo <= mp.log(2) <= log2(64).hi
        assert log_2pi(64).lo <= mp.log(2 * mp.pi) <= log_2pi(64).hi


@pytest.mark.parametrize("prec", PREC_LADDER)
def test_exp_euler_gamma_is_the_exp_of_the_gamma_enclosure(prec):
    # the cached value is the one phi_lower_rs used to compute on every call
    assert _raw(exp_euler_gamma(prec)) == _raw(euler_gamma(prec).exp())


def test_precision_refines_enclosures():
    coarse = log_int(7, 64)
    fine = log_int(7, 256)
    assert fine.lo >= coarse.lo and fine.hi <= coarse.hi
    assert width(fine) < width(coarse)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_negation_encloses_the_exact_value(prec):
    neg = -log_int(3, prec)
    with mp.workprec(4 * prec):
        exact = -mp.log(3)
        assert neg.lo <= exact <= neg.hi
    assert neg.prec == prec


def test_width_is_rounded_up():
    for k in range(2, 40):
        wide = Interval(Interval.from_fraction(-1, k).lo, log_int(k).hi)
        assert to_fraction(width(wide)) >= to_fraction(wide.hi) - to_fraction(wide.lo), k


def _sample_results():
    third = Interval.from_fraction(1, 3, 128)
    return [
        log_int(7, 64),
        log_int(10**40 + 1, 128),
        Interval.from_fraction(-22, 7, 64),
        third,
        -third,
        -log_int(3, 256),
    ]


def _raw(x):
    return x.lo._mpf_, x.hi._mpf_, x.prec


def test_results_do_not_depend_on_mpmath_precision():
    outside = [_raw(x) for x in _sample_results()]
    with mp.workprec(20):
        inside = [_raw(x) for x in _sample_results()]
    assert inside == outside


def test_operations_write_no_mpmath_precision():
    writes = []

    def spy(ctx_type):
        prop = ctx_type.prec

        def record(ctx, bits):
            writes.append((ctx_type.__name__, bits))
            prop.fset(ctx, bits)

        return property(prop.fget, record)

    before = (mp.prec, iv.prec)
    with mock.patch.object(type(mp), "prec", spy(type(mp))), \
            mock.patch.object(type(iv), "prec", spy(type(iv))):
        x = Interval.from_fraction(5, 3, 128)
        y = Interval.from_str("2.50637") + 2
        results = [x + y, x - y, 1 - x, x * y, x / y, 2 / x, -x, x**3, x.log(),
                   x.exp(), x.sqrt(), log_int(3**90), log2(), pi(), euler_gamma(),
                   exp_euler_gamma(), log_2pi(), log_int(77)]
    assert writes == []
    assert (mp.prec, iv.prec) == before
    assert all(r.prec in (64, 128) for r in results)


def test_certainly_comparisons_need_separation():
    a = Interval.from_fraction(1, 3)
    b = Interval.from_fraction(1, 3)
    assert not a.certainly_gt(b)
    assert not certainly_lt(a, b)
    assert certainly_lt(a, Interval.from_fraction(1, 2))
    assert not a.certainly_ge(b)
    assert Interval.from_int(2).certainly_ge(2)


@given(st.integers(-50, 50), st.integers(0, 50), st.integers(-50, 50), st.integers(0, 50))
def test_max_and_endpoint_reads_match_the_mpf_endpoints(a, w, c, v):
    # read on the raw endpoints, without building an mpf
    x, y = Interval.from_int_range(a, a + w), Interval.from_int_range(c, c + v, 128)
    m = x.max(y)
    assert (m.lo, m.hi, m.prec) == (max(x.lo, y.lo), max(x.hi, y.hi), 128)
    assert x.lower_at_least(y) == (x.lo >= y.lo)
    assert x.certainly_ge(y) == (x.lo >= y.hi)
    assert mid_float(x) == (2 * a + w) / 2


@given(st.integers(2, 10**6))
def test_exp_log_roundtrip_contains_input(n):
    enc = log_int(n, 64).exp()
    assert enc.lo <= n <= enc.hi



# -- the lean core: the same libmp call as a direct one, bit for bit -----------


def _mpi_int(n, prec):
    return libmp.from_int(n, prec, libmp.round_floor), libmp.from_int(n, prec, libmp.round_ceiling)


def _mpi_operand(y, prec):
    # the raw enclosure of an operand at prec, built from libmp alone
    if isinstance(y, Interval):
        return y.lo._mpf_, y.hi._mpf_
    if isinstance(y, Fraction):
        return libmp.mpi_div(_mpi_int(y.numerator, prec), _mpi_int(y.denominator, prec), prec)
    return _mpi_int(y, prec)


precs = st.sampled_from(PREC_LADDER)
rationals = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))


@st.composite
def intervals(draw, positive=False):
    # a quotient, a log or an integer range, at a precision of the ladder;
    # every one is positive when asked for
    prec, q = draw(precs), draw(rationals)
    if positive:
        q = abs(q) + 1
    kind = draw(st.sampled_from(("fraction", "log", "range")))
    if kind == "log":
        return log_int(abs(q.numerator) + 2, prec)
    if kind == "range":
        a = q.numerator // q.denominator
        return Interval.from_int_range(a, a + draw(st.integers(0, 10**6)), prec)
    return Interval.from_fraction(q.numerator, q.denominator, prec)


# (operation, libmp call, whether the drawn operand comes first)
_BINARY = [
    (lambda x, y: x + y, libmp.mpi_add, False),
    (lambda x, y: y + x, libmp.mpi_add, True),
    (lambda x, y: x - y, libmp.mpi_sub, False),
    (lambda x, y: y - x, libmp.mpi_sub, True),
    (lambda x, y: x * y, libmp.mpi_mul, False),
    (lambda x, y: y * x, libmp.mpi_mul, True),
    (lambda x, y: x / y, libmp.mpi_div, False),
    (lambda x, y: y / x, libmp.mpi_div, True),
]


@settings(max_examples=300, deadline=None)
@given(intervals(), st.one_of(intervals(), st.integers(-(10**30), 10**30), rationals))
def test_binary_operators_are_the_direct_libmp_call(x, y):
    # an int or Fraction is enclosed at x's precision; two Intervals meet at
    # the larger of their precisions, which covers every mixed pair
    prec = max(x.prec, y.prec) if isinstance(y, Interval) else x.prec
    xm, ym = _mpi_operand(x, prec), _mpi_operand(y, prec)
    for op, f, y_first in _BINARY:
        expected = f(ym, xm, prec) if y_first else f(xm, ym, prec)
        assert _raw(op(x, y)) == (*expected, prec)


@settings(max_examples=200, deadline=None)
@given(intervals(positive=True), st.integers(-3, 6))
def test_unary_operations_are_the_direct_libmp_call(x, k):
    prec = x.prec
    xm = _mpi_operand(x, prec)
    assert _raw(-x) == (*libmp.mpi_neg(xm), prec)
    assert _raw(x.log()) == (*libmp.mpi_log(xm, prec), prec)
    assert _raw(x.sqrt()) == (*libmp.mpi_sqrt(xm, prec), prec)
    assert _raw(x**k) == (*libmp.mpi_pow_int(xm, k, prec), prec)
    assert _raw((-x) ** k) == (*libmp.mpi_pow_int(libmp.mpi_neg(xm), k, prec), prec)
    small = log_int(abs(int(x.lo)) + 2, prec)  # exp of a log stays small
    assert _raw(small.exp()) == (*libmp.mpi_exp(_mpi_operand(small, prec), prec), prec)
    assert _raw(Interval(x.lo, x.hi, prec)) == _raw(x)


def test_domain_checks_read_the_sign_of_the_lower_endpoint():
    zero = Interval.from_int(0)
    assert _raw(zero.sqrt()) == (libmp.fzero, libmp.fzero, 64)
    with pytest.raises(DomainError):
        zero.log()
    with pytest.raises(DomainError):
        (zero - 1).sqrt()
    assert zero.signs() == (0, 0)
    assert Interval.from_int_range(-1, 1).signs() == (-1, 1)
    assert (-log_int(3)).signs() == (-1, -1)


def test_intervals_survive_pickling():
    # an Interval pickles to the same endpoints; LucasParams holds no
    # Interval, encloses log|alpha| on read, and pickles whole
    for x in (log_int(10**40 + 1, 128), -Interval.from_fraction(1, 3), Interval.from_int(0)):
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is Interval and _raw(y) == _raw(x)
    params = validate_params(3, -5)
    back = pickle.loads(pickle.dumps(params))
    assert (back.r, back.s, back.delta) == (params.r, params.s, params.delta)
    assert _raw(back.alpha_abs_log) == _raw(params.alpha_abs_log)


def test_intervals_are_immutable():
    x = log_int(7, 64)
    before = _raw(x)
    for name in ("lo", "hi", "prec"):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
    with pytest.raises(AttributeError):
        x.extra = 1
    assert _raw(x) == before


def test_a_verdict_builds_almost_no_mpf():
    # an mpf endpoint is built only where a caller reads one: a 64-bit verdict
    # decides on raw endpoint signs, and the estimates compare raw endpoints.
    # Rows: the one that sets the certified bound, the slowest real row (the
    # sharp growth bound, the radical divisor bound) and a unit index
    stage4 = pipeline._lemma_rows(1_851_039, {"even": 500_000, "odd": 500_000}, "stage4")
    lemma = pipeline._row_for(stage4, "even", 6)
    real = pipeline._row_for(pipeline._real_rows(300_000), "even", 4)
    unit = pipeline.StageConfig("unit-n210", bounds.MnBoundVariant.UNIT_EQ55, "even", 4, 150, 210, 150)
    make = interval._mpf
    built = []

    def counted(v):
        built.append(v)
        return make(v)

    cases = [
        (lemma, 267_212, 267_212), (lemma, 267_214, 300_000),
        (real, 248, 248), (real, 250, 300_000), (unit, 210, 210),
    ]
    for cfg, a, b in cases:
        pipeline._verdict(cfg, a, b, PREC_LADDER[:1])  # fills the caches
        built.clear()
        with mock.patch.object(interval, "_mpf", counted):
            pipeline._verdict(cfg, a, b, PREC_LADDER[:1])
        assert not built, (cfg.name, a, b, len(built))
