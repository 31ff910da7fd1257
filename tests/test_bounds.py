import dataclasses
import math
import random
from unittest import mock

import pytest

from lucaspf import bounds
from lucaspf.bounds import (
    BoundContext,
    MnBoundVariant,
    Parity,
    bound_context,
    growth_log_alpha_lower,
    lemma_coefficient,
    margin_estimate,
    mn_lower_affine,
    mn_upper_sieve_affine,
    omega_upper,
    phi_estimate,
    phi_lower_omega,
    phi_lower_rs,
    primitive_divisor_log_bound,
    row_margin,
    row_margin_dual,
    stirling_log_factorial_sqrt,
    unit_product_constant,
)
from lucaspf.cyclotomic import arithmetic_profile, cyclotomic_value
from lucaspf.errors import DomainError
from lucaspf.interval import Interval, log2, log_int
from lucaspf.lucas import validate_params
from lucaspf.primes import primorial
from oracles import (
    certainly_lt,
    logp_sum_upper,
    pi_ap_upper,
    sieve_upto,
    voutier_pair_lower,
    width,
)


def phi_omega_tables(limit):
    # linear sieves for exact phi(n), omega(n), P(n)
    phi = list(range(limit + 1))
    omega = [0] * (limit + 1)
    largest = [1] * (limit + 1)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
                omega[k] += 1
                largest[k] = p
    return phi, omega, largest


PHI, OMEGA, LARGEST = phi_omega_tables(100_000)


def _logs(n):
    # log n and log log n of the index enclosure, which the estimates take as
    # arguments (bound_context takes each once per margin evaluation)
    logn = Interval.coerce(n).log()
    return logn, logn.log()


def _sharp_growth(n, parity):
    # the sharp growth bound takes m = rn - 1, r = 1 even and 2 odd, and log m as an
    # argument (bound_context takes it once per margin evaluation)
    m = Interval.coerce(n) * (1 if parity is Parity.EVEN else 2) - 1
    return growth_log_alpha_lower(n, _logs(n)[0], parity, (m, m.log()))


def _stirling(m):
    return stirling_log_factorial_sqrt(m, Interval.coerce(m).log())


def test_phi_lower_rs_holds():
    for n in range(3, 30_001):
        assert phi_lower_rs(n, _logs(n)[1]).lo <= PHI[n], n


def test_phi_lower_omega_holds():
    for n in range(3, 30_001):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        assert phi_lower_omega(n, max(1, OMEGA[n]), parity).lo <= PHI[n], n


def test_phi_lower_omega_valid_for_overestimated_omega():
    # the product bound stays valid when the assumed omega exceeds the real one
    for n in (151, 1024, 2310, 30030):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        for w in range(OMEGA[n], 8 if parity is Parity.EVEN else 7):
            assert phi_lower_omega(n, w, parity).lo <= PHI[n]


def test_omega_upper_holds():
    for n in range(26, 30_001):
        assert omega_upper(n, *_logs(n)) >= OMEGA[n], n
    # tightness at primorials: the bound must admit the true count
    for k in range(2, 9):
        n = primorial(k)
        if n >= 26:
            assert omega_upper(n, *_logs(n)) >= k


def test_brun_titchmarsh_domination():
    table = sieve_upto(2_000_000)
    for n in (150, 151, 210, 840, 997):
        for x in (10 * n, 100 * n, 2_000_000):
            count = sum(
                1
                for p in range(2, x + 1)
                if table[p] and p % n in (1, n - 1)
            )
            # one class each of +1 and -1, so the two-class count gets 2 bounds
            assert count <= 2 * pi_ap_upper(x, n).hi, (n, x)


def test_logp_sum_domination_sampled():
    table = sieve_upto(1_500_000)
    for n in (150, 151, 300, 601, 997, 1200):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        for m in (3 * n, n * n):
            m = min(m, 1_500_000)
            exact = 0.0
            for p in range(2, m + 1):
                if table[p] and p % n in (1, n - 1):
                    exact += math.log(p) / (p - 1)
            assert exact <= logp_sum_upper(m, n, parity).hi, (n, m)


def test_logp_sum_domain():
    with pytest.raises(DomainError):
        logp_sum_upper(1000, 100, Parity.EVEN)  # n < 150
    with pytest.raises(DomainError):
        logp_sum_upper(100, 200, Parity.EVEN)  # m < n - 1


def test_voutier_lower_never_contradicts_exact():
    # |alpha^m - beta^m| = |U_m| sqrt|Delta| in the complex-root case
    rng = random.Random(11)
    pairs = []
    while len(pairs) < 20:
        r = rng.randint(-10, 10)
        s = rng.randint(-10, -1)
        try:
            p = validate_params(r, s)
        except Exception:
            continue
        if not p.roots_real:
            pairs.append(p)
    for p in pairs:
        for m in (3, 4, 5, 7, 12, 57, 200, 1001, 5000):
            u = abs(u_val(p, m))
            if u == 0:
                continue
            exact = log_int(u, 128) + log_int(abs(p.delta), 128) / 2
            bound = voutier_pair_lower(p.alpha_abs_log, m)
            assert bound.lo <= exact.hi, (p.r, p.s, m)


def test_voutier_max_is_the_max_of_each_endpoint():
    # taken on the raw endpoints, bit for bit the mpf max of the two bounds
    for r, s in ((1, -3), (2, -5), (-3, -7), (5, -9)):
        log_alpha = validate_params(r, s).alpha_abs_log
        for m in (3, 4, 57, 1001, 5357, 5358, 5359, 10**6):
            for prec in (64, 128, 256):
                half = m // math.gcd(m, 2)
                b1 = m * log_alpha - (half + log2(prec) / 4
                                      + Interval.from_str("0.02", prec)) * log_alpha
                b2 = m * log_alpha - 73 * log_alpha * log_int(half, prec) ** 2
                bound = voutier_pair_lower(log_alpha, m, prec)
                assert (bound.lo._mpf_, bound.hi._mpf_) == (max(b1.lo, b2.lo)._mpf_,
                                                             max(b1.hi, b2.hi)._mpf_)
                assert bound.prec == prec


def u_val(p, m):
    from lucaspf.lucas import u_at

    return u_at(p, m).value


def test_voutier_domain():
    p = validate_params(1, -3)
    with pytest.raises(DomainError):
        voutier_pair_lower(p.alpha_abs_log, 2)


def test_lemma_tables_domains():
    for omega, parity in ((7, Parity.ODD), (8, Parity.EVEN), (0, Parity.ODD)):
        with pytest.raises(DomainError):
            lemma_coefficient(1000, _logs(1000)[0], omega, parity)
    assert lemma_coefficient(1000, _logs(1000)[0], 1, Parity.ODD).lo > 0
    assert lemma_coefficient(1000, _logs(1000)[0], 7, Parity.EVEN).lo > 0


def _ctx(n, omega, parity, phi=None):
    # the context bound_context builds for a product-totient row, divisor log n
    n = Interval.coerce(n)
    logn, loglogn = _logs(n)
    if phi is None:
        phi = phi_lower_omega(n, omega, parity)
    alpha = growth_log_alpha_lower(n, logn, parity, None)
    return BoundContext(n, logn, loglogn, omega, parity, alpha, phi, logn, None)


def _refined(ctx):
    # the context of a refined-sieve row carries log(n - 1)
    return dataclasses.replace(ctx, sieve_log=(ctx.n - 1).log())


def _exact_phi_ctx(n):
    prof = arithmetic_profile(n)
    parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
    return _ctx(n, prof.omega, parity, Interval.from_int(prof.phi))


_SIEVE_LIMIT = 1_500_000
_SIEVE_GRID = sorted({
    (n, min(m, _SIEVE_LIMIT))
    for n in (150, 151, 210, 300, 997, 1200, 2310)
    for m in (n - 1, n, n + 1, 2 * n + 1, 3 * n, 10 * n, n * n // 2, n * n, 3 * n * n)
})


def test_sieve_form_carries_the_tail_of_logp_sum_upper():
    # one factorial m! with m >= n - 1: m times the lemma's tail term is at most
    # C/n log m!, since log m! >= m (log m - 1); the lemma's small-prime term is
    # not part of the cascade's form (see mn_upper_sieve_affine)
    for n, m in _SIEVE_GRID:
        ctx = _exact_phi_ctx(n)
        c, _ = mn_upper_sieve_affine(ctx)
        small = Interval.from_str("11.1" if n % 2 == 0 else "4.1") * log_int(3 * n) / (3 * n)
        tail = logp_sum_upper(m, n, ctx.parity) - small
        assert (m * tail).hi <= (c / n * _stirling(m)).lo, (n, m)


def test_refined_sieve_form_dominates_the_exact_primitive_content():
    # sum of nu_p(m!) log p over primes p = +-1 mod n, p <= m, against the
    # refined form for one factorial: C/n log m! + D
    table = sieve_upto(_SIEVE_LIMIT)
    for n, m in _SIEVE_GRID:
        c, d = mn_upper_sieve_affine(_refined(_exact_phi_ctx(n)))
        content = Interval.from_int(0)
        for q in range(n - 1, m + 1, n):
            for p in (q, q + 2):
                if p <= m and table[p]:
                    nu = sum(m // p**k for k in range(1, m.bit_length()) if p**k <= m)
                    content = content + nu * log_int(p)
        assert content.hi <= (c / n * _stirling(m) + d).lo, (n, m)


def test_refined_sieve_is_tighter():
    ctx = _ctx(1000, 3, Parity.EVEN)
    (c, d), (c0, d0) = mn_upper_sieve_affine(_refined(ctx)), mn_upper_sieve_affine(ctx)
    assert (c * ctx.log_alpha_lower + d).hi < (c0 * ctx.log_alpha_lower + d0).hi


# every n-dependent estimate, as a function of the index enclosure alone
_ESTIMATES = {
    "phi_lower_rs": lambda n: phi_lower_rs(n, _logs(n)[1]),
    "phi_lower_omega-even": lambda n: phi_lower_omega(n, 5, Parity.EVEN),
    "phi_lower_omega-odd": lambda n: phi_lower_omega(n, 5, Parity.ODD),
    # the lemma tables go by their names in the paper, g_w (odd n) and h_w (even n)
    "g_omega-w5": lambda n: lemma_coefficient(n, _logs(n)[0], 5, Parity.ODD),
    "g_omega-w6": lambda n: lemma_coefficient(n, _logs(n)[0], 6, Parity.ODD),
    "h_omega-w3": lambda n: lemma_coefficient(n, _logs(n)[0], 3, Parity.EVEN),
    "h_omega-w7": lambda n: lemma_coefficient(n, _logs(n)[0], 7, Parity.EVEN),
    "growth": lambda n: growth_log_alpha_lower(n, _logs(n)[0], Parity.ODD, None),
    "growth-sharp-even": lambda n: _sharp_growth(n, Parity.EVEN),
    "growth-sharp-odd": lambda n: _sharp_growth(n, Parity.ODD),
    "divisor-w1": lambda n: primitive_divisor_log_bound(_logs(n)[0], 1, Parity.EVEN),
    "divisor-w4": lambda n: primitive_divisor_log_bound(_logs(n)[0], 4, Parity.ODD),
    "stirling": _stirling,
}


@pytest.mark.parametrize("name", sorted(_ESTIMATES))
@pytest.mark.parametrize("n", [151, 100_001, 15_028_725])
def test_estimates_work_at_the_precision_of_the_enclosure(name, n):
    result = _ESTIMATES[name](Interval.from_int(n, 256))
    assert result.prec == 256
    assert width(result) < math.ldexp(max(1, abs(result.hi)), -180), result
    # an int is enclosed at the default 64 bits
    assert _ESTIMATES[name](n).prec == 64


@pytest.mark.parametrize("name", sorted(_ESTIMATES))
def test_estimates_over_a_range_hold_at_every_index_inside(name):
    # the value over a range lies on the safe side of the value at each index
    # inside: below it for a lower bound, above it for the upper bounds (the
    # lemma tables and the divisor, which the margin subtracts)
    estimate = _ESTIMATES[name]
    upper = name.startswith(("g_omega", "h_omega", "divisor"))
    for a, b in ((151, 400), (300, 330), (99_990, 100_400), (15_000_000, 15_050_000)):
        whole = estimate(Interval.from_int_range(a, b, 64))
        for n in (a, a + 1, (a + b) // 2, b - 1, b):
            at_n = estimate(n)
            assert at_n.hi <= whole.hi if upper else whole.lo <= at_n.lo, (a, b, n)


def test_context_takes_its_precision_from_the_enclosure():
    n = Interval.from_int(100_000, 256)
    ctx = _ctx(n, 4, Parity.EVEN)
    assert ctx.prec == 256 and ctx.n is n and ctx.n_range is None
    for part in (*mn_lower_affine(MnBoundVariant.LEMMA_HW, ctx), *mn_upper_sieve_affine(ctx)):
        assert part.prec == 256
    # over a range of indices the enclosure is the range itself
    wide = _ctx(Interval.from_int_range(100_000, 100_064, 128), 4, Parity.EVEN)
    assert wide.prec == 128 and wide.n_range is wide.n
    assert omega_upper(n, *_logs(n)) == omega_upper(100_000, *_logs(100_000))


def test_context_requires_cascade_floor():
    # BoundContext refuses an index below 150 whatever estimates it is given
    # (the public growth bound, which _ctx calls, refuses one on its own)
    ctx = _ctx(150, 2, Parity.ODD)
    with pytest.raises(DomainError):
        dataclasses.replace(ctx, n=Interval.from_int(149))


def test_the_public_growth_bound_refuses_n_below_150():
    # below the cascade's floor the bound can exceed a true solution's
    # log|alpha|: Fibonacci's U_12 = 144 = 4! 3!, where the sharp form's
    # floor 0.75 log 12 is 1.86 and log phi is 0.48. The cascade calls the
    # private body, at n >= 150 only
    log_phi = ((1 + Interval.from_int(5).sqrt()) / 2).log()
    m = Interval.from_int(11)
    at_12 = bounds._growth_log_alpha_lower(bounds._intervals(64), Interval.from_int(12), _logs(12)[0],
                                           Parity.EVEN, (m, m.log()))
    assert 1.86 < at_12.lo and at_12.hi < 1.87 and certainly_lt(log_phi, at_12)
    for n in (12, 149, Interval.from_int_range(149, 151)):
        with pytest.raises(DomainError):
            growth_log_alpha_lower(n, _logs(n)[0], Parity.EVEN, None)
    with pytest.raises(DomainError):
        _sharp_growth(12, Parity.EVEN)
    n = Interval.from_int(150)
    m_log = (n - 1, (n - 1).log())
    public = growth_log_alpha_lower(150, _logs(150)[0], Parity.EVEN, m_log)
    body = bounds._growth_log_alpha_lower(bounds._intervals(64), n, _logs(150)[0], Parity.EVEN, m_log)
    assert (public.lo, public.hi) == (body.lo, body.hi)


def test_the_reported_totient_estimate_is_the_one_the_margin_uses():
    n = 30_030
    logn, loglogn = _logs(n)
    used = {
        "exact": Interval.from_int(PHI[n]),
        "rs": phi_lower_rs(n, loglogn),
        "product": phi_lower_omega(n, 4, Parity.EVEN),
    }
    for variant in MnBoundVariant:
        for omega in (None, 4):
            ctx = bound_context(variant, "even", omega, n, n, 64)
            want = used[phi_estimate(variant, omega)]
            assert (ctx.phi_lower.lo, ctx.phi_lower.hi) == (want.lo, want.hi), (variant, omega)


UNIT = MnBoundVariant.UNIT_EQ55


def _shared_unit_margins(profile=arithmetic_profile):
    # exact_row_margins over each parity of [151, 210] at 64 bits, with
    # bounds' arithmetic_profile replaced by ``profile``: {k: (slope, margin,
    # ctx)}, ctx the context the margin of k was read from
    contexts = []
    margin = bounds._margin

    def record(variant, ctx):
        contexts.append(ctx)
        return margin(variant, ctx)

    found = {}
    with mock.patch.object(bounds, "_margin", record), \
            mock.patch.object(bounds, "arithmetic_profile", profile):
        for parity in ("even", "odd"):
            indices = [k for k in range(151, 211) if k % 2 == (parity == "odd")]
            contexts.clear()
            margins = bounds.exact_row_margins(UNIT, parity, indices, 64)
            assert len(contexts) == len(indices)
            for k, ctx in zip(indices, contexts):
                found[k] = (*margins[k], ctx)
    return found


def _parity(k):
    return "odd" if k % 2 else "even"


def _point(k):
    return bound_context(UNIT, _parity(k), arithmetic_profile(k).omega, k, k, 256)


def _encloses_its_point(k, slope, margin, ctx):
    # whether slope and margin enclose the 256-bit point evaluation at k:
    # its slope, and its margin, an affine function of log|alpha|, at the
    # growth bound of ctx
    point = _point(k)
    (a, b), (c, d) = mn_lower_affine(UNIT, point), mn_upper_sieve_affine(point)
    at_shared = (a - c) * ctx.log_alpha_lower + (b - d)
    return all(x.lo <= y.lo and y.hi <= x.hi for x, y in ((slope, a - c), (margin, at_shared)))


def test_shared_unit_margins_enclose_each_index_own():
    # each index's margin is read from its parity's shared context with its
    # own n, phi, omega and P put in as points, and encloses its 256-bit
    # point evaluation.  The shared context takes the sharp growth bound over
    # the whole parity, where the direct Stirling form is not certainly the
    # larger, so it takes the 0.75 or 1.75 log n floor, while each point
    # takes the direct form: the margin is compared as an affine function of
    # log|alpha| at the shared bound, and its lower end is at most the
    # point's own.  Every index is certified, the nearest at 210.
    found = _shared_unit_margins()
    assert sorted(found) == list(range(151, 211))
    for k, (slope, margin, ctx) in found.items():
        profile = arithmetic_profile(k)
        assert (ctx.n.lo, ctx.n.hi, ctx.omega_assumed) == (k, k, profile.omega)
        assert ctx.phi_lower.lo == ctx.phi_lower.hi == profile.phi
        divisor = log_int(max(3, profile.largest_prime_factor), 64)
        assert (ctx.primitive_divisor_log.lo, ctx.primitive_divisor_log.hi) == (divisor.lo, divisor.hi)
        shared_logn = Interval.from_int_range(*((151, 209) if k % 2 else (152, 210)), 64).log()
        assert (ctx.logn.lo, ctx.logn.hi) == (shared_logn.lo, shared_logn.hi), k
        assert _encloses_its_point(k, slope, margin, ctx), k
        assert margin.lo <= row_margin(UNIT, _parity(k), profile.omega, k, k, 256)[1].lo, k
        assert slope.signs()[0] >= 0 and margin.signs()[0] > 0, k
    nearest = min(found, key=lambda k: found[k][1].lo)
    assert nearest == 210 and 1.14 < found[210][1].lo < 1.15


@pytest.mark.parametrize("field", ["phi", "largest_prime_factor"])
@pytest.mark.parametrize("step", [-2, 2])
def test_a_neighbour_exact_term_breaks_the_enclosure(field, step):
    # the phi or P of the index step away, put in instead of the index's own
    def neighbour(k):
        own = arithmetic_profile(k)
        if not 151 <= k <= 210:
            return own
        return dataclasses.replace(own, **{field: getattr(arithmetic_profile(k + step), field)})

    found = _shared_unit_margins(neighbour)
    assert not all(_encloses_its_point(k, *found[k]) for k in found)


def test_exact_row_margins_refuse_what_they_cannot_enclose():
    with pytest.raises(DomainError):
        bounds.exact_row_margins(UNIT, "even", [152, 153], 64)
    with pytest.raises(DomainError):
        bounds.exact_row_margins(UNIT, "both", [152, 154], 64)
    with pytest.raises(DomainError):
        bounds.exact_row_margins(MnBoundVariant.REAL_EQ5, "even", [152, 154], 64)
    with pytest.raises(DomainError):
        bounds._bound_context(bounds._intervals(64), UNIT, "even", 2, 152, 160, at=162)
    # without an index to take the exact terms of, a range is refused
    with pytest.raises(DomainError):
        bound_context(UNIT, "even", 2, 152, 160, 64)


def test_growth_bound_is_below_true_requirement():
    # the growth bound must not exceed (log((rn-1)!) - log 2) / n
    for n in (150, 151, 500, 2001, 30000):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        r = 1 if parity is Parity.EVEN else 2
        true_min = (log_int(math.factorial(r * n - 1), 128) - log_int(2, 128)) / n
        assert growth_log_alpha_lower(n, _logs(n)[0], parity, None).hi <= true_min.hi
        assert _sharp_growth(n, parity).hi <= true_min.hi
    # sharp dominates the generic 0.5 log n floor
    for n in (150, 151, 100_000):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        assert (
            _sharp_growth(n, parity).lo
            > growth_log_alpha_lower(n, _logs(n)[0], parity, None).hi
        )


def test_radical_divisor_bound():
    # max(3, P(n)) <= max(3, n / primorial(omega(n)-1)) as plain integers
    for n in range(150, 100_001):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        denom = primorial(OMEGA[n] - 1, skip_two=parity is Parity.ODD)
        assert max(3, LARGEST[n]) <= max(3, n // denom), n
    # and the interval form is an upper bound for log max(3, P(n))
    for n in (150, 151, 2310, 99990):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        bound = primitive_divisor_log_bound(log_int(n), OMEGA[n], parity)
        assert bound.hi >= log_int(max(3, LARGEST[n])).lo


def test_unit_product_constant_certified():
    const = unit_product_constant()
    assert const.certainly_gt(Interval.from_str("0.278293", 256))
    assert certainly_lt(const, Interval.from_str("0.278295", 256))


# Lower-bound audit: each M_n lower-bound variant, evaluated at a concrete pair's
# true log|alpha| with the exact omega and parity of n, may not exceed the exact
# log|Phi_n(alpha, beta)| less the same divisor, which bounds log M_n from above.
_AUDIT_PAIRS = [(1, 1), (2, 1), (3, -1), (1, 2), (3, -2), (1, -2), (1, -3), (2, -3), (1, -5)]


def _audit_slack(p, n, variant, log_phi_n):
    """log|Phi_n| - divisor minus the variant's bound; negative only if the
    variant claims more than the exact value allows."""
    parity = "odd" if n % 2 else "even"
    ctx = bound_context(variant, parity, arithmetic_profile(n).omega, n, n, 64)
    a, b = mn_lower_affine(variant, ctx)
    return log_phi_n - ctx.primitive_divisor_log - (a * p.alpha_abs_log + b)


def test_sharp_lower_bounds_hold_at_every_index_of_concrete_pairs():
    # REAL_EQ5 for real roots, UNIT_EQ55 for |s| = 1, every n in [151, 1200];
    # the closest calls are under 1.2 nats (Fibonacci)
    for r, s in _AUDIT_PAIRS:
        p = validate_params(r, s)
        variants = [v for v, applies in ((MnBoundVariant.REAL_EQ5, p.roots_real),
                                         (MnBoundVariant.UNIT_EQ55, p.unit_norm)) if applies]
        if not variants:
            continue
        for n in range(151, 1201):
            log_phi_n = log_int(abs(cyclotomic_value(p, n)))
            for variant in variants:
                assert _audit_slack(p, n, variant, log_phi_n).hi >= 0, (r, s, n, variant)


def test_complex_and_lemma_lower_bounds_hold_on_a_sample():
    rng = random.Random(6)
    for r, s in _AUDIT_PAIRS:
        p = validate_params(r, s)
        for n in rng.sample(range(151, 1201), 8):
            log_phi_n = log_int(abs(cyclotomic_value(p, n)))
            lemma = MnBoundVariant.LEMMA_GW if n % 2 else MnBoundVariant.LEMMA_HW
            for variant in (MnBoundVariant.COMPLEX_TRIVIAL_F, MnBoundVariant.COMPLEX_VOUTIER128,
                            MnBoundVariant.COMPLEX_VOUTIER64, lemma):
                assert _audit_slack(p, n, variant, log_phi_n).hi >= 0, (r, s, n, variant)


# -- the dual form: values at the bottom of a range and derivatives in n -------

# a row of each variant and parity that the cascades scan over ranges, and
# three indices in its range: ones where omega_upper, for stage 1, and the
# sharp growth bound's branch hold from n - 2 to n + 2
_DUAL_ROWS = [
    (MnBoundVariant.COMPLEX_TRIVIAL_F, "both", None, (1_000, 6_715_930, 15_028_725)),
    (MnBoundVariant.COMPLEX_VOUTIER128, "both", 8, (10_000, 3_700_002, 15_000_000)),
    (MnBoundVariant.COMPLEX_VOUTIER64, "both", 6, (30_000, 1_851_039, 3_700_000)),
    (MnBoundVariant.LEMMA_HW, "even", 6, (30_030, 267_212, 1_851_038)),
    (MnBoundVariant.LEMMA_GW, "odd", 5, (15_015, 85_261, 1_851_039)),
    (MnBoundVariant.REAL_EQ5, "even", 4, (210, 248, 300_000)),
    (MnBoundVariant.REAL_EQ5, "odd", 3, (153, 1_155, 300_001)),
]


@pytest.mark.parametrize("variant, parity, omega, points", _DUAL_ROWS,
                         ids=[f"{v.value}-{p}" for v, p, _, _ in _DUAL_ROWS])
def test_dual_derivative_encloses_the_central_difference(variant, parity, omega, points):
    # at [n, n] the derivative of slope and margin contains the central
    # difference of the float estimate at n +- 1, up to its truncation error,
    # f'''/6, read off the third difference at n +- 2, and the rounding of
    # terms of size about n log n; the values are the interval margin's
    for n in points:
        duals = row_margin_dual(variant, parity, omega, n, n, 64)
        est = {k: margin_estimate(variant, parity, omega, n + k) for k in (-2, -1, 1, 2)}
        for i, (d, x) in enumerate(zip(duals, row_margin(variant, parity, omega, n, n, 64))):
            assert (d.at.lo, d.at.hi) == (d.val.lo, d.val.hi) == (x.lo, x.hi), (n, i)
            central = (est[1][i] - est[-1][i]) / 2
            third = est[2][i] - 2 * est[1][i] + 2 * est[-1][i] - est[-2][i]
            tol = abs(third) / 6 + 1e-15 * n * math.log(n)
            assert d.der.lo - tol <= central <= d.der.hi + tol, (n, i, d.der, central, tol)


def test_dual_max_takes_a_decided_branch_whole_and_else_the_hull():
    ar = bounds._duals(64)
    x = ar.index(100, 200)
    # decided over the range: the branch itself, value at 100 included
    assert ar.max(x, ar.from_int(50)) is x
    # undecided: max at the bottom and over the range, hull of derivatives
    y = 2 * x - 150  # [50, 250], derivative 2, value 50 at the bottom
    m = ar.max(x, y)
    assert (m.at.lo, m.at.hi) == (100, 100)
    assert (m.val.lo, m.val.hi) == (100, 250)
    assert (m.der.lo, m.der.hi) == (1, 2)
    # a constant branch has derivative 0
    m = ar.max(x, ar.from_int(150))
    assert (m.at.lo, m.val.lo, m.val.hi) == (150, 150, 200)
    assert (m.der.lo, m.der.hi) == (0, 1)
