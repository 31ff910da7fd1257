"""Rigorous interval evaluation of the explicit inequalities behind the cascade.

Every public function here takes and returns Interval enclosures; inequality
decisions are made by the pipeline on interval endpoints, never on floats.
Totient and prime-counting estimates are the classical explicit ones
(Rosser-Schoenfeld style); the cyclotomic lower bounds come in several
variants selected by MnBoundVariant.  A cascade row is its variant, parity and
omega: bound_context picks the estimates those fix, and row_margin is the
row's whole margin, so this module alone decides which estimates a margin
combines.

Every n-dependent estimate takes the index as one enclosure, [n, n] at a point
or [a, b] over a range of indices, and works at that enclosure's precision; an
int is enclosed at DEFAULT_PREC.  An estimate over [a, b] holds for every
integer index inside.  The estimates that read log n or log log n take them as
arguments, enclosures of the same index at the same precision, so that one
margin evaluation takes each log once.

The margin formulas are written once, against a small arithmetic: enclose an
index range, an int, a fraction or a decimal; the logs and constants; max,
a compare of lower ends, the floor of an upper end and the domain checks.  Its
interval form, at one precision, is the one every public function and every
verdict uses.  Its float form evaluates the same formulas at one index in
plain floats; only margin_estimate selects it, for the scan's hints, which
choose where a scan cuts and decide nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from mpmath import mpf

from .cyclotomic import arithmetic_profile
from .errors import DomainError
from .interval import DEFAULT_PREC, Interval, exp_euler_gamma, log2, log_2pi, log_int
from .primes import nth_primes, primorial


class Parity(str, Enum):
    EVEN = "even"
    ODD = "odd"


class MnBoundVariant(str, Enum):
    REAL_EQ5 = "real_eq5"
    UNIT_EQ55 = "unit_eq55"
    COMPLEX_TRIVIAL_F = "complex_trivial_f"
    COMPLEX_VOUTIER128 = "complex_voutier128"
    COMPLEX_VOUTIER64 = "complex_voutier64"
    LEMMA_GW = "lemma_gw"
    LEMMA_HW = "lemma_hw"


# -- the arithmetic of a margin evaluation -------------------------------------


class _Intervals:
    """Outward-rounded enclosures at one precision, on the interval layer's
    caches: the arithmetic of every public function and every verdict."""

    __slots__ = ("prec",)

    def __init__(self, prec: int):
        self.prec = prec

    def index(self, a: int, b: int) -> Interval:
        return Interval.from_int_range(a, b, self.prec)

    def from_int(self, k: int) -> Interval:
        return Interval.from_int(k, self.prec)

    def from_fraction(self, num: int, den: int) -> Interval:
        return Interval.from_fraction(num, den, self.prec)

    def from_str(self, s: str) -> Interval:
        return Interval.from_str(s, self.prec)

    def log_int(self, k: int) -> Interval:
        return log_int(k, self.prec)

    def log2(self) -> Interval:
        return log2(self.prec)

    def log_2pi(self) -> Interval:
        return log_2pi(self.prec)

    def exp_euler_gamma(self) -> Interval:
        return exp_euler_gamma(self.prec)

    # methods are looked up on each call, so a patched Interval is seen
    @staticmethod
    def log(x: Interval) -> Interval:
        return x.log()

    @staticmethod
    def max(x: Interval, y: Interval) -> Interval:
        return x.max(y)

    @staticmethod
    def lower_at_least(x: Interval, y: Interval) -> bool:
        return x.lower_at_least(y)

    @staticmethod
    def floor_hi(x: Interval) -> int:
        return math.floor(x.hi)

    @staticmethod
    def at_least(x: Interval, k: int) -> bool:
        return x.certainly_ge(k)


@lru_cache(maxsize=32)
def _intervals(prec: int) -> _Intervals:
    # one object per precision: the constant caches below are keyed by it
    return _Intervals(prec)


class _Floats:
    """Plain floats at one index: the arithmetic of the scan's hints, which
    only choose where a scan cuts.  An estimate, never an enclosure; only
    margin_estimate selects it."""

    @staticmethod
    def index(a: int, b: int) -> float:
        # margin_estimate takes one index: a == b
        return float(a)

    from_int = staticmethod(float)
    log = log_int = staticmethod(math.log)
    max = staticmethod(max)
    floor_hi = staticmethod(math.floor)

    @staticmethod
    def from_fraction(num: int, den: int) -> float:
        return num / den

    @staticmethod
    @lru_cache(maxsize=64)  # the decimals of the formulas, a dozen or so
    def from_str(s: str) -> float:
        return float(Fraction(s))

    @staticmethod
    def log2() -> float:
        return _LOG2

    @staticmethod
    def log_2pi() -> float:
        return _LOG_2PI

    @staticmethod
    def exp_euler_gamma() -> float:
        return _EXP_EULER_GAMMA

    @staticmethod
    def lower_at_least(x: float, y: float) -> bool:
        return x >= y

    @staticmethod
    def at_least(x: float, k: int) -> bool:
        return x >= k


_LOG2 = math.log(2)
_LOG_2PI = math.log(2 * math.pi)
_EXP_EULER_GAMMA = math.exp(0.5772156649015329)
_FLOATS = _Floats()


@dataclass(frozen=True)
class BoundContext:
    """The estimates one margin evaluation combines.

    ``n`` encloses the index, [n, n] at a point or [a, b] over a range, and its
    precision is the working precision of every term built from it; ``logn``
    and ``loglogn`` enclose log n and log log n at that precision.
    ``sieve_log`` encloses log(n - 1) for the refined sieve, None for the plain
    one (see mn_upper_sieve_affine).  A context built by margin_estimate holds
    floats at one index instead, and ``ar`` is then the float arithmetic;
    ``prec`` and ``n_range`` read an interval context only.
    """

    n: Interval
    logn: Interval
    loglogn: Interval
    omega_assumed: int
    parity: Parity
    log_alpha_lower: Interval
    phi_lower: Interval
    # log of the divisor applied to |Phi_n| when bounding M_n from below;
    # log n is the conservative default, log max(3, P(n)) when justified.
    primitive_divisor_log: Interval
    sieve_log: Optional[Interval]
    # the arithmetic of the fields; None, intervals at the precision of n
    ar: object = None

    def __post_init__(self):
        if self.ar is None:
            object.__setattr__(self, "ar", _intervals(self.n.prec))
        if not self.ar.at_least(self.n, 150):
            raise DomainError("the cascade's standing assumption is n >= 150")

    # prec and n_range are derived from n; perfbench/tracer.py reads both
    @property
    def prec(self) -> int:
        return self.n.prec

    @property
    def n_range(self) -> Optional[Interval]:
        """The enclosure when it spans more than one index, None at a point."""
        return None if self.n.lo == self.n.hi else self.n


def _in_intervals(formula):
    """The public form of a formula written against an arithmetic ``ar``: its
    first argument, an int or an Interval, is enclosed (an int at
    DEFAULT_PREC), and the formula runs in intervals at that precision."""

    def public(x, *args):
        xi = Interval.coerce(x)
        return formula(_intervals(xi.prec), xi, *args)

    public.__name__ = public.__qualname__ = formula.__name__.lstrip("_")
    public.__doc__ = formula.__doc__
    return public


# -- explicit prime-theory estimates ----------------------------------------


def _phi_lower_rs(ar, n, loglogn):
    """n / (e^gamma loglog n + 2.50637 / loglog n), a lower bound of phi(n)."""
    if not ar.at_least(n, 3):
        raise DomainError("n must be >= 3")
    return n / (ar.exp_euler_gamma() * loglogn + ar.from_str("2.50637") / loglogn)


def _phi_lower_omega(ar, n, omega: int, parity: Parity):
    """n * prod (1 - 1/p_k) over the first omega primes of the allowed set.

    The product starts at 2 for even n and at 3 for odd n.
    """
    if omega < 1:
        raise DomainError("omega must be >= 1")
    frac = _totient_fraction(omega, parity)
    return n * ar.from_fraction(frac.numerator, frac.denominator)


# the cascade's rows use omega <= 7 at either parity
@lru_cache(maxsize=64)
def _totient_fraction(omega: int, parity: Parity) -> Fraction:
    frac = Fraction(1)
    for p in nth_primes(omega, skip_two=parity is Parity.ODD):
        frac *= Fraction(p - 1, p)
    return frac


def _omega_upper(ar, n, logn, loglogn) -> int:
    """Certified upper bound for omega(n) via 1.3841 log n / loglog n."""
    if not ar.at_least(n, 26):
        raise DomainError("the explicit omega bound needs n >= 26")
    return ar.floor_hi(ar.from_str("1.3841") * logn / loglogn)


phi_lower_rs = _in_intervals(_phi_lower_rs)
phi_lower_omega = _in_intervals(_phi_lower_omega)
omega_upper = _in_intervals(_omega_upper)


def pi_ap_upper(x: int, n: int, prec: int = DEFAULT_PREC) -> Interval:
    """Brun-Titchmarsh: pi(x; n, +-1) <= 2x / (phi(n) log(x/n)) for x > n."""
    if x <= n:
        raise DomainError("Brun-Titchmarsh needs x > n")
    phi_exact = arithmetic_profile(n).phi
    logq = (Interval.from_int(x, prec) / n).log()
    return Interval.from_int(2 * x, prec) / (Interval.from_int(phi_exact, prec) * logq)


def logp_sum_upper(
    m: int, n: int, parity: Parity, prec: int = DEFAULT_PREC
) -> Interval:
    """Certified upper bound for sum_{p <= m, p = +-1 mod n} log p / (p - 1).

    Tail over p > 3n via the Abel-summation bound: 4 (log m - 1) / phi(n)
    times (1 + loglog n) for m < n^2 and (1 + loglog n / 2) for m >= n^2;
    primes below 3n contribute at most 10.1 log(3n) / 3n for even n and
    3.1 log(3n) / 3n for odd n, plus log(3n)/3n from the 1/(p-1) -> 1/p shift.
    """
    if n < 150:
        raise DomainError("valid for n >= 150")
    if m < n - 1:
        raise DomainError("m must be >= n - 1")
    phi_exact = Interval.from_int(arithmetic_profile(n).phi, prec)
    logm = log_int(m, prec)
    loglogn = log_int(n, prec).log()
    base = 4 * (logm - 1) / phi_exact
    tail = base * (1 + loglogn)
    if m >= n * n:
        alt = base * (1 + loglogn / 2)
        if alt.hi < tail.hi:
            tail = alt
    small_coeff = "11.1" if parity is Parity.EVEN else "4.1"
    small = Interval.from_str(small_coeff, prec) * log_int(3 * n, prec) / (3 * n)
    return tail + small


def voutier_pair_lower(
    log_alpha: Interval, m: int, prec: int = DEFAULT_PREC
) -> Interval:
    """Lower bound for log|alpha^m - beta^m| in the complex-conjugate case.

    Max of the two explicit linear-forms-in-logarithms bounds:
      m log|a| - (m/gcd(m,2) + log2/4 + 0.02) log|a|
      m log|a| - 73 log|a| (log(m/gcd(m,2)))^2
    The first is better for m <= 5358.
    """
    if m < 3:
        raise DomainError("valid for m >= 3")
    half = m // math.gcd(m, 2)
    b1 = m * log_alpha - (half + log2(prec) / 4 + Interval.from_str("0.02", prec)) * log_alpha
    b2 = m * log_alpha - 73 * log_alpha * log_int(half, prec) ** 2
    return b1.max(b2)


# -- lemma coefficient tables -------------------------------------------------

# g_w (odd n, w <= 6) and h_w (even n, w <= 7) are 73 (a L^2 - b L + c) + c1 n + c0,
# with L = log n for g and L = log(n/2) for h.  The quadratic (a, b, c) depends on
# omega alone; the linear tail (c1, c0) is keyed by (parity, omega) and is zero
# where absent.  Every coefficient is a string: an exact decimal or fraction.
# A margin evaluation takes the quadratic in Horner form, (A L - B) L + C, with
# A = 73a, B = 73b and C = 73c + c0 enclosed outward once per precision from
# their exact rational values, and c1 cached with them (see _lemma_constants).
LEMMA_QUADRATIC = {
    1: ("1", "0", "0"),
    2: ("1", "0", "0"),
    3: ("2", "6.8", "11.6"),
    4: ("4", "22.6", "43.1"),
    5: ("7", "49.1", "101.6"),
    6: ("11", "87.5", "194.1"),
    7: ("16", "139", "327"),
}
LEMMA_TAIL = {
    (Parity.ODD, 5): ("1/1155", "0.2"),
    (Parity.ODD, 6): ("0.0027", "3.1"),
    (Parity.EVEN, 5): ("0.0005", "0.2"),
    (Parity.EVEN, 6): ("0.002", "0.97"),
    (Parity.EVEN, 7): ("0.0032", "3.1"),
}
# f(n) = a log^2 n - b log n + c of the two Voutier variants
VOUTIER_QUADRATIC = {
    MnBoundVariant.COMPLEX_VOUTIER128: ("128", "1886", "7913"),
    MnBoundVariant.COMPLEX_VOUTIER64: ("64", "775", "2718"),
}


def _horner(coeffs: tuple[str, str, str], c0: str, ar) -> tuple:
    # (A, B, C) = (73a, 73b, 73c + c0), each enclosed once from its exact value
    a, b, c = (Fraction(x) for x in coeffs)
    return tuple(ar.from_fraction(x.numerator, x.denominator)
                 for x in (73 * a, 73 * b, 73 * c + Fraction(c0)))


# each cache below holds a few dozen entries for each arithmetic: the floats,
# and intervals at each precision of the ladder
@lru_cache(maxsize=256)
def _lemma_constants(omega: int, parity: Parity, ar) -> tuple:
    # (A, B, C, c1) of g_w or h_w; c1 is None where the table has no linear tail
    c1, c0 = LEMMA_TAIL.get((parity, omega), (None, "0"))
    return (*_horner(LEMMA_QUADRATIC[omega], c0, ar),
            None if c1 is None else ar.from_str(c1))


@lru_cache(maxsize=64)
def _voutier_constants(variant: MnBoundVariant, ar) -> tuple:
    # (A, B, C) of 73 f(L) + 1: the 1 is the one that phi(n) - 1 subtracts
    return _horner(VOUTIER_QUADRATIC[variant], "1", ar)


@lru_cache(maxsize=256)
def _log2_times(k: int, ar):
    """2^k log 2 (k may be negative), enclosed once per arithmetic."""
    return ar.log2() * Fraction(2) ** k


def _lemma_coefficient(ar, n, logn, omega: int, parity: Parity):
    """g_w(n) for odd n, h_w(n) for even n, w = omega: what the lemma rows
    subtract from phi(n) - 1 in the coefficient of log|alpha|."""
    max_omega = 7 if parity is Parity.EVEN else 6
    if not 1 <= omega <= max_omega:
        raise DomainError(f"{parity.value} n has omega <= {max_omega} in the cascade's regime")
    a, b, c, c1 = _lemma_constants(omega, parity, ar)
    logx = logn if parity is Parity.ODD else logn - ar.log2()
    value = (a * logx - b) * logx + c
    return value if c1 is None else value + c1 * n


lemma_coefficient = _in_intervals(_lemma_coefficient)


# -- certified lower bounds for log M_n ---------------------------------------


def mn_lower_affine(
    variant: MnBoundVariant, ctx: BoundContext
) -> tuple[Interval, Interval]:
    """(A, B) with mn_lower = A * log|alpha| + B; used for slope certification.

    The terms that depend on the row alone come from per-precision caches or
    are int and fraction operands, which the interval layer encloses once per
    precision: no evaluation does Fraction arithmetic.  Evaluated in the
    arithmetic of ``ctx``."""
    ln = ctx.logn
    phi = ctx.phi_lower
    w = ctx.omega_assumed
    ar = ctx.ar
    if variant is MnBoundVariant.REAL_EQ5:
        return phi - 2 ** (w - 1), -_log2_times(w - 1, ar) - ctx.primitive_divisor_log
    if variant is MnBoundVariant.UNIT_EQ55:
        return phi, -ar.from_str("1.28") - ctx.primitive_divisor_log
    if variant is MnBoundVariant.COMPLEX_TRIVIAL_F:
        return (
            phi - 1 - 2 ** (w - 1) * 73 * ln**2,
            -_log2_times(w - 1, ar) - ctx.primitive_divisor_log,
        )
    if variant in (MnBoundVariant.COMPLEX_VOUTIER128, MnBoundVariant.COMPLEX_VOUTIER64):
        a, b, c = _voutier_constants(variant, ar)
        return (
            phi - ((a * ln - b) * ln + c),
            -_log2_times(w - 1, ar) - ctx.primitive_divisor_log,
        )
    if variant is MnBoundVariant.LEMMA_GW:
        if ctx.parity is not Parity.ODD:
            raise DomainError("lemma_gw applies to odd n")
        # -(1 + 2^w / 4w), as one fraction
        quarter = ar.from_fraction(-(4 * w + 2**w), 4 * w)
        return (
            phi - 1 - _lemma_coefficient(ar, ctx.n, ln, w, ctx.parity),
            quarter * ln - _log2_times(w - 2, ar),
        )
    if variant is MnBoundVariant.LEMMA_HW:
        if ctx.parity is not Parity.EVEN:
            raise DomainError("lemma_hw applies to even n")
        return (
            phi - 1 - _lemma_coefficient(ar, ctx.n, ln, w, ctx.parity),
            -ln - _log2_times(w - 2, ar),
        )
    raise DomainError(f"unknown variant {variant}")


def mn_upper_sieve_affine(ctx: BoundContext) -> tuple[Interval, Interval]:
    """(C, D) with C * log|alpha| + D an upper bound for log M_n.

    The sieve bound is (4 (1 + loglog n) / phi(n)) n log|alpha|.  With log(n-1)
    in ``ctx.sieve_log`` the single guaranteed factorial argument >= n - 1 is
    accounted for, replacing n log|alpha| by n log|alpha| - (log(n-1) - 1).

    From logp_sum_upper: if U_n = +-prod m_i!, the primes of M_n are +-1 mod n
    and nu_p(m!) <= m / (p - 1), so log M_n <= sum_i m_i S(m_i, n) with S the
    sum that lemma bounds.  m times its tail 4 (log m - 1)(1 + loglog n) / phi(n)
    is at most 4 (1 + loglog n) / phi(n) log m!, as log m! >= m (log m - 1),
    and sum_i log m_i! = log|U_n| stands in for n log|alpha|.  Not carried:
    the lemma's small-prime term (11.1 or 4.1 log(3n) / 3n, times m); the
    refined offset exceeds the slack 0.5 log(2 pi m) of that Stirling step
    (n >= 48); log|U_n| - n log|alpha| reaches log(2 / sqrt 3) for complex
    roots.  The tests check the tail step, and the refined form against the
    exact content of primes +-1 mod n in m!, on a grid.
    """
    ni = ctx.n
    front = 4 * (1 + ctx.loglogn) / ctx.phi_lower
    c = front * ni
    if ctx.sieve_log is not None:
        return c, -front * (ctx.sieve_log - 1)
    return c, ctx.ar.from_int(0)


# -- worst-case growth bounds for log|alpha| ----------------------------------


def _stirling_log_factorial_sqrt(ar, m, logm):
    """Enclosure of 0.5 log(2 pi m) + m (log m - 1) <= log m! (Robbins), at
    the precision of the enclosure m, as 0.5 log 2 pi + (m + 0.5) log m - m
    from the enclosure ``logm`` of log m and the cached log 2 pi: no log taken."""
    if not ar.at_least(m, 1):
        raise DomainError("m must be at least 1")
    half = ar.from_str("0.5")
    return half * ar.log_2pi() + (m + half) * logm - m


def _growth_log_alpha_lower(ar, n, logn, parity: Parity, m_log: Optional[tuple]):
    """Minimum permitted log|alpha| when U_n is a factorial product.

    The largest factorial argument is at least m = rn - 1 (r = 1 even, r = 2
    odd) so 2 |alpha|^n >= m!.  With ``m_log`` None this is the cascade's
    0.5 log n; given the pair (m, log m), the sharp bound: the direct Stirling
    form, with the parity-aware 0.75/1.75 log n as a floor.
    """
    if m_log is None:
        return logn / 2
    direct = (_stirling_log_factorial_sqrt(ar, *m_log) - ar.log2()) / n
    floor = ar.from_str("0.75" if parity is Parity.EVEN else "1.75") * logn
    return direct if ar.lower_at_least(direct, floor) else floor


stirling_log_factorial_sqrt = _in_intervals(_stirling_log_factorial_sqrt)
growth_log_alpha_lower = _in_intervals(_growth_log_alpha_lower)


def unit_product_constant(prec: int = 256) -> Interval:
    """Enclosure of prod_{d>=1} (1 - g^-2d)(1 + g^-2d)^-1, g the golden ratio.

    The finite part is evaluated in intervals; the tail is bounded by
    prod_{d>D} (1 - q^d)^2 >= 1 - 2 q^(D+1) / (1 - q).
    """
    sqrt5 = Interval.from_int(5, prec).sqrt()
    golden = (1 + sqrt5) / 2
    q = 1 / golden**2
    depth = max(8, prec // 2)
    prod = Interval.from_int(1, prec)
    qd = q
    for _ in range(depth):
        prod = prod * (1 - qd) / (1 + qd)
        qd = qd * q
    tail_lo = 1 - 2 * qd / (1 - q)
    if tail_lo.lo <= 0:
        raise DomainError("tail bound not contractive; raise depth")
    tail = Interval(tail_lo.lo, mpf(1), prec)
    return prod * tail


def _primitive_divisor_log_bound(ar, logn, omega: int, parity: Parity):
    """Enclosure of max(log 3, log n - log primorial(omega - 1)) over the
    enclosure ``logn`` of log n, at its precision.

    For n with omega distinct prime factors, P(n) is at most n divided by the
    product of the omega - 1 smallest admissible primes, and the primitive
    part of U_n is at least |Phi_n| / max(3, P(n)).  log_int caches the logs
    of 3 and of the primorial, so the bound takes no log of its own.
    """
    denom = primorial(omega - 1, skip_two=parity is Parity.ODD)
    return ar.max(logn - ar.log_int(denom), ar.log_int(3))


primitive_divisor_log_bound = _in_intervals(_primitive_divisor_log_bound)


# -- the margin of a cascade row ----------------------------------------------


def phi_estimate(variant: MnBoundVariant, omega: Optional[int]) -> str:
    """The totient estimate a row uses, as its report names it: "exact" phi(n)
    on the unit rows; else "rs", the Rosser-Schoenfeld bound, when omega is
    None (the row takes omega_upper), and "product" over the first omega
    admissible primes otherwise."""
    if variant is MnBoundVariant.UNIT_EQ55:
        return "exact"
    return "rs" if omega is None else "product"


def _bound_context(ar, variant: MnBoundVariant, parity: str, omega: Optional[int],
                   n_lo: int, n_hi: int) -> BoundContext:
    """The estimates of a row over [n_lo, n_hi], in the arithmetic ``ar``,
    chosen by its variant.

    ``parity`` is "even", "odd" or "both"; ``omega`` None takes omega_upper.
    REAL_EQ5: the omega-prime totient product, the sharp growth bound, the
    radical divisor bound and the refined sieve.  UNIT_EQ55: exact phi(n) and
    P(n) with the sharp growth bound.  Every complex and lemma variant: the
    totient bound phi_estimate names; the half-log growth bound; divisor n.
    The sharp rows take log(rn - 1) once (r = 1 even, r = 2 odd), which on
    even rows is also the sieve's log(n - 1).
    """
    par = Parity.EVEN if parity == "both" else Parity(parity)
    n = ar.index(n_lo, n_hi)
    logn = ar.log(n)
    loglogn = ar.log(logn)
    w = omega if omega is not None else _omega_upper(ar, n, logn, loglogn)

    divisor = logn
    phi_kind = phi_estimate(variant, omega)
    if phi_kind == "exact":
        if n_hi > n_lo:
            raise DomainError("exact phi(n) and P(n) are pointwise only")
        profile = arithmetic_profile(n_lo)
        phi = ar.from_int(profile.phi)
        divisor = ar.log_int(max(3, profile.largest_prime_factor))
    elif phi_kind == "rs":
        phi = _phi_lower_rs(ar, n, loglogn)
    else:
        phi = _phi_lower_omega(ar, n, w, par)

    m_log = sieve_log = None
    if variant in (MnBoundVariant.REAL_EQ5, MnBoundVariant.UNIT_EQ55):
        if parity == "both":
            raise DomainError("the sharp growth bound is parity specific")
        m = n - 1 if par is Parity.EVEN else 2 * n - 1
        m_log = (m, ar.log(m))
    alpha = _growth_log_alpha_lower(ar, n, logn, par, m_log)

    if variant is MnBoundVariant.REAL_EQ5:
        divisor = _primitive_divisor_log_bound(ar, logn, w, par)
        sieve_log = m_log[1] if par is Parity.EVEN else ar.log(n - 1)

    return BoundContext(n, logn, loglogn, w, par, alpha, phi, divisor, sieve_log, ar)


def bound_context(variant: MnBoundVariant, parity: str, omega: Optional[int],
                  n_lo: int, n_hi: int, prec: int) -> BoundContext:
    """The estimates of a row over [n_lo, n_hi] in intervals at prec (see
    _bound_context)."""
    return _bound_context(_intervals(prec), variant, parity, omega, n_lo, n_hi)


def _margin(variant: MnBoundVariant, ctx: BoundContext) -> tuple:
    """(slope, margin) of mn_lower - mn_upper as an affine function of
    log|alpha|, evaluated at the minimal permitted log|alpha|, in the
    arithmetic of ``ctx``."""
    a, b = mn_lower_affine(variant, ctx)
    c, d = mn_upper_sieve_affine(ctx)
    slope = a - c
    return slope, slope * ctx.log_alpha_lower + (b - d)


def row_margin(variant: MnBoundVariant, parity: str, omega: Optional[int],
               n_lo: int, n_hi: int, prec: int) -> tuple[Interval, Interval]:
    """(slope, margin) of mn_lower - mn_upper as an affine function of
    log|alpha|, evaluated at the minimal permitted log|alpha|: the margin of
    the row (variant, parity, omega) over [n_lo, n_hi] at prec."""
    return _margin(variant, bound_context(variant, parity, omega, n_lo, n_hi, prec))


def margin_estimate(variant: MnBoundVariant, parity: str, omega: Optional[int],
                    n: int) -> tuple[float, float]:
    """(slope, margin) of the row at the index n, the formulas of row_margin
    evaluated in plain floats: an estimate for the scan's hints, about 10
    microseconds where a 64-bit interval evaluation takes about 100.  It
    encloses nothing, and no verdict may read it."""
    return _margin(variant, _bound_context(_FLOATS, variant, parity, omega, n, n))
