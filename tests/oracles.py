"""Independent reference implementations the tests compare the library with,
and the interval queries only the tests read."""

import math

from mpmath import libmp, mp

from lucaspf.bounds import Parity
from lucaspf.cyclotomic import arithmetic_profile
from lucaspf.errors import DomainError
from lucaspf.factorials import REJECT_REASONS, PFWitness, pf_decompose, pf_fast_reject
from lucaspf.interval import DEFAULT_PREC, Interval, log2, log_int
from lucaspf.lucas import SeqKind, _uv_pair
from lucaspf.search import SearchHit, _digit_count


def iter_terms(p, kind, lo: int):
    """The terms x_lo, x_lo+1, ... of U or V, without end: one fast-doubling
    seed at lo, then the three-term recurrence at every index."""
    u, v = _uv_pair(p, lo)
    # the odd step of fast doubling gives x_{lo+1}; both sums are even
    if kind is SeqKind.U:
        x, y = u, (p.r * u + v) // 2
    else:
        x, y = v, (p.delta * u + p.r * v) // 2
    while True:
        yield x
        x, y = y, p.r * y + p.s * x


def plain_outcomes(p, kind, lo: int, hi: int):
    """Per index lo..hi: the hit or the reject reason of a search that steps
    every term exactly (`iter_terms`), then tests +-1, `pf_fast_reject` and
    `pf_decompose` in turn; None for an even term that is not a member."""
    for n, value in zip(range(lo, hi + 1), iter_terms(p, kind, lo)):
        if value in (1, -1):
            yield SearchHit(n, kind, 1, PFWitness(1, ()), trivial=True)
            continue
        reason = pf_fast_reject(value)
        if reason is None:
            witnesses = pf_decompose(value, limit=1)
            reason = SearchHit(n, kind, _digit_count(value), witnesses[0], trivial=False) if witnesses else None
        yield reason


def plain_search(outcomes) -> tuple[list, dict]:
    """The hits and reject counts of a span of `plain_outcomes`, in the form
    `search._search_run` returns."""
    hits, rejects = [], dict.fromkeys(REJECT_REASONS, 0)
    for o in outcomes:
        if isinstance(o, str):
            rejects[o] += 1
        elif o is not None:
            hits.append(o)
    return hits, rejects


def term_pairs_matrix_mod(p, n: int, m: int) -> dict:
    """{kind: (x_n mod m, x_{n+1} mod m)} for U and V, by the matrix power
    [[r, s], [1, 0]]^n mod m applied to (x_1, x_0) of each: no fast doubling,
    and every product is of two residues below m."""

    def mul(x, y):
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        return ((a * e + b * g) % m, (a * f + b * h) % m), ((c * e + d * g) % m, (c * f + d * h) % m)

    power, base = ((1, 0), (0, 1)), ((p.r % m, p.s % m), (1, 0))
    while n:
        if n & 1:
            power = mul(power, base)
        base = mul(base, base)
        n >>= 1
    (a, b), (c, d) = power
    firsts = {SeqKind.U: (1, 0), SeqKind.V: (p.r, 2)}
    return {kind: ((c * x1 + d * x0) % m, (a * x1 + b * x0) % m) for kind, (x1, x0) in firsts.items()}


def u_naive(p, n: int) -> int:
    """U_n by the three-term recurrence."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, p.r * b + p.s * a
    return a


def v_naive(p, n: int) -> int:
    """V_n by the three-term recurrence."""
    a, b = 2, p.r
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, p.r * b + p.s * a
    return b


def sieve_upto(limit: int) -> bytearray:
    """Byte table t with t[k] = 1 iff k is prime, 0 <= k <= limit (Eratosthenes)."""
    if limit < 1:
        return bytearray(limit + 1)
    t = bytearray([1]) * (limit + 1)
    t[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if t[p]:
            t[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        p += 1
    return t


def width(x):
    """hi - lo of an Interval, rounded up at the interval's precision."""
    return mp.make_mpf(libmp.mpf_sub(x.hi._mpf_, x.lo._mpf_, x.prec, libmp.round_ceiling))


def mid_float(x) -> float:
    """A float near the midpoint of the Interval x, read from the raw
    endpoints: an estimate, never an enclosure."""
    lo, hi = x._mpi
    return (libmp.to_float(lo) + libmp.to_float(hi)) / 2


def certainly_lt(x, y) -> bool:
    """Whether every point of the Interval x lies below every point of y."""
    return x.hi < y.lo


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
