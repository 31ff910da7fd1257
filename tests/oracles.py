"""Independent reference implementations the tests compare the library with,
and the interval queries only the tests read."""

from mpmath import libmp, mp


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


def certainly_lt(x, y) -> bool:
    """Whether every point of the Interval x lies below every point of y."""
    return x.hi < y.lo
