"""Independent reference implementations the tests compare the library with."""


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
