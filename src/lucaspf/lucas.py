"""Validated Lucas-sequence parameters and exact term evaluation.

For coprime nonzero integers (r, s) with nonzero discriminant and
non-degenerate root ratio, the sequences are

    U_0 = 0, U_1 = 1, U_{n+2} = r U_{n+1} + s U_n
    V_0 = 2, V_1 = r, V_{n+2} = r V_{n+1} + s V_n

with characteristic roots alpha, beta of x^2 - r x - s, ordered so that
|alpha| >= |beta|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import Degenerate, DomainError, NotCoprime, ZeroDiscriminant


class SeqKind(str, Enum):
    U = "U"
    V = "V"


def seq_kind(kind) -> SeqKind:
    """``kind`` ("U", "V" or a SeqKind) as a SeqKind, or DomainError.  The
    term functions test ``kind is SeqKind.U`` and ``kind is SeqKind.V`` first,
    which the equal strings fail, and call this only when neither holds."""
    try:
        return SeqKind(kind)
    except ValueError:
        raise DomainError(f"kind must be U or V, not {kind!r}") from None


@dataclass(frozen=True)
class SeqTerm:
    index: int
    value: int
    kind: SeqKind


@dataclass(frozen=True)
class LucasParams:
    r: int
    s: int
    delta: int
    roots_real: bool
    unit_norm: bool

    @property
    def alpha_abs_log(self):
        """Interval enclosure of log|alpha| at DEFAULT_PREC, computed on each
        read. The interval layer is imported here: no exact path loads mpmath."""
        from .interval import DEFAULT_PREC, Interval

        prec = DEFAULT_PREC
        if self.roots_real:
            # |alpha| = (|r| + sqrt(delta)) / 2
            root = Interval.from_int(self.delta, prec).sqrt()
            log_a = ((Interval.from_int(abs(self.r), prec) + root) / 2).log()
        else:
            # complex conjugate roots: |alpha|^2 = |s|
            log_a = Interval.from_int(abs(self.s), prec).log() / 2
        if log_a.lo <= 0:
            # cannot happen for integral non-degenerate (r, s); guards rigor
            raise Degenerate(f"|alpha| <= 1 for (r, s) = ({self.r}, {self.s})")
        return log_a


def validate_params(r: int, s: int) -> LucasParams:
    """Check the standing hypotheses on (r, s) and build a LucasParams."""
    if r == 0 or s == 0:
        raise Degenerate(f"(r, s) = ({r}, {s}): both parameters must be nonzero")
    if math.gcd(abs(r), abs(s)) != 1:
        raise NotCoprime(f"gcd(|{r}|, |{s}|) = {math.gcd(abs(r), abs(s))} != 1")
    delta = r * r + 4 * s
    if delta == 0:
        raise ZeroDiscriminant(f"r^2 + 4s = 0 for (r, s) = ({r}, {s})")
    # alpha/beta is a root of unity iff r^2 / (-s) = 2 + 2 cos(theta) is in
    # {0, 1, 2, 3, 4}; exact integer test, no floating point.
    if any(r * r == k * (-s) for k in (0, 1, 2, 3, 4)):
        raise Degenerate(
            f"r^2 = {r * r} lies in {{0, -s, -2s, -3s, -4s}}: "
            "alpha/beta is a root of unity"
        )
    return LucasParams(r=r, s=s, delta=delta, roots_real=delta > 0, unit_norm=abs(s) == 1)


def _uv_pair(p: LucasParams, n: int) -> tuple[int, int]:
    """(U_n, V_n) by fast doubling on the pair, with Q = -s, D = delta."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    r, q, d = p.r, -p.s, p.delta
    u, v, qk = 0, 2, 1  # U_0, V_0, Q^0
    for bit in bin(n)[2:]:
        # k -> 2k
        u, v = u * v, v * v - 2 * qk
        qk = qk * qk
        if bit == "1":
            # 2k -> 2k+1; both sums are even
            u, v = (r * u + v) // 2, (d * u + r * v) // 2
            qk *= q
    return u, v


def u_at(p: LucasParams, n: int) -> SeqTerm:
    u, _ = _uv_pair(p, n)
    return SeqTerm(index=n, value=u, kind=SeqKind.U)


def v_at(p: LucasParams, n: int) -> SeqTerm:
    _, v = _uv_pair(p, n)
    return SeqTerm(index=n, value=v, kind=SeqKind.V)


def term_pair(p: LucasParams, kind: SeqKind, n: int) -> tuple[int, int]:
    """(x_n, x_{n+1}) of U or V from one fast doubling at n."""
    if kind is not SeqKind.U and kind is not SeqKind.V:
        kind = seq_kind(kind)
    u, v = _uv_pair(p, n)
    # the odd step of fast doubling gives x_{n+1}; both sums are even
    if kind is SeqKind.U:
        return u, (p.r * u + v) // 2
    return v, (p.delta * u + p.r * v) // 2


def term_pair_mod(p: LucasParams, kind: SeqKind, n: int, m: int) -> tuple[int, int]:
    """(x_n mod m, x_{n+1} mod m) of U or V, by fast doubling on (U_k, U_{k+1})
    modulo m:

        U_2k = U_k (2 U_{k+1} - r U_k),  U_2k+1 = U_{k+1}^2 + s U_k^2,

    and V_n = 2 U_{n+1} - r U_n.  No step halves, so m may be even.  A power
    of two m is reduced by a mask, several times faster than %."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    if kind is not SeqKind.U and kind is not SeqKind.V:
        kind = seq_kind(kind)
    r, s = p.r, p.s
    a, b = 0, 1  # U_0, U_1
    k = m - 1
    if m & k:
        for bit in bin(n)[2:]:
            a, b = a * (2 * b - r * a) % m, (b * b + s * a * a) % m
            if bit == "1":
                a, b = b, (r * b + s * a) % m
    else:
        for bit in bin(n)[2:]:
            a, b = a * (2 * b - r * a) & k, (b * b + s * a * a) & k
            if bit == "1":
                a, b = b, (r * b + s * a) & k
    if kind is SeqKind.U:
        return a, b
    # V_{n+1} = 2 U_{n+2} - r U_{n+1} = r U_{n+1} + 2 s U_n
    a, b = 2 * b - r * a, r * b + 2 * s * a
    return (a % m, b % m) if m & k else (a & k, b & k)


def parity_period(p: LucasParams, kind: SeqKind) -> int | None:
    """The tau >= 1 with x_n even exactly when tau | n (n >= 1), or None when
    every such term is odd.

    Coprime (r, s) are not both even, and modulo 2 the recurrence reads:
    - s even, r odd: x_{n+2} = x_{n+1}, and U_1 = 1, V_1 = r are odd;
    - r even, s odd: x_{n+2} = x_n, so U = 0, 1, 0, 1, ... and V = 0, 0, ...;
    - both odd: x_{n+2} = x_{n+1} + x_n, so U and V are 0, 1, 1, 0, 1, 1, ...
    """
    if kind is not SeqKind.U and kind is not SeqKind.V:
        kind = seq_kind(kind)
    if p.s % 2 == 0:
        return None
    if p.r % 2 == 0:
        return 2 if kind is SeqKind.U else 1
    return 3
