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
from functools import lru_cache

from .errors import Degenerate, DomainError, NotCoprime, ZeroDiscriminant


class SeqKind(str, Enum):
    """U or V.  A kind is its seeds (`_SEEDS`) and its level: the primitive
    divisors of V_n live at level 2n, so each bound on n for V is U's over 2."""
    U = "U"
    V = "V"

    @property
    def level(self) -> int:
        return _LEVELS[self]


_LEVELS = {SeqKind.U: 1, SeqKind.V: 2}


def seq_kind(kind) -> SeqKind:
    """``kind`` ("U", "V" or a SeqKind) as a SeqKind, or DomainError."""
    if isinstance(kind, SeqKind):  # at once: the term functions read every kind here
        return kind
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


# typed: (True, 1) and (1.0, 1) equal (1, 1) as keys, but each is checked
# as given, and a float raises TypeError each time
@lru_cache(maxsize=1024, typed=True)
def validate_params(r: int, s: int) -> LucasParams:
    """Check the standing hypotheses on (r, s) and build a LucasParams.

    Cached: a valid pair is checked once per process and its LucasParams, which
    is frozen, shared; an invalid pair raises on every call."""
    if r == 0 or s == 0:
        raise Degenerate(f"(r, s) = ({r}, {s}): both parameters must be nonzero")
    if math.gcd(abs(r), abs(s)) != 1:
        raise NotCoprime(f"gcd(|{r}|, |{s}|) = {math.gcd(abs(r), abs(s))} != 1")
    delta = r * r + 4 * s
    if delta == 0:
        raise ZeroDiscriminant(f"r^2 + 4s = 0 for (r, s) = ({r}, {s})")
    # alpha/beta is a root of unity iff r^2 / (-s) = 2 + 2 cos(theta) is in
    # {0, 1, 2, 3, 4}; exact integer test, no floating point.
    q = -s
    if r * r in (0, q, 2 * q, 3 * q, 4 * q):
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


# The seeds (x_0, x_1) of each kind, from r.  The term functions read a kind
# through `seq_kind`, which converts "U" and "V" and refuses any other kind.
_SEEDS = {SeqKind.U: lambda r: (0, 1), SeqKind.V: lambda r: (2, r)}


def term_pair(p: LucasParams, kind: SeqKind, n: int) -> tuple[int, int]:
    """(x_n, x_{n+1}) of U or V from one fast doubling at n, with (x_0, x_1) the
    kind's seeds: x_n = x_0 U_{n+1} + (x_1 - r x_0) U_n and x_{n+1} =
    x_1 U_{n+1} + s x_0 U_n, as both obey the recurrence and agree at n = 0, 1."""
    x0, x1 = _SEEDS[seq_kind(kind)](p.r)
    u, v = _uv_pair(p, n)
    u1 = (p.r * u + v) // 2  # the odd step of fast doubling; the sum is even
    return x0 * u1 + (x1 - p.r * x0) * u, x1 * u1 + p.s * x0 * u


def term_pair_mod(p: LucasParams, kind: SeqKind, n: int, m: int) -> tuple[int, int]:
    """(x_n mod m, x_{n+1} mod m) of U or V, by fast doubling on (U_k, U_{k+1})
    modulo m:

        U_2k = U_k (2 U_{k+1} - r U_k),  U_2k+1 = U_{k+1}^2 + s U_k^2,

    then the seeds put in as in `term_pair`.  No step halves, so m may be
    even.  A power of two m is reduced by a mask, several times faster than %."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    x0, x1 = _SEEDS[seq_kind(kind)](p.r)
    r, s = p.r, p.s
    a, b = 0, 1  # U_0, U_1
    k = m - 1
    if m & k:
        for bit in bin(n)[2:]:
            a, b = a * (2 * b - r * a) % m, (b * b + s * a * a) % m
            if bit == "1":
                a, b = b, (r * b + s * a) % m
        return (x0 * b + (x1 - r * x0) * a) % m, (x1 * b + s * x0 * a) % m
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - r * a) & k, (b * b + s * a * a) & k
        if bit == "1":
            a, b = b, (r * b + s * a) & k
    return (x0 * b + (x1 - r * x0) * a) & k, (x1 * b + s * x0 * a) & k


def parity_period(p: LucasParams, kind: SeqKind) -> int | None:
    """The tau >= 1 with x_n even exactly when tau | n (n >= 1), or None when
    every such term is odd; the seeds stepped modulo 2 show it within three
    steps.  Coprime (r, s) are not both even, each x_0 is even, and:
    - s even, r odd: x_{n+2} = x_{n+1}, and U_1 = 1, V_1 = r are odd;
    - r even, s odd: x_{n+2} = x_n, so U = 0, 1, 0, 1, ... and V = 0, 0, ...;
    - both odd: x_{n+2} = x_{n+1} + x_n, so U and V are 0, 1, 1, 0, 1, 1, ...
    """
    x, y = _SEEDS[seq_kind(kind)](p.r)
    for n in (1, 2, 3):
        if y % 2 == 0:
            return n
        x, y = y, (p.r * y + p.s * x) % 2
    return None
