"""Directed-rounding interval scalars.

Every analytic quantity in the package (logs, totient bounds, stage
inequalities) is carried as an enclosure [lo, hi] so that comparisons can be
machine-certified.  The arithmetic is delegated to mpmath's ``iv`` context,
which rounds outward at a configurable binary precision.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction

from mpmath import iv, mp

from .errors import DomainError, Undecidable

DEFAULT_PREC = 64
PREC_LADDER = (64, 128, 256, 512)


@contextlib.contextmanager
def _prec(bits: int):
    old_iv, old_mp = iv.prec, mp.prec
    iv.prec = bits
    mp.prec = bits + 16
    try:
        yield
    finally:
        iv.prec, mp.prec = old_iv, old_mp


def _endpoints(x):
    # raw mpf endpoints, no re-rounding
    a, b = x._mpi_
    return mp.make_mpf(a), mp.make_mpf(b)


class Interval:
    """Closed real enclosure [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec: int = DEFAULT_PREC):
        if not lo <= hi:
            raise DomainError(f"invalid interval endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.prec = prec

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int = DEFAULT_PREC) -> "Interval":
        with _prec(prec):
            lo, hi = _endpoints(iv.mpf(n))
        return cls(lo, hi, prec)

    @classmethod
    def from_fraction(cls, num: int, den: int, prec: int = DEFAULT_PREC) -> "Interval":
        if den == 0:
            raise DomainError("zero denominator")
        with _prec(prec):
            lo, hi = _endpoints(iv.mpf(num) / iv.mpf(den))
        return cls(lo, hi, prec)

    @classmethod
    def from_str(cls, s: str, prec: int = DEFAULT_PREC) -> "Interval":
        with _prec(prec):
            lo, hi = _endpoints(iv.mpf(s))
        return cls(lo, hi, prec)

    @classmethod
    def coerce(cls, x, prec: int = DEFAULT_PREC) -> "Interval":
        if isinstance(x, Interval):
            return x
        if isinstance(x, int):
            return cls.from_int(x, prec)
        if isinstance(x, Fraction):
            return cls.from_fraction(x.numerator, x.denominator, prec)
        # a float is not an exact point: 0.1 is not one tenth
        raise DomainError(f"cannot enclose {type(x).__name__} {x!r}; use int or Fraction")

    # -- iv plumbing -------------------------------------------------------

    def _iv(self):
        return iv.mpf([self.lo, self.hi])

    @classmethod
    def _wrap(cls, x, prec: int) -> "Interval":
        lo, hi = _endpoints(x)
        return cls(lo, hi, prec)

    def _binop(self, other, op):
        other = Interval.coerce(other, self.prec)
        p = max(self.prec, other.prec)
        with _prec(p):
            r = op(self._iv(), other._iv())
        return Interval._wrap(r, p)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return Interval.coerce(other, self.prec) - self

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return Interval.coerce(other, self.prec) / self

    def __neg__(self):
        return Interval(-self.hi, -self.lo, self.prec)

    def __pow__(self, k: int):
        with _prec(self.prec):
            r = self._iv() ** int(k)
        return Interval._wrap(r, self.prec)

    # -- elementary functions ------------------------------------------------

    def log(self) -> "Interval":
        if self.lo <= 0:
            raise DomainError("log of non-positive interval")
        with _prec(self.prec):
            r = iv.log(self._iv())
        return Interval._wrap(r, self.prec)

    def exp(self) -> "Interval":
        with _prec(self.prec):
            r = iv.exp(self._iv())
        return Interval._wrap(r, self.prec)

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise DomainError("sqrt of negative interval")
        with _prec(self.prec):
            r = iv.sqrt(self._iv())
        return Interval._wrap(r, self.prec)

    # -- queries ----------------------------------------------------------

    def width(self):
        return self.hi - self.lo

    def certainly_gt(self, other) -> bool:
        other = Interval.coerce(other, self.prec)
        return self.lo > other.hi

    def certainly_lt(self, other) -> bool:
        other = Interval.coerce(other, self.prec)
        return self.hi < other.lo

    def __repr__(self):
        return f"Interval({self.lo!s}, {self.hi!s}, prec={self.prec})"


# -- rigorous log of arbitrary-size integers --------------------------------


def log_int(n: int, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of log(n) for a positive integer of any size."""
    if n <= 0:
        raise DomainError("log_int requires a positive integer")
    shift = max(0, n.bit_length() - prec)
    m = n >> shift
    with _prec(prec):
        body = iv.log(iv.mpf([m, m + 1 if shift else m]))
        r = body + shift * iv.log(iv.mpf(2))
    return Interval._wrap(r, prec)


def log2(prec: int = DEFAULT_PREC) -> Interval:
    with _prec(prec):
        return Interval._wrap(iv.log(iv.mpf(2)), prec)


def euler_gamma(prec: int = DEFAULT_PREC) -> Interval:
    with _prec(prec):
        return Interval._wrap(+iv.euler, prec)


def pi(prec: int = DEFAULT_PREC) -> Interval:
    with _prec(prec):
        return Interval._wrap(+iv.pi, prec)


def decide_gt(make_lhs, make_rhs, start_prec: int = DEFAULT_PREC) -> bool:
    """Certify lhs > rhs or lhs <= rhs, escalating precision as needed.

    ``make_lhs``/``make_rhs`` are callables taking a precision and returning
    Intervals, so the whole expression is rebuilt tighter on escalation.
    Raises Undecidable if the comparison stays ambiguous at the top of
    PREC_LADDER.
    """
    for p in PREC_LADDER:
        if p < start_prec:
            continue
        lhs = make_lhs(p)
        rhs = make_rhs(p)
        if lhs.certainly_gt(rhs):
            return True
        if lhs.hi <= rhs.lo:
            return False
    raise Undecidable("interval comparison undecided at maximum precision")
