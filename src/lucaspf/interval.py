"""Directed-rounding interval scalars.

Every analytic quantity in the package (logs, totient bounds, stage
inequalities) is carried as an enclosure [lo, hi] so that comparisons can be
machine-certified.  Each operation is one call into mpmath's raw interval
library (``mpmath.libmp``) at an explicit binary precision, rounding the lower
endpoint down and the upper endpoint up.  No mpmath context precision is read
or written, so results do not depend on the caller's mpmath settings.

An Interval holds the raw libmp endpoint pair that every ``mpi_*`` call takes
and returns, plus its precision.  Operations pass raw pairs to libmp and wrap
the result as is; the mpf endpoints ``lo`` and ``hi`` are built only when they
are read.  Intervals are immutable: ``lo``, ``hi`` and ``prec`` are read-only,
and no operation changes an operand.

Constructors that take caller data check it: ``Interval(lo, hi, prec)`` wants
mpf endpoints with lo <= hi, ``from_int_range(a, b)`` wants a <= b, and
``from_str`` checks the order of the enclosure it parses.  Every other result
(``from_int``, ``from_fraction``, the arithmetic, log, exp, sqrt, the
constants) is a ``libmp`` interval or integer rounding, ordered by
construction, and is wrapped as is without a second check.

The enclosures of int and Fraction operands, the parse of a decimal string,
the constants Euler's gamma, e^gamma, pi and log 2 pi, and the log of an
integer below 2^prec (a primorial, a prime factor) are computed once per
precision and kept in bounded caches as raw endpoint tuples; every call wraps
them in a fresh Interval.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import libmp, mp, mpf

from .errors import DomainError

DEFAULT_PREC = 64
PREC_LADDER = (64, 128, 256, 512)

# wraps a raw mpf tuple as is: no rounding, no context precision involved
_mpf = mp.make_mpf
_sign = libmp.mpf_sign
_new = object.__new__
# entries of each per-precision cache: a few dozen strings, operands or
# integer logs, or one constant, at each precision of PREC_LADDER and a few
# others
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _int_mpi(n: int, prec: int):
    return (
        libmp.from_int(n, prec, libmp.round_floor),
        libmp.from_int(n, prec, libmp.round_ceiling),
    )


@lru_cache(maxsize=_CACHE_SIZE)
def _fraction_mpi(num: int, den: int, prec: int):
    return libmp.mpi_div(_int_mpi(num, prec), _int_mpi(den, prec), prec)


def _operand_mpi(x, prec: int):
    """Raw enclosure of an int or Fraction operand at prec."""
    if isinstance(x, int):
        return _int_mpi(x, prec)
    if isinstance(x, Fraction):
        return _fraction_mpi(x.numerator, x.denominator, prec)
    # a float is not an exact point: 0.1 is not one tenth
    raise DomainError(f"cannot enclose {type(x).__name__} {x!r}; use int or Fraction")


@lru_cache(maxsize=_CACHE_SIZE)
def _constant_mpi(f, prec: int):
    return f(prec, libmp.round_floor), f(prec, libmp.round_ceiling)


@lru_cache(maxsize=_CACHE_SIZE)
def _exp_euler_gamma_mpi(prec: int):
    return libmp.mpi_exp(_constant_mpi(libmp.mpf_euler, prec), prec)


@lru_cache(maxsize=_CACHE_SIZE)
def _log_mpi(n: int, prec: int):
    return libmp.mpi_log(_int_mpi(n, prec), prec)


@lru_cache(maxsize=_CACHE_SIZE)
def _log_2pi_mpi(prec: int):
    two_pi = libmp.mpi_mul(_int_mpi(2, prec), _constant_mpi(libmp.mpf_pi, prec), prec)
    return libmp.mpi_log(two_pi, prec)


@lru_cache(maxsize=_CACHE_SIZE)
def _str_mpi(s: str, prec: int):
    v = libmp.mpi_from_str(s, prec)
    if not libmp.mpf_le(*v):
        raise DomainError(f"reversed interval {s!r}")
    return v


def _wrap(v, prec: int) -> "Interval":
    # unchecked: v is an ordered libmp result, never caller data
    out = _new(Interval)
    out._mpi = v
    out._prec = prec
    return out


class Interval:
    """Closed real enclosure [lo, hi], outward-rounded arithmetic at ``prec``
    bits.

    Stored as the raw libmp endpoint pair and the precision; ``lo`` and ``hi``
    are read-only mpf views of the pair, built on each read.  Binary
    operations accept an Interval, int or Fraction operand and work at the
    larger of the two precisions (an int or Fraction is enclosed at this
    Interval's precision).
    """

    __slots__ = ("_mpi", "_prec")

    def __init__(self, lo, hi, prec: int = DEFAULT_PREC):
        # endpoints are mpf: ints and floats go through coerce or from_*
        if not (isinstance(lo, mpf) and isinstance(hi, mpf) and lo <= hi):
            raise DomainError(f"invalid interval endpoints [{lo!r}, {hi!r}]")
        self._mpi = (lo._mpf_, hi._mpf_)
        self._prec = prec

    @property
    def lo(self) -> mpf:
        return _mpf(self._mpi[0])

    @property
    def hi(self) -> mpf:
        return _mpf(self._mpi[1])

    @property
    def prec(self) -> int:
        return self._prec

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int = DEFAULT_PREC) -> "Interval":
        return _wrap(_int_mpi(n, prec), prec)

    @classmethod
    def from_int_range(cls, a: int, b: int, prec: int = DEFAULT_PREC) -> "Interval":
        """Enclosure of every integer in [a, b]."""
        if a > b:
            raise DomainError(f"empty integer range [{a}, {b}]")
        lo = libmp.from_int(a, prec, libmp.round_floor)
        return _wrap((lo, libmp.from_int(b, prec, libmp.round_ceiling)), prec)

    @classmethod
    def from_fraction(cls, num: int, den: int, prec: int = DEFAULT_PREC) -> "Interval":
        if den == 0:
            raise DomainError("zero denominator")
        return _wrap(_fraction_mpi(num, den, prec), prec)

    @classmethod
    def from_str(cls, s: str, prec: int = DEFAULT_PREC) -> "Interval":
        return _wrap(_str_mpi(s, prec), prec)

    @classmethod
    def coerce(cls, x, prec: int = DEFAULT_PREC) -> "Interval":
        if isinstance(x, Interval):
            return x
        return _wrap(_operand_mpi(x, prec), prec)

    # -- arithmetic --------------------------------------------------------

    def _binop(self, other, f):
        if isinstance(other, Interval):
            prec = max(self._prec, other._prec)
            return _wrap(f(self._mpi, other._mpi, prec), prec)
        prec = self._prec
        return _wrap(f(self._mpi, _operand_mpi(other, prec), prec), prec)

    def __add__(self, other):
        return self._binop(other, libmp.mpi_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, libmp.mpi_sub)

    def __rsub__(self, other):
        # through `-` (and `/` below): a traced run counts the reflected op
        # and the op it makes, so op counts compare across versions
        return Interval.coerce(other, self._prec) - self

    def __mul__(self, other):
        return self._binop(other, libmp.mpi_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, libmp.mpi_div)

    def __rtruediv__(self, other):
        return Interval.coerce(other, self._prec) / self

    def __neg__(self):
        # exact: mpi_neg rounds nothing when no precision is given
        return _wrap(libmp.mpi_neg(self._mpi), self._prec)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            # int(k) would truncate: 4 ** 0.5 would come out as [1, 1]
            raise DomainError(f"cannot raise to {type(k).__name__} {k!r}; use an int")
        return _wrap(libmp.mpi_pow_int(self._mpi, k, self._prec), self._prec)

    # -- elementary functions ------------------------------------------------

    def log(self) -> "Interval":
        if _sign(self._mpi[0]) <= 0:
            raise DomainError("log of non-positive interval")
        return _wrap(libmp.mpi_log(self._mpi, self._prec), self._prec)

    def exp(self) -> "Interval":
        return _wrap(libmp.mpi_exp(self._mpi, self._prec), self._prec)

    def sqrt(self) -> "Interval":
        if _sign(self._mpi[0]) < 0:
            raise DomainError("sqrt of negative interval")
        return _wrap(libmp.mpi_sqrt(self._mpi, self._prec), self._prec)

    # -- queries ----------------------------------------------------------

    def signs(self) -> tuple[int, int]:
        """The signs (-1, 0 or 1) of lo and hi, read without building an mpf.

        They decide every comparison of an endpoint with 0: no libmp interval
        operation returns a NaN endpoint, and the constructor refuses one."""
        lo, hi = self._mpi
        return _sign(lo), _sign(hi)

    def certainly_gt(self, other) -> bool:
        other = Interval.coerce(other, self._prec)
        return libmp.mpf_gt(self._mpi[0], other._mpi[1])

    def certainly_ge(self, other) -> bool:
        other = Interval.coerce(other, self._prec)
        return libmp.mpf_ge(self._mpi[0], other._mpi[1])

    def lower_at_least(self, other: "Interval") -> bool:
        """Whether the lower endpoint is at least ``other``'s: which of two
        lower bounds is the better one."""
        return libmp.mpf_ge(self._mpi[0], other._mpi[0])

    def max(self, other: "Interval") -> "Interval":
        """Enclosure of max(x, y) for x in self and y in other: the maximum of
        each endpoint, at the larger precision."""
        (a, b), (c, d) = self._mpi, other._mpi
        return _wrap((a if libmp.mpf_ge(a, c) else c, b if libmp.mpf_ge(b, d) else d),
                     max(self._prec, other._prec))

    def hull(self, other: "Interval") -> "Interval":
        """The smallest enclosure of both, at the larger precision."""
        (a, b), (c, d) = self._mpi, other._mpi
        return _wrap((c if libmp.mpf_ge(a, c) else a, b if libmp.mpf_ge(b, d) else d),
                     max(self._prec, other._prec))

    def __repr__(self):
        return f"Interval({self.lo!s}, {self.hi!s}, prec={self.prec})"


# -- rigorous log of arbitrary-size integers --------------------------------


def log_int(n: int, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of log(n) for a positive integer of any size."""
    if n <= 0:
        raise DomainError("log_int requires a positive integer")
    shift = n.bit_length() - prec
    if shift <= 0:
        # n is exact at prec: its log comes from the cache
        return _wrap(_log_mpi(n, prec), prec)
    # n lies in [m, m + 1) * 2^shift
    m = n >> shift
    body = (libmp.from_int(m, prec, libmp.round_floor),
            libmp.from_int(m + 1, prec, libmp.round_ceiling))
    r = libmp.mpi_add(libmp.mpi_log(body, prec),
                      libmp.mpi_mul(_int_mpi(shift, prec), _log_mpi(2, prec), prec), prec)
    return _wrap(r, prec)


def log2(prec: int = DEFAULT_PREC) -> Interval:
    return _wrap(_log_mpi(2, prec), prec)


def euler_gamma(prec: int = DEFAULT_PREC) -> Interval:
    return _wrap(_constant_mpi(libmp.mpf_euler, prec), prec)


def exp_euler_gamma(prec: int = DEFAULT_PREC) -> Interval:
    return _wrap(_exp_euler_gamma_mpi(prec), prec)


def pi(prec: int = DEFAULT_PREC) -> Interval:
    return _wrap(_constant_mpi(libmp.mpf_pi, prec), prec)


def log_2pi(prec: int = DEFAULT_PREC) -> Interval:
    return _wrap(_log_2pi_mpi(prec), prec)
