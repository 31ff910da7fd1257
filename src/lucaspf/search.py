"""Exhaustive searches of concrete Lucas sequences for factorial products,
plus an exact check of the Fibonacci factorial identity.

A factorial product other than 1 is even, and the terms of a sequence are even
exactly at the multiples of its parity period (`lucas.parity_period`).  A
search runs in one process over its whole range.  It steps the terms modulo 2P
(P an odd prime) to find those equal to +-1, and the even terms modulo 2^w,
both seeded by `lucas.term_pair_mod` at the first index, and builds no exact
seed.  When the roots are real no term past n = 2 is +-1, so the first pass
stops at n = 2.  An even term whose residue, read against a bit-length table
(`factorials._SIZE_BITS`), proves it too large is rejected without an exact
term or a call into `factorials`.  So a search builds exact terms only at the
few odd indices whose residue says they could be +-1, and at the even ones
whose residue cannot settle their size; each of the latter goes to
`pf_fast_reject` as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError
from .factorials import _SIZE_BITS, REJECT_REASONS, PFWitness, pf_decompose, pf_fast_reject
from .lucas import (
    LucasParams,
    SeqKind,
    parity_period,
    seq_kind,
    term_pair,
    term_pair_mod,
    u_at,
    validate_params,
)

_LOG10_2 = math.log10(2)
# The residue pass steps terms modulo 2P: 2P < 2^30 keeps a residue to one
# CPython digit, and P prime keeps it off +-1 where a power of two would not
# (2^n - 1 is -1 modulo 2^64 for every n >= 64).
_P = (1 << 29) - 3
_M = 2 * _P
# The even pass steps terms modulo 2^w from w = _W0.  A narrower w rejects
# fewer terms by residue (cap >= w from nu_2 = 9 on) and widens more often; a
# wider one costs more per step.
_W0 = 512
_LOW64 = 0xFFFF_FFFF_FFFF_FFFF
DEFAULT_MAX_N = 5000
# The certified bound on n for kind U, by case; kind V halves it.  The
# cascades in `pipeline` reproduce these values, and `lucaspf search` labels
# its coverage by them.
CERTIFIED_BOUNDS = {"general": 267_212, "real": 210, "unit": 150}


@dataclass(frozen=True)
class SearchHit:
    index: int
    kind: SeqKind
    value_digits: int
    witness: PFWitness
    trivial: bool  # |value| = 1, the empty-product member


@dataclass(frozen=True)
class SearchConfig:
    r: int
    s: int
    kind: SeqKind = SeqKind.U
    n_min: int = 1
    n_max: int = DEFAULT_MAX_N
    params: LucasParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", seq_kind(self.kind))
        if self.n_min < 1:
            raise DomainError("n_min must be >= 1 (U_0 = 0 is excluded)")
        if self.n_min > self.n_max:
            raise DomainError("n_min must not exceed n_max")
        object.__setattr__(self, "params", validate_params(self.r, self.s))


def _digit_count(n: int) -> int:
    """Decimal digits of |n|, without str(), whose length cap is process-wide."""
    n = abs(n)
    digits = round(n.bit_length() * _LOG10_2)  # within one of the answer
    if n >= 10**digits:
        return digits + 1
    if digits > 1 and n < 10 ** (digits - 1):
        return digits - 1
    return max(digits, 1)


def _stride(p: LucasParams, tau: int) -> tuple[int, int]:
    """(V_tau, Q^tau) for tau in {1, 2, 3}, Q = -s: the terms of U and V alike
    satisfy x_{n+tau} = V_tau x_n - Q^tau x_{n-tau}, both being combinations
    of alpha^n and beta^n."""
    r, s = p.r, p.s
    return (r, r * r + 2 * s, r**3 + 3 * r * s)[tau - 1], (-s) ** tau


def _ahead(x: int, y: int, p: LucasParams, tau: int, mask: int) -> tuple[int, int]:
    """(x_n, x_{n+tau}) mod 2^w from (x_n, x_{n+1}), mask = 2^w - 1."""
    z = x
    for _ in range(tau - 1):
        z, y = y, (p.r * y + p.s * z) & mask
    return x, y


# w is a power of two from _W0 = 2^9 to 2^16 (the cap of nu = 63 is 44 731
# bits), so the cache holds every width a process can reach
@lru_cache(maxsize=8)
def _windows(w: int) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    """The residues t modulo 2^w that certify `size`: those whose symmetric
    residue has at least cap = _SIZE_BITS[nu] bits, where cap < w.

    - (k, f, c) for every nu at once: t & k != 0 says nu <= nu_max, the
      largest nu with cap < w, and f <= t <= c meets the cap of nu_max, which
      is the largest of them;
    - floor, ceil by nu: floor[j] <= t <= ceil[j] meets the cap of nu = j - 1,
      j = bitlen(low & -low) for the low 64 bits of t, so j = 0 (nu >= 64),
      j = 1 (t odd) and every cap >= w get an empty window.
    """
    caps = [0, 0] + [_SIZE_BITS[nu] for nu in range(1, 64)]
    floor = tuple(1 << (cap - 1) if 0 < cap < w else 1 << w for cap in caps)
    ceil = tuple((1 << w) - f for f in floor)
    top = max(j for j, cap in enumerate(caps) if cap < w)  # nu_max + 1
    return (1 << top) - 1, floor[top], ceil[top], floor, ceil


def _search_run(p: LucasParams, kind: SeqKind, lo: int, hi: int):
    """Hits and reject counts of [lo, hi], in two passes.

    - Residue pass, over every index, or over those up to 2 when the roots
      are real (below): x_n mod 2P, seeded by `term_pair_mod` at lo.  An odd
      term is rejected as `odd`, unless its residue is 1 or 2P - 1; that
      candidate's exact term decides whether it is a trivial hit.  A false
      candidate costs one exact term and decides nothing.
    - Even pass, over the multiples of the parity period tau, where the terms
      are even: steps x_{k tau} modulo 2^w by `_stride`, reduced by a mask,
      from a `term_pair_mod` seed at the first of them.  With nu = nu_2 and
      cap = `factorials._SIZE_BITS[nu]`, a term is rejected as `size` in line
      when cap < w and its symmetric residue, the smaller of x mod 2^w and
      2^w - (x mod 2^w), has at least cap bits.  That is exact: a term of
      fewer than cap < w bits is its own symmetric residue, up to sign.  The
      test is read off `_windows(w)`, first for every small nu at once, then
      for the nu of the residue's low 64 bits.  Every other term is built
      exactly by `term_pair` and goes to `pf_fast_reject`, whose first test
      is the same one on its exact bits, then to `pf_decompose`.  Where
      cap >= w, w widens past cap and the stepping is reseeded from that
      exact pair.

    When tau = 1 every term is even and there is no residue pass; when s is
    even every term is odd and there is no even pass.  So a run builds exact
    terms only for its +-1 candidates and for the even terms whose residue
    cannot settle `size`.

    Real roots (delta = r^2 + 4s > 0): |x_n| >= 2 for every n >= 3, so the
    residue pass stops at n = 2 and every odd term past it counts as `odd`.
    Take r > 0, since |x_n(-r, s)| = |x_n(r, s)|.
    - s > 0: from n = 1 on every term is positive and x_{n+2} > x_{n+1}, with
      U_3 = r^2 + s >= 2 and V_2 = r^2 + 2s >= 3.
    - s < 0: r^2 > -4s >= 4 gives r >= 3, and the roots satisfy
      0 < beta < alpha with alpha > r/2 >= 3/2.  Then
      U_{n+1} = alpha U_n + beta^n > U_n >= U_2 = r >= 3, and
      V_n = alpha^n + beta^n > alpha^n > 2 for n >= 2.
    Complex roots give no such bound: (1, -2) has U_13 = -1.
    """
    r, s = p.r, p.s
    tau = parity_period(p, kind)
    hits = []
    rejects = dict.fromkeys(REJECT_REASONS, 0)
    if tau != 1:
        m = _M
        top = m - 1
        last = min(hi, 2) if p.roots_real else hi  # |x_n| >= 2 past n = 2
        if lo <= last:
            a, b = term_pair_mod(p, kind, lo, m)
        for n in range(lo, last + 1):
            # even residues, at the multiples of tau, are neither 1 nor top
            if (a == 1 or a == top) and term_pair(p, kind, n)[0] in (1, -1):
                hits.append(SearchHit(n, kind, 1, PFWitness(1, ()), trivial=True))
            a, b = b, (r * b + s * a) % m
        evens = hi // tau - (lo - 1) // tau if tau else 0
        rejects["odd"] = hi - lo + 1 - evens - len(hits)
    if tau:
        e = lo + -lo % tau  # the first multiple of tau at or above lo
        v_tau, q_tau = _stride(p, tau)
        w = _W0
        mask = (1 << w) - 1
        k, f, c, floor, ceil = _windows(w)
        a, b = _ahead(*term_pair_mod(p, kind, e, mask + 1), p, tau, mask)
        evens = range(e, hi + 1, tau)
        rejects["size"] = len(evens)  # less every term built exactly
        for n in evens:
            t, a, b = a, b, (v_tau * b - q_tau * a) & mask
            if t & k and f <= t <= c:
                continue
            low = t & _LOW64
            j = (low & -low).bit_length()
            if floor[j] <= t <= ceil[j]:
                continue
            rejects["size"] -= 1
            value, y = term_pair(p, kind, n)
            if j > 1 and _SIZE_BITS[j - 1] >= w:
                w = 1 << (_SIZE_BITS[j - 1] + 64).bit_length()
                mask = (1 << w) - 1
                k, f, c, floor, ceil = _windows(w)
                a, b = _ahead(value & mask, y & mask, p, tau, mask)  # at n
                a, b = b, (v_tau * b - q_tau * a) & mask
            reason = pf_fast_reject(value)
            if reason is not None:
                rejects[reason] += 1
                continue
            witnesses = pf_decompose(value, limit=1)  # empty: not a member
            if witnesses:
                hits.append(SearchHit(n, kind, _digit_count(value), witnesses[0], trivial=False))
    hits.sort(key=lambda h: h.index)
    return hits, rejects


def search_pf_terms(cfg: SearchConfig) -> list[SearchHit]:
    """All indices n in [n_min, n_max] whose term is a product of factorials,
    in index order, found by the two passes of `_search_run` over the whole
    range, seeded modulo 2P and 2^w at n_min.  `_search_run` also returns the
    reject counts, which `lucaspf search --reject-log` prints."""
    return _search_run(cfg.params, cfg.kind, cfg.n_min, cfg.n_max)[0]


_FIBONACCI_FACTORIAL_INDICES = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def verify_fibonacci_identity() -> bool:
    """Exact check of F_1 F_2 F_3 F_4 F_5 F_6 F_8 F_10 F_12 = 11!."""
    p = validate_params(1, 1)
    prod = 1
    for i in _FIBONACCI_FACTORIAL_INDICES:
        prod *= u_at(p, i).value
    return prod == math.factorial(11)
