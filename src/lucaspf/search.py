"""Exhaustive searches of concrete Lucas sequences for factorial products,
plus an exact check of the Fibonacci factorial identity.

A factorial product other than 1 is even, and the terms of a sequence are even
exactly at the multiples of its parity period (`lucas.parity_period`).  So a
search builds exact terms only at those indices, and at the few odd ones whose
residue modulo 2P (P an odd prime) says they could be +-1.  Most even terms
are rejected by a bit-length table (`factorials._SIZE_BITS`) without a call
into `factorials`, and a run whose terms are all odd (s even) is seeded modulo
2P, so it builds no exact term but those of its +-1 candidates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError
from .factorials import _SIZE_BITS, REJECT_REASONS, PFWitness, pf_decompose, pf_fast_reject
from .lucas import (
    LucasParams,
    SeqKind,
    parity_period,
    term_pair,
    term_pair_mod,
    u_at,
    validate_params,
)

# at most one pool run per this many indices: fewer cost more to fork than they share
_RUN_INDICES = 1024
_LOG10_2 = math.log10(2)
# The residue pass steps terms modulo 2P: 2P < 2^30 keeps a residue to one
# CPython digit, and P prime keeps it off +-1 where a power of two would not
# (2^n - 1 is -1 modulo 2^64 for every n >= 64).
_P = (1 << 29) - 3
_M = 2 * _P
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
    workers: int = 1
    reject_log: bool = False
    params: LucasParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_min < 1:
            raise DomainError("n_min must be >= 1 (U_0 = 0 is excluded)")
        if self.n_min > self.n_max:
            raise DomainError("n_min must not exceed n_max")
        if self.workers < 1:
            raise DomainError("workers must be positive")
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


def _search_run(args: tuple[LucasParams, SeqKind, int, int]):
    """Hits and reject counts of [lo, hi], in two passes from one seed at lo.

    - Residue pass, over every index: x_n mod 2P.  An odd term is rejected as
      `odd`, unless its residue is 1 or 2P - 1; that candidate's exact term
      decides whether it is a trivial hit.  A false candidate costs one exact
      term and decides nothing.
    - Exact pass, over the multiples of the parity period tau, where the terms
      are even: steps x_{k tau} by `_stride`.  A term whose nu_2, read from its
      low 64 bits, and bit length meet `factorials._SIZE_BITS` is rejected as
      `size` in line; every other term goes through `pf_fast_reject` and then
      `pf_decompose`.

    When tau = 1 every term is even and there is no residue pass.  When s is
    even every term is odd and there is no exact pass, so the run is seeded by
    `term_pair_mod` alone and builds exact terms only for its candidates;
    otherwise one exact `term_pair` seeds both passes.
    """
    p, kind, lo, hi = args
    r, s = p.r, p.s
    tau = parity_period(p, kind)
    m = _M
    if tau:
        x, y = term_pair(p, kind, lo)
        a, b = x % m, y % m
    else:
        a, b = term_pair_mod(p, kind, lo, m)
    hits = []
    rejects = dict.fromkeys(REJECT_REASONS, 0)
    if tau != 1:
        top = m - 1
        for n in range(lo, hi + 1):
            # even residues, at the multiples of tau, are neither 1 nor top
            if (a == 1 or a == top) and term_pair(p, kind, n)[0] in (1, -1):
                hits.append(SearchHit(n, kind, 1, PFWitness(1, ()), trivial=True))
            a, b = b, (r * b + s * a) % m
        evens = hi // tau - (lo - 1) // tau if tau else 0
        rejects["odd"] = hi - lo + 1 - evens - len(hits)
    if tau:
        e = lo + -lo % tau  # the first multiple of tau at or above lo
        for _ in range(e - lo):
            x, y = y, r * y + s * x
        z = x
        for _ in range(tau - 1):  # y becomes x_{e+tau}
            z, y = y, r * y + s * z
        v_tau, q_tau = _stride(p, tau)
        for n in range(e, hi + 1, tau):
            value, x, y = x, y, v_tau * y - q_tau * x
            if value == 0:
                continue  # cannot occur for nondegenerate parameters; belt and braces
            # the term is even, so a nonzero low word gives 1 <= nu_2 <= 63; abs
            # copies a negative term, where & would complement all of it digit
            # by digit, several times slower
            low = abs(value) & 0xFFFF_FFFF_FFFF_FFFF
            if low and value.bit_length() >= _SIZE_BITS[(low & -low).bit_length() - 1]:
                rejects["size"] += 1
                continue
            reason = pf_fast_reject(value)
            if reason is not None:
                rejects[reason] += 1
                continue
            witnesses = pf_decompose(value, limit=1)  # empty: not a member
            if witnesses:
                hits.append(SearchHit(n, kind, _digit_count(value), witnesses[0], trivial=False))
    hits.sort(key=lambda h: h.index)
    return hits, rejects


def _runs(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into min(workers, (hi - lo + 1) // _RUN_INDICES) contiguous
    runs, at least one, of about equal cost: an exact step to index n costs
    about n, so run k starts at isqrt(lo² + k(hi² - lo²)/runs).  That models
    the exact pass.  A pair with even s has no exact pass, and its residue
    pass costs the same at every index, so there a run costs in proportion to
    its length and the first run is the longest."""
    runs = max(1, min(workers, (hi - lo + 1) // _RUN_INDICES))
    starts = [math.isqrt(lo * lo + k * (hi * hi - lo * lo) // runs) for k in range(runs)]
    return list(zip(starts, [a - 1 for a in starts[1:]] + [hi]))


def search_pf_terms(cfg: SearchConfig) -> list[SearchHit]:
    """All indices n in [n_min, n_max] whose term is a product of factorials.

    Each run is seeded at its first index and stepped to its end by its two
    passes (`_search_run`); the merge is in index order, so the result is
    identical for any worker count.
    """
    runs = [(cfg.params, cfg.kind, a, b) for a, b in _runs(cfg.n_min, cfg.n_max, cfg.workers)]
    if len(runs) > 1:
        # imported here: a run without a pool does not load multiprocessing
        from multiprocessing import get_context

        with get_context("fork").Pool(len(runs)) as pool:
            raw = pool.map(_search_run, runs)
    else:
        raw = [_search_run(runs[0])]
    hits: list[SearchHit] = []
    rejects = dict.fromkeys(REJECT_REASONS, 0)
    for run_hits, run_rejects in raw:
        hits += run_hits
        for k, v in run_rejects.items():
            rejects[k] += v
    if cfg.reject_log:
        counts = " ".join(f"{k}={v}" for k, v in rejects.items())
        print(f"fast-reject: {counts}", file=sys.stderr)
    return hits


_FIBONACCI_FACTORIAL_INDICES = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def verify_fibonacci_identity() -> bool:
    """Exact check of F_1 F_2 F_3 F_4 F_5 F_6 F_8 F_10 F_12 = 11!."""
    p = validate_params(1, 1)
    prod = 1
    for i in _FIBONACCI_FACTORIAL_INDICES:
        prod *= u_at(p, i).value
    return prod == math.factorial(11)
