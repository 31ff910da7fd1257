"""Exhaustive searches of concrete Lucas sequences for factorial products,
plus an exact check of the Fibonacci factorial identity."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError
from .factorials import REJECT_REASONS, PFWitness, pf_decompose, pf_fast_reject
from .lucas import LucasParams, SeqKind, iter_terms, validate_params, u_at

# at most one pool run per this many indices: fewer cost more to fork than they share
_RUN_INDICES = 1024
_LOG10_2 = math.log10(2)
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


def _search_run(args: tuple[LucasParams, SeqKind, int, int]):
    p, kind, lo, hi = args
    hits = []
    rejects = dict.fromkeys(REJECT_REASONS, 0)
    for n, value in zip(range(lo, hi + 1), iter_terms(p, kind, lo)):
        if value == 0:
            continue  # cannot occur for nondegenerate parameters; belt and braces
        if value in (1, -1):  # no abs(): it would copy a large term
            hits.append(SearchHit(n, kind, 1, PFWitness(1, ()), trivial=True))
            continue
        reason = pf_fast_reject(value)
        if reason is not None:
            rejects[reason] += 1
            continue
        witnesses = pf_decompose(value, limit=1)  # empty: not a member
        if witnesses:
            hits.append(SearchHit(n, kind, _digit_count(value), witnesses[0], trivial=False))
    return hits, rejects


def _runs(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into min(workers, (hi - lo + 1) // _RUN_INDICES) contiguous
    runs, at least one, of about equal cost: a step to index n costs about n,
    so run k starts at isqrt(lo² + k(hi² - lo²)/runs)."""
    runs = max(1, min(workers, (hi - lo + 1) // _RUN_INDICES))
    starts = [math.isqrt(lo * lo + k * (hi * hi - lo * lo) // runs) for k in range(runs)]
    return list(zip(starts, [a - 1 for a in starts[1:]] + [hi]))


def search_pf_terms(cfg: SearchConfig) -> list[SearchHit]:
    """All indices n in [n_min, n_max] whose term is a product of factorials.

    Each run is seeded once and stepped to its end; the merge is in index
    order, so the result is identical for any worker count.
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
