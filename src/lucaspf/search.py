"""Exhaustive searches of concrete Lucas sequences for factorial products,
plus an exact check of the Fibonacci factorial identity."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError
from .factorials import REJECT_REASONS, PFWitness, pf_decompose, pf_fast_reject
from .lucas import LucasParams, SeqKind, iter_terms, validate_params, u_at

# one fast-doubling seed per block of indices, stepped from there
_BLOCK = 1024
_LOG10_2 = math.log10(2)
DEFAULT_MAX_N = 5000


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


def _search_block(args: tuple[LucasParams, SeqKind, int, int]):
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


def search_pf_terms(cfg: SearchConfig) -> list[SearchHit]:
    """All indices n in [n_min, n_max] whose term is a product of factorials.

    Work is split into fixed index blocks; the merge is an ordered reduction,
    so the result is identical for any worker count.
    """
    p = cfg.params
    blocks = []
    lo = cfg.n_min
    while lo <= cfg.n_max:
        hi = min(cfg.n_max, lo + _BLOCK - 1)
        blocks.append((p, cfg.kind, lo, hi))
        lo = hi + 1
    if cfg.workers > 1 and len(blocks) > 1:
        # imported here: a run without a pool does not load multiprocessing
        from multiprocessing import get_context

        with get_context("fork").Pool(min(cfg.workers, len(blocks))) as pool:
            raw = pool.map(_search_block, blocks)
    else:
        raw = [_search_block(b) for b in blocks]
    hits: list[SearchHit] = []
    rejects = dict.fromkeys(REJECT_REASONS, 0)
    for block_hits, block_rejects in raw:
        hits += block_hits
        for k, v in block_rejects.items():
            rejects[k] += v
    if cfg.reject_log:
        counts = " ".join(f"{k}={v}" for k, v in rejects.items())
        print(f"fast-reject: {counts}", file=sys.stderr)
    return hits


_FIBONACCI_FACTORIAL_INDICES = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def verify_fibonacci_identity(indices=_FIBONACCI_FACTORIAL_INDICES) -> bool:
    """Exact check of F_1 F_2 F_3 F_4 F_5 F_6 F_8 F_10 F_12 = 11!."""
    p = validate_params(1, 1)
    prod = 1
    for i in indices:
        prod *= u_at(p, i).value
    eleven_fact = 1
    for k in range(2, 12):
        eleven_fact *= k
    return prod == eleven_fact
