"""Exhaustive searches of concrete Lucas sequences for factorial products,
plus an exact check of the Fibonacci factorial identity.

A factorial product other than 1 is even, and the terms of a sequence are even
exactly at the multiples of its parity period (`lucas.parity_period`).  A
search runs in one process over its whole range.  It steps the terms modulo 2P
(P an odd prime) to find those equal to +-1, and the even terms modulo 2^w,
both seeded by `lucas.term_pair_mod` at the first index, and builds no exact
seed.  No term past n = 2 is +-1 when the roots are real, and none past
n = 30 // level (30 for U, 15 for V) for any valid pair, so the first pass
stops there.  An even term whose residue, read against a bit-length table
(`factorials._SIZE_BITS`), proves it too large is rejected without an exact
term or a call into `factorials`.  Past n = 30 // level an even term with
nu_2 = 1 has an odd primitive prime divisor, so it is too large as well.  A
2-adic law gives nu_2 by the class of n / tau, odd or even: where one class
has nu_2 = 1, the second pass steps past 30 // level only the other, at
twice the stride, and where both do it stops there (V of (2, -3)).  When the
roots are real, that law and the growth |x_n| >= (3/2)^(n-2) prove every even
term past a small index (`_size_cut`, 768 for Fibonacci's U) too large, so
the second pass stops there, and a range past it is counted without a step.
So a search builds exact terms only at the few odd indices whose residue
says they could be +-1, and at the even ones whose residue cannot settle
their size; each of the latter goes to `pf_fast_reject` as it is.

All a search derives from the pair and the kind alone (tau, the ends of both
passes, the nu_2 classes and the stride) is its plan, `_plan`, derived once
per process and per (pair, kind); a call then does only range arithmetic,
seeding and stepping, and carries nothing to the next call.
`lucas.validate_params` is cached as well, so a `SearchConfig` checks its
pair once per process.  A perfbench `search` repetition, 1 552 calls over 20
pairs and 40 (pair, kind) jobs, thus validates 20 pairs instead of 1 552 and
derives 40 plans instead of 1 552, with the same seeds, stepped indices and
exact terms (`BENCH_34.json`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .factorials import (
    _SIZE_BITS,
    REJECT_REASONS,
    PFWitness,
    _size_bits,
    pf_decompose,
    pf_fast_reject,
)
from .lucas import (
    _SEEDS,
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
# Past n = _N_PD every U_n of a valid pair has a primitive prime divisor, and
# past _N_PD // level every V_n (Bilu, Hanrot and Voutier; see `_search_run`)
_N_PD = 30
DEFAULT_MAX_N = 5000
# The certified bound on n for kind U, by case; a kind's is U's over its
# level (`SeqKind.level`), so V's is half.  The cascades in `pipeline`
# reproduce these values, and `lucaspf search` labels its coverage by them.
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


def _sized_from(bits: int) -> int:
    """The first n from which every term of a real-root pair has at least
    ``bits`` bits: |x_n| >= (3/2)^(n-2) >= 2^(bits-1) once
    (n - 2) log2(3/2) >= bits - 1, and log2(3/2) > 0.5849."""
    return 2 - (1 - bits) * 10_000 // 5_849  # 2 + ceil((bits - 1) / 0.5849)


# _sized_from(_size_bits(nu)) by nu_2 = 1 ... 63: past it a real-root term with
# that nu_2 is rejected as `size`
_SIZED_FROM = (0, *(_sized_from(_SIZE_BITS[nu]) for nu in range(1, 64)))


# _size_cut's span for every hi up to it, so that one entry serves them all
_CUT_SPAN = 1 << 32


def _tau_nus(r: int, s: int, kind: SeqKind, tau: int) -> tuple[int, int]:
    """nu_2(x_tau) and nu_2(x_2tau), from stepping the seeds.  By the 2-adic
    law of `_search_run`, n = tau m takes the first for odd m; for even m the
    second is the least nu_2 (U's grows with nu_2(m), V's stays 1)."""
    x, y = _SEEDS[kind](r)
    nus = []
    for _ in (1, 2):
        for _ in range(tau):
            x, y = y, r * y + s * x
        nus.append((x & -x).bit_length() - 1)
    return nus[0], nus[1]


def _size_cut(r: int, s: int, kind: SeqKind, tau: int, span: int) -> int:
    """The largest multiple n <= span of tau whose term the 2-adic law and the
    growth bound of `_search_run` do not prove too large, 0 if none; for real
    roots and odd s.  n = tau m with nu_2(m) = a takes nu_2(x_tau), for a = 0,
    or nu_2(x_2tau), plus a - 1 for U (it is 1 for V).  A cut for a span
    covers any smaller hi."""
    nu_odd, nu_even = _tau_nus(r, s, kind, tau)
    grow = kind is SeqKind.U
    cut, a, step, nu = 0, 0, tau, nu_odd
    while step <= span:
        sized = _SIZED_FROM[nu] if nu < 64 else _sized_from(_size_bits(nu))
        top = min(span, sized - 1) // step
        cut = max(cut, ((top - 1) | 1) * step)  # step times the largest odd <= top
        a, step = a + 1, 2 * step
        nu = nu_even + (a - 1) * grow
    return cut


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


class _Plan(NamedTuple):
    """What `_search_run` derives from the pair and the kind alone.

    - tau: the parity period, None when every term is odd;
    - unit_last: the last index of the residue pass, 2 for real roots and
      30 // level otherwise;
    - nus: (nu_2(x_tau), nu_2(x_2tau)) (`_tau_nus`), None without tau;
    - end: the last index of the even pass for any hi <= _CUT_SPAN, None when
      it runs to hi: `_size_cut` for real roots, or 30 // level when both
      classes have nu_2 = 1;
    - split: 30 // level when a class has nu_2 = 1, None when none has;
    - kept: past split the pass steps only n = kept mod 2 tau (tau for the
      odd m, 0 for the even), None when both classes have nu_2 = 1;
    - stride: (V_tau, Q^tau) (`_stride`), None without tau.
    """

    tau: int | None
    unit_last: int
    nus: tuple[int, int] | None
    end: int | None
    split: int | None
    kept: int | None
    stride: tuple[int, int] | None


@lru_cache(maxsize=1024)
def _plan(p: LucasParams, kind: SeqKind) -> _Plan:
    """The plan of a validated pair and a kind, derived once per process.
    Keyed by the LucasParams the caller validated, so a search never
    validates its pair again."""
    tau = parity_period(p, kind)
    pd = _N_PD // kind.level
    unit_last = 2 if p.roots_real else pd
    if not tau:
        return _Plan(None, unit_last, None, None, None, None, None)
    r, s = p.r, p.s
    nus = _tau_nus(r, s, kind, tau)
    end = _size_cut(r, s, kind, tau, _CUT_SPAN) if p.roots_real else None
    split = kept = None
    if 1 in nus:
        split = pd
        if nus == (1, 1):
            end = pd if end is None else min(end, pd)
        else:
            kept = tau if nus[0] > 1 else 0
    return _Plan(tau, unit_last, nus, end, split, kept, _stride(p, tau))


def _search_run(p: LucasParams, kind: SeqKind, lo: int, hi: int):
    """Hits and reject counts of [lo, hi], in two passes, by the plan of
    (p, kind) (`_plan`, 40 plans for the 1 552 calls of a perfbench `search`
    repetition, `BENCH_34.json`): the call itself only cuts [lo, hi] to the
    plan's ends, seeds and steps, and when it steps no even term it builds no
    run list and reads no stride or window.

    - Residue pass, over the indices up to 2 when the roots are real and up
      to 30 // level otherwise (below): x_n mod 2P, seeded by `term_pair_mod`
      at lo, and not seeded at all when lo is past that cut.  An odd term is
      rejected as `odd`, unless its residue is 1 or 2P - 1; that candidate's
      exact term decides whether it is a trivial hit.  A false candidate
      costs one exact term and decides nothing.  Every odd term past the cut
      counts as `odd`.
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
      exact pair.  Past n = 30 // level the pass steps only the class of
      n = tau m, m odd or m even, whose nu_2 exceeds 1 (below), at stride
      2 tau with (V_2tau, Q^2tau) = (V_tau^2 - 2 Q^tau, (Q^tau)^2), switched
      from the pair it holds; it is seeded at the class's first index when
      its range starts past 30 // level, and it stops at 30 // level when
      both classes have nu_2 = 1.  When the roots are real the pass stops at
      `_size_cut` (below), and is not seeded when its first index is past
      it.  Every even term it does not step counts as `size`.

    When tau = 1 every term is even and there is no residue pass; when s is
    even every term is odd and there is no even pass.  So a run builds exact
    terms only for its +-1 candidates and for the even terms whose residue
    cannot settle `size`.

    Real roots (delta = r^2 + 4s > 0): |x_n| >= 2 for every n >= 3, so the
    residue pass stops at n = 2.  Take r > 0, since |x_n(-r, s)| = |x_n(r, s)|.
    - s > 0: from n = 1 on every term is positive and x_{n+2} > x_{n+1}, with
      U_3 = r^2 + s >= 2 and V_2 = r^2 + 2s >= 3.
    - s < 0: r^2 > -4s >= 4 gives r >= 3, and the roots satisfy
      0 < beta < alpha with alpha > r/2 >= 3/2.  Then
      U_{n+1} = alpha U_n + beta^n > U_n >= U_2 = r >= 3, and
      V_n = alpha^n + beta^n > alpha^n > 2 for n >= 2.
    Real roots, even terms: every x_n at a multiple n of tau past
    `_size_cut` has at least _size_bits(nu_2(x_n)) bits, which is
    `pf_fast_reject`'s first `size` test, so the even pass stops there.
    - 2-adic law (s odd, n = tau m).  For m odd, nu_2(x_n) = nu_2(x_tau).
      For m even, nu_2(U_n) = nu_2(U_2tau) + nu_2(m) - 1 and nu_2(V_n) = 1.
      Let tau | k, so x_k is even, and so is V_k (V_k^2 - delta U_k^2 =
      4 Q^k, Q = -s odd).  Then x_jk / x_k is odd for odd j: in
      x_{(j+2)k} = V_k x_{(j+1)k} - Q^k x_jk the first term over x_k is even
      (V_k times U_{(j+1)k} / U_k, or V_{(j+1)k}), so x_{(j+2)k} / x_k has
      the parity of x_jk / x_k.  Also U_2k = U_k V_k, and
      V_2k = V_k^2 - 2 Q^k has nu_2 = 1.  So with m = 2^a m', m' odd and
      a >= 1, U_n has the nu_2 of U_{2^a tau} = U_2tau V_2tau V_4tau ...
      V_{2^(a-1) tau}, and V_n is such a V_2k.
    - Growth: |x_n| >= (3/2)^(n-2) for n >= 1.  Take r > 0.  For s > 0,
      x_{n+2} >= x_{n+1} + x_n from x_1 >= 1 and x_2 >= 1, so
      x_n >= F_n >= phi^(n-2).  For s < 0, alpha > 3/2 as above, and
      U_n = (alpha^n - beta^n) / (alpha - beta) >= alpha^(n-1) and
      V_n > alpha^n.  As log2(3/2) > 0.5849, bl(x_n) >= S once
      n >= 2 + ceil((S - 1) / 0.5849) (`_sized_from`).
    These are classical; see C. Sanna, "The p-adic valuation of Lucas
    sequences", Fibonacci Quart. 54 (2016).
    Complex roots (delta < 0): |x_n| >= 2 for every n > 30 // level, so the
    residue pass stops at n = 30 for U and n = 15 for V.  By Bilu, Hanrot
    and Voutier (J. reine angew. Math. 539, 2001), U_n has a primitive
    divisor for every n > 30 whenever r = alpha + beta and -s = alpha beta
    are nonzero coprime integers and alpha/beta is not a root of unity.
    Those are exactly the hypotheses `validate_params` enforces: r and s
    nonzero and coprime, and r^2 != k (-s) for k = 0, ..., 4, which is the
    root-of-unity test (it excludes delta = 0 at k = 4).  A primitive
    divisor is a prime, so |U_n| >= 2.  For V, a primitive divisor p of
    U_2n does not divide U_n, and U_2n = U_n V_n, so p divides V_n and
    |V_n| >= 2 once 2n > 30: V's cut is U's over its level, 30 // 2 = 15.
    Below the cut complex roots do reach +-1 late: (1, -2) has U_13 = -1,
    so Carmichael's n > 12, which holds for real roots only, would lose it.
    Any roots, even terms with nu_2 = 1: past n = 30 // level such an x_n
    has |x_n| >= 62, at least _size_bits(1) = 4 bits, so `pf_fast_reject`
    rejects it as `size`, and the even pass skips the class of n = tau m
    (m odd or m even) where nu_2 = 1.  x_n has a primitive divisor p of U_n
    (of U_2n for V, as above).  With s odd, 2 divides U_2 (r even) or U_3
    (r odd), so p is odd; and p = +-1 mod n (mod 2n for V), so
    p >= level n - 1 >= 30, p >= 31 and |x_n| >= 2p.  By the 2-adic law the
    class of odd m has nu_2(x_tau), and the class of even m has
    nu_2 >= nu_2(U_2tau) = nu_2(U_tau) + nu_2(V_tau) >= 2 for U and nu_2 = 1
    for V (`_tau_nus`): V's even class is always skipped, U's never.
    """
    r, s = p.r, p.s
    plan = _plan(p, kind)
    tau = plan.tau
    hits = []
    rejects = dict.fromkeys(REJECT_REASONS, 0)
    if tau != 1:
        m = _M
        top = m - 1
        last = min(hi, plan.unit_last)  # |x_n| >= 2 past it
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
        rejects["size"] = len(range(e, hi + 1, tau))  # less every term built exactly
        last = hi if plan.end is None else min(hi, plan.end)
        if hi > _CUT_SPAN and p.roots_real:  # a wider span has its own cut
            last = min(hi, _size_cut(r, s, kind, tau, hi))
    if tau and e <= last:
        # (first, stop, stride): every multiple of tau up to split, then only
        # the class of n = tau m, m odd or m even, whose nu_2 exceeds 1
        runs = [(e, last, tau)]
        split = plan.split
        if split is not None and split < last:
            runs[0] = (e, split, tau)
            if plan.kept is not None:
                first = max(e, split + 1)
                first += (plan.kept - first) % (2 * tau)
                runs.append((first, last, 2 * tau))
        v, q = plan.stride
        w = _W0
        mask = (1 << w) - 1
        k, f, c, floor, ceil = _windows(w)
        n = 0  # the last index stepped; 0 before the seed
        for first, stop, step in runs:
            if first > stop:
                continue
            if not n:
                a, b = _ahead(*term_pair_mod(p, kind, first, mask + 1), p, tau, mask)
            elif first > n + tau:  # (a, b) is at n + tau, in the skipped class
                a, b = b, (v * b - q * a) & mask
            if step > tau:  # in place to stride 2 tau: V_2tau = V_tau^2 - 2 Q^tau
                a, b, v, q = a, (v * b - q * a) & mask, v * v - 2 * q, q * q
            for n in range(first, stop + 1, step):
                t, a, b = a, b, (v * b - q * a) & mask
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
                    a, b = _ahead(value & mask, y & mask, p, step, mask)  # at n
                    a, b = b, (v * b - q * a) & mask
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
