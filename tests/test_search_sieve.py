"""The parity sieve of `search._search_run` against plain stepping, and the
two identities it rests on."""

from unittest import mock

import pytest
import sympy

from lucaspf import lucas, search
from lucaspf.errors import LucasPFError
from lucaspf.factorials import REJECT_REASONS, PFWitness, pf_decompose, pf_fast_reject
from lucaspf.lucas import SeqKind, parity_period, validate_params
from oracles import iter_terms


def _box():
    # every valid pair with |r| <= 5 and |s| <= 10
    pairs = []
    for r in [x for k in range(1, 6) for x in (k, -k)]:
        for s in [x for k in range(1, 11) for x in (k, -k)]:
            try:
                pairs.append(validate_params(r, s))
            except LucasPFError:
                pass
    return pairs


BOX = _box()
COMBOS = [(p, kind) for p in BOX for kind in SeqKind]
FAR = 3000
RANGES = ((1, FAR), (1777, 2901), (1, 1), (5, 5), (6, 7), (9, 11))


def _plain_outcomes(p, kind, hi):
    """Per index 1..hi: the hit or the reject reason of the search before the
    sieve, which stepped every term exactly."""
    out = [None]  # index 0 is never searched
    for n, value in zip(range(1, hi + 1), iter_terms(p, kind, 1)):
        if value in (1, -1):
            out.append(search.SearchHit(n, kind, 1, PFWitness(1, ()), trivial=True))
            continue
        reason = pf_fast_reject(value)
        if reason is None:
            witnesses = pf_decompose(value, limit=1)
            reason = search.SearchHit(
                n, kind, search._digit_count(value), witnesses[0], trivial=False
            ) if witnesses else None
        out.append(reason)
    return out


def test_box_has_every_parity_period():
    assert len(COMBOS) == 272
    periods = {parity_period(p, kind) for p, kind in COMBOS}
    assert periods == {None, 1, 2, 3}


@pytest.mark.parametrize("kind", list(SeqKind))
def test_terms_are_even_exactly_at_the_multiples_of_the_period(kind):
    for p in BOX:
        tau = parity_period(p, kind)
        for n in range(1, 201):
            x = lucas._uv_pair(p, n)[kind is SeqKind.V]
            assert (x % 2 == 0) == (tau is not None and n % tau == 0), (p.r, p.s, kind, n)


@pytest.mark.parametrize("kind", list(SeqKind))
def test_stride_recurrence(kind):
    # x_{n+tau} = V_tau x_n - Q^tau x_{n-tau}, for every period the sieve uses
    for p in BOX:
        terms = [lucas._uv_pair(p, n)[kind is SeqKind.V] for n in range(201)]
        for tau in (1, 2, 3):
            v_tau, q_tau = search._stride(p, tau)
            assert v_tau == lucas._uv_pair(p, tau)[1] and q_tau == (-p.s) ** tau
            for n in range(tau, 201 - tau):
                assert terms[n + tau] == v_tau * terms[n] - q_tau * terms[n - tau], (p.r, p.s, tau, n)


def test_modular_seed_matches_the_exact_pair():
    m = search._M
    for p, kind in COMBOS:
        for n in range(301):
            x, y = lucas.term_pair(p, kind, n)
            assert lucas.term_pair_mod(p, kind, n, m) == (x % m, y % m), (p.r, p.s, kind, n)
    for r, s in ((1, -2), (3, -2), (-3, -4), (5, 2), (-1, 6)):
        p = validate_params(r, s)
        for kind in SeqKind:
            for n in (1023, 40_000, 267_212):
                x, y = lucas.term_pair(p, kind, n)
                assert lucas.term_pair_mod(p, kind, n, m) == (x % m, y % m), (r, s, kind, n)


def test_sieve_matches_plain_stepping():
    # hits, witnesses, digit counts, trivial flags and reject counts are those
    # of stepping every term, and the exact +-1 candidates are exactly the
    # terms that are +-1
    cases = 0
    for p, kind in COMBOS:
        plain = _plain_outcomes(p, kind, FAR)
        for lo, hi in RANGES:
            span = plain[lo : hi + 1]
            hits = [o for o in span if isinstance(o, search.SearchHit)]
            rejects = dict.fromkeys(REJECT_REASONS, 0)
            for o in span:
                if isinstance(o, str):
                    rejects[o] += 1
            with mock.patch.object(lucas, "_uv_pair", wraps=lucas._uv_pair) as exact:
                got = search._search_run((p, kind, lo, hi))
            where = (p.r, p.s, kind, lo, hi)
            assert got == (hits, rejects), where
            # a run with an exact pass seeds it with one exact term pair first
            seeded = parity_period(p, kind) is not None
            candidates = [c.args[1] for c in exact.call_args_list[seeded:]]
            assert candidates == [h.index for h in hits if h.trivial], where
            cases += 1
    assert cases == 1632


def test_the_modulus_sets_no_trap():
    """U_n = 2^n - 1 of (3, -2) is -1 modulo 2^64 for every n >= 64, so with
    that modulus every index was a candidate. A false candidate costs one
    exact term and decides nothing, but one per index costs a fast doubling
    per index. Modulo 2P, with P an odd prime, only U_1 = 1 is one."""
    assert search._M == 2 * search._P < 2**30
    assert search._P % 2 == 1 and sympy.isprime(search._P)
    p = validate_params(3, -2)
    with mock.patch.object(lucas, "_uv_pair", wraps=lucas._uv_pair) as exact:
        hits, rejects = search._search_run((p, SeqKind.U, 1, 40_000))
    # s is even, so the run is seeded modulo 2P: its only exact term is U_1
    assert [c.args[1] for c in exact.call_args_list] == [1]
    assert [h.index for h in hits] == [1] and rejects["odd"] == 39_999
