"""The parity sieve of `search._search_run` against plain stepping, and the
identities and the real-root lemma it rests on."""

from unittest import mock

import pytest
import sympy

from lucaspf import lucas, search
from lucaspf.errors import LucasPFError
from lucaspf.factorials import _SIZE_BITS
from lucaspf.lucas import SeqKind, parity_period, validate_params
from oracles import iter_terms, plain_outcomes, plain_search, term_pairs_matrix_mod


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
    sieve, which stepped every term exactly; index 0 is never searched."""
    return [None, *plain_outcomes(p, kind, 1, hi)]


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


def test_power_of_two_seed_matches_the_exact_pair():
    # the seeds of the even pass: term_pair_mod reduces by a mask when m is a
    # power of two. Modulo 2^4096 the residues of negative terms fill 4 096
    # bits and a doubling costs about 50 times more, so below 300 that modulus
    # takes every tenth n
    moduli = (2**512, 2**1024, 2**4096)
    for p, kind in COMBOS:
        for n in range(301):
            x, y = lucas.term_pair(p, kind, n)
            for m in moduli[: 2 + (n % 10 == 0)]:
                assert lucas.term_pair_mod(p, kind, n, m) == (x % m, y % m), (p.r, p.s, kind, n, m)
    # far out, where an exact term can have over 10^5 digits, against a matrix
    # power modulo 2^4096, which every modulus here divides
    for p in BOX:
        for n in (40_000, 267_212):
            for kind, (x, y) in term_pairs_matrix_mod(p, n, moduli[-1]).items():
                for m in moduli:
                    assert lucas.term_pair_mod(p, kind, n, m) == (x % m, y % m), (p.r, p.s, kind, n, m)


def _exact_even_indices(p, kind, hi):
    """Two sets of even indices n <= hi: `must`, where no residue of x_n can
    settle `size` (nu_2 >= 64, or fewer bits than cap = _SIZE_BITS[nu_2]), so
    the even pass builds x_n exactly; and `may`, which adds the indices where
    a residue modulo 2^w, w >= 512, can fall short: cap >= 512, where w may
    widen, or a symmetric residue modulo 2^512 of fewer than cap bits (one
    that falls short modulo a wider 2^w falls short modulo 2^512 too)."""
    must, may = set(), set()
    tau = parity_period(p, kind)
    if tau is None:
        return must, may
    w = search._W0
    mask = 2**w - 1
    for n, x in zip(range(1, hi + 1), iter_terms(p, kind, 1)):
        if n % tau:
            continue
        size = abs(x)
        cap = _SIZE_BITS.get((size & -size).bit_length() - 1)
        if cap is None or size.bit_length() < cap:
            must.add(n)
        elif cap >= w or min(x & mask, -x & mask).bit_length() < cap:
            may.add(n)
    return must, must | may


def _check_exact_terms(p, kind, lo, hi, calls, hits, even):
    # the +-1 candidates, at odd indices, are exactly the terms that are +-1;
    # an even index is built exactly where its residue cannot settle `size`,
    # and where it could fall short of the cap, nowhere else
    where = (p.r, p.s, kind, lo, hi)
    tau = parity_period(p, kind)
    odd = [n for n in calls if tau is None or n % tau]
    assert odd == [h.index for h in hits if h.trivial], where
    built = [n for n in calls if tau is not None and n % tau == 0]
    must, may = even
    assert len(built) == len(set(built)), where
    assert {n for n in must if lo <= n <= hi} <= set(built) <= may, where


def test_sieve_matches_plain_stepping():
    # hits, witnesses, digit counts, trivial flags and reject counts are those
    # of stepping every term, with no exact seed: every exact term is a +-1
    # candidate or an even term whose residue could not settle `size`
    cases = 0
    for p, kind in COMBOS:
        plain = _plain_outcomes(p, kind, FAR)
        even = _exact_even_indices(p, kind, FAR)
        for lo, hi in RANGES:
            hits, rejects = plain_search(plain[lo : hi + 1])
            with mock.patch.object(lucas, "_uv_pair", wraps=lucas._uv_pair) as exact:
                got = search._search_run(p, kind, lo, hi)
            assert got == (hits, rejects), (p.r, p.s, kind, lo, hi)
            _check_exact_terms(p, kind, lo, hi, [c.args[1] for c in exact.call_args_list], hits, even)
            cases += 1
    assert cases == 1632


@pytest.mark.parametrize("r, s, kind, lo, hi", [
    (1, 1, SeqKind.U, 1, 20_000),  # nu_2(U_384) = 9: cap 514 >= 512, then 13 at U_6144
    (1, 1, SeqKind.U, 6_667, 20_000),  # a mid-range start widens at U_6912 (nu_2 = 10)
    (1, -3, SeqKind.U, 1, 12_000),  # negative terms, whose residues are near 2^w
    (2, -3, SeqKind.U, 1, 12_000),  # tau = 2
    (-4, 3, SeqKind.U, 5_001, 12_000),  # negative r, a mid-range start
    # U_3 = 1 + s = +-3 * 2^k: the first even term has nu_2 = k and forces a
    # widening, with real roots (s > 0) and complex ones (s < 0)
    *[(1, sign * 3 * 2**k - 1, SeqKind.U, lo, 600)
      for k in (9, 13) for sign in (1, -1) for lo in (1, 301)],
])
def test_a_widening_run_matches_plain_stepping(r, s, kind, lo, hi):
    # past a widening the residues are reseeded modulo the wider 2^w; without
    # that, the terms after it are settled from wrong residues
    p = validate_params(r, s)
    hits, rejects = plain_search(_plain_outcomes(p, kind, hi)[lo:])
    with mock.patch.object(lucas, "_uv_pair", wraps=lucas._uv_pair) as exact:
        assert search._search_run(p, kind, lo, hi) == (hits, rejects)
    built = [c.args[1] for c in exact.call_args_list]
    _check_exact_terms(p, kind, lo, hi, built, hits, _exact_even_indices(p, kind, hi))
    # the run did widen: it built a term whose cap is at least the first w
    terms = [abs(lucas.term_pair(p, kind, n)[0]) for n in built]
    assert max(_SIZE_BITS.get((x & -x).bit_length() - 1, 0) for x in terms) >= search._W0


@pytest.mark.parametrize("k", [64, 100])
def test_first_even_terms_past_nu_2_of_64_match_plain_stepping(k):
    # U_3 = 1 + s = +-3 * 2^k: nu_2 >= 64 takes the j = 0 window of the even
    # pass and pf_fast_reject's path for an even term with no bit set in its
    # low 64, which no pair of the box reaches
    for s in (3 * 2**k - 1, -3 * 2**k - 1):
        p = validate_params(1, s)
        for kind in SeqKind:
            plain = _plain_outcomes(p, kind, 600)
            for lo in (1, 301):
                assert search._search_run(p, kind, lo, 600) == plain_search(plain[lo:]), (s, kind, lo)


def test_windows_hold_the_residues_that_certify_size():
    # floor[j] <= t <= ceil[j] exactly when the symmetric residue of t modulo
    # 2^w has at least cap = _SIZE_BITS[j - 1] bits and cap < w; (k, f, c)
    # is the window of the largest such nu, k masking the bits below nu + 1.
    # The widths include caps themselves (393 at nu = 8, 514 at nu = 9)
    for w in (64, 393, 394, 512, 514, 1024, 2048):
        k, f, c, floor, ceil = search._windows(w)
        assert search._windows(w) is search._windows(w)  # built once per width
        assert len(floor) == len(ceil) == 65
        for j in range(65):
            cap = _SIZE_BITS.get(j - 1)
            if cap is not None and cap < w:
                assert (floor[j], ceil[j]) == (2 ** (cap - 1), 2**w - 2 ** (cap - 1)), (w, j)
            else:
                assert floor[j] > ceil[j] and floor[j] >= 2**w, (w, j)  # empty
        nu_max = max(nu for nu, cap in _SIZE_BITS.items() if cap < w)
        assert (k, f, c) == (2 ** (nu_max + 1) - 1, floor[nu_max + 1], ceil[nu_max + 1]), w


def test_the_modulus_sets_no_trap():
    """U_n = 2^n - 1 of (3, -2) is -1 modulo 2^64 for every n >= 64, so with
    that modulus every index was a candidate. A false candidate costs one
    exact term and decides nothing, but one per index costs a fast doubling
    per index. Modulo 2P, with P an odd prime, only U_1 = 1 is one."""
    assert search._M == 2 * search._P < 2**30
    assert search._P % 2 == 1 and sympy.isprime(search._P)
    p = validate_params(3, -2)
    with mock.patch.object(lucas, "_uv_pair", wraps=lucas._uv_pair) as exact:
        hits, rejects = search._search_run(p, SeqKind.U, 1, 40_000)
    # s is even, so the run is seeded modulo 2P: its only exact term is U_1
    assert [c.args[1] for c in exact.call_args_list] == [1]
    assert [h.index for h in hits] == [1] and rejects["odd"] == 39_999


REAL = [p for p in BOX if p.roots_real]


def test_real_roots_give_no_unit_term_past_n_2():
    # the lemma that stops the residue pass at n = 2 for real roots: from n = 3
    # on every term of U and of V has |x_n| >= 2
    assert len(REAL) > 50 and any(p.s < 0 for p in REAL) and any(p.r < 0 for p in REAL)
    for p in REAL:
        for kind in SeqKind:
            for n, x in zip(range(3, FAR + 1), iter_terms(p, kind, 3)):
                assert abs(x) >= 2, (p.r, p.s, kind, n)


def test_complex_roots_can_reach_a_unit_term_late():
    # why complex roots keep the whole residue pass
    p = validate_params(1, -2)
    assert not p.roots_real
    assert lucas.term_pair(p, SeqKind.U, 13)[0] == -1
    assert [h.index for h in search._search_run(p, SeqKind.U, 3, 40)[0]] == [3, 5, 13]


def test_real_roots_skip_the_residue_pass_past_n_2():
    # a range from n >= 3 seeds nothing modulo 2P and steps no residue there;
    # the even pass still runs, seeded modulo 2^w
    for p in REAL:
        for kind in SeqKind:
            with mock.patch.object(search, "term_pair_mod", wraps=lucas.term_pair_mod) as seeds:
                search._search_run(p, kind, 3, 300)
            moduli = [c.args[3] for c in seeds.call_args_list]
            assert search._M not in moduli, (p.r, p.s, kind)
            tau = parity_period(p, kind)
            assert len(moduli) == (tau is not None), (p.r, p.s, kind)
    # complex roots with an odd term keep it
    with mock.patch.object(search, "term_pair_mod", wraps=lucas.term_pair_mod) as seeds:
        search._search_run(validate_params(1, -2), SeqKind.U, 3, 300)
    assert [c.args[3] for c in seeds.call_args_list] == [search._M]


@pytest.mark.parametrize("r, s, kind, units", [
    (1, 1, SeqKind.U, (1, 2)),  # U_1 = U_2 = 1
    (1, 1, SeqKind.V, (1,)),  # V_1 = 1
    (-1, 2, SeqKind.U, (1, 2)),  # U_1 = 1, U_2 = -1
])
@pytest.mark.parametrize("lo, hi", [(1, 2), (2, 2), (2, 40)])
def test_real_roots_keep_the_unit_terms_up_to_n_2(r, s, kind, units, lo, hi):
    # the shortened residue pass still finds every +-1 term, and gives the
    # hits and reject counts of plain stepping
    p = validate_params(r, s)
    assert p.roots_real
    hits, rejects = plain_search(_plain_outcomes(p, kind, hi)[lo : hi + 1])
    assert [h.index for h in hits if h.trivial] == [n for n in units if lo <= n]
    assert search._search_run(p, kind, lo, hi) == (hits, rejects)
