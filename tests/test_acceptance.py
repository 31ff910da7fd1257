"""End-to-end acceptance checks, one test per criterion.

Each test registers a single PASS/FAIL line (echoed in the terminal summary)
covering: the general bound cascade, the real-root and unit cases, the
V-sequence halving, the Fibonacci ground truth, the factorial-product oracle,
the cyclotomic identities, domination of the analytic estimates by honest
sieving, the unit-case constant, and determinism across repeated runs.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

from mpmath import mp
from sympy import factorint

from lucaspf.bounds import (
    MnBoundVariant,
    Parity,
    omega_upper,
    phi_lower_omega,
    phi_lower_rs,
    unit_product_constant,
)
from lucaspf.cyclotomic import arithmetic_profile, cyclotomic_value
from lucaspf.factorials import clear_member_cache, pf_member
from lucaspf.interval import Interval, log_int
from lucaspf.lucas import SeqKind, u_at, v_at, validate_params
from lucaspf.pipeline import (
    StageConfig,
    _lemma_rows,
    run_real_cascade,
    run_unit_case,
    stage_violated,
)
from lucaspf.primes import primorial
from lucaspf.search import SearchConfig, search_pf_terms, verify_fibonacci_identity
from oracles import logp_sum_upper, pi_ap_upper, sieve_upto, voutier_pair_lower

# frozen ground truth: indices whose Fibonacci / Lucas-companion terms are
# factorial products, precomputed by brute force over n <= 150
FIB_U_HITS = (1, 2, 3, 6, 12)
FIB_V_HITS = (1, 3)


def _exact_tables(limit):
    phi = list(range(limit + 1))
    omega = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
                omega[k] += 1
    return phi, omega


def _stage_cfg(name, variant, parity, omega, n_floor, paper):
    return StageConfig(
        name=name,
        variant=variant,
        parity=parity,
        omega=omega,
        n_floor=n_floor,
        n_cap=10**9,
        paper_threshold=paper,
    )


def _admissible_at_least(cfg, n):
    if cfg.parity == "even" and n % 2:
        n += 1
    if cfg.parity == "odd" and n % 2 == 0:
        n += 1
    return n


def test_criterion_01_general_cascade(general_u, verdict):
    paper_by_prefix = {
        "stage1-baker": 18_000_000,
        "stage2-voutier128": 3_900_000,
        "stage3": 1_852_000,
        "stage4": 500_000,
        "stage5-even": 270_000,
        "stage5-odd": 150_000,
    }
    ok = general_u.final_bound <= 300_000
    for stage in general_u.stages:
        paper = next(v for k, v in paper_by_prefix.items() if stage.name.startswith(k))
        ok = ok and stage.paper == paper and stage.computed <= paper and stage.decisive

    # violation certified at each paper value and at 2x and 10x it
    cfgs = [
        _stage_cfg("c1-s1", MnBoundVariant.COMPLEX_TRIVIAL_F, "both", None, 150, 18_000_000),
        _stage_cfg("c1-s2", MnBoundVariant.COMPLEX_VOUTIER128, "both", 8, 150, 3_900_000),
        _stage_cfg("c1-s3a", MnBoundVariant.COMPLEX_VOUTIER64, "both", 6, 150, 1_852_000),
        _stage_cfg("c1-s3b", MnBoundVariant.LEMMA_HW, "even", 7, primorial(7), 1_852_000),
    ]
    cfgs += _lemma_rows(10**7, {"even": 500_000, "odd": 500_000}, "c1-s4")
    cfgs += _lemma_rows(10**7, {"even": 270_000, "odd": 150_000}, "c1-s5")
    for cfg in cfgs:
        for k in (1, 2, 10):
            n = _admissible_at_least(cfg, cfg.paper_threshold * k)
            if n < cfg.n_floor:
                continue  # no index with that many prime factors exists there
            ok = ok and stage_violated(n, cfg)
    verdict(1, "general cascade: thresholds within paper values, violation at 1x/2x/10x", ok)


def test_criterion_02_real_case(real_u, verdict):
    paper = {1: 167, 2: 167, 3: 167, 4: 252, 5: 1000, 6: 1000, 7: 1000}
    ok = real_u.final_bound == 210
    for stage in real_u.stages:
        if stage.omega is not None:
            ok = ok and stage.computed <= paper[stage.omega]
    verdict(2, "real-root case: per-omega rows within 167/252/1000, final bound 210", ok)


def test_criterion_03_unit_case(unit_u, verdict):
    ok = unit_u.final_bound == 150 and unit_u.decisive
    for n in range(151, 211):
        cfg = StageConfig(
            name=f"c3-n{n}",
            variant=MnBoundVariant.UNIT_EQ55,
            parity="even" if n % 2 == 0 else "odd",
            omega=arithmetic_profile(n).omega,
            n_floor=150,
            n_cap=n,
            paper_threshold=150,
        )
        ok = ok and stage_violated(n, cfg)
    verdict(3, "unit case: every n in [151,210] violated with exact phi, final bound 150", ok)


def test_criterion_04_v_sequence(general_u, general_v, fib_params, verdict):
    ok = general_v.kind is SeqKind.V
    ok = ok and general_v.final_bound == general_u.final_bound // 2
    ok = ok and general_v.paper_final == 150_000
    for su, sv in zip(general_u.stages, general_v.stages):
        ok = ok and sv.computed == su.computed // 2
    real_v = run_real_cascade(SeqKind.V)
    ok = ok and real_v.final_bound == 105
    unit_v = run_unit_case(fib_params, SeqKind.V)
    ok = ok and unit_v.final_bound == 75
    verdict(4, "V-sequence: all thresholds exactly half the U-case values", ok)


def test_criterion_05_fibonacci_ground_truth(verdict):
    ok = verify_fibonacci_identity()
    u_hits = search_pf_terms(SearchConfig(1, 1, SeqKind.U, 1, 150))
    v_hits = search_pf_terms(SearchConfig(1, 1, SeqKind.V, 1, 150))
    ok = ok and tuple(h.index for h in u_hits) == FIB_U_HITS
    ok = ok and tuple(h.index for h in v_hits) == FIB_V_HITS
    verdict(5, "Fibonacci: factorial identity exact, U hits {1,2,3,6,12}, V hits {1,3}", ok)


def test_criterion_06_pf_oracle_equivalence(verdict):
    limit = 10**6
    facts = []
    f, m = 2, 2
    while f <= limit:
        facts.append(f)
        m += 1
        f *= m
    table = bytearray(limit + 1)
    table[1] = 1
    for n in range(2, limit + 1):
        for f in facts:
            if f > n:
                break
            if n % f == 0 and table[n // f]:
                table[n] = 1
                break
    clear_member_cache()
    disagreements = sum(
        1 for n in range(2, limit + 1) if pf_member(n) != bool(table[n])
    )
    verdict(6, "pf_member matches the dynamic-programming oracle for 2 <= N <= 10^6", disagreements == 0)


def test_criterion_07_cyclotomic_identities(verdict):
    rng = random.Random(42)
    pairs = []
    while len(pairs) < 10:
        r, s = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            pairs.append(validate_params(r, s))
        except Exception:
            continue
    ok = True
    for p in pairs:
        phi_values = {d: cyclotomic_value(p, d) for d in range(2, 301)}
        for n in range(2, 301):
            prod = 1
            for d in range(2, n + 1):
                if n % d == 0:
                    prod *= phi_values[d]
            ok = ok and prod == u_at(p, n).value
    fib = validate_params(1, 1)
    ok = ok and cyclotomic_value(fib, 12) == 6
    for n in range(5, 121):
        for q in factorint(abs(cyclotomic_value(fib, n))):
            if (n * abs(fib.delta)) % q:
                ok = ok and q % n in (1, n - 1)
    verdict(7, "cyclotomic: divisor product law, Phi_12 = 6, primitive primes +-1 mod n", ok)


def test_criterion_08_empirical_bound_domination(verdict):
    ok = True

    # Brun-Titchmarsh at every prime step up to 10^5 for n = 150
    table = sieve_upto(10**5)
    count = 0
    for p in range(2, 10**5 + 1):
        if table[p] and p % 150 in (1, 149):
            count += 1
            if p > 150:
                ok = ok and count <= pi_ap_upper(p, 150).hi
    ok = ok and count <= pi_ap_upper(10**5, 150).hi

    # logp_sum_upper dominates the exact sieved sums on the spec grid
    table6 = sieve_upto(10**6)
    for m, n, parity in ((10**6, 151, Parity.ODD), (450, 150, Parity.EVEN), (22500, 150, Parity.EVEN)):
        exact = 0.0
        for p in range(2, m + 1):
            if table6[p] and p % n in (1, n - 1):
                exact += math.log(p) / (p - 1)
        ok = ok and exact <= logp_sum_upper(m, n, parity).hi

    # voutier lower bound never exceeds the exact |alpha^m - beta^m|
    rng = random.Random(8)
    tested = 0
    while tested < 20:
        r, s = rng.randint(-10, 10), rng.randint(-10, -1)
        try:
            p = validate_params(r, s)
        except Exception:
            continue
        if p.roots_real:
            continue
        tested += 1
        for m in (3, 5, 7, 12, 57, 200, 1001, 2500, 5000):
            u = abs(u_at(p, m).value)
            if u == 0:
                continue
            exact = log_int(u, 128) + log_int(abs(p.delta), 128) / 2
            ok = ok and voutier_pair_lower(p.alpha_abs_log, m).lo <= exact.hi

    # phi and omega explicit bounds for every n <= 10^6
    PHI, OMEGA = _exact_tables(10**6)

    def logs(n):
        # the estimates take log n and log log n of the index enclosure
        logn = Interval.coerce(n).log()
        return logn, logn.log()

    for n in range(3, 1024):
        ok = ok and phi_lower_rs(n, logs(n)[1]).lo <= PHI[n]
    a = 1024
    while a <= 10**6:
        b = min(10**6, a + max(256, a // 16))
        block = Interval(Interval.from_int(a).lo, Interval.from_int(b).hi, 64)
        cap = phi_lower_rs(block, logs(block)[1]).hi
        for n in range(a, b + 1):
            if PHI[n] < cap:
                ok = ok and phi_lower_rs(n, logs(n)[1]).lo <= PHI[n]
        a = b + 1

    # product form: exact rational comparison per (parity, omega) class
    coeffs = {}
    even_primes = (2, 3, 5, 7, 11, 13, 17)
    odd_primes = (3, 5, 7, 11, 13, 17, 19)
    for w in range(1, 8):
        for parity, ps in (("even", even_primes), ("odd", odd_primes)):
            c = math.prod(Fraction(p - 1, p) for p in ps[:w])
            coeffs[(parity, w)] = (c.numerator, c.denominator)
    for n in range(2, 10**6 + 1):
        num, den = coeffs[("even" if n % 2 == 0 else "odd", OMEGA[n])]
        if PHI[n] * den < num * n:
            ok = False
            break
    for n in (151, 2310, 510510, 999999):
        parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        ok = ok and phi_lower_omega(n, OMEGA[n], parity).lo <= PHI[n]

    # omega bound: max omega per class starts at the primorial, where the
    # (increasing) explicit bound is checked to clear the class, and the
    # implementation is sampled directly on top
    max_omega = max(OMEGA[26:])
    for w in range(1, max_omega + 1):
        n0 = max(26, primorial(w))
        val = Interval.from_str("1.3841", 64) * log_int(n0) / log_int(n0).log()
        ok = ok and val.lo > w
    for n in list(range(26, 20000)) + [random.Random(1).randint(26, 10**6) for _ in range(2000)]:
        ok = ok and omega_upper(n, *logs(n)) >= OMEGA[n]

    verdict(8, "analytic bounds dominated by exact sieves; phi/omega bounds hold to 10^6", ok)


def test_criterion_09_unit_constant(verdict):
    const = unit_product_constant()
    ok = const.certainly_gt(Interval.from_str("0.278293", const.prec))
    # independent high-precision oracle with a negligible tail
    with mp.workprec(200):
        g = (1 + mp.sqrt(5)) / 2
        oracle = mp.one
        for d in range(1, 300):
            oracle *= (1 - g ** (-2 * d)) / (1 + g ** (-2 * d))
        ok = ok and abs(mp.mpf(const.lo) - oracle) < mp.mpf("1e-9")
        ok = ok and oracle > mp.mpf("0.278293")
    verdict(9, "unit-case infinite product certified > 0.278293", ok)


def _run_cli(*args):
    out = subprocess.run(
        [sys.executable, "-m", "lucaspf.cli", *args],
        capture_output=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


def test_criterion_10_determinism_and_parallelism(tmp_path, verdict):
    ok = True
    # criterion 5 workload over 5 000 indices: byte-identical across repeats
    search_args = ("search", "--r", "1", "--s", "1", "--max-n", "5000")
    base = _run_cli(*search_args)
    ok = ok and _run_cli(*search_args) == base

    # criterion 1 workload: repeat runs of the full general cascade give the
    # same stdout and the same JSON bytes
    runs = []
    for k in range(2):
        path = tmp_path / f"general-{k}.json"
        runs.append((_run_cli("bounds", "--case", "general", "--json", str(path)),
                     path.read_bytes()))
    ok = ok and runs[0] == runs[1] and json.loads(runs[0][1])["finalBound"] == 267_212
    verdict(10, "CLI byte-identical across repeats", ok)
