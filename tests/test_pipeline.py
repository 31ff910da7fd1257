import bisect
import collections
import contextlib
import dataclasses
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from lucaspf import bounds, cyclotomic, pipeline, primes, search
from lucaspf.bounds import MnBoundVariant, bound_context, mn_lower_affine, mn_upper_sieve_affine
from lucaspf.cyclotomic import arithmetic_profile
from lucaspf.cli import cli_dispatch
from lucaspf.errors import DomainError, Undecidable
from lucaspf.interval import PREC_LADDER, Interval
from lucaspf.lucas import SeqKind, validate_params
from lucaspf.pipeline import (
    NO_SURVIVOR,
    StageConfig,
    _check_coverage,
    _lemma_rows,
    _real_rows,
    _row_for,
    _run_rows,
    emit_report,
    find_threshold,
    run_general_cascade,
    run_real_cascade,
    run_unit_case,
    stage_violated,
)
from lucaspf.primes import primorial
from oracles import mid_float


STAGE1 = StageConfig(
    name="stage1-baker",
    variant=MnBoundVariant.COMPLEX_TRIVIAL_F,
    parity="both",
    omega=None,
    n_floor=150,
    n_cap=10**9,
    paper_threshold=18_000_000,
)


def test_stage_violated_guards():
    with pytest.raises(DomainError):
        stage_violated(150, STAGE1)
    odd_cfg = dataclasses.replace(STAGE1, parity="odd")
    with pytest.raises(DomainError):
        stage_violated(200, odd_cfg)
    floored = dataclasses.replace(STAGE1, n_floor=1000)
    with pytest.raises(DomainError):
        stage_violated(500, floored)


def test_stage1_sample_points():
    assert not stage_violated(151, STAGE1)
    assert not stage_violated(1_000_000, STAGE1)
    assert stage_violated(18_000_000, STAGE1)
    assert stage_violated(200_000_000, STAGE1)


# the regression oracle: every row's threshold as printed by `lucaspf bounds`
GENERAL_COMPUTED = [
    ("stage1-baker", 15_028_725),
    ("stage2-voutier128", 3_700_002),
    ("stage3-voutier64", 1_851_039),
    ("stage3-even-w7", 150),
    ("stage4-even-w1", 10_852),
    ("stage4-even-w2", 18_362),
    ("stage4-even-w3", 38_234),
    ("stage4-even-w4", 81_334),
    ("stage4-even-w5", 153_532),
    ("stage4-even-w6", 267_212),
    ("stage4-even-w7", 150),
    ("stage4-odd-w1", 9_143),
    ("stage4-odd-w2", 12_163),
    ("stage4-odd-w3", 23_303),
    ("stage4-odd-w4", 46_041),
    ("stage4-odd-w5", 85_261),
    ("stage4-odd-w6", 150),
    ("stage5-even-w1", 10_852),
    ("stage5-even-w2", 18_362),
    ("stage5-even-w3", 38_234),
    ("stage5-even-w4", 81_334),
    ("stage5-even-w5", 153_532),
    ("stage5-even-w6", 267_212),
    ("stage5-odd-w1", 9_143),
    ("stage5-odd-w2", 12_163),
    ("stage5-odd-w3", 23_303),
    ("stage5-odd-w4", 46_041),
    ("stage5-odd-w5", 85_261),
    ("stage5-odd-w6", 150),
]

REAL_COMPUTED = [
    ("real-even-w1", 150),
    ("real-even-w2", 150),
    ("real-even-w3", 166),
    ("real-even-w4", 248),
    ("real-even-w5", 150),
    ("real-even-w6", 150),
    ("real-odd-w1", 150),
    ("real-odd-w2", 150),
    ("real-odd-w3", 150),
    ("real-odd-w4", 150),
    ("real-odd-w5", 150),
    ("real-odd-w6", 150),
    ("real-survivors", 210),
]


def test_computed_thresholds_are_pinned(general_u, real_u, unit_u):
    assert [(s.name, s.computed) for s in general_u.stages] == GENERAL_COMPUTED
    assert general_u.final_bound == 267_212
    assert [(s.name, s.computed) for s in real_u.stages] == REAL_COMPUTED
    assert real_u.final_bound == 210
    assert [(s.name, s.computed) for s in unit_u.stages] == [("unit-151-210", 150)]
    # the constant `lucaspf search` labels its coverage by
    assert search.CERTIFIED_BOUNDS == {
        "general": general_u.final_bound,
        "real": real_u.final_bound,
        "unit": unit_u.final_bound,
    }


def test_reports_match_the_frozen_oracle(general_u, real_u, unit_u):
    # the --json reports, frozen as CI diffs them byte for byte
    oracle = Path(__file__).parent / "oracle"
    for case, result in (("general", general_u), ("real", real_u), ("unit", unit_u)):
        assert emit_report(result) == json.loads((oracle / f"bounds-{case}.json").read_text())


@st.composite
def _scan_cases(draw):
    parity = draw(st.sampled_from(["both", "even", "odd"]))
    n_floor = draw(st.integers(100, 3000))
    n_cap = n_floor + draw(st.integers(-20, 4000))
    drawn = draw(st.sets(st.integers(140, 7100), max_size=20))
    drawn |= draw(st.sets(st.sampled_from([n_floor, n_floor + 1, n_cap - 1, n_cap])))
    survivors = sorted(
        n for n in drawn if parity == "both" or n % 2 == (parity == "odd")
    )
    # ranges wider than this stay undecided, as loose enclosures do; the
    # monotone verdict has a width of its own
    decided_width = draw(st.sampled_from([0, 64, 500, 10**9]))
    monotone_width = draw(st.sampled_from([0, 64, 500, 10**9]))
    return parity, n_floor, n_cap, survivors, decided_width, monotone_width


def _scan_with_mocked_verdicts(case, hint=None):
    # find_threshold with _range_violated, _monotone_violated and
    # stage_violated mocked by the drawn survivors, and with the hints
    # patched when given; returns what it found and the largest survivor in
    # range
    parity, n_floor, n_cap, survivors, decided_width, monotone_width = case
    cfg = dataclasses.replace(STAGE1, parity=parity, n_floor=n_floor, n_cap=n_cap)
    lo = max(151, n_floor)

    def any_survivor(a, b):
        i = bisect.bisect_left(survivors, a)
        return i < len(survivors) and survivors[i] <= b

    def range_violated(c, a, b, width=decided_width):
        assert c is cfg and lo <= a <= b <= n_cap
        # a range is evaluated between its first and last admissible index
        assert parity == "both" or a % 2 == b % 2 == (parity == "odd")
        return b - a <= width and not any_survivor(a, b)

    def monotone_violated(c, a, b):
        return range_violated(c, a, b, monotone_width)

    def point_violated(n, c):
        assert c is cfg and lo <= n <= n_cap
        assert parity == "both" or n % 2 == (parity == "odd")
        return not any_survivor(n, n)

    def hinted(c, n):
        assert c is cfg and lo <= n <= n_cap
        return hint(n)

    hints = mock.patch.object(pipeline, "_hint", hinted) if hint else contextlib.nullcontext()
    with mock.patch.object(pipeline, "_range_violated", range_violated), \
            mock.patch.object(pipeline, "_monotone_violated", monotone_violated), \
            mock.patch.object(pipeline, "stage_violated", point_violated), hints:
        got = find_threshold(cfg)
    return got, max((n for n in survivors if lo <= n <= n_cap), default=NO_SURVIVOR)


@settings(max_examples=300, deadline=None)
@given(_scan_cases())
def test_scan_finds_the_largest_survivor(case):
    # the hints are the row's own margins, which know nothing of the mock
    got, expected = _scan_with_mocked_verdicts(case)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(_scan_cases(), st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_hints_never_decide_a_verdict(case, values):
    # hints that say anything at all: brackets around no survivor, survivors
    # with positive hints, patterns that flip from one index to the next,
    # infinities; the scan still returns the largest survivor
    got, expected = _scan_with_mocked_verdicts(case, lambda n: values[n % len(values)])
    assert got == expected


@pytest.mark.parametrize("parity, h, survivor", [("both", 500, 1001), ("even", 500, 1002),
                                                 ("odd", 501, 1003)])
def test_cells_start_at_the_first_index_above_twice_the_survivor(parity, h, survivor):
    # the hints locate h; the monotone verdict refuses the span above it,
    # which holds the survivor, and certifies every index up to 2h; the
    # survivor is the first admissible index past 2h, so the cells must
    # start there
    case = parity, 151, 2000, [h, survivor], 64, 10**9
    assert _scan_with_mocked_verdicts(case, lambda n: n - h - 0.5) == (survivor, survivor)


@pytest.mark.parametrize("parity", ["both", "even", "odd"])
def test_a_range_with_no_bracket_is_covered_by_cells_from_n_0(parity):
    # every hint positive, so no range has a bracket, and only ranges up to
    # 64 wide are certified: the cells from n = 0 cover a range until they
    # would be one cell, which is then bisected
    survivors = [n for n in (997, 1000, 1001, 2999, 3000) if parity == "both"
                 or n % 2 == (parity == "odd")]
    case = parity, 151, 7000, survivors, 64, 0
    assert _scan_with_mocked_verdicts(case, lambda n: 1.0) == (survivors[-1], survivors[-1])
    case = parity, 151, 7000, [], 64, 0
    assert _scan_with_mocked_verdicts(case, lambda n: 1.0) == (NO_SURVIVOR, NO_SURVIVOR)


def test_a_real_row_with_no_survivor_is_covered_by_cells_from_n_0():
    # real-odd-w1 survives nowhere and its hints give no bracket: after the
    # whole range, each cell is certified at once, from the top down, and
    # each starts 3 times as far from n = 1, the odd rows' n = 0, as the one
    # below it
    cfg = _row_for(_real_rows(300_000), "odd", 1)
    calls, patch = _recorded_margins()
    with patch:
        assert find_threshold(cfg) == NO_SURVIVOR
    whole, *cells = calls
    assert whole == (151, 299_999, 64)
    cells.reverse()
    assert len(cells) == 7 and cells[0][0] == 151 and cells[-1][1] == 299_999
    for (a, b, prec), (c, _, _) in zip(cells, cells[1:]):
        assert prec == 64 and c == b + 2 and c - 1 == 3 * (a - 1), (a, b, c)


def test_scan_matches_point_checks_on_a_real_row():
    cfg = _row_for(_real_rows(1000), "even", 4)
    brute = max(
        (n for n in range(cfg.n_floor, cfg.n_cap + 1, 2) if not stage_violated(n, cfg)),
        default=NO_SURVIVOR,
    )
    assert brute == 248
    assert find_threshold(cfg) == brute


def test_certified_ranges_hold_only_violated_indices():
    # a range certified violated as a whole holds no index that its own
    # point check spares; sampled around the thresholds, widths up to 2 000
    lemma = _lemma_rows(1_851_039, {"even": 500_000, "odd": 500_000}, "stage4")
    real = _real_rows(300_000)
    rows = [
        (STAGE1, 15_028_725),
        (pipeline._GENERAL_STAGES[1](15_028_725)[0], 3_700_002),
        (_row_for(lemma, "even", 3), 38_234),
        (_row_for(lemma, "odd", 3), 23_303),
        (_row_for(real, "even", 4), 248),
        (_row_for(real, "odd", 3), 150),
    ]
    rng = random.Random(5)
    certified = 0
    for cfg, threshold in rows:
        for k in range(4):
            width = int(2000 ** rng.random())  # log-uniform in [1, 2000]
            # half the ranges start within one width of the threshold
            near = (threshold - width, threshold + width)
            a = rng.randint(*(near if k % 2 else (threshold, 2 * threshold)))
            a = max(a, 151, cfg.n_floor)
            b = min(a + width, cfg.n_cap)
            if not pipeline._range_violated(cfg, a, b):
                continue
            certified += 1
            for n in range(a, b + 1):
                if cfg.parity == "both" or n % 2 == (cfg.parity == "odd"):
                    assert stage_violated(n, cfg), (cfg.name, a, b, n)
    assert certified >= 12


def test_general_stage_thresholds(general_u):
    by_name = {s.name: s for s in general_u.stages}
    assert by_name["stage1-baker"].computed <= 18_000_000
    assert by_name["stage2-voutier128"].computed <= 3_900_000
    assert by_name["stage3-voutier64"].computed <= 1_852_000
    for s in general_u.stages:
        assert s.decisive, s.name
        if s.name.startswith("stage4"):
            assert s.computed <= 500_000
        if s.name.startswith("stage5"):
            assert s.computed <= (270_000 if s.parity == "even" else 150_000)
    assert general_u.final_bound <= 300_000
    assert general_u.decisive


def test_cross_stage_monotonicity(general_u):
    def agg(prefix):
        return max(
            s.computed for s in general_u.stages if s.name.startswith(prefix)
        )

    assert agg("stage1") >= agg("stage2") >= agg("stage3") >= agg("stage4")
    assert agg("stage4") >= agg("stage5") == general_u.final_bound


def test_omega_dichotomy_feasibility(general_u):
    # the cascade's forward-fed omega assumptions must hold numerically
    by_name = {s.name: s for s in general_u.stages}
    assert primorial(9) > by_name["stage1-baker"].computed
    assert primorial(8) > by_name["stage2-voutier128"].computed
    # odd n with 7 distinct prime factors cannot exist below stage 2's bound
    assert primorial(7, skip_two=True) > by_name["stage2-voutier128"].computed


def test_soundness_sampling_above_thresholds(general_u):
    # spot-check: indices above a decisive threshold are certified violated
    rng = random.Random(3)
    by_name = {s.name: s for s in general_u.stages}
    t1 = by_name["stage1-baker"].computed
    for _ in range(40):
        n = rng.randint(t1 + 1, 10**9)
        assert stage_violated(n, STAGE1), n
    lemma = StageConfig(
        name="stage4-even-w3",
        variant=MnBoundVariant.LEMMA_HW,
        parity="even",
        omega=3,
        n_floor=150,
        n_cap=by_name["stage3-voutier64"].computed,
        paper_threshold=500_000,
    )
    t4 = by_name["stage4-even-w3"].computed
    for _ in range(40):
        n = rng.randint(t4 // 2 + 1, lemma.n_cap // 2) * 2
        if n > t4:
            assert stage_violated(n, lemma), n


def test_violation_is_monotone_in_log_alpha():
    # a violated stage stays violated for any larger permitted log|alpha|
    n = 4_000_002
    cfg = StageConfig(
        name="probe",
        variant=MnBoundVariant.COMPLEX_VOUTIER128,
        parity="both",
        omega=8,
        n_floor=150,
        n_cap=10**7,
        paper_threshold=3_900_000,
    )
    assert stage_violated(n, cfg)
    base = bound_context(cfg.variant, cfg.parity, cfg.omega, n, n, 64)
    (a, b), (c, d) = mn_lower_affine(cfg.variant, base), mn_upper_sieve_affine(base)
    for k in range(1, 11):
        log_alpha = base.log_alpha_lower * k
        assert (a * log_alpha + b).certainly_gt(c * log_alpha + d), k


def test_context_refuses_estimates_outside_their_hypotheses():
    unit = MnBoundVariant.UNIT_EQ55
    bound_context(unit, "even", 2, 200, 200, 64)
    # exact phi(n) and P(n) hold at one index, not over a range
    with pytest.raises(DomainError):
        bound_context(unit, "even", 2, 200, 210, 64)
    # the sharp growth bound needs one parity
    with pytest.raises(DomainError):
        bound_context(MnBoundVariant.REAL_EQ5, "both", 4, 300, 300, 64)


def test_coverage_check_refuses_caps_with_too_many_primes():
    stage2, stage3 = pipeline._GENERAL_STAGES[1:3]
    # some n <= primorial(9) has 9 distinct primes; stage 2 assumes at most 8
    _check_coverage(stage2(primorial(9) - 1))
    with pytest.raises(DomainError):
        _check_coverage(stage2(primorial(9)))
    # stage 3 assumes at most 6 distinct primes for odd n
    _check_coverage(stage3(primorial(7, skip_two=True) - 1))
    with pytest.raises(DomainError):
        _check_coverage(stage3(primorial(7, skip_two=True)))


def test_undecided_margin_raises_and_exits_3(capsys):
    # a margin that straddles zero at every precision is certified neither
    # way: the point check raises and the CLI exits 3 instead of guessing;
    # the unit case's shared margins straddle too, so its indices reach the
    # point check
    precs = []

    def straddle(cfg, n_lo, n_hi, prec):
        precs.append(prec)
        return Interval.from_int(1, prec), Interval.from_str("[-1, 1]", prec)

    def shared_straddle(variant, parity, points):
        return {n: (Interval.from_int(1), Interval.from_str("[-1, 1]")) for n in points}

    with mock.patch.object(pipeline, "_margin_parts", straddle), \
            mock.patch.object(pipeline, "_exact_margins", shared_straddle):
        with pytest.raises(Undecidable):
            stage_violated(200, STAGE1)
        assert precs == list(PREC_LADDER)
        assert cli_dispatch(["bounds", "--case", "unit", "--r", "1", "--s", "1"]) == 3
    assert "undecidable" in capsys.readouterr().err


def _recorded_margins():
    # patches _margin_parts to record (a, b, prec) of every evaluation
    calls = []
    margin_parts = pipeline._margin_parts

    def record(cfg, n_lo, n_hi, prec):
        calls.append((n_lo, n_hi, prec))
        return margin_parts(cfg, n_lo, n_hi, prec)

    return calls, mock.patch.object(pipeline, "_margin_parts", record)


def _recorded_duals():
    # patches _margin_duals to record (a, b) of every dual evaluation
    calls = []
    margin_duals = pipeline._margin_duals

    def record(cfg, n_lo, n_hi):
        calls.append((n_lo, n_hi))
        return margin_duals(cfg, n_lo, n_hi)

    return calls, mock.patch.object(pipeline, "_margin_duals", record)


def test_ranges_are_decided_at_the_first_precision():
    # a range undecided at 64 bits is halved, never escalated: only a single
    # index climbs the precision ladder
    for cfg, threshold in ((STAGE1, 15_028_725), (_row_for(_real_rows(1000), "even", 4), 248)):
        calls, patch = _recorded_margins()
        with patch:
            assert find_threshold(cfg) == threshold
        ranges = [(a, b, prec) for a, b, prec in calls if a < b]
        assert ranges, cfg.name
        assert all(prec == PREC_LADDER[0] for _, _, prec in ranges), cfg.name


def test_one_margin_evaluation_takes_log_n_and_log_log_n_once():
    lemma = _lemma_rows(1_851_039, {"even": 500_000, "odd": 500_000}, "stage4")
    rows = [
        (STAGE1, 1_000_000),
        (pipeline._GENERAL_STAGES[1](15_028_725)[0], 3_700_002),
        (_row_for(lemma, "even", 3), 38_234),
        (_row_for(lemma, "odd", 3), 23_303),
    ]
    log = Interval.log
    logs = []

    def counted(self):
        logs.append(self)
        return log(self)

    with mock.patch.object(Interval, "log", counted):
        for cfg, n in rows:
            for a, b, prec in ((n, n, 64), (n, n, 256), (n - 1000, n, 64)):
                logs.clear()
                pipeline._margin_parts(cfg, a, b, prec)
                assert len(logs) == 2, (cfg.name, a, b, prec)


def _logs_per_evaluation(cfg, a, b, prec):
    # logs one margin evaluation takes with the caches warm: every log, from
    # Interval.log, log_int or a cache fill, is one libmp.mpi_log call
    pipeline._margin_parts(cfg, a, b, prec)
    logs = []
    mpi_log = libmp.mpi_log

    def counted(x, prec):
        logs.append(x)
        return mpi_log(x, prec)

    with mock.patch.object(libmp, "mpi_log", counted):
        pipeline._margin_parts(cfg, a, b, prec)
    return len(logs)


def test_sharp_margins_take_log_rn_minus_1_once():
    # REAL_EQ5 takes log n, log log n and log(rn - 1), whose even form is the
    # refined sieve's log(n - 1); odd rows take log(n - 1) on its own.
    # UNIT_EQ55 takes log n, log log n and log(rn - 1).
    real = _real_rows(300_000)
    cases = [
        (_row_for(real, "even", 4), (250, 250), (250, 300), 3),
        (_row_for(real, "even", 6), (30_030, 30_030), (30_030, 31_000), 3),
        (_row_for(real, "odd", 3), (315, 315), (301, 399), 4),
        (_row_for(real, "odd", 5), (3_465, 3_465), (3_465, 4_001), 4),
    ]
    for cfg, point, span, most in cases:
        for (a, b), prec in ((point, 64), (point, 256), (span, 64)):
            assert _logs_per_evaluation(cfg, a, b, prec) <= most, (cfg.name, a, b, prec)
    for n in (160, 197, 209, 210):
        unit = StageConfig(f"unit-n{n}", MnBoundVariant.UNIT_EQ55, "odd" if n % 2 else "even",
                           arithmetic_profile(n).omega, 150, n, 150)
        for prec in (64, 256):
            assert _logs_per_evaluation(unit, n, n, prec) <= 3, (n, prec)


def _real_cascade_sweep():
    # the points the survivor sweep of run_real_cascade is given, and the
    # point checks it makes; the row scans come first
    sweeps, checks = [], []
    sweep, run_rows, violated = pipeline._sweep, pipeline._run_rows, pipeline.stage_violated

    def rows_then_clear(*args):
        found = run_rows(*args)
        checks.clear()
        return found

    def record_sweep(points, row):
        sweeps.append(list(points))
        return sweep(points, row)

    def record_check(n, cfg):
        checks.append(n)
        return violated(n, cfg)

    with mock.patch.object(pipeline, "_run_rows", rows_then_clear), \
            mock.patch.object(pipeline, "_sweep", record_sweep), \
            mock.patch.object(pipeline, "stage_violated", record_check):
        result = run_real_cascade()
    assert result.final_bound == 210
    return sweeps[-1], checks


def test_real_survivor_sweep_makes_one_point_check():
    _, checks = _real_cascade_sweep()
    assert checks == [210]


def test_real_sweep_skips_only_indices_their_row_certified(real_u):
    swept, _ = _real_cascade_sweep()
    rows = _real_rows(300_000)
    # the sweep without the skip: every index up to the largest row
    # threshold, against the row of its exact parity and omega
    survivors, skipped = [], []
    for n in range(151, 249):
        cfg = _row_for(rows, "odd" if n % 2 else "even", arithmetic_profile(n).omega)
        if not stage_violated(n, cfg):
            survivors.append(n)
        if n not in swept:
            skipped.append(n)
            assert stage_violated(n, cfg), n
    assert max(survivors) == real_u.final_bound == 210
    assert set(survivors) <= set(swept)
    # every index above 210 that the old sweep checked is skipped
    assert set(range(211, 249)) <= set(skipped)


def test_stage5_even_w6_evaluation_count_is_pinned():
    # the row that sets the certified bound: its threshold is its own cap, so
    # the whole range is undecided, the hints at both ends are nonpositive and
    # the top index is point-checked; the hints are float estimates, so the
    # interval evaluations are the range and the point
    cfg = _row_for(pipeline._GENERAL_STAGES[4](267_212), "even", 6)
    calls, patch = _recorded_margins()
    with patch:
        assert find_threshold(cfg) == 267_212
    assert calls == [(30_030, 267_212, 64), (267_212, 267_212, 64)]


# The work of a scan, pinned exactly: interval and dual margin evaluations
# of the three general rows the benchmark scans, of the slowest real row and
# of the full cascades.  The hints are float estimates and are not among
# them.  A change of scan or enclosure that moves one is seen.
ROW_WORK = {
    "stage1-baker": (15_028_725, 6, 2),
    "stage4-even-w6": (267_212, 2, 1),
    "stage4-odd-w5": (85_261, 2, 1),
    "real-even-w4": (248, 9, 2),
}
# The unit case makes none: its shared margins are pinned on their own.
CASCADE_WORK = {"general": (42, 15), "real": (97, 4), "unit": (0, 0)}


def _work_rows():
    lemma = _lemma_rows(1_851_039, {"even": 500_000, "odd": 500_000}, "stage4")
    return {
        "stage1-baker": STAGE1,
        "stage4-even-w6": _row_for(lemma, "even", 6),
        "stage4-odd-w5": _row_for(lemma, "odd", 5),
        "real-even-w4": _row_for(_real_rows(300_000), "even", 4),
    }


def test_scan_work_is_pinned(fib_params):
    for name, cfg in _work_rows().items():
        threshold, evaluations, dual_evaluations = ROW_WORK[name]
        calls, patch = _recorded_margins()
        duals, dual_patch = _recorded_duals()
        with patch, dual_patch:
            assert find_threshold(cfg) == threshold, name
        assert (len(calls), len(duals)) == (evaluations, dual_evaluations), name
    cascades = {
        "general": run_general_cascade,
        "real": run_real_cascade,
        "unit": lambda: run_unit_case(fib_params),
    }
    for case, run in cascades.items():
        calls, patch = _recorded_margins()
        duals, dual_patch = _recorded_duals()
        with patch, dual_patch:
            assert run().final_bound == search.CERTIFIED_BOUNDS[case]
        assert (len(calls), len(duals)) == CASCADE_WORK[case], case


def test_stage1_finds_its_top_survivor_above_a_lower_one():
    # stage 1 survives up to 6 715 930, is violated above it until omega_upper
    # steps from 7 to 8 at 9 245 844, and then survives again through a
    # negative slope up to 15 028 725: not one interval of survivors
    assert not stage_violated(6_715_930, STAGE1) and stage_violated(6_715_931, STAGE1)
    omega = [bound_context(STAGE1.variant, STAGE1.parity, STAGE1.omega, n, n, 64).omega_assumed
             for n in (9_245_843, 9_245_844)]
    assert omega == [7, 8]
    slope, _ = pipeline._margin_parts(STAGE1, 10**7, 10**7, 64)
    assert slope.signs() == (-1, -1)
    calls, patch = _recorded_margins()
    duals, dual_patch = _recorded_duals()
    with patch, dual_patch:
        assert find_threshold(STAGE1) == 15_028_725
    assert (len(calls), len(duals)) == ROW_WORK["stage1-baker"][1:]


def test_monotone_verdict_replays_the_range_branches_at_its_bottom():
    # over [7 000 000, 9 300 000] slope and margin both increase, and the
    # point verdict at 7 000 000 holds with its own omega_upper of 7; but
    # omega_upper steps to 8 at 9 245 844, where the row survives, and the
    # range's omega of 8 replayed at 7 000 000 makes slope and margin negative
    a, b = 7_000_000, 9_300_000
    slope, margin = pipeline._margin_duals(STAGE1, a, b)
    assert slope.der.signs() == margin.der.signs() == (1, 1)
    assert bound_context(STAGE1.variant, STAGE1.parity, STAGE1.omega, a, a, 64).omega_assumed == 7
    assert stage_violated(a, STAGE1) and not stage_violated(9_245_844, STAGE1)
    assert slope.at.signs() == margin.at.signs() == (-1, -1)
    assert not pipeline._monotone_violated(STAGE1, a, b)


def test_monotone_verdict_refuses_a_range_around_a_survivor():
    assert not stage_violated(6_715_930, STAGE1)
    assert not pipeline._monotone_violated(STAGE1, 6_715_920, 6_715_940)


@pytest.mark.parametrize("broken", [None, "slope_der", "margin_der", "slope_at", "margin_at"])
def test_monotone_verdict_needs_every_sign(broken):
    # nonnegative derivatives and slope at the bottom, a positive margin
    # there: each at its edge certifies, and each just past it refuses
    edge = {"slope_der": "[0, 1]", "margin_der": "[0, 1]", "slope_at": "[0, 1]",
            "margin_at": "[1e-30, 1]"}
    if broken:
        edge[broken] = "[0, 1]" if broken == "margin_at" else "[-1e-30, 1]"
    part = {k: Interval.from_str(v, 64) for k, v in edge.items()}
    duals = (bounds.Dual(part["slope_at"], part["slope_at"], part["slope_der"]),
             bounds.Dual(part["margin_at"], part["margin_at"], part["margin_der"]))
    with mock.patch.object(pipeline, "_margin_duals", lambda cfg, a, b: duals):
        assert pipeline._monotone_violated(STAGE1, 200, 300) is (broken is None)


def test_monotone_ranges_hold_only_violated_indices():
    # sampled as in test_certified_ranges_hold_only_violated_indices: a range
    # the monotone verdict certifies holds no index its point check spares
    lemma = _lemma_rows(1_851_039, {"even": 500_000, "odd": 500_000}, "stage4")
    real = _real_rows(300_000)
    rows = [
        (STAGE1, 6_715_930),
        (STAGE1, 15_028_725),
        (pipeline._GENERAL_STAGES[1](15_028_725)[0], 3_700_002),
        (_row_for(lemma, "even", 3), 38_234),
        (_row_for(lemma, "odd", 5), 85_261),
        (_row_for(real, "even", 4), 248),
        (_row_for(real, "odd", 3), 150),
    ]
    rng = random.Random(7)
    certified = 0
    for cfg, threshold in rows:
        for k in range(4):
            width = int(2000 ** rng.random())
            near = (threshold - width, threshold + width)
            a = rng.randint(*(near if k % 2 else (threshold, 2 * threshold)))
            a = max(a, 151, cfg.n_floor)
            b = min(a + width, cfg.n_cap)
            if not pipeline._monotone_violated(cfg, a, b):
                continue
            certified += 1
            for n in range(a, b + 1):
                if cfg.parity == "both" or n % 2 == (cfg.parity == "odd"):
                    assert stage_violated(n, cfg), (cfg.name, a, b, n)
    assert certified >= 12


def test_cascade_monotone_ranges_are_violated_where_sampled(fib_params):
    # every range the cascades certify by the monotone verdict, point-checked
    # at its ends and at three indices inside
    certified = []
    monotone = pipeline._monotone_violated

    def record(cfg, a, b):
        ok = monotone(cfg, a, b)
        if ok:
            certified.append((cfg, a, b))
        return ok

    with mock.patch.object(pipeline, "_monotone_violated", record):
        run_general_cascade()
        run_real_cascade()
    assert len(certified) >= 10
    rng = random.Random(3)
    for cfg, a, b in certified:
        points = pipeline._admissible(cfg, a, b)
        for n in (points[0], points[-1], *rng.sample(points, min(3, len(points)))):
            assert stage_violated(n, cfg), (cfg.name, a, b, n)


def _interval_calls(cfg, a, b, prec):
    # libmp interval calls (mpi_*) of one margin evaluation, caches warm
    pipeline._margin_parts(cfg, a, b, prec)
    calls = []

    def counted(f):
        def call(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        for name in dir(libmp):
            if name.startswith("mpi_"):
                stack.enter_context(mock.patch.object(libmp, name, counted(getattr(libmp, name))))
        pipeline._margin_parts(cfg, a, b, prec)
    return len(calls)


def test_a_lemma_evaluation_makes_at_most_23_interval_calls():
    # the quadratic in Horner form and the row constants folded once per
    # precision: even rows take log(n/2), odd rows log n and a folded quarter
    rows = _work_rows()
    for name, n, pinned in (("stage4-even-w6", 267_212, 23), ("stage4-odd-w5", 85_261, 22)):
        for (a, b), prec in (((n, n), 64), ((n, n), 256), ((n + 2, 2 * n), 64)):
            assert _interval_calls(rows[name], a, b, prec) == pinned, (name, a, b, prec)


def _cascade_rows(run):
    # {row: threshold} of every row of a cascade, scanned or reused
    rows = {}

    def record(*args):
        found = _run_rows(*args)
        rows.update(found)
        return found

    with mock.patch.object(pipeline, "_run_rows", record):
        run()
    return rows


def test_float_estimates_follow_the_64_bit_margins():
    # at the first admissible index of each row of the general and real
    # cascades, its threshold, the next admissible index and its cap: the
    # float estimate is the midpoint of the 64-bit margin to within 1e-9 of
    # the largest term, and has its sign wherever that sign is certain
    checked = 0
    for run in (run_general_cascade, run_real_cascade):
        for cfg, threshold in _cascade_rows(run).items():
            points = pipeline._admissible(cfg, max(151, cfg.n_floor), cfg.n_cap)
            for n in {points[0], threshold, threshold + points.step, points[-1]}:
                if n not in points:  # a threshold below the row's range
                    continue
                est = bounds.margin_estimate(cfg.variant, cfg.parity, cfg.omega, n)
                got = bounds.row_margin(cfg.variant, cfg.parity, cfg.omega, n, n, 64)
                ctx = bound_context(cfg.variant, cfg.parity, cfg.omega, n, n, 64)
                (a, b), (c, d) = mn_lower_affine(cfg.variant, ctx), mn_upper_sieve_affine(ctx)
                terms = (ctx.phi_lower, a, b, c, d, (a - c) * ctx.log_alpha_lower)
                scale = max(abs(mid_float(x)) for x in terms)
                for e, x in zip(est, got):
                    assert isinstance(e, float), (cfg.name, n)
                    assert abs(e - mid_float(x)) <= 1e-9 * scale, (cfg.name, n, e, x)
                    lo, hi = x.signs()
                    if lo == hi != 0:
                        assert (e > 0) == (lo > 0), (cfg.name, n, e, x)
                verdict = pipeline._verdict(cfg, n, n, PREC_LADDER[:1])
                if verdict is not None:
                    assert (pipeline._hint(cfg, n) > 0) == verdict, (cfg.name, n)
                checked += 1
    assert checked == 134


def test_no_float_reaches_a_verdict(fib_params):
    # every margin a verdict reads, over the three cascades, is an Interval,
    # the unit case's shared margins included, and so is every component of
    # a dual verdict's slope and margin
    results, dual_results = [], []
    margin_parts, margin_duals = pipeline._margin_parts, pipeline._margin_duals
    exact_margins = pipeline._exact_margins

    def record(*args):
        results.append(margin_parts(*args))
        return results[-1]

    def record_duals(*args):
        dual_results.append(margin_duals(*args))
        return dual_results[-1]

    def record_exact(*args):
        margins = exact_margins(*args)
        results.extend(margins.values())
        return margins

    with mock.patch.object(pipeline, "_margin_parts", record), \
            mock.patch.object(pipeline, "_margin_duals", record_duals), \
            mock.patch.object(pipeline, "_exact_margins", record_exact):
        run_general_cascade()
        run_real_cascade()
        run_unit_case(fib_params)
    assert len(results) == sum(work[0] for work in CASCADE_WORK.values()) + 60
    assert len(dual_results) == sum(work[1] for work in CASCADE_WORK.values())
    assert all(isinstance(x, Interval) for pair in results for x in pair)
    assert all(isinstance(x, Interval) for pair in dual_results for d in pair
               for x in (d.at, d.val, d.der))


def _recorded_scans():
    # patches find_threshold to record the name of every row it scans
    names = []
    scan = pipeline.find_threshold

    def record(cfg, workers=1):
        names.append(cfg.name)
        return scan(cfg, workers)

    return names, mock.patch.object(pipeline, "find_threshold", record)


def test_general_cascade_scans_16_of_its_29_rows():
    # every stage-5 row, and stage4-even-w7 (the key of stage3-even-w7), takes
    # the threshold of an earlier scan of the same verdict key
    names, patch = _recorded_scans()
    with patch:
        result = run_general_cascade()
    assert len(names) == 16 and len(result.stages) == 29
    assert not [n for n in names if n.startswith("stage5")] and "stage4-even-w7" not in names
    oracle = Path(__file__).parent / "oracle" / "bounds-general.json"
    assert emit_report(result) == json.loads(oracle.read_text())


def test_a_row_reuses_an_earlier_scan_only_up_to_its_cap():
    earlier = _run_rows(_real_rows(1000), {})
    before = dict(earlier)
    all_rows = [cfg.name for cfg in _real_rows(2000)]
    # real-even-w4 survives at 248: a cap of 240 lies below that threshold,
    # and a cap of 2000 above the earlier scans' cap
    for cap, rescanned in ((600, []), (240, ["real-even-w4"]), (2000, all_rows)):
        rows = _real_rows(cap)
        names, patch = _recorded_scans()
        with patch:
            found = _run_rows(rows, earlier)
        assert names == rescanned, cap
        assert list(found) == rows, cap
        assert list(found.values()) == [find_threshold(cfg) for cfg in rows], cap
    assert earlier == before


def test_reuse_reads_the_earlier_row_with_the_largest_cap():
    # real-even-w4 at cap 240 comes last, but the row with cap 1000 and
    # threshold 248 is the one a cap of 600 reuses, whatever the order
    wide, narrow = _run_rows(_real_rows(1000), {}), _run_rows(_real_rows(240), {})
    for earlier in ({**wide, **narrow}, {**narrow, **wide}):
        names, patch = _recorded_scans()
        with patch:
            found = _run_rows(_real_rows(600), earlier)
        assert names == [] and max(found.values()) == 248


def test_unit_case_factorizes_each_index_once(fib_params):
    cyclotomic.arithmetic_profile.cache_clear()
    factorize = cyclotomic.factorize
    seen = []

    def record(n):
        seen.append(n)
        return factorize(n)

    with mock.patch.object(cyclotomic, "factorize", record):
        assert run_unit_case(fib_params).final_bound == 150
    assert sorted(seen) == list(range(151, 211))


def test_real_cascade_builds_each_prime_list_once():
    # primorial is cached, so the divisor bound of a REAL_EQ5 margin no longer
    # rebuilds its prime list
    primorial.cache_clear()
    nth_primes = primes.nth_primes
    calls = collections.Counter()

    def record(k, skip_two=False):
        calls[k, skip_two] += 1
        return nth_primes(k, skip_two)

    with mock.patch.object(primes, "nth_primes", record):
        assert run_real_cascade().final_bound == 210
    assert calls and max(calls.values()) == 1


def test_find_threshold_on_empty_domain():
    cfg = dataclasses.replace(STAGE1, n_floor=10**6, n_cap=10**5)
    assert find_threshold(cfg) == NO_SURVIVOR


def test_real_rows_and_final(real_u):
    by_omega = {}
    for s in real_u.stages:
        if s.omega is not None:
            by_omega.setdefault(s.omega, []).append(s.computed)
    assert max(by_omega[3]) <= 167
    assert max(by_omega[4]) <= 252
    for w in (5, 6):
        assert max(by_omega[w]) <= 1000
    assert real_u.final_bound == 210
    assert real_u.decisive


def test_unit_case_closes(unit_u):
    assert unit_u.final_bound == 150
    assert unit_u.decisive
    # 210 = 2*3*5*7 is the last real-case survivor but the unit bound kills it
    assert unit_u.stages[0].computed == 150


def _unit_case_work(run):
    # run() with the shared margins of the unit case, its interval margin
    # evaluations and its point checks recorded
    shared, calls, checks = [], [], []
    exact_margins, violated = pipeline._exact_margins, pipeline.stage_violated

    def record_shared(variant, parity, points):
        shared.append((parity, list(points)))
        return exact_margins(variant, parity, points)

    def record_check(n, cfg):
        checks.append(n)
        return violated(n, cfg)

    margins, patch = _recorded_margins()
    with patch, mock.patch.object(pipeline, "_exact_margins", record_shared), \
            mock.patch.object(pipeline, "stage_violated", record_check):
        result = run()
    return result, shared, len(margins), checks


def test_unit_case_certifies_each_index_from_its_parity_context(fib_params):
    # one shared context per parity gives all 60 index margins, which the
    # sign rule certifies: no interval margin evaluation and no point check
    result, shared, evaluations, checks = _unit_case_work(lambda: run_unit_case(fib_params))
    assert result.final_bound == 150
    assert shared == [("even", list(range(152, 211, 2))), ("odd", list(range(151, 210, 2)))]
    assert (evaluations, checks) == (0, [])


@pytest.mark.parametrize("undecided, survivors, expected", [
    ({200: "[-1, 1]"}, set(), 150),
    ({200: "[-1, 1]"}, {200}, 200),
    ({171: "[-1, 1]", 206: "-1"}, {171}, 171),
    ({171: "[-1, 1]", 206: "-1"}, {171, 206}, 206),
])
def test_an_index_the_shared_pass_leaves_undecided_is_point_checked(
        fib_params, undecided, survivors, expected):
    # the shared pass mocked to leave some indices undecided (or certainly
    # not violated): exactly those are point-checked, top-down, and a mocked
    # survivor among them is the unit bound; the others stay certified
    exact_margins = pipeline._exact_margins

    def shared(variant, parity, points):
        margins = exact_margins(variant, parity, points)
        for n in set(points) & set(undecided):
            margins[n] = (margins[n][0], Interval.from_str(undecided[n]))
        return margins

    checks = []

    def point_check(n, cfg):
        assert cfg.name == f"unit-n{n}"
        checks.append(n)
        return n not in survivors

    with mock.patch.object(pipeline, "_exact_margins", shared), \
            mock.patch.object(pipeline, "stage_violated", point_check):
        result = run_unit_case(fib_params)
    top_down = sorted(undecided, reverse=True)
    stop = next((i for i, n in enumerate(top_down) if n in survivors), len(top_down) - 1)
    assert checks == top_down[:stop + 1]
    assert result.final_bound == result.stages[0].computed == expected


def test_unit_case_reads_nothing_of_the_pair_but_its_unit_norm():
    for kind in (SeqKind.U, SeqKind.V):
        reports = [emit_report(run_unit_case(validate_params(r, s), kind))
                   for r, s in ((1, 1), (3, -1), (2, 1))]
        assert reports[0] == reports[1] == reports[2], kind


def test_unit_case_requires_unit_norm():
    with pytest.raises(DomainError):
        run_unit_case(validate_params(2, 3))


def test_v_kind_halves_everything(general_u, general_v, fib_params):
    assert general_v.kind is SeqKind.V
    assert general_v.final_bound == general_u.final_bound // 2
    for su, sv in zip(general_u.stages, general_v.stages):
        assert sv.computed == su.computed // 2
        assert sv.paper == su.paper // 2
    assert run_unit_case(fib_params, SeqKind.V).final_bound == 75


def test_cascades_store_the_kind_they_are_given_as_a_string(general_v, fib_params):
    # "V" == SeqKind.V, but only the member has a level and a .value: the
    # cascades store the member, so "V" gives V's bounds and a report
    unit = run_unit_case(fib_params, "V")
    assert unit.kind is SeqKind.V and unit.final_bound == 75
    assert emit_report(unit) == emit_report(run_unit_case(fib_params, SeqKind.V))
    real = run_real_cascade("V")
    assert real.kind is SeqKind.V and real.final_bound == 105
    assert emit_report(run_general_cascade("V")) == emit_report(general_v)
    for run in (run_general_cascade, run_real_cascade, lambda k: run_unit_case(fib_params, k)):
        assert run("U").kind is SeqKind.U
        with pytest.raises(DomainError):
            run("W")


def test_report_schema(general_u):
    report = emit_report(general_u)
    assert list(report) == [
        "case",
        "kind",
        "finalBound",
        "paperFinal",
        "decisive",
        "stages",
    ]
    for stage in report["stages"]:
        assert list(stage) == [
            "name",
            "parity",
            "omega",
            "phiBound",
            "variant",
            "computed",
            "paper",
            "decisive",
        ]


def test_report_requires_stages(general_u):
    empty = dataclasses.replace(general_u, stages=())
    with pytest.raises(DomainError):
        emit_report(empty)
