"""Staged reduction of the index range for factorial-product Lucas terms.

Each stage is a declarative StageConfig: an M_n lower-bound variant plus the
totient / growth / divisor estimates it is allowed to use, a feasibility floor
and a cap inherited from the previous stage.  A stage "violates" an index n
when the certified lower bound for log M_n exceeds the certified sieve upper
bound for every permitted log|alpha|; since both sides are affine in
log|alpha|, positivity of the margin at the minimal permitted log|alpha|
together with a nonnegative slope certifies the whole ray.

Coverage of a stage's range is exhaustive: a range is evaluated with n carried
as an interval, so one enclosure certifies every integer inside.  The scan
starts from the whole range and bisects only ranges it cannot decide, upper
half first, down to individual indices; below the first survivor nothing is
evaluated, since it cannot raise the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Optional

from .bounds import (
    BoundContext,
    MnBoundVariant,
    Parity,
    growth_log_alpha_lower,
    mn_lower_affine,
    mn_upper_sieve_affine,
    omega_upper,
    phi_lower_omega,
    phi_lower_rs,
    primitive_divisor_log_bound,
)
from .cyclotomic import arithmetic_profile
from .errors import DomainError, Undecidable
from .interval import DEFAULT_PREC, PREC_LADDER, Interval, log_int
from .lucas import SeqKind
from .primes import primorial

# sentinel "no surviving index": the cascade's standing assumption is n > 150
NO_SURVIVOR = 150

_LEAF_WIDTH = 64


@dataclass(frozen=True)
class StageConfig:
    name: str
    variant: MnBoundVariant
    parity: str  # "even" | "odd" | "both"
    omega: Optional[int]  # None: use the explicit omega(n) upper bound
    phi_bound: str  # "rs" | "product" | "exact"
    alpha_bound: str  # "half" | "growth"
    divisor: str  # "n" | "radical" | "exact"
    refined_sieve: bool
    n_floor: int
    n_cap: int
    paper_threshold: int


@dataclass(frozen=True)
class BoundStageReport:
    name: str
    parity: str
    omega: Optional[int]
    phi_bound: str
    variant: str
    computed: int
    paper: int
    decisive: bool


@dataclass(frozen=True)
class CascadeResult:
    case: str
    kind: SeqKind
    stages: tuple[BoundStageReport, ...]
    final_bound: int
    paper_final: int

    @property
    def decisive(self) -> bool:
        return all(s.decisive for s in self.stages) and self.final_bound <= self.paper_final


# -- margin evaluation ---------------------------------------------------------


def _context(cfg: StageConfig, n_lo: int, n_hi: int, prec: int) -> BoundContext:
    parity = Parity.EVEN if cfg.parity == "both" else Parity(cfg.parity)
    n_arg: object = n_lo
    if n_hi > n_lo:
        n_arg = Interval(
            Interval.from_int(n_lo, prec).lo, Interval.from_int(n_hi, prec).hi, prec
        )
    omega = cfg.omega if cfg.omega is not None else omega_upper(n_arg, prec)

    if cfg.phi_bound == "rs":
        phi = phi_lower_rs(n_arg, prec)
    elif cfg.phi_bound == "product":
        phi = phi_lower_omega(n_arg, omega, parity, prec)
    elif cfg.phi_bound == "exact":
        if n_hi > n_lo:
            raise DomainError("exact phi is pointwise only")
        phi = Interval.from_int(arithmetic_profile(n_lo).phi, prec)
    else:
        raise DomainError(f"unknown phi bound {cfg.phi_bound}")

    if cfg.alpha_bound == "half":
        alpha = growth_log_alpha_lower(n_arg, parity, prec, sharp=False)
    elif cfg.alpha_bound == "growth":
        if cfg.parity == "both":
            raise DomainError("the sharp growth bound is parity specific")
        alpha = growth_log_alpha_lower(n_arg, parity, prec, sharp=True)
    else:
        raise DomainError(f"unknown alpha bound {cfg.alpha_bound}")

    divisor = None
    if cfg.divisor == "radical":
        divisor = primitive_divisor_log_bound(cfg.n_floor, omega, parity, prec)(n_arg)
    elif cfg.divisor == "exact":
        if n_hi > n_lo:
            raise DomainError("exact divisor is pointwise only")
        big = max(3, arithmetic_profile(n_lo).largest_prime_factor)
        divisor = log_int(big, prec)
    elif cfg.divisor != "n":
        raise DomainError(f"unknown divisor {cfg.divisor}")

    return BoundContext.build(
        n_lo,
        omega,
        parity,
        alpha,
        phi,
        primitive_divisor_log=divisor,
        prec=prec,
        n_hi=n_hi if n_hi > n_lo else None,
    )


def _margin_parts(cfg: StageConfig, n_lo: int, n_hi: int, prec: int):
    """(slope, margin) of mn_lower - mn_upper as an affine function of log|alpha|,
    evaluated at the minimal permitted log|alpha|."""
    ctx = _context(cfg, n_lo, n_hi, prec)
    a, b = mn_lower_affine(cfg.variant, ctx)
    c, d = mn_upper_sieve_affine(ctx, cfg.refined_sieve)
    slope = a - c
    margin = slope * ctx.log_alpha_lower + (b - d)
    return slope, margin


def stage_violated(n: int, cfg: StageConfig, start_prec: int = DEFAULT_PREC) -> bool:
    """Certify that index n cannot carry a factorial-product term under cfg.

    True only when the margin is positive at the minimal permitted log|alpha|
    AND the margin is nondecreasing in log|alpha|, so the violation holds for
    every sequence satisfying the stage's hypotheses.
    """
    if n <= 150:
        raise DomainError("the cascade's standing assumption is n > 150")
    if cfg.parity == "even" and n % 2:
        raise DomainError(f"{cfg.name} assumes even n")
    if cfg.parity == "odd" and n % 2 == 0:
        raise DomainError(f"{cfg.name} assumes odd n")
    if n < cfg.n_floor:
        raise DomainError(f"{cfg.name} assumes n >= {cfg.n_floor}")
    for prec in PREC_LADDER:
        if prec < start_prec:
            continue
        slope, margin = _margin_parts(cfg, n, n, prec)
        if margin.hi <= 0:
            return False
        if slope.hi < 0:
            # eliminated only at the minimal growth rate, not on the whole ray
            return False
        if margin.lo > 0 and slope.lo >= 0:
            return True
    raise Undecidable(f"{cfg.name}: margin sign at n={n} undecided at max precision")


def _range_violated(cfg: StageConfig, a: int, b: int) -> bool:
    """Certify that every index in [a, b] is violated, with n carried as an
    interval.  False means undecided: a wide range loses the correlation
    between the two sides of the margin, so its enclosure can straddle zero,
    or even fall below it, while every index inside is violated."""
    # A range still undecided at 128 bits is split rather than escalated:
    # halving it narrows the enclosure more cheaply than 256 or 512 bits would.
    for prec in PREC_LADDER[:2]:
        slope, margin = _margin_parts(cfg, a, b, prec)
        if margin.lo > 0 and slope.lo >= 0:
            return True
        if margin.hi <= 0 or slope.hi < 0:
            return False
    return False


# -- exhaustive threshold scan -------------------------------------------------


def _admissible(cfg: StageConfig, a: int, b: int) -> range:
    if cfg.parity == "both":
        return range(a, b + 1)
    want = 0 if cfg.parity == "even" else 1
    start = a if a % 2 == want else a + 1
    return range(start, b + 1, 2)


def _scan(cfg: StageConfig, a: int, b: int) -> int:
    """Largest surviving admissible index in [a, b] (NO_SURVIVOR if none).

    Top-down bisection: a range certified violated is dropped whole, any other
    range is halved, and the lower half is visited only when the upper half
    holds no survivor.  Survivors are only ever taken from point checks.
    """
    points = _admissible(cfg, a, b)
    if not points:
        return NO_SURVIVOR
    if b - a <= _LEAF_WIDTH:
        for n in reversed(points):
            if not stage_violated(n, cfg):
                return n
        return NO_SURVIVOR
    if _range_violated(cfg, a, b):
        return NO_SURVIVOR
    mid = (a + b) // 2
    upper = _scan(cfg, mid + 1, b)
    return upper if upper != NO_SURVIVOR else _scan(cfg, a, mid)


def find_threshold(cfg: StageConfig, workers: int = 1) -> int:
    """Largest index in [n_floor, n_cap] the stage fails to violate.

    The whole range is covered: every admissible index above the answer lies
    in a range certified violated or was checked individually.  One row is
    scanned sequentially; ``workers`` is accepted for call compatibility, and
    the cascade drivers run the rows of a stage in parallel instead.
    """
    return _scan(cfg, max(151, cfg.n_floor), cfg.n_cap)


def _threshold_job(cfg: StageConfig) -> int:
    # pickled by name, so a pool still works while find_threshold is wrapped
    return find_threshold(cfg)


def _report(cfg: StageConfig, computed: int) -> BoundStageReport:
    return BoundStageReport(
        name=cfg.name,
        parity=cfg.parity,
        omega=cfg.omega,
        phi_bound=cfg.phi_bound,
        variant=cfg.variant.value,
        computed=computed,
        paper=cfg.paper_threshold,
        decisive=computed <= cfg.paper_threshold,
    )


def _run_rows(
    rows: list[StageConfig], workers: int, reports: list[BoundStageReport]
) -> int:
    """Scan independent rows, append their reports in row order and return the
    largest threshold.  With workers > 1 the rows share a pool of processes."""
    if workers > 1 and len(rows) > 1:
        with get_context("fork").Pool(min(workers, len(rows))) as pool:
            found = pool.map(_threshold_job, rows, chunksize=1)
    else:
        found = [find_threshold(cfg, workers) for cfg in rows]
    reports.extend(_report(cfg, t) for cfg, t in zip(rows, found))
    return max(found, default=NO_SURVIVOR)


# -- cascade drivers -----------------------------------------------------------

_SCAN_CEILING = 10**9  # stage-1 coverage cap, far above any downstream need


def _lemma_rows(cap: int, paper, name_prefix: str) -> list[StageConfig]:
    """One row per (parity, omega) feasible below cap; paper may be per-parity."""
    rows = []
    for parity, variant, max_w, skip_two in (
        ("even", MnBoundVariant.LEMMA_HW, 7, False),
        ("odd", MnBoundVariant.LEMMA_GW, 6, True),
    ):
        for w in range(1, max_w + 1):
            floor = primorial(w, skip_two=skip_two)
            if floor > cap:
                continue  # no index below cap has w distinct admissible primes
            rows.append(
                StageConfig(
                    name=f"{name_prefix}-{parity}-w{w}",
                    variant=variant,
                    parity=parity,
                    omega=w,
                    phi_bound="product",
                    alpha_bound="half",
                    divisor="n",
                    refined_sieve=False,
                    n_floor=max(150, floor),
                    n_cap=cap,
                    paper_threshold=paper[parity] if isinstance(paper, dict) else paper,
                )
            )
    return rows


def _halve(result: CascadeResult) -> CascadeResult:
    """Map a level-2n cascade onto V-sequence indices (primitive divisors of
    V_n live at level 2n, so every level threshold halves)."""
    stages = tuple(
        replace(s, computed=s.computed // 2, paper=s.paper // 2) for s in result.stages
    )
    return replace(
        result,
        kind=SeqKind.V,
        stages=stages,
        final_bound=result.final_bound // 2,
        paper_final=result.paper_final // 2,
    )


def run_general_cascade(
    kind: SeqKind = SeqKind.U, workers: int = 1
) -> CascadeResult:
    """The five-stage reduction for arbitrary nondegenerate parameters."""
    reports: list[BoundStageReport] = []

    s1 = StageConfig(
        name="stage1-baker",
        variant=MnBoundVariant.COMPLEX_TRIVIAL_F,
        parity="both",
        omega=None,
        phi_bound="rs",
        alpha_bound="half",
        divisor="n",
        refined_sieve=False,
        n_floor=150,
        n_cap=_SCAN_CEILING,
        paper_threshold=18_000_000,
    )
    t1 = _run_rows([s1], workers, reports)

    # below t1 at most 8 distinct primes can divide n
    if primorial(9) <= t1:
        raise DomainError("stage 2 omega hypothesis broken by stage 1 output")
    s2 = StageConfig(
        name="stage2-voutier128",
        variant=MnBoundVariant.COMPLEX_VOUTIER128,
        parity="both",
        omega=8,
        phi_bound="product",
        alpha_bound="half",
        divisor="n",
        refined_sieve=False,
        n_floor=150,
        n_cap=t1,
        paper_threshold=3_900_000,
    )
    t2 = _run_rows([s2], workers, reports)

    # below t2: omega <= 7 always, and odd n cannot reach omega = 7
    if primorial(8) <= t2 or primorial(7, skip_two=True) <= t2:
        raise DomainError("stage 3 omega dichotomy broken by stage 2 output")
    s3a = StageConfig(
        name="stage3-voutier64",
        variant=MnBoundVariant.COMPLEX_VOUTIER64,
        parity="both",
        omega=6,
        phi_bound="product",
        alpha_bound="half",
        divisor="n",
        refined_sieve=False,
        n_floor=150,
        n_cap=t2,
        paper_threshold=1_852_000,
    )
    s3b = StageConfig(
        name="stage3-even-w7",
        variant=MnBoundVariant.LEMMA_HW,
        parity="even",
        omega=7,
        phi_bound="product",
        alpha_bound="half",
        divisor="n",
        refined_sieve=False,
        n_floor=primorial(7),
        n_cap=t2,
        paper_threshold=1_852_000,
    )
    t3 = _run_rows([s3a, s3b], workers, reports)
    t4 = _run_rows(_lemma_rows(t3, 500_000, "stage4"), workers, reports)
    t5 = _run_rows(
        _lemma_rows(t4, {"even": 270_000, "odd": 150_000}, "stage5"), workers, reports
    )

    result = CascadeResult(
        case="general",
        kind=SeqKind.U,
        stages=tuple(reports),
        final_bound=t5,
        paper_final=300_000,
    )
    return _halve(result) if kind is SeqKind.V else result


def _real_rows(cap: int) -> list[StageConfig]:
    paper = {1: 167, 2: 167, 3: 167, 4: 252, 5: 1000, 6: 1000, 7: 1000}
    rows = []
    for parity, max_w, skip_two in (("even", 7, False), ("odd", 6, True)):
        for w in range(1, max_w + 1):
            floor = primorial(w, skip_two=skip_two)
            if floor > cap:
                continue
            rows.append(
                StageConfig(
                    name=f"real-{parity}-w{w}",
                    variant=MnBoundVariant.REAL_EQ5,
                    parity=parity,
                    omega=w,
                    phi_bound="product",
                    alpha_bound="growth",
                    divisor="radical",
                    refined_sieve=True,
                    n_floor=max(150, floor),
                    n_cap=cap,
                    paper_threshold=paper[w],
                )
            )
    return rows


def _row_for(rows: list[StageConfig], parity: str, omega: int) -> StageConfig:
    for cfg in rows:
        if cfg.parity == parity and cfg.omega == omega:
            return cfg
    raise DomainError(f"no row for parity={parity}, omega={omega}")


def run_real_cascade(
    kind: SeqKind = SeqKind.U, workers: int = 1, cap: int = 300_000
) -> CascadeResult:
    """Per-(parity, omega) rows for real quadratic alpha, then the survivors
    are enumerated with their true arithmetic data."""
    reports: list[BoundStageReport] = []
    rows = _real_rows(cap)
    row_max = _run_rows(rows, workers, reports)

    final = NO_SURVIVOR
    for n in range(151, row_max + 1):
        prof = arithmetic_profile(n)
        cfg = _row_for(rows, "even" if n % 2 == 0 else "odd", prof.omega)
        if not stage_violated(n, cfg):
            final = max(final, n)
    reports.append(
        BoundStageReport(
            name="real-survivors",
            parity="both",
            omega=None,
            phi_bound="exact",
            variant=MnBoundVariant.REAL_EQ5.value,
            computed=final,
            paper=210,
            decisive=final <= 210,
        )
    )
    result = CascadeResult(
        case="real",
        kind=SeqKind.U,
        stages=tuple(reports),
        final_bound=final,
        paper_final=210,
    )
    return _halve(result) if kind is SeqKind.V else result


def run_unit_case(p, kind: SeqKind = SeqKind.U) -> CascadeResult:
    """|s| = 1: exact phi(n) and divisor max(3, P(n)) close [151, 210].

    ``p`` is the validated LucasParams; only its unit-norm flag is consulted —
    the range check itself uses the worst-case growth bound, which covers every
    unit-norm pair at once.
    """
    if not p.unit_norm:
        raise DomainError("run_unit_case needs |s| = 1")
    worst = 150
    for n in range(151, 211):
        cfg = StageConfig(
            name=f"unit-n{n}",
            variant=MnBoundVariant.UNIT_EQ55,
            parity="even" if n % 2 == 0 else "odd",
            omega=arithmetic_profile(n).omega,
            phi_bound="exact",
            alpha_bound="growth",
            divisor="exact",
            refined_sieve=False,
            n_floor=150,
            n_cap=n,
            paper_threshold=150,
        )
        if not stage_violated(n, cfg):
            worst = max(worst, n)
    reports = (
        BoundStageReport(
            name="unit-151-210",
            parity="both",
            omega=None,
            phi_bound="exact",
            variant=MnBoundVariant.UNIT_EQ55.value,
            computed=worst,
            paper=150,
            decisive=worst <= 150,
        ),
    )
    result = CascadeResult(
        case="unit",
        kind=SeqKind.U,
        stages=reports,
        final_bound=worst,
        paper_final=150,
    )
    return _halve(result) if kind is SeqKind.V else result


def emit_report(result: CascadeResult) -> dict:
    """JSON-ready summary with stable keys."""
    if not result.stages:
        raise DomainError("a cascade report needs at least one stage")
    return {
        "case": result.case,
        "kind": result.kind.value,
        "finalBound": result.final_bound,
        "paperFinal": result.paper_final,
        "decisive": result.decisive,
        "stages": [
            {
                "name": s.name,
                "parity": s.parity,
                "omega": s.omega,
                "phiBound": s.phi_bound,
                "variant": s.variant,
                "computed": s.computed,
                "paper": s.paper,
                "decisive": s.decisive,
            }
            for s in result.stages
        ],
    }
