"""Staged reduction of the index range for factorial-product Lucas terms.

A stage is a list of StageConfig rows: an M_n lower-bound variant, the parity
and number of distinct primes (omega) a row assumes, a feasibility floor and a
cap inherited from the previous stage.  This module keeps the rows, scans them
and reports; bounds builds every margin, from the variant, parity and omega
alone (bounds.row_margin), so a verdict never reads a row's name, cap, floor
or paper value.  A row "violates" an index n when the certified lower bound
for log M_n exceeds the certified sieve upper bound for every permitted
log|alpha|; since both sides are affine in log|alpha|, positivity of the
margin at the minimal permitted log|alpha| together with a nonnegative slope
certifies the whole ray.

Coverage of a stage's range is exhaustive: a margin is evaluated on one
enclosure of the index, [n, n] at a point or [a, b] over a range, at that
enclosure's precision, so one evaluation over [a, b] certifies every integer
inside; it takes log n and log log n once.  Points and ranges share one
verdict: a range is decided at 64 bits, the first precision of the ladder,
and a single index climbs the ladder until the sign of the margin is certain.

The scan of a row first tries its whole range.  Then the row's own point
margins serve as hints: the same formulas evaluated in plain floats
(bounds.margin_estimate), while every verdict is evaluated in intervals.  A
safeguarded secant in log n on the hints locates the top sign change h, the
indices above h are covered top-down by cells whose width grows geometrically
with their distance from h, and h is point-checked.  A cell left undecided is
scanned the same way.  A range whose hints give no bracket, and the range
below an h that its point check finds violated, are bisected, upper half
first, with no further hints.  A hint only
chooses where the scan cuts: every range dropped is certified violated, every
survivor comes from a point check, and ranges are visited from the top down,
so the first survivor found is the largest whatever the hints say.  Below it
nothing is evaluated, since it cannot raise the threshold.

The general cascade is a table of five stages, each built from the threshold
of the stage before; a row that repeats the verdict of a row scanned earlier
takes that row's threshold when its cap allows.  The real and unit cases end
with a sweep that checks each remaining index against the row of its exact
parity and omega, in the real case only those that no row's scan certified
against that same row.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Sequence

from .bounds import MnBoundVariant, margin_estimate, phi_estimate, row_margin
from .cyclotomic import arithmetic_profile
from .errors import DomainError, Undecidable
from .interval import PREC_LADDER
from .lucas import SeqKind, seq_kind
from .primes import primorial

# sentinel "no surviving index": the cascade's standing assumption is n > 150
NO_SURVIVOR = 150


@dataclass(frozen=True)
class StageConfig:
    name: str
    variant: MnBoundVariant
    parity: str  # "even" | "odd" | "both"
    omega: Optional[int]  # None: use the explicit omega(n) upper bound
    n_floor: int
    n_cap: int
    paper_threshold: int


@dataclass(frozen=True)
class BoundStageReport:
    name: str
    parity: str
    omega: Optional[int]
    phi_estimate: str  # see bounds.phi_estimate
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


def _margin_parts(cfg: StageConfig, n_lo: int, n_hi: int, prec: int):
    """(slope, margin) of cfg over [n_lo, n_hi] at prec (see bounds.row_margin)."""
    return row_margin(cfg.variant, cfg.parity, cfg.omega, n_lo, n_hi, prec)


def _verdict(cfg: StageConfig, a: int, b: int, precs: tuple[int, ...]) -> Optional[bool]:
    """Whether every index in [a, b] is violated, trying each precision in turn.

    True only when the margin is positive at the minimal permitted log|alpha|
    AND the margin is nondecreasing in log|alpha|, so the violation holds for
    every sequence satisfying the stage's hypotheses.  False when the margin is
    certainly nonpositive there, or certainly decreasing (eliminated only at
    the minimal growth rate, not on the whole ray).  None when no precision
    decides either way.
    """
    for prec in precs:
        slope, margin = _margin_parts(cfg, a, b, prec)
        # decided on the signs of the raw endpoints: no mpf is built
        (slope_lo, slope_hi), (margin_lo, margin_hi) = slope.signs(), margin.signs()
        if margin_lo > 0 and slope_lo >= 0:
            return True
        if margin_hi <= 0 or slope_hi < 0:
            return False
    return None


def stage_violated(n: int, cfg: StageConfig) -> bool:
    """Certify that index n cannot carry a factorial-product term under cfg."""
    if n <= 150:
        raise DomainError("the cascade's standing assumption is n > 150")
    if cfg.parity == "even" and n % 2:
        raise DomainError(f"{cfg.name} assumes even n")
    if cfg.parity == "odd" and n % 2 == 0:
        raise DomainError(f"{cfg.name} assumes odd n")
    if n < cfg.n_floor:
        raise DomainError(f"{cfg.name} assumes n >= {cfg.n_floor}")
    verdict = _verdict(cfg, n, n, PREC_LADDER)
    if verdict is None:
        raise Undecidable(f"{cfg.name}: margin sign at n={n} undecided at max precision")
    return verdict


def _range_violated(cfg: StageConfig, a: int, b: int) -> bool:
    """Certify that every index in [a, b] is violated.  False means undecided:
    a wide range loses the correlation between the two sides of the margin, so
    its enclosure can straddle zero, or even fall below it, while every index
    inside is violated."""
    # A range undecided at 64 bits is split rather than escalated: its width,
    # not the rounding, is what leaves it undecided, and halving narrows it.
    return _verdict(cfg, a, b, PREC_LADDER[:1]) is True


# -- exhaustive threshold scan -------------------------------------------------


def _admissible(cfg: StageConfig, a: int, b: int) -> range:
    if cfg.parity == "both":
        return range(a, b + 1)
    want = 0 if cfg.parity == "even" else 1
    start = a if a % 2 == want else a + 1
    return range(start, b + 1, 2)


def _parity(n: int) -> str:
    return "odd" if n % 2 else "even"


def _sweep(points: Sequence[int], row: Callable[[int], StageConfig]) -> int:
    """Largest n in points that row(n) fails to violate (NO_SURVIVOR if none),
    checked one index at a time from the top down."""
    for n in reversed(points):
        if not stage_violated(n, row(n)):
            return n
    return NO_SURVIVOR


# Each cell reaches _CELL_GROWTH times as far from the located index h as the
# cell below it, so its width is _CELL_GROWTH - 1 times its distance from h.
# Near h the margin grows about linearly with that distance and the slack of
# its enclosure with the width, so a cell certifies only up to some ratio of
# the two.  Interval margin evaluations of the full general cascade, and of
# its three benchmark rows (stage1-baker, stage4-even-w6, stage4-odd-w5), by
# factor, with the float hints in brackets: 2: 335 and 76 (127, 28); 2.5: 275
# and 61 (127, 28); 3: 243 and 55 (133, 30); 3.5: 227 and 51 (133, 30); 4:
# 244 and 59 (155, 37), where the cells next to h stop certifying and are
# split.  3 lies in the flat part, a step short of that edge.
_CELL_GROWTH = 3


def _hint(cfg: StageConfig, n: int) -> float:
    """The row's point margin at n, over n, evaluated in floats
    (bounds.margin_estimate: the formulas of the verdict's margin, not an
    enclosure): positive where n looks violated.  Where the slope is negative
    the smaller of margin and slope is read, so the sign follows the
    verdict's.  Dividing by n makes the reading nearly linear in log n, which
    the secant needs.  It decides nothing."""
    s, m = margin_estimate(cfg.variant, cfg.parity, cfg.omega, n)
    return (m if s >= 0 else min(m, s)) / n


def _rescale(new: float, old: float) -> float:
    # Anderson-Björck: the factor applied to the value of the bracket end that
    # is kept twice in a row, so the next secant point lands past the zero.
    # The Illinois rule's constant 1/2 took 209 hints over the general and
    # real cascades where this takes 162.
    m = 1 - new / old if old else 0.5
    return m if m > 0 else 0.5


def _locate(cfg: StageConfig, points: range) -> Optional[int]:
    """Position in ``points`` of the row's top survivor as the hints see it.

    None when the hint at the bottom is positive: there is no bracket.  The
    top when its own hint is nonpositive.  Otherwise the bracket [bottom, top]
    (hint nonpositive, positive) is narrowed to two neighbouring positions by
    regula falsi in log n, and the lower one is returned.  The end kept twice
    in a row has its value scaled down, by the Anderson-Björck rule (BIT 13
    (1973)), a refinement of the Illinois rule (Dowell and Jarratt, BIT 11
    (1971)).  Each new point lies strictly inside the bracket, so the search
    ends whatever the hints are.  The first step, and any step whose two
    steps before did not halve the bracket, bisects in log n instead: a row's
    hints at its two ends differ by orders of magnitude, and a secant through
    them lands next to one end.
    """
    lo, hi = 0, len(points) - 1
    f_lo = _hint(cfg, points[lo])
    if f_lo > 0:
        return None
    f_hi = _hint(cfg, points[hi])
    if not f_hi > 0:
        return hi
    side, one_back = 0, hi - lo
    two_back = one_back  # so the first step bisects
    while hi - lo > 1:
        t = f_lo / (f_lo - f_hi)
        if not 0 < t < 1 or 2 * (hi - lo) > two_back:
            t = 0.5
        two_back, one_back = one_back, hi - lo
        x_lo, x_hi = math.log(points[lo]), math.log(points[hi])
        n = math.exp(x_lo + t * (x_hi - x_lo))
        k = min(max(round((n - points[0]) / points.step), lo + 1), hi - 1)
        f = _hint(cfg, points[k])
        if f > 0:
            if side > 0:
                f_lo *= _rescale(f, f_hi)
            hi, f_hi, side = k, f, 1
        else:
            if side < 0:
                f_hi *= _rescale(f, f_lo)
            lo, f_lo, side = k, f, -1
    return lo


def _cells(points: range, h: int) -> list[range]:
    """The positions above h in ``points``, cut into cells bottom-up, each
    reaching _CELL_GROWTH times as far from h as the one below it."""
    cells, lo = [], h + 1
    while lo < len(points):
        hi = min(len(points), max(lo + 1, h + math.floor(_CELL_GROWTH * (lo - h))))
        cells.append(points[lo:hi])
        lo = hi
    return cells


def _scan(cfg: StageConfig, points: range, hinted: bool = True) -> int:
    """Largest surviving index among ``points`` (NO_SURVIVOR if none).

    A range certified violated is dropped whole.  Otherwise the hints, the
    row's point margins in floats, locate the likely top survivor h (see
    _locate), the indices above h are covered top-down by cells that grow
    geometrically away from h, each scanned by this function, and h is
    point-checked.  Without a bracket, and below an h whose point check finds
    it violated, the range is bisected instead, upper half first and with no
    further hints.  Every dropped range comes from _range_violated and every
    survivor from a point check, and the ranges are visited from the top down,
    so the first survivor found is the largest: a hint only chooses where to
    cut, never a verdict.
    """
    if not points:
        return NO_SURVIVOR
    if len(points) == 1:
        return NO_SURVIVOR if stage_violated(points[0], cfg) else points[0]
    if _range_violated(cfg, points[0], points[-1]):
        return NO_SURVIVOR
    h = _locate(cfg, points) if hinted else None
    if h is None:
        mid = len(points) // 2
        upper = _scan(cfg, points[mid:], False)
        return upper if upper != NO_SURVIVOR else _scan(cfg, points[:mid], False)
    for cell in reversed(_cells(points, h)):
        found = _scan(cfg, cell)
        if found != NO_SURVIVOR:
            return found
    if not stage_violated(points[h], cfg):
        return points[h]
    return _scan(cfg, points[:h], False)


def find_threshold(cfg: StageConfig, workers: int = 1) -> int:
    """Largest index in [n_floor, n_cap] the stage fails to violate.

    The whole range is covered: every admissible index above the answer lies
    in a range certified violated at 64 bits or was point-checked on its own.
    The hints that guide the scan are the row's own point margins, the
    formulas of its interval margin evaluated in plain floats; they only
    choose the cells and never stand in for a verdict, which is always an
    interval evaluation.  The row is scanned in this process; ``workers`` is
    ignored, and kept only because perfbench's replay hook calls the original
    as ``scan(cfg, workers)``.
    """
    return _scan(cfg, _admissible(cfg, max(151, cfg.n_floor), cfg.n_cap))


def _check_coverage(rows: list[StageConfig]) -> None:
    """Raise unless no index up to the rows' cap has more distinct primes than
    the rows covering its parity assume (omega None assumes no limit)."""
    cap = max(cfg.n_cap for cfg in rows)
    for parity in ("even", "odd"):
        omegas = [cfg.omega for cfg in rows if cfg.parity in (parity, "both")]
        if None in omegas:
            continue
        w = max(omegas, default=0) + 1
        if primorial(w, skip_two=parity == "odd") <= cap:
            raise DomainError(
                f"{parity} n <= {cap} can have {w} distinct primes; the rows assume fewer"
            )


def _verdict_key(cfg: StageConfig) -> tuple:
    # what a row's scan reads besides its cap: the row fields bounds.row_margin
    # takes, and the floor the scan starts from
    return cfg.variant, cfg.parity, cfg.omega, cfg.n_floor


def _run_rows(rows: list[StageConfig],
              earlier: dict[StageConfig, int]) -> dict[StageConfig, int]:
    """Scan independent rows one after another in this process and return
    {row: threshold} in row order.

    ``earlier`` holds the thresholds the cascade found before these rows.  A
    row takes the threshold t of the earlier row with its verdict key and the
    largest cap C when t <= n_cap <= C: the verdicts are the same at every
    index, that scan certified every admissible index in (t, C] violated and
    point-checked t, so t is also the largest survivor up to n_cap.  Every
    other row is scanned through the module's ``find_threshold``, so a patch
    of that name sees each scan.
    """
    _check_coverage(rows)
    # the last of the rows with a key, sorted by cap, has its largest cap
    widest = {_verdict_key(cfg): cfg for cfg in sorted(earlier, key=lambda cfg: cfg.n_cap)}
    found = {}
    for cfg in rows:
        prior = widest.get(_verdict_key(cfg))
        if prior is not None and earlier[prior] <= cfg.n_cap <= prior.n_cap:
            found[cfg] = earlier[prior]
        else:
            found[cfg] = find_threshold(cfg)
    return found


def _finish(case: str, kind: SeqKind, found: dict[StageConfig, int],
            sweep_report: Optional[tuple], final: int, paper_final: int) -> CascadeResult:
    """The cascade's report: a stage per row of ``found``, in order, then the
    survivor sweep (name, rows, computed, paper) if there is one, whose rows
    are those it checks indices against.  They share one variant, so the
    sweep's totient estimate is theirs.

    Kind V maps the level-2n cascade onto V-sequence indices: primitive
    divisors of V_n live at level 2n, so every threshold halves, and a stage
    stays decisive as it was at level 2n.
    """
    stages = [(cfg.name, cfg.parity, cfg.omega, phi_estimate(cfg.variant, cfg.omega),
               cfg.variant, t, cfg.paper_threshold) for cfg, t in found.items()]
    if sweep_report is not None:
        name, rows, computed, paper = sweep_report
        (variant, phi), = {(cfg.variant, phi_estimate(cfg.variant, cfg.omega)) for cfg in rows}
        stages.append((name, "both", None, phi, variant, computed, paper))
    level = 2 if kind is SeqKind.V else 1
    reports = tuple(
        BoundStageReport(name, parity, omega, phi, variant.value,
                         computed // level, paper // level, computed <= paper)
        for name, parity, omega, phi, variant, computed, paper in stages
    )
    return CascadeResult(case, kind, reports, final // level, paper_final // level)


# -- stage tables --------------------------------------------------------------


def _omega_rows(prefix: str, cap: int, variant: dict[str, MnBoundVariant],
                paper: Callable[[str, int], int]) -> list[StageConfig]:
    """One row per (parity, omega) that some index below cap can have; even n
    is taken up to omega 7 and odd n up to 6, which _check_coverage confirms.
    variant[parity] is the bound of a parity's rows and paper(parity, omega) a
    row's stated threshold."""
    rows = []
    for parity, max_w in (("even", 7), ("odd", 6)):
        for w in range(1, max_w + 1):
            floor = primorial(w, skip_two=parity == "odd")
            if floor <= cap:
                rows.append(
                    StageConfig(f"{prefix}-{parity}-w{w}", variant[parity], parity, w,
                                max(150, floor), cap, paper(parity, w))
                )
    return rows


_LEMMA_VARIANT = {"even": MnBoundVariant.LEMMA_HW, "odd": MnBoundVariant.LEMMA_GW}
_REAL_VARIANT = dict.fromkeys(("even", "odd"), MnBoundVariant.REAL_EQ5)
_REAL_PAPER = {1: 167, 2: 167, 3: 167, 4: 252, 5: 1000, 6: 1000, 7: 1000}


def _lemma_rows(cap: int, paper: dict[str, int], prefix: str) -> list[StageConfig]:
    """Lemma rows below cap; paper[parity] is the stated threshold of a parity."""
    return _omega_rows(prefix, cap, _LEMMA_VARIANT, lambda parity, w: paper[parity])


def _real_rows(cap: int) -> list[StageConfig]:
    return _omega_rows("real", cap, _REAL_VARIANT, lambda parity, w: _REAL_PAPER[w])


def _row_for(rows: Iterable[StageConfig], parity: str, omega: int) -> StageConfig:
    for cfg in rows:
        if cfg.parity == parity and cfg.omega == omega:
            return cfg
    raise DomainError(f"no row for parity={parity}, omega={omega}")


_SCAN_CEILING = 10**9  # stage-1 coverage cap, far above any downstream need

# The five stages of the general cascade, each mapping the threshold of the
# stage before (its cap) to its rows.  StageConfig fields, in order: name,
# variant, parity, omega, n_floor, n_cap, paper_threshold.
_GENERAL_STAGES: tuple[Callable[[int], list[StageConfig]], ...] = (
    lambda cap: [
        StageConfig("stage1-baker", MnBoundVariant.COMPLEX_TRIVIAL_F, "both", None,
                    150, cap, 18_000_000),
    ],
    # below stage 1's threshold at most 8 distinct primes divide n
    lambda cap: [
        StageConfig("stage2-voutier128", MnBoundVariant.COMPLEX_VOUTIER128, "both", 8,
                    150, cap, 3_900_000),
    ],
    # below stage 2's threshold omega <= 7, and odd n cannot reach omega = 7
    lambda cap: [
        StageConfig("stage3-voutier64", MnBoundVariant.COMPLEX_VOUTIER64, "both", 6,
                    150, cap, 1_852_000),
        StageConfig("stage3-even-w7", MnBoundVariant.LEMMA_HW, "even", 7,
                    primorial(7), cap, 1_852_000),
    ],
    lambda cap: _lemma_rows(cap, {"even": 500_000, "odd": 500_000}, "stage4"),
    lambda cap: _lemma_rows(cap, {"even": 270_000, "odd": 150_000}, "stage5"),
)


# -- cascade drivers -----------------------------------------------------------


def run_general_cascade(kind: SeqKind = SeqKind.U) -> CascadeResult:
    """The five-stage reduction for arbitrary nondegenerate parameters.

    A row whose verdict key (variant, parity, omega, n_floor) an earlier stage
    already scanned up to a cap C, with threshold t, takes t without a scan
    when t <= its own cap <= C (see _run_rows).  This is sound because a
    verdict never reads a row's cap, as bounds.row_margin takes only the
    variant, parity and omega: the earlier scan certified the same inequality
    at every admissible index in (t, C].  Every stage-5 row, and
    stage4-even-w7 after stage3-even-w7, is settled this way, so 16 of the 29
    rows are scanned.
    """
    kind = seq_kind(kind)
    found: dict[StageConfig, int] = {}
    cap = _SCAN_CEILING
    for stage in _GENERAL_STAGES:
        thresholds = _run_rows(stage(cap), found)
        found.update(thresholds)
        cap = max(thresholds.values(), default=NO_SURVIVOR)
    return _finish("general", kind, found, None, cap, 300_000)


def run_real_cascade(kind: SeqKind = SeqKind.U) -> CascadeResult:
    """Per-(parity, omega) rows for real quadratic alpha, then a sweep checks
    the indices no row certified against the row of their true parity and
    omega.  An index above its own row's threshold is skipped: it lies in that
    row's scanned range (at least primorial(omega), at most the cap), which
    certified it violated."""
    kind = seq_kind(kind)
    found = _run_rows(_real_rows(300_000), {})
    row_of = {n: _row_for(found, _parity(n), arithmetic_profile(n).omega)
              for n in range(151, max(found.values(), default=NO_SURVIVOR) + 1)}
    final = _sweep([n for n, cfg in row_of.items() if n <= found[cfg]], row_of.__getitem__)
    sweep_report = ("real-survivors", found, final, 210)
    return _finish("real", kind, found, sweep_report, final, 210)


def run_unit_case(p, kind: SeqKind = SeqKind.U) -> CascadeResult:
    """|s| = 1: exact phi(n) and divisor max(3, P(n)) close [151, 210].

    ``p`` is the validated LucasParams; only its unit-norm flag is consulted —
    the range check itself uses the worst-case growth bound, which covers every
    unit-norm pair at once.
    """
    kind = seq_kind(kind)
    if not p.unit_norm:
        raise DomainError("run_unit_case needs |s| = 1")
    row_of = {n: StageConfig(f"unit-n{n}", MnBoundVariant.UNIT_EQ55, _parity(n),
                             arithmetic_profile(n).omega, 150, n, 150)
              for n in range(151, 211)}
    worst = _sweep(range(151, 211), row_of.__getitem__)
    sweep_report = ("unit-151-210", row_of.values(), worst, 150)
    return _finish("unit", kind, {}, sweep_report, worst, 150)


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
        # the fields of BoundStageReport in order, phi_estimate as phiBound
        "stages": [{"phiBound" if k == "phi_estimate" else k: v for k, v in asdict(s).items()}
                   for s in result.stages],
    }
