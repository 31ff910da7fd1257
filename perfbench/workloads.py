"""Workload inputs, frozen oracles and reference answers for the benchmark.

Everything here runs in the benchmark's parent process and never imports
``lucaspf``: inputs are generated from the seed, and the expected answers come
either from frozen oracle files (cascade stdout, search hit lists) or from an
independent reference implementation (factorial-product decompositions).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

ORACLE_DIR = Path(__file__).resolve().parent / "oracle"

WORKLOADS = ("cascade-general", "cascade-real", "search", "pf-queries")
# The reference loop (see speed.py) whose kind of work each workload resembles.
REFERENCE = {"cascade-general": "interval", "cascade-real": "interval",
             "search": "bigint", "pf-queries": "interval"}

# -- cascades ------------------------------------------------------------------

# The CLI commands each cascade workload runs, keyed by oracle file.
CASCADE_COMMANDS = {
    "cascade-general": [("bounds-general.txt", ["bounds", "--case", "general"])],
    "cascade-real": [
        ("bounds-real.txt", ["bounds", "--case", "real"]),
        ("bounds-unit.txt", ["bounds", "--case", "unit", "--r", "1", "--s", "1"]),
    ],
}

# Rows whose threshold scan runs for real in every repetition.  The other rows
# of the cascade replay their frozen threshold, because a whole general cascade
# (about 45 s single-threaded) or real cascade (about 25 s) does not fit in one
# run.  The chosen rows include the rows that set the final bounds, and their
# costs are well apart, so that the median and the slowest row are always the
# same rows:
#   general: stage1-baker (trivial f, omega from the explicit bound, cap 1e9,
#            4.8 s), stage4-odd-w5 (lemma g_w, 1.7 s), stage4-even-w6 (sets
#            267 212, lemma h_w, 1.0 s), stage5-even-w6 (a stage-5 re-run, 0.7 s).
#   real:    real-even-w4 (threshold 248, which feeds the survivor checks,
#            2.6 s), real-odd-w5 (1.2 s), real-odd-w6 (floor 255 255, 0.07 s).
MEASURED_ROWS = {
    "cascade-general": ("stage1-baker", "stage4-even-w6", "stage4-odd-w5", "stage5-even-w6"),
    "cascade-real": ("real-even-w4", "real-odd-w5", "real-odd-w6"),
}


def parse_stage_table(text: str) -> dict[str, int]:
    """Row name -> computed threshold, from a frozen ``lucaspf bounds`` stdout."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1].startswith("computed="):
            rows[parts[0]] = int(parts[1].split("=", 1)[1])
    return rows


def cascade_inputs(workload: str) -> dict:
    commands = []
    frozen_rows: dict[str, int] = {}
    for fname, argv in CASCADE_COMMANDS[workload]:
        text = (ORACLE_DIR / fname).read_text()
        commands.append({"argv": argv, "stdout": text, "exit": 0})
        frozen_rows.update(parse_stage_table(text))
    measured = list(MEASURED_ROWS[workload])
    missing = [name for name in measured if name not in frozen_rows]
    if missing:
        raise ValueError(f"measured rows absent from the oracle: {missing}")
    return {"commands": commands, "measured_rows": measured, "frozen_rows": frozen_rows}


# -- search --------------------------------------------------------------------


def valid_pair(r: int, s: int) -> bool:
    """The standing hypotheses on (r, s), checked independently of lucaspf."""
    if r == 0 or s == 0 or math.gcd(abs(r), abs(s)) != 1 or r * r + 4 * s == 0:
        return False
    return not any(r * r == k * (-s) for k in range(5))


def pair_pool() -> list[tuple[int, int]]:
    """Every nondegenerate pair with 1 <= r <= 4 and 1 <= |s| <= 4 (r > 0 only)."""
    return [(r, s) for r in range(1, 5) for s in range(-4, 5) if valid_pair(r, s)]


# Indices per search call: each (pair, kind) range is searched as consecutive
# `lucaspf search --min-n a --max-n b` style calls, so that a repetition makes
# about 1 500 calls and op_p99_ms has more than ten calls beyond it.
SEARCH_BLOCK = 128


def search_inputs(seed: int) -> dict:
    """Every pool pair, searched for U and V up to its frozen n_max.

    The seed draws the sign of r for each pair, (r, s) or (-r, s), and the
    order of the pairs.  The two signs do the same work, so the batch cost does
    not depend on the seed; the frozen n_max of each pair was calibrated so
    that its U and V searches take about the same time as any other pair's.
    """
    oracle = json.loads((ORACLE_DIR / "search.json").read_text())
    by_pair = {(p["r"], p["s"]): p for p in oracle["pairs"]}
    rng = random.Random(seed)
    pairs = [(rng.choice((r, -r)), s) for r, s in pair_pool()]
    rng.shuffle(pairs)
    jobs = []
    for pair in pairs:
        entry = by_pair[pair]
        for kind in ("U", "V"):
            jobs.append({"r": entry["r"], "s": entry["s"], "kind": kind,
                         "n_max": entry["n_max"], "hits": entry["hits"][kind]})
    return {"jobs": jobs, "block": SEARCH_BLOCK}


# -- factorial-product queries ---------------------------------------------------

PF_LIMIT = 16
# Deadline of each query in the blow-up tier.  Every one of those values runs
# for more than 10 s in pf_member today, and every other query in the batch
# finishes in well under 0.1 s, so the deadline is far from both.
PF_DEADLINE_S = 0.25

_SMALL_ODD_PRIMES = (3, 5, 7, 11, 13)
# Values above 90 bits on which pf_member's search blows up (no memo at or
# above 2**64, many factorial divisors).  A seed draws a few of them per batch.
_BLOWUP_ARGS = ((27,), (28,), (17, 17), (18, 18), (17, 18), (16, 19), (27, 2), (19, 19))


def fact_product(args) -> int:
    return math.prod(math.factorial(a) for a in args)


def _draw_value(rng: random.Random, lo_bits: int, hi_bits: int) -> int:
    """A factorial product of 1-4 factors or a near miss, lo_bits <= bits <= hi_bits."""
    while True:
        args = [rng.randint(2, 24) for _ in range(rng.randint(1, 4))]
        value = fact_product(args)
        form = rng.choice(("member", "member", "x2", "half", "xp"))
        if form == "x2":
            value *= 2
        elif form == "half":
            value //= 2
        elif form == "xp":
            value *= rng.choice(_SMALL_ODD_PRIMES)
        if value > 1 and lo_bits <= value.bit_length() <= hi_bits:
            return -value if rng.random() < 0.2 else value


# (tier, count, lowest bits, highest bits); the blow-up tier is drawn separately.
PF_TIERS = (("memo", 3000, 10, 63), ("wide", 240, 64, 74))
PF_BLOWUP = 3


def pf_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    queries = []
    for tier, count, lo, hi in PF_TIERS:
        for _ in range(count):
            queries.append({"n": _draw_value(rng, lo, hi), "tier": tier})
    for args in rng.sample(_BLOWUP_ARGS, PF_BLOWUP):
        queries.append({"n": fact_product(args), "tier": "blowup"})
    rng.shuffle(queries)
    ref = ReferencePF()
    for q in queries:
        q["witnesses"] = ref.witnesses(abs(q["n"]), PF_LIMIT)
        q["member"] = bool(q["witnesses"])
        q["deadline_s"] = PF_DEADLINE_S if q["tier"] == "blowup" else None
    return {"queries": queries, "limit": PF_LIMIT}


class ReferencePF:
    """Independent decomposition of N into factorials, used as the oracle.

    If N = m_1! ... m_k! with m_1 <= ... <= m_k, the largest prime dividing N
    is the largest prime P <= m_k, so m_k lies in [P, nextprime(P) - 1].
    Recursing on N / m_k! with all arguments <= m_k enumerates every
    decomposition with a branching factor of one prime gap.  Valid for
    N < 128!, far above every query here.
    """

    _PRIMES = [p for p in range(2, 128) if all(p % d for d in range(2, int(p**0.5) + 1))]
    _PRIME_SET = frozenset(_PRIMES)

    def __init__(self):
        self._memo: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def _largest_prime(self, n: int):
        largest = None
        for p in self._PRIMES:
            if n % p == 0:
                largest = p
                while n % p == 0:
                    n //= p
        return largest if n == 1 else None

    def _all(self, n: int, cap: int) -> list[tuple[int, ...]]:
        if n == 1:
            return [()]
        key = (n, cap)
        if key in self._memo:
            return self._memo[key]
        out = []
        p = self._largest_prime(n)
        m = p or cap + 1
        f = math.factorial(m) if p else 0
        while m <= cap and f <= n and (m == p or m not in self._PRIME_SET):
            if n % f == 0:
                out.extend(t + (m,) for t in self._all(n // f, m))
            m += 1
            f *= m
        self._memo[key] = out
        return out

    def witnesses(self, n: int, limit: int) -> list[list[int]]:
        """The first ``limit`` decompositions of n > 0 in lexicographic order."""
        if n == 1:
            return [[]]
        return [list(t) for t in sorted(self._all(n, 127))[:limit]]


def make_inputs(workload: str, seed: int) -> dict:
    if workload in CASCADE_COMMANDS:
        return cascade_inputs(workload)
    if workload == "search":
        return search_inputs(seed)
    if workload == "pf-queries":
        return pf_inputs(seed)
    raise ValueError(f"unknown workload {workload}")


def describe_inputs(workload: str, inputs: dict) -> dict:
    """The generated inputs in a form small enough to print with every run."""
    if workload in CASCADE_COMMANDS:
        return {"commands": [c["argv"] for c in inputs["commands"]],
                "measured_rows": inputs["measured_rows"]}
    if workload == "search":
        return {"jobs": [[j["r"], j["s"], j["kind"], j["n_max"]] for j in inputs["jobs"]]}
    tiers: dict[str, int] = {}
    for q in inputs["queries"]:
        tiers[q["tier"]] = tiers.get(q["tier"], 0) + 1
    return {"tiers": tiers, "blowup": [q["n"] for q in inputs["queries"] if q["tier"] == "blowup"],
            "queries": [q["n"] for q in inputs["queries"]]}
