"""Regenerate the benchmark's frozen oracles in ``oracle/``.

    PYTHONPATH=src python3 perfbench/freeze.py [cascades] [search]

``cascades`` stores the stdout of ``lucaspf bounds`` for the general, real and
unit cases (about 75 s).  ``search`` calibrates, for every pair (r, s) of the
search pool, the index range n_max at which the U and V searches together take
about ``PAIR_TARGET_S`` of CPU time on the machine running this script, and stores the hits
of (r, s) and (-r, s) up to n_max.  Hits at n <= 200 are checked against an independent naive
recurrence and the reference decomposition in ``workloads.py``.

Only rerun this when the oracle must change on purpose: the benchmark's
correctness checks compare every run against these files.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import workloads

PAIR_TARGET_S = 0.3
_GROWTH = 2.2  # search time grows about as n_max ** 2.2 at these sizes


def freeze_cascades() -> None:
    for fname, argv in (c for cmds in workloads.CASCADE_COMMANDS.values() for c in cmds):
        proc = subprocess.run([sys.executable, "-m", "lucaspf.cli", *argv],
                              capture_output=True, text=True, check=True)
        (workloads.ORACLE_DIR / fname).write_text(proc.stdout)
        print(f"{fname}: {proc.stdout.splitlines()[-1]}", flush=True)


def _timed_search(r: int, s: int, n_max: int):
    """CPU time of the U and V searches (median of 3), and their hits."""
    from lucaspf import SearchConfig, SeqKind, search_pf_terms

    times = []
    for _ in range(3):
        t0 = time.process_time()
        hits = {kind: search_pf_terms(SearchConfig(r, s, SeqKind(kind), 1, n_max))
                for kind in ("U", "V")}
        times.append(time.process_time() - t0)
    return sorted(times)[1], hits


def _naive_terms(r: int, s: int, kind: str, count: int) -> list[int]:
    a, b = (0, 1) if kind == "U" else (2, r)
    out = []
    for _ in range(count + 1):
        out.append(a)
        a, b = b, r * b + s * a
    return out


def _check_small_hits(r: int, s: int, kind: str, hits, upto: int) -> list[str]:
    """Abort on a wrong hit list; return the known trivial-hit sign defects.

    Known defect: search reports every trivial hit (|term| = 1) with witness
    sign +1, also when the term is -1.  The frozen lists keep today's output so
    that the oracle stays a regression oracle, and search.json lists each such
    hit under "known_defects".  Fixing the defect means refreezing.
    """
    ref = workloads.ReferencePF()
    terms = _naive_terms(r, s, kind, upto)
    expected = [n for n in range(1, upto + 1) if terms[n] and ref.witnesses(abs(terms[n]), 1)]
    got = [h.index for h in hits if h.index <= upto]
    if got != expected:
        raise SystemExit(f"({r},{s}) {kind}: hits {got} but the reference finds {expected}")
    defects = []
    for h in hits:
        if h.index > upto or h.witness.sign * workloads.fact_product(h.witness.args) == terms[h.index]:
            continue
        if h.witness.args or abs(terms[h.index]) != 1:
            raise SystemExit(f"({r},{s}) {kind}: witness of n={h.index} does not multiply back")
        defects.append(f"({r},{s}) {kind}_{h.index} = {terms[h.index]} reported with sign +1")
    return defects


def freeze_search() -> None:
    from lucaspf import validate_params

    pairs, defects = [], []
    for r, s in workloads.pair_pool():
        bits_per_index = float(validate_params(r, s).alpha_abs_log.lo) / math.log(2)
        n_max = int(8000 / bits_per_index)
        for _ in range(5):
            elapsed, hits = _timed_search(r, s, n_max)
            if abs(elapsed / PAIR_TARGET_S - 1) < 0.02:
                break
            n_max = int(n_max * (PAIR_TARGET_S / elapsed) ** (1 / _GROWTH))
        for rr in (r, -r):  # (-r, s) does the same work as (r, s)
            elapsed, hits = _timed_search(rr, s, n_max)
            for kind in ("U", "V"):
                defects += _check_small_hits(rr, s, kind, hits[kind], min(200, n_max))
            pairs.append({
                "r": rr, "s": s, "n_max": n_max, "calibrated_s": round(elapsed, 3),
                "hits": {kind: [[h.index, h.value_digits, h.witness.sign, list(h.witness.args)]
                                for h in hits[kind]] for kind in ("U", "V")},
            })
            print(f"({rr},{s}) n_max={n_max} {elapsed:.2f}s", flush=True)
    text = json.dumps({"pair_target_s": PAIR_TARGET_S, "known_defects": defects, "pairs": pairs},
                      indent=1)
    (workloads.ORACLE_DIR / "search.json").write_text(text + "\n")


if __name__ == "__main__":
    what = sys.argv[1:] or ["cascades", "search"]
    workloads.ORACLE_DIR.mkdir(exist_ok=True)
    if "cascades" in what:
        freeze_cascades()
    if "search" in what:
        freeze_search()
