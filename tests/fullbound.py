"""The search at the certified bound, re-checked by plain stepping.

    PYTHONPATH=src:tests python tests/fullbound.py

For one pair per parity class, `search._search_run` over [1, bound] must give
the hits, witnesses and reject counts of stepping every term exactly
(`oracles.plain_outcomes`: `iter_terms`, then `pf_fast_reject` and
`pf_decompose`).  The bound is the general case's, halved for V.  (4, 1) and
(1, 1) have real roots, so their residue pass stops at n = 2 while plain
stepping tests every term.  The whole check takes about 20 s; pytest does not
collect this file.  Exits 1 on the first disagreement.
"""

import sys
import time

from lucaspf.lucas import SeqKind, parity_period, validate_params
from lucaspf.search import CERTIFIED_BOUNDS, _search_run
from oracles import plain_outcomes, plain_search

CASES = (
    (4, 1, SeqKind.V),  # tau = 1: every term is even
    (2, -3, SeqKind.U),  # tau = 2
    (1, 1, SeqKind.U),  # tau = 3, real roots
    (1, -3, SeqKind.U),  # tau = 3, complex roots
    (1, -2, SeqKind.U),  # s even: every term is odd, complex roots
)


def main() -> int:
    for r, s, kind in CASES:
        p = validate_params(r, s)
        hi = CERTIFIED_BOUNDS["general"] // (1 if kind is SeqKind.U else 2)
        t0 = time.perf_counter()
        got = _search_run(p, kind, 1, hi)
        t1 = time.perf_counter()
        want = plain_search(plain_outcomes(p, kind, 1, hi))
        t2 = time.perf_counter()
        hits = " ".join(str(h.index) for h in got[0])
        counts = " ".join(f"{k}={v}" for k, v in got[1].items())
        print(f"({r},{s}) {kind.value} to {hi}, tau {parity_period(p, kind)}: hits {hits}; {counts};"
              f" search {t1 - t0:.2f} s, plain {t2 - t1:.2f} s")
        if got != want:
            print(f"  MISMATCH: plain stepping gives {want}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
