"""The search at the certified bound, re-checked by plain stepping.

    PYTHONPATH=src:tests python tests/fullbound.py

For pairs of each parity class and both kinds, `search._search_run` over
[1, bound] must give the hits, witnesses and reject counts of stepping every
term exactly (`oracles.plain_outcomes`: `iter_terms`, then `pf_fast_reject`
and `pf_decompose`).  The bound is the general case's over the kind's level.
(4, 1), (1, 1), (4, -3) and (3, -1) have real roots, so their residue pass
stops at n = 2 and their even pass at `search._size_cut`, with s > 0 and
s < 0 in the growth lemma; the others' residue pass stops at n = 30 // level.
Past n = 30 // level the even pass skips the class of n / tau, odd or even,
whose terms have nu_2 = 1, and ends there when both classes do.  Plain
stepping tests every term.  The whole check takes about 25 s; pytest does
not collect this file.  Exits 1 on the first disagreement.
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
    (1, -3, SeqKind.V),  # tau = 3, complex roots: the +-1 pass seeded from V's seeds
    (1, -2, SeqKind.V),  # s even: the +-1 pass alone, trivial hits at n = 1 and 4
    (4, -3, SeqKind.U),  # tau = 2, real roots with s < 0
    (3, -1, SeqKind.V),  # tau = 3, real roots with s < 0
    (2, -3, SeqKind.V),  # tau = 1, V_1 and V_2 have nu_2 = 1: the even pass ends at n = 15
    (1, -5, SeqKind.U),  # tau = 3, nu_2(U_3) = 2: past n = 30 no class is skipped
)


def main() -> int:
    for r, s, kind in CASES:
        p = validate_params(r, s)
        hi = CERTIFIED_BOUNDS["general"] // kind.level
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
