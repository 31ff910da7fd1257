"""Command-line front end: cascades, searches, and the small query tools."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import stat
import sys

from .cyclotomic import cyclotomic_value
from .errors import DomainError, LucasPFError, Undecidable
from .factorials import PFWitness, pf_decompose, pf_fast_reject
from .lucas import SeqKind, validate_params
from .search import (
    CERTIFIED_BOUNDS,
    DEFAULT_MAX_N,
    SearchConfig,
    _search_run,
    search_pf_terms,
    verify_fibonacci_identity,
)

# `bounds` and `verify` import the cascade inside their handlers: it loads
# mpmath, which `pf`, `search` and `cyclotomic` do not need.


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lucaspf",
        description="Bound cascades and factorial-product searches for Lucas sequences",
    )
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="run a bound cascade and report thresholds")
    b.add_argument(
        "--case", choices=("general", "real", "unit"), default="general",
        help="which cascade: general (complex roots), real roots, or the unit case |s| = 1",
    )
    b.add_argument(
        "--kind", choices=("U", "V"), default="U",
        help="sequence bounded; V's bounds are half of U's",
    )
    b.add_argument("--r", type=int, default=1, help="r of the pair; only --case unit reads it")
    b.add_argument("--s", type=int, default=1, help="s of the pair; only --case unit reads it")
    b.add_argument("--json", metavar="PATH", help="write the JSON report here")

    s = sub.add_parser("search", help="search a concrete sequence for factorial products")
    s.add_argument("--r", type=int, required=True, help="r of the pair")
    s.add_argument("--s", type=int, required=True, help="s of the pair")
    s.add_argument("--kind", choices=("U", "V"), default="U", help="sequence searched")
    s.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="last index searched")
    s.add_argument("--min-n", type=int, default=1, help="first index searched (at least 1)")
    s.add_argument(
        "--reject-log", action="store_true",
        help="print the counts of fast-rejected terms to stderr, by reason: odd, "
        "size (above ((2v+1)!)^v, v = nu_2) and rough (an odd prime factor above 2v+1)",
    )
    s.add_argument("--json", metavar="PATH", help="write the hits and coverage as JSON here")
    s.add_argument("--csv", metavar="PATH", help="write the hits as CSV here")

    f = sub.add_parser("pf", help="factorial-product membership of one integer")
    f.add_argument("n", type=int, help="the integer; membership is of |n|, and 0 is an error")
    f.add_argument("--decompose", action="store_true", help="also print a member's witnesses")
    f.add_argument(
        "--limit", type=int, default=16, help="most witnesses --decompose prints, at least 1"
    )

    c = sub.add_parser("cyclotomic", help="exact Phi_n(alpha, beta)")
    c.add_argument("--r", type=int, required=True, help="r of the pair")
    c.add_argument("--s", type=int, required=True, help="s of the pair")
    c.add_argument("--n", type=int, required=True, help="the index n, at least 2")

    v = sub.add_parser("verify", help="self-checks of identities and constants")
    v.add_argument(
        "--suite", choices=("identities", "bounds", "all"), default="all",
        help="identities (Fibonacci), bounds (unit constant and unit case) or both",
    )
    return top


@contextlib.contextmanager
def _output(path, newline=None):
    """An output file opened before the work, so that an unwritable path fails
    at once, and written only when the work succeeds: what the work writes is
    kept in memory until then, and goes out after the table on stdout.  A
    regular file is then cut to what was written, so a failed run keeps a file
    that was there and removes one it made; a device or a pipe, such as
    /dev/null or /dev/stdout, is written and never cut.  None, no path."""
    if not path:
        yield None
        return
    made = not os.path.exists(path)
    # O_CREAT without O_TRUNC: the old contents stay until the work succeeds
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        out = io.StringIO(newline=newline)
        try:
            yield out
        except BaseException:
            if made:
                os.remove(path)
            raise
        sys.stdout.flush()
        fh.write(out.getvalue())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _cmd_bounds(args) -> int:
    from .pipeline import emit_report, run_general_cascade, run_real_cascade, run_unit_case

    params = validate_params(args.r, args.s) if args.case == "unit" else None
    with _output(args.json) as json_fh:
        if args.case == "general":
            result = run_general_cascade(args.kind)
        elif args.case == "real":
            result = run_real_cascade(args.kind)
        else:
            result = run_unit_case(params, args.kind)
        report = emit_report(result)
        print(f"case={report['case']} kind={report['kind']}")
        for stage in report["stages"]:
            flag = "ok" if stage["decisive"] else "NOT DECISIVE"
            print(
                f"  {stage['name']:<22} computed={stage['computed']:<10}"
                f" paper={stage['paper']:<10} [{flag}]"
            )
        print(f"final bound: n <= {report['finalBound']}"
              f" (stated envelope {report['paperFinal']})")
        if json_fh:
            json.dump(report, json_fh, indent=2)
            json_fh.write("\n")
    return 0 if report["decisive"] else 1


def _coverage(cfg: SearchConfig) -> str:
    p = cfg.params
    case = "unit" if p.unit_norm else "real" if p.roots_real else "general"
    bound = CERTIFIED_BOUNDS[case] // (1 if cfg.kind is SeqKind.U else 2)
    if cfg.n_min == 1 and cfg.n_max >= bound:
        return f"exhaustive ({case} case, theorem bound {bound})"
    return f"partial up to nMax={cfg.n_max}"


def _witness_text(w: PFWitness) -> str:
    """m1!*m2!*..., 1 for the empty product, with a leading - for sign -1."""
    return ("-" if w.sign < 0 else "") + ("*".join(f"{m}!" for m in w.args) or "1")


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        r=args.r,
        s=args.s,
        kind=args.kind,
        n_min=args.min_n,
        n_max=args.max_n,
    )
    with _output(args.json) as json_fh, _output(args.csv, newline="") as csv_fh:
        hits, rejects = _search_run(cfg.params, cfg.kind, cfg.n_min, cfg.n_max)
        if args.reject_log:
            counts = " ".join(f"{k}={v}" for k, v in rejects.items())
            print(f"fast-reject: {counts}", file=sys.stderr)
        coverage = _coverage(cfg)
        print(f"search (r,s)=({cfg.r},{cfg.s}) kind={cfg.kind.value}"
              f" n in [{cfg.n_min},{cfg.n_max}] -- {coverage}")
        print("index  kind  digits  witness          trivial")
        for h in hits:
            print(f"{h.index:<6} {h.kind.value:<5} {h.value_digits:<7} "
                  f"{_witness_text(h.witness):<16} {'yes' if h.trivial else 'no'}")
        print(f"{len(hits)} hit(s)")
        if json_fh:
            payload = {
                "search": {
                    "r": cfg.r,
                    "s": cfg.s,
                    "kind": cfg.kind.value,
                    "nMin": cfg.n_min,
                    "nMax": cfg.n_max,
                    "coverage": coverage,
                    "hits": [
                        {
                            "index": h.index,
                            "kind": h.kind.value,
                            "digits": h.value_digits,
                            "witness": {"sign": h.witness.sign, "args": list(h.witness.args)},
                            "trivial": h.trivial,
                        }
                        for h in hits
                    ],
                }
            }
            json.dump(payload, json_fh, indent=2)
            json_fh.write("\n")
        if csv_fh:
            writer = csv.writer(csv_fh)
            writer.writerow(["index", "kind", "digits", "witness", "trivial"])
            for h in hits:
                writer.writerow(
                    [
                        h.index,
                        h.kind.value,
                        h.value_digits,
                        " ".join(map(str, h.witness.args)),
                        int(h.trivial),
                    ]
                )
    return 0


def _cmd_pf(args) -> int:
    if args.limit < 1:
        raise DomainError("limit must be positive")
    # the fast reject first: it rejects no member, and decides at once values
    # on which the membership search can run for a long time
    reason = pf_fast_reject(args.n) if abs(args.n) > 1 else None
    # one search: a member has a witness, and --decompose prints up to --limit
    witnesses = [] if reason else pf_decompose(args.n, args.limit if args.decompose else 1)
    print(f"{args.n}: {'member' if witnesses else 'not a member'}")
    if reason:
        print(f"fast reject: {reason}")
    if args.decompose:
        for w in witnesses:
            print(f"  {_witness_text(w)}  args={list(w.args)}")
    return 0


def _cmd_cyclotomic(args) -> int:
    params = validate_params(args.r, args.s)
    value = cyclotomic_value(params, args.n)
    print(f"Phi_{args.n}(alpha, beta) = {value} for (r,s)=({args.r},{args.s})")
    return 0


def _cmd_verify(args) -> int:
    checks = []
    if args.suite in ("identities", "all"):
        checks.append(("fibonacci factorial identity", verify_fibonacci_identity()))
        hits = search_pf_terms(SearchConfig(1, 1, SeqKind.U, 1, 150))
        checks.append(
            ("fibonacci hits {1,2,3,6,12}", [h.index for h in hits] == [1, 2, 3, 6, 12])
        )
    if args.suite in ("bounds", "all"):
        from .bounds import unit_product_constant
        from .interval import Interval
        from .pipeline import run_unit_case

        const = unit_product_constant()
        checks.append(
            ("unit product constant > 0.278293",
             const.certainly_gt(Interval.from_str("0.278293", const.prec))),
        )
        params = validate_params(1, 1)
        checks.append(("unit case closes at 150", run_unit_case(params).final_bound == 150))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "bounds": _cmd_bounds,
        "search": _cmd_search,
        "pf": _cmd_pf,
        "cyclotomic": _cmd_cyclotomic,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except Undecidable as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return 3
    except (LucasPFError, OSError) as exc:
        # OSError: a --json or --csv path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
