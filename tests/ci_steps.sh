#!/usr/bin/env bash
# The steps of .github/workflows/tier1.yml after "Install", one function per
# step, so that CI and a local run execute the same commands.
#
#   bash tests/ci_steps.sh            every step, in the workflow's order
#   bash tests/ci_steps.sh search     one step: tests, oracle, verify, search
#                                     or smoke
#
# Run from anywhere; the steps run at the root of the repository.  Each step
# runs in a subshell, so one step's exports do not reach the next.  Outside
# GitHub Actions, $RUNNER_TEMP is unset and a fresh temporary directory,
# removed on exit, stands in for it.
set -eo pipefail
cd "$(dirname "$0")/.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

# Tier-1 tests
tests() (
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=10
)

# Stage tables match the frozen oracle
oracle() (
  export PYTHONPATH=src
  out=$(mktemp -d)
  python -m lucaspf.cli bounds --case general --json "$out/general.json" | diff - perfbench/oracle/bounds-general.txt
  python -m lucaspf.cli bounds --case real --json "$out/real.json" | diff - perfbench/oracle/bounds-real.txt
  python -m lucaspf.cli bounds --case unit --r 1 --s 1 --json "$out/unit.json" | diff - perfbench/oracle/bounds-unit.txt
  for c in general real unit; do diff "$out/$c.json" tests/oracle/bounds-$c.json; done
  # --json /dev/stdout with stdout redirected to a file: the table, then the
  # JSON after it, nothing overwritten
  python -m lucaspf.cli bounds --case unit --r 1 --s 1 --json /dev/stdout > "$RUNNER_TEMP/both.txt"
  size=$(wc -c < perfbench/oracle/bounds-unit.txt)
  head -c "$size" "$RUNNER_TEMP/both.txt" | cmp - perfbench/oracle/bounds-unit.txt
  tail -c +"$((size + 1))" "$RUNNER_TEMP/both.txt" | python -c 'import json, sys; assert json.load(sys.stdin) == json.load(open("tests/oracle/bounds-unit.json"))'
  python -m lucaspf.cli bounds --case general --kind V | diff - tests/oracle/bounds-general-V.txt
  python -m lucaspf.cli bounds --case real --kind V | diff - tests/oracle/bounds-real-V.txt
  python -m lucaspf.cli bounds --case unit --r 1 --s 1 --kind V | diff - tests/oracle/bounds-unit-V.txt
  # the unit case reads nothing of the pair but its unit norm
  python -m lucaspf.cli bounds --case unit --r 3 --s -1 | diff - perfbench/oracle/bounds-unit.txt
  python -m lucaspf.cli bounds --case unit --r 3 --s -1 --kind V | diff - tests/oracle/bounds-unit-V.txt
)

# Self-checks, including the 256-bit unit constant
verify() (
  PYTHONPATH=src python -m lucaspf.cli verify --suite all
)

# Search (1,-2) up to the certified general bound
search() (
  export PYTHONPATH=src
  # (1,-2) has complex roots and even s: every term is odd, and the
  # residue pass steps those up to n = 30 only, since past it no term of
  # a valid pair is +-1 (Bilu-Hanrot-Voutier); below it U_13 = -1
  out=$(timeout 30 python -m lucaspf.cli search --r 1 --s -2 --max-n 267212)
  echo "$out"
  echo "$out" | grep -F -- "-- exhaustive (general case, theorem bound 267212)"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 5 13"
  # (1,-2) V: V's cut is U's over its level, so the residue pass stops at
  # n = 15; every other term counts as odd
  out=$(python -m lucaspf.cli search --r 1 --s -2 --kind V --max-n 133606 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "V" {print $1}' | paste -sd' ')" = "1 4"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=133604 size=0 rough=0"
  # a second pair, with odd s: (1,-3) has tau = 3, so both passes run.
  # U_3 = -2 has nu_2 = 1, so past n = 30 the even pass steps only the
  # even multiples of 3; the reject counts pin the accounting of the terms
  # it skips, which stay in size
  out=$(python -m lucaspf.cli search --r 1 --s -3 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 5 6"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=178139 size=89038 rough=29"
  # the same range as two windows, the second seeded past the primitive-
  # divisor index in the kept class only: the hits and counts add up to the
  # pin above
  out=$(python -m lucaspf.cli search --r 1 --s -3 --min-n 1 --max-n 133606 --reject-log 2>"$RUNNER_TEMP/reject.log")
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 5 6"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=89068 size=44503 rough=29"
  out=$(python -m lucaspf.cli search --r 1 --s -3 --min-n 133607 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out" | grep -Fx "0 hit(s)"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=89071 size=44535 rough=0"
  # (2,-3) U has tau = 2: half of the terms go through the even pass, and
  # past n = 30 only the multiples of 4, as U_2 = 2 has nu_2 = 1
  out=$(python -m lucaspf.cli search --r 2 --s -3 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 4"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=133604 size=133588 rough=15"
  # (2,-3) V has tau = 1, and V_1 = 2, V_2 = -2 have nu_2 = 1: past n = 15
  # every term has nu_2 = 1 and an odd primitive divisor, so it is too large
  # and the even pass ends there
  out=$(timeout 5 python -m lucaspf.cli search --r 2 --s -3 --kind V --max-n 133606 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "V" {print $1}' | paste -sd' ')" = "1 2 5"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=0 size=133603 rough=0"
  # (3,-2): U_n = 2^n - 1 is odd, and the roots 2 and 1 are real, so
  # |U_n| >= 2 past n = 2 and the residue pass stops there
  out=$(timeout 30 python -m lucaspf.cli search --r 3 --s -2 --max-n 267212)
  echo "$out"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1"
  # reject counts of the parity periods 2 (U of even r), 1 (V of even r)
  # and none (even s), unchanged from plain stepping
  test "$(python -m lucaspf.cli search --r 2 --s -3 --max-n 150 --reject-log 2>&1 >/dev/null)" = "fast-reject: odd=73 size=61 rough=11"
  test "$(python -m lucaspf.cli search --r 2 --s -3 --kind V --max-n 150 --reject-log 2>&1 >/dev/null)" = "fast-reject: odd=0 size=147 rough=0"
  test "$(python -m lucaspf.cli search --r 1 --s -2 --max-n 150 --reject-log 2>&1 >/dev/null)" = "fast-reject: odd=145 size=0 rough=0"
  # mid-range starts, seeded with no exact term: (3,-2) has real roots,
  # so it is not seeded at all; (1,-2) is seeded modulo 2P, and (2,-3) V
  # (tau = 1) modulo 2^w far from n = 1
  out=$(python -m lucaspf.cli search --r 3 --s -2 --min-n 200000 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out" | grep -Fx "0 hit(s)"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=67213 size=0 rough=0"
  out=$(python -m lucaspf.cli search --r 1 --s -2 --min-n 200000 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out" | grep -Fx "0 hit(s)"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=67213 size=0 rough=0"
  out=$(python -m lucaspf.cli search --r 2 --s -3 --kind V --min-n 100000 --max-n 100300 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out" | grep -Fx "0 hit(s)"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=0 size=301 rough=0"
  # full bounds through the even pass: (4,1) V has tau = 1, so every term
  # is even; (1,1) U widens its residues once, at U_384 (nu_2 = 9). Both
  # have real roots, so the even pass stops at the cut past which every
  # even term is too large by the 2-adic law and |x_n| >= (3/2)^(n-2):
  # n = 25 for (4,1) V and n = 768 for (1,1) U
  out=$(python -m lucaspf.cli search --r 4 --s 1 --kind V --max-n 133606 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out" | grep -Fx "1 hit(s)"
  test "$(echo "$out" | awk '$2 == "V" {print $1}' | paste -sd' ')" = "1"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=0 size=133603 rough=2"
  # (1,-3) V has tau = 3 and complex roots: both passes run, the +-1 pass
  # seeded modulo 2P from V's seeds (2, r)
  out=$(python -m lucaspf.cli search --r 1 --s -3 --kind V --max-n 133606 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "V" {print $1}' | paste -sd' ')" = "1 3"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=89070 size=44527 rough=7"
  out=$(python -m lucaspf.cli search --r 1 --s 1 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 6 12"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=178140 size=89047 rough=20"
  # far past the cut nothing is stepped: the counts are arithmetic
  out=$(timeout 5 python -m lucaspf.cli search --r 1 --s 1 --min-n 1000 --max-n 30000000 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out" | grep -Fx "0 hit(s)"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=19999334 size=9999667 rough=0"
  # the fast-reject counts by reason go to stderr; the hits stay on stdout
  out=$(python -m lucaspf.cli search --r 1 --s 1 --max-n 150 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=98 size=33 rough=14"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 6 12"
  # one pair per parity period at the certified bound, re-checked by
  # stepping every term exactly (about 20 s)
  PYTHONPATH=src:tests python tests/fullbound.py
  # 103424 = 2^10 * 101 has an odd prime factor above 2 * 10 + 1
  python -m lucaspf.cli pf 103424 | grep -Fx "fast reject: rough"
  # 26! * 53: the fast reject decides it before the membership search starts
  timeout 10 python -m lucaspf.cli pf 21374447439710098685952000000 | grep -Fx "fast reject: rough"
  # 26!: the largest single factorial the membership recursion answers
  # within a few seconds; its one witness is itself
  test "$(timeout 10 python -m lucaspf.cli pf 403291461126605635584000000 --decompose)" \
    = $'403291461126605635584000000: member\n  26!  args=[26]'
  # --limit below 1 exits 2 before the membership line is printed
  test "$(python -m lucaspf.cli pf 24 --decompose --limit 0; echo "exit $?")" = "exit 2"
  python -m lucaspf.cli cyclotomic --r 1 --s 1 --n 12 | grep -F "Phi_12(alpha, beta) = 6"
  # past Python's int-to-text limit of 4300 digits, pf and cyclotomic
  # refuse with exit 2 and a message that names it; 4300 digits still parse
  big=$(python -c 'print("1" + "0" * 4300)')
  test "$(python -m lucaspf.cli pf "$big" 2>"$RUNNER_TEMP/err.log"; echo "exit $?")" = "exit 2"
  grep -F "more than the 4300" "$RUNNER_TEMP/err.log"
  python -m lucaspf.cli pf "1${big:3}1" | grep -Fx "fast reject: odd"
  test "$(python -m lucaspf.cli cyclotomic --r 1 --s 1 --n 100000 2>"$RUNNER_TEMP/err.log"; echo "exit $?")" = "exit 2"
  grep -F "more than the 4300" "$RUNNER_TEMP/err.log"
  # pf, search and cyclotomic import no mpmath: only bounds and verify load the interval layer
  for argv in "pf 24" "search --r 1 --s 1 --max-n 150" "cyclotomic --r 1 --s 1 --n 12"; do
    python -X importtime -m lucaspf.cli $argv >/dev/null 2>"$RUNNER_TEMP/imports.log"
    if grep -w mpmath "$RUNNER_TEMP/imports.log"; then exit 1; fi
  done
)

# Benchmark smoke run, traced
# a src/ change that breaks the tracer's Interval wrapping or the
# find_threshold replay shows up here, not only in a later benchmark
smoke() (
  out=$(python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 1)
  echo "$out"
  if echo "$out" | grep -F "trace points not found"; then exit 1; fi
  echo "$out" | tail -n 1 | python3 -c 'import json, sys; assert json.load(sys.stdin)["correct"] is True'
)

steps=(tests oracle verify search smoke)
if [ $# -eq 0 ]; then
  set -- "${steps[@]}"
fi
for step in "$@"; do
  case " ${steps[*]} " in
    *" $step "*) "$step" ;;
    *) echo "unknown step: $step (one of: ${steps[*]})" >&2; exit 2 ;;
  esac
done
