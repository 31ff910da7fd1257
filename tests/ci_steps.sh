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
  python -m lucaspf.cli bounds --case general --kind V | diff - tests/oracle/bounds-general-V.txt
  python -m lucaspf.cli bounds --case real --kind V | diff - tests/oracle/bounds-real-V.txt
  python -m lucaspf.cli bounds --case unit --r 1 --s 1 --kind V | diff - tests/oracle/bounds-unit-V.txt
)

# Self-checks, including the 256-bit unit constant
verify() (
  PYTHONPATH=src python -m lucaspf.cli verify --suite all
)

# Search (1,-2) up to the certified general bound
search() (
  export PYTHONPATH=src
  # (1,-2) has complex roots and even s: every term is odd and goes
  # through the residue pass, so a modulus that makes every index a
  # +-1 candidate would take minutes
  out=$(timeout 30 python -m lucaspf.cli search --r 1 --s -2 --max-n 267212)
  echo "$out"
  echo "$out" | grep -F -- "-- exhaustive (general case, theorem bound 267212)"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 5 13"
  # a second pair, with odd s: (1,-3) has tau = 3, so both passes run;
  # the reject counts pin the accounting of the even pass
  out=$(python -m lucaspf.cli search --r 1 --s -3 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 5 6"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=178139 size=89038 rough=29"
  # (2,-3) U has tau = 2: half of the terms go through the even pass
  out=$(python -m lucaspf.cli search --r 2 --s -3 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 4"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=133604 size=133588 rough=15"
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
  # is even; (1,1) U widens its residues past the caps of nu_2 = 9, 13, ...
  out=$(python -m lucaspf.cli search --r 4 --s 1 --kind V --max-n 133606 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out" | grep -Fx "1 hit(s)"
  test "$(echo "$out" | awk '$2 == "V" {print $1}' | paste -sd' ')" = "1"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=0 size=133603 rough=2"
  out=$(python -m lucaspf.cli search --r 1 --s 1 --max-n 267212 --reject-log 2>"$RUNNER_TEMP/reject.log")
  echo "$out"
  test "$(echo "$out" | awk '$2 == "U" {print $1}' | paste -sd' ')" = "1 2 3 6 12"
  test "$(cat "$RUNNER_TEMP/reject.log")" = "fast-reject: odd=178140 size=89047 rough=20"
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
  # --limit below 1 exits 2 before the membership line is printed
  test "$(python -m lucaspf.cli pf 24 --decompose --limit 0; echo "exit $?")" = "exit 2"
  python -m lucaspf.cli cyclotomic --r 1 --s 1 --n 12 | grep -F "Phi_12(alpha, beta) = 6"
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
