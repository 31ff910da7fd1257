import argparse
import json
import math
import multiprocessing
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest

from lucaspf.cli import _build_parser, cli_dispatch
from lucaspf.errors import Degenerate, DomainError, LucasPFError, NotCoprime, Undecidable
from lucaspf.factorials import pf_fast_reject, pf_member
from lucaspf.lucas import SeqKind, validate_params
from lucaspf import factorials, lucas, search
from lucaspf.search import (
    SearchConfig,
    _digit_count,
    search_pf_terms,
    verify_fibonacci_identity,
)
from oracles import iter_terms, u_naive, v_naive


def brute_force_hits(r, s, kind, n_max):
    # independent oracle: naive recurrence + naive factorial-product check
    p = validate_params(r, s)
    term = u_naive if kind is SeqKind.U else v_naive

    def member(n):
        if n == 1:
            return True
        stack = [n]
        seen = set()
        while stack:
            m = stack.pop()
            if m == 1:
                return True
            if m in seen:
                continue
            seen.add(m)
            f, k = 2, 2
            while f <= m:
                if m % f == 0:
                    stack.append(m // f)
                k += 1
                f *= k
        return False

    out = []
    for n in range(1, n_max + 1):
        v = term(p, n)
        if v != 0 and member(abs(v)):
            out.append(n)
    return out


def test_fibonacci_search_matches_oracle():
    hits = search_pf_terms(SearchConfig(1, 1, SeqKind.U, 1, 150))
    assert [h.index for h in hits] == brute_force_hits(1, 1, SeqKind.U, 150)
    assert [h.index for h in hits] == [1, 2, 3, 6, 12]


def test_lucas_companion_search_matches_oracle():
    hits = search_pf_terms(SearchConfig(1, 1, SeqKind.V, 1, 150))
    assert [h.index for h in hits] == brute_force_hits(1, 1, SeqKind.V, 150)
    assert [h.index for h in hits] == [1, 3]


def test_mersenne_like_search():
    # (3,-2): U_n = 2^n - 1, always odd, so only the trivial n = 1 hits
    hits = search_pf_terms(SearchConfig(3, -2, SeqKind.U, 1, 60))
    assert [h.index for h in hits] == brute_force_hits(3, -2, SeqKind.U, 60) == [1]
    assert hits[0].trivial


def test_witnesses_remultiply_to_terms():
    for r, s, kind in ((1, 1, SeqKind.U), (1, 1, SeqKind.V), (2, 1, SeqKind.U)):
        p = validate_params(r, s)
        for h in search_pf_terms(SearchConfig(r, s, kind, 1, 120)):
            term = (u_naive if kind is SeqKind.U else v_naive)(p, h.index)
            assert h.witness.product() == term
            assert h.trivial == (abs(term) == 1)


def test_a_search_builds_no_exact_seed():
    # no search is seeded by an exact term. Every exact term goes through
    # lucas._uv_pair, so the patch sees them all: each is a +-1 candidate of
    # the residue pass or an even term whose residue modulo 2^w could not
    # settle `size`.
    # - (1, 1) (tau = 3): the candidates are its trivial hits U_1 = U_2 = 1.
    #   The even terms built are those below their cap, U_3 = 2, U_6 = 8 and
    #   U_12 = 144 among them, up to U_768 (532 bits, nu_2 = 10, cap 661),
    #   and U_384 (nu_2 = 9, cap 514 >= 512), where w widens. The roots are
    #   real, so the even pass stops at U_768, past which every even term is
    #   provably too large: three searches over consecutive thirds of the
    #   range build the same terms as one, all in the first third;
    # - (1, -2) has even s: every term is odd, and the only exact terms are
    #   its 5 trivial hits
    small = [1, 2, 3, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 72, 84, 96, 108, 120, 144, 168, 192, 240, 288]
    expected = {
        ((1, 1), 1): small + [384, 768],
        ((1, 1), 3): small + [384, 768],
        ((1, -2), 1): [1, 2, 3, 5, 13],
        ((1, -2), 3): [1, 2, 3, 5, 13],
    }
    spans = {1: [(1, 20_000)], 3: [(1, 6_666), (6_667, 13_333), (13_334, 20_000)]}
    for r, s in ((1, 1), (1, -2)):
        found = []
        for parts, ranges in spans.items():
            hits = []
            with mock.patch.object(lucas, "_uv_pair", wraps=lucas._uv_pair) as exact:
                for lo, hi in ranges:
                    hits += search_pf_terms(SearchConfig(r, s, n_min=lo, n_max=hi))
            built = sorted(c.args[1] for c in exact.call_args_list)
            assert built == expected[(r, s), parts], (r, s, parts)
            found.append(hits)
        assert found[0] == found[1], (r, s)
    assert all(h.trivial for h in found[0])  # (1, -2) has no other hit


def test_fast_reject_differential_over_random_params():
    rng = random.Random(5)
    pairs = []
    while len(pairs) < 10:
        r, s = rng.randint(-10, 10), rng.randint(-10, 10)
        try:
            validate_params(r, s)
            pairs.append((r, s))
        except Exception:
            continue
    for r, s in pairs:
        p = validate_params(r, s)
        for n in range(1, 301):
            v = u_naive(p, n)
            if abs(v) > 1 and pf_fast_reject(v) is not None:
                assert not pf_member(v), (r, s, n)


def test_search_validates_the_parameters_once_per_call():
    # SearchConfig checks (r, s) on construction; the search and the CLI's
    # coverage label read the parameters it keeps
    with mock.patch.object(search, "validate_params", wraps=search.validate_params) as spy:
        hits = search_pf_terms(SearchConfig(1, -2, n_max=1280))
    assert spy.call_count == 1
    assert [h.index for h in hits] == [1, 2, 3, 5, 13]


def test_search_decomposes_each_candidate_once(monkeypatch):
    # pf_decompose alone decides membership: an empty list is a non-member
    def forbidden(n):
        raise AssertionError("the search called pf_member")

    monkeypatch.setattr(search, "pf_member", forbidden, raising=False)
    monkeypatch.setattr(factorials, "pf_member", forbidden)
    # (index, digits, sign, args, trivial), frozen from the two-pass search
    expected = {
        (1, 1, 150): [(1, 1, 1, (), True), (2, 1, 1, (), True), (3, 1, 1, (2,), False),
                      (6, 1, 1, (2, 2, 2), False), (12, 3, 1, (2, 2, 3, 3), False)],
        (1, -2, 2000): [(n, 1, 1, (), True) for n in (1, 2, 3, 5, 13)],
    }
    for (r, s, n_max), want in expected.items():
        hits = search_pf_terms(SearchConfig(r, s, n_max=n_max))
        got = [(h.index, h.value_digits, h.witness.sign, h.witness.args, h.trivial) for h in hits]
        assert got == want, (r, s)


def test_the_sign_of_r_flips_only_the_signs_of_terms():
    # U_n(-r, s) = (-1)^(n-1) U_n(r, s) and V_n(-r, s) = (-1)^n V_n(r, s), so
    # a search finds the same indices, witness arguments and digit counts
    pairs = []
    for r in range(1, 6):
        for s in [x for k in range(1, 11) for x in (k, -k)]:
            try:
                pairs.append((validate_params(r, s), validate_params(-r, s)))
            except LucasPFError:
                pass
    assert len(pairs) == 68
    for kind, shift in ((SeqKind.U, 1), (SeqKind.V, 0)):
        for plus, minus in pairs:
            terms = zip(islice(iter_terms(plus, kind, 0), 60), iter_terms(minus, kind, 0))
            for n, (x, y) in enumerate(terms):
                assert y == (-1) ** ((n - shift) % 2) * x, (plus.r, plus.s, kind, n)
            found = [
                [(h.index, h.witness.args, h.value_digits)
                 for h in search_pf_terms(SearchConfig(p.r, p.s, kind, 1, 400))]
                for p in (plus, minus)
            ]
            assert found[0] == found[1], (plus.r, plus.s, kind)


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(1, 1, SeqKind.U, 0, 10)
    with pytest.raises(DomainError):
        SearchConfig(1, 1, SeqKind.U, 10, 5)
    with pytest.raises(NotCoprime):
        SearchConfig(2, 4, SeqKind.U, 1, 10)


def test_search_config_caches_valid_pairs_by_type_and_no_error():
    # a valid pair is checked once per process and its parameters shared; a
    # degenerate, a non-coprime and a root-of-unity pair raise on every call
    assert SearchConfig(1, 1).params is SearchConfig(1, 1).params
    for r, s, error in ((0, 5, Degenerate), (2, 4, NotCoprime), (1, -1, Degenerate)):
        for _ in range(2):
            with pytest.raises(error):
                SearchConfig(r, s)
    # (True, 1) and (1.0, 1) equal (1, 1) as keys, but each is checked as
    # given: True is kept, a float raises
    flag = SearchConfig(True, 1, n_max=150)
    assert flag.params.r is True and type(SearchConfig(1, 1).params.r) is int
    assert search_pf_terms(flag) == search_pf_terms(SearchConfig(1, 1, n_max=150))
    for _ in range(2):
        with pytest.raises(TypeError):
            SearchConfig(1.0, 1)


def test_search_config_stores_the_kind_it_is_given_as_a_string():
    # "U" == SeqKind.U but is not the member: SearchConfig stores the member,
    # which every hit carries, and each string must search its own sequence
    for r, s, kind, want in ((1, 1, "U", [1, 2, 3, 6, 12]), (1, 1, "V", [1, 3]),
                             (2, -3, "U", [1, 2, 3, 4])):
        cfg = SearchConfig(r, s, kind, 1, 150)
        assert cfg.kind is SeqKind(kind)
        hits = search_pf_terms(cfg)
        assert [h.index for h in hits] == want, (r, s, kind)
        assert hits == search_pf_terms(SearchConfig(r, s, SeqKind(kind), 1, 150))
        assert all(h.kind is SeqKind(kind) for h in hits)
    for kind in ("W", "u", None, 1):
        with pytest.raises(DomainError):
            SearchConfig(1, 1, kind, 1, 150)


def test_search_config_has_no_reject_log():
    # the reject counts are printed by `lucaspf search --reject-log`, not by the library
    with pytest.raises(TypeError):
        SearchConfig(1, 1, reject_log=True)


def test_search_pf_terms_writes_nothing(capfd):
    hits = search_pf_terms(SearchConfig(1, 1, SeqKind.U, 1, 150))
    assert [h.index for h in hits] == [1, 2, 3, 6, 12]
    assert capfd.readouterr() == ("", "")


def test_digit_count_leaves_the_str_limit_alone():
    limit = sys.get_int_max_str_digits()
    assert _digit_count(10**5000 - 1) == 5000
    assert _digit_count(10**5000) == 5001
    assert _digit_count(-(10**5000)) == 5001
    assert sys.get_int_max_str_digits() == limit
    rng = random.Random(5)
    values = [0, 1, 9, 10, 99, 100] + [rng.getrandbits(rng.randint(1, 4000)) for _ in range(300)]
    for n in values + [10**k + d for k in range(1, 300) for d in (-1, 0)]:
        assert _digit_count(n) == len(str(n)), n


def test_fibonacci_identity(monkeypatch):
    assert verify_fibonacci_identity()
    monkeypatch.setattr(search, "_FIBONACCI_FACTORIAL_INDICES", (1, 2, 3, 4, 5, 6, 8, 10, 11))
    assert not verify_fibonacci_identity()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lucaspf.cli", *args],
        capture_output=True,
        timeout=600,
    )


def test_importing_the_cli_loads_no_multiprocessing():
    # every command runs in one process: neither importing the CLI nor a
    # search over 5 000 indices loads multiprocessing or pickle
    probe = (
        "import contextlib, io, sys, lucaspf.cli\n"
        "if len(sys.argv) > 1:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert lucaspf.cli.cli_dispatch(sys.argv[1:]) == 0\n"
        "print(sorted({'multiprocessing', 'pickle'} & set(sys.modules)))\n"
    )
    for argv in ([], ["search", "--r", "1", "--s", "1", "--max-n", "5000"]):
        out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.decode().strip() == "[]", argv


def test_exact_commands_run_without_mpmath():
    # pf, search and cyclotomic never load the interval layer: with mpmath made
    # unimportable they exit 0 with the bytes of a normal run
    probe = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "import lucaspf.cli\n"
        "sys.exit(lucaspf.cli.cli_dispatch(json.loads(sys.argv[1])))\n"
    )
    for argv in (
        ["pf", "24", "--decompose"],
        ["search", "--r", "1", "--s", "-2", "--max-n", "3000"],
        ["cyclotomic", "--r", "1", "--s", "1", "--n", "12"],
    ):
        blocked = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                                 capture_output=True, timeout=120)
        normal = run_cli(*argv)
        assert blocked.returncode == normal.returncode == 0, blocked.stderr
        assert blocked.stdout == normal.stdout, argv
    probe = "import sys, lucaspf; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=60)
    assert out.returncode == 0 and out.stdout.decode().strip() == "False", out.stderr


def test_no_bounds_run_starts_a_pool(capsys, monkeypatch):
    # every cascade runs its rows in one process
    def forbidden(*args, **kwargs):
        raise AssertionError("a bounds run asked for a process pool")

    monkeypatch.setattr(multiprocessing, "get_context", forbidden)
    oracle = Path(__file__).parent.parent / "perfbench" / "oracle"
    for case in ("general", "real"):
        assert cli_dispatch(["bounds", "--case", case]) == 0
        assert capsys.readouterr().out == (oracle / f"bounds-{case}.txt").read_text(), case


def test_cli_search_deterministic_bytes():
    first = run_cli("search", "--r", "1", "--s", "1", "--max-n", "150")
    second = run_cli("search", "--r", "1", "--s", "1", "--max-n", "150")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert b"exhaustive" in first.stdout
    for n in (b" 1 ", b"12"):
        assert n in first.stdout


def test_cli_search_partial_label():
    out = run_cli("search", "--r", "2", "--s", "3", "--max-n", "40")
    assert out.returncode == 0
    assert b"partial up to nMax=40" in out.stdout


def test_cli_search_coverage_uses_the_bound_of_the_case():
    # (3, -2) has real roots, so its search is exhaustive from the real bound 210
    out = run_cli("search", "--r", "3", "--s", "-2", "--max-n", "210")
    assert out.returncode == 0
    assert b"exhaustive" in out.stdout
    out = run_cli("search", "--r", "3", "--s", "-2", "--max-n", "209")
    assert out.returncode == 0
    assert b"partial up to nMax=209" in out.stdout


def test_cli_exit_codes():
    assert run_cli("search", "--r", "2", "--s", "4", "--max-n", "10").returncode == 2
    assert run_cli("pf", "0").returncode == 2
    assert run_cli("cyclotomic", "--r", "1", "--s", "-1", "--n", "5").returncode == 2
    assert run_cli("bogus").returncode == 2
    # --limit is checked before the membership line is printed
    out = run_cli("pf", "24", "--decompose", "--limit", "0")
    assert out.returncode == 2 and out.stdout == b""
    # the starting precision is not a flag: the ladder escalates on its own
    assert run_cli("--precision-bits", "128", "pf", "6").returncode == 2


def test_cli_refuses_numbers_past_the_str_digit_limit(capsys):
    # Python reads and writes at most sys.get_int_max_str_digits() decimal
    # digits of an int; the CLI refuses past that, naming the limit, and
    # exits 2, and no code of the package sets it
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this Python has no digit limit")
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["pf", "1" + "0" * limit])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"{limit + 1} digits" in err and f"the {limit}" in err
    assert "invalid int value" not in err
    assert cli_dispatch(["pf", "-1" + "0" * (limit - 2) + "1"]) == 0  # limit digits, odd
    assert capsys.readouterr().out.splitlines()[1] == "fast reject: odd"
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["pf", "12ab"])
    assert exc.value.code == 2 and "invalid int value: '12ab'" in capsys.readouterr().err
    # every integer option reads its value the same way
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["search", "--r", "1" + "0" * limit, "--s", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"argument --r: {limit + 1} digits" in err and f"the {limit}" in err
    # Phi_100000 of (1, 1) has 8 360 digits
    assert cli_dispatch(["cyclotomic", "--r", "1", "--s", "1", "--n", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Phi_100000(alpha, beta) has 8360 digits")
    assert f"the {limit}" in err
    assert sys.get_int_max_str_digits() == limit
    src = Path(search.__file__).parent
    assert not [f for f in src.glob("*.py") if "set_int_max_str_digits" in f.read_text()]


def test_cli_pf_and_cyclotomic():
    out = run_cli("pf", "39916800", "--decompose")
    assert out.returncode == 0 and b"11!" in out.stdout
    out = run_cli("pf", "7")
    assert out.returncode == 0 and b"not a member" in out.stdout
    out = run_cli("cyclotomic", "--r", "1", "--s", "1", "--n", "12")
    assert out.returncode == 0 and b"= 6 " in out.stdout


# stdout of `lucaspf pf N`, frozen from the version that asked pf_member first
_PF_STDOUT = {
    "1": "1: member\n",
    "-1": "-1: member\n",
    "2": "2: member\n",
    "24": "24: member\n",
    "-720": "-720: member\n",
    "30": "30: not a member\nfast reject: size\n",
    "1440": "1440: member\n",
    "103424": "103424: not a member\nfast reject: rough\n",
    "7": "7: not a member\nfast reject: odd\n",
    "7023616": "7023616: not a member\n",  # 2^10 * 19^3 passes the fast reject
}


def test_cli_pf_stdout_is_frozen(capsys):
    assert cli_dispatch(["pf", "0"]) == 2
    assert capsys.readouterr().out == ""
    for n, want in _PF_STDOUT.items():
        assert cli_dispatch(["pf", n]) == 0
        assert capsys.readouterr().out == want, n
    assert cli_dispatch(["pf", "-720", "--decompose"]) == 0
    assert capsys.readouterr().out == (
        "-720: member\n  -3!*5!  args=[3, 5]\n  -6!  args=[6]\n"
    )


def test_cli_pf_asks_the_fast_reject_first():
    # 26! * 53: the membership search runs for long on it; the rough reason is instant
    n = str(math.factorial(26) * 53)
    out = subprocess.run(
        [sys.executable, "-m", "lucaspf.cli", "pf", n], capture_output=True, timeout=10
    )
    assert out.returncode == 0
    assert out.stdout.decode().splitlines() == [f"{n}: not a member", "fast reject: rough"]


def test_every_cli_option_has_help():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.help, (name, action.dest)


def test_cli_verify_identities():
    out = run_cli("verify", "--suite", "identities")
    assert out.returncode == 0
    assert out.stdout.count(b"PASS") == 2


def test_cli_json_and_csv_outputs(tmp_path):
    jpath = tmp_path / "hits.json"
    cpath = tmp_path / "hits.csv"
    out = run_cli(
        "search", "--r", "1", "--s", "1", "--max-n", "150",
        "--json", str(jpath), "--csv", str(cpath),
    )
    assert out.returncode == 0
    payload = json.loads(jpath.read_text())
    assert [h["index"] for h in payload["search"]["hits"]] == [1, 2, 3, 6, 12]
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "index,kind,digits,witness,trivial"
    assert len(rows) == 6


def test_cli_search_reject_log(capsys):
    # the counts go to stderr; stdout is the same as without the flag
    argv = ["search", "--r", "1", "--s", "1", "--max-n", "150"]
    assert cli_dispatch(argv) == 0
    plain = capsys.readouterr()
    assert cli_dispatch(argv + ["--reject-log"]) == 0
    logged = capsys.readouterr()
    assert plain.err == ""
    assert logged.err == "fast-reject: odd=98 size=33 rough=14\n"
    assert logged.out == plain.out


def _home(work):
    # the cascades are imported by the bounds handler when it runs, the search at cli import
    return f"lucaspf.pipeline.{work}" if work.startswith("run_") else f"lucaspf.cli.{work}"


def test_cli_unwritable_output_path_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    runs = [
        ("run_unit_case",
         ("bounds", "--case", "unit", "--r", "1", "--s", "1", "--json", str(missing / "x.json"))),
        ("_search_run",
         ("search", "--r", "1", "--s", "1", "--max-n", "20", "--json", str(missing / "x.json"))),
        ("_search_run",
         ("search", "--r", "1", "--s", "1", "--max-n", "20", "--csv", str(missing / "x.csv"))),
    ]
    for _, argv in runs:
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert out.stderr.startswith(b"error: ") and b"Traceback" not in out.stderr, argv
        assert str(missing).encode() in out.stderr, argv
        assert out.stdout == b"", argv
    # the path is opened before the work: no cascade or search runs
    runs.append(("run_general_cascade", ("bounds", "--json", str(missing / "x.json"))))
    for work, argv in runs:
        with mock.patch(_home(work)) as spy:
            assert cli_dispatch(list(argv)) == 2, argv
        spy.assert_not_called()
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: "), argv


def test_cli_failed_run_leaves_outputs_as_they_were(tmp_path, capsys):
    # a path opened before the work is cut only when the work succeeds
    made, kept = tmp_path / "made.json", tmp_path / "kept.csv"
    kept.write_text("an earlier report\n")
    search_argv = ("search", "--r", "1", "--s", "1", "--max-n", "20",
                   "--json", str(made), "--csv", str(kept))
    runs = [
        ("run_general_cascade", Undecidable("stalled"), 3, ("bounds", "--json", str(made))),
        ("run_unit_case", Undecidable("stalled"), 3,
         ("bounds", "--case", "unit", "--r", "1", "--s", "1", "--json", str(kept))),
        ("_search_run", DomainError("bad block"), 2, search_argv),
        ("_search_run", KeyboardInterrupt(), None, search_argv),
    ]
    for work, exc, code, argv in runs:
        with mock.patch(_home(work), side_effect=exc):
            if code is None:
                with pytest.raises(KeyboardInterrupt):
                    cli_dispatch(list(argv))
            else:
                assert cli_dispatch(list(argv)) == code, argv
        assert capsys.readouterr().out == "", argv
        assert not made.exists(), argv
        assert kept.read_text() == "an earlier report\n", argv
    # a successful run replaces a longer file whole
    kept.write_text("x" * 10_000)
    assert cli_dispatch(list(search_argv)) == 0
    capsys.readouterr()
    rows = kept.read_text().splitlines()
    assert rows[0] == "index,kind,digits,witness,trivial" and len(rows) == 6
    assert json.loads(made.read_text())["search"]["nMax"] == 20


def test_cli_outputs_to_devices_and_pipes():
    # a target that is not a regular file is written and never cut
    for argv in (("search", "--r", "1", "--s", "1", "--max-n", "20", "--json", "/dev/null"),
                 ("search", "--r", "1", "--s", "1", "--max-n", "20", "--csv", "/dev/null"),
                 ("bounds", "--case", "unit", "--json", "/dev/null")):
        out = run_cli(*argv)
        assert out.returncode == 0 and out.stderr == b"", (argv, out.stderr)
    # stdout is a pipe here: the JSON follows the table on it
    out = run_cli("search", "--r", "1", "--s", "1", "--max-n", "20", "--json", "/dev/stdout")
    assert out.returncode == 0 and out.stderr == b"", out.stderr
    table, brace, rest = out.stdout.decode().partition("{")
    assert table.splitlines()[-1] == "5 hit(s)"
    assert [h["index"] for h in json.loads(brace + rest)["search"]["hits"]] == [1, 2, 3, 6, 12]


def test_cli_json_to_dev_stdout_follows_the_table_in_a_file(tmp_path):
    # with stdout redirected to a regular file, --json /dev/stdout opens that
    # same file: the JSON goes after the table, through stdout, and nothing
    # is overwritten or cut; appending keeps what the file held
    for argv, last_line in (
        (("search", "--r", "1", "--s", "1", "--max-n", "20"), "5 hit(s)"),
        (("bounds", "--case", "unit", "--r", "1", "--s", "1"), "final bound: n <= 150"),
    ):
        table = run_cli(*argv).stdout.decode()
        json_path = tmp_path / "report.json"
        assert run_cli(*argv, "--json", str(json_path)).returncode == 0
        path = tmp_path / "both.txt"
        path.write_text("kept\n")
        with open(path, "a") as fh:
            out = subprocess.run([sys.executable, "-m", "lucaspf.cli", *argv, "--json", "/dev/stdout"],
                                 stdout=fh, stderr=subprocess.PIPE, timeout=600)
        assert out.returncode == 0 and out.stderr == b"", (argv, out.stderr)
        text = path.read_text()
        assert text.startswith("kept\n" + table), argv
        assert table.splitlines()[-1].startswith(last_line)
        assert json.loads(text[len("kept\n" + table):]) == json.loads(json_path.read_text())


def test_cli_bounds_unit_json(tmp_path):
    jpath = tmp_path / "unit.json"
    out = run_cli(
        "bounds", "--case", "unit", "--r", "1", "--s", "1", "--json", str(jpath)
    )
    assert out.returncode == 0
    report = json.loads(jpath.read_text())
    assert report["finalBound"] == 150
    assert report["decisive"]
