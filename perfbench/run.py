"""The lucaspf benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload cascade-general --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; lucaspf is imported from ``src/`` there,
so nothing needs installing.  ``--workload all`` runs every workload in turn.

Each run first times interpreter start-up plus ``import lucaspf.cli`` and a
first ``validate_params`` several times (``setup_s`` is their median), then
runs repetitions of the workload, each in a fresh interpreter, for about
``--seconds`` seconds, one process at a time.  With ``--trace 0`` the
repetitions are untraced and the end-to-end metrics are medians over them.
With ``--trace 1`` an untraced and a traced repetition alternate; the traced
ones give the per-layer metrics and the difference gives the tracing overhead.
Every repetition checks its outputs against the oracles in ``oracle/`` or the
reference implementation in ``workloads.py``.  Timed metrics are normalised to
the machine's speed as described in ``speed.py``; the raw values are printed
next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
HARD_LIMIT_S = 170  # every run ends well inside 180 s, whatever the program does
_PROBE = (
    "import json, os, sys\n"
    "import lucaspf.cli\n"
    "from lucaspf import validate_params\n"
    "validate_params(1, 1)\n"
    "import mpmath, mpmath.libmp\n"
    "print(json.dumps({'python': sys.version.split()[0], 'mpmath': mpmath.__version__,"
    " 'backend': mpmath.libmp.BACKEND, 'nproc': os.cpu_count(),"
    " 'lucaspf': os.path.dirname(lucaspf.cli.__file__)}))\n"
)


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_setup(root: Path, env: dict, deadline: float) -> tuple[list[float], float, dict]:
    """Seconds of each start-up probe, the speed factor around them, and the
    environment."""
    samples, info = [], {}
    ref = [speed.reference_loop("interval")]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=root,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"lucaspf does not import from {root / 'src'}:\n{proc.stderr}")
        samples.append(elapsed)
        ref.append(speed.reference_loop("interval"))
        info = json.loads(proc.stdout)
    if Path(info["lucaspf"]).resolve() != (root / "src" / "lucaspf").resolve():
        raise BenchError(f"imported lucaspf from {info['lucaspf']}, not from this checkout")
    return samples, speed.speed_factor("interval", ref), info


def run_rep(root: Path, env: dict, workload: str, inputs: dict, trace: bool,
            deadline: float) -> dict:
    job = json.dumps({"workload": workload, "inputs": inputs, "trace": trace,
                      "reference": workloads.REFERENCE[workload]})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py")], input=job, env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"crashed": "repetition timed out"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100 values p99 is the maximum."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def timed_metrics(reps: list[dict], setup: list[float], wall: str, ops: str) -> dict:
    out = {"wall_s": statistics.median(r[wall] for r in reps), "setup_s": statistics.median(setup)}
    if all(r[ops] for r in reps):  # a repetition without operations has already failed
        out["op_p50_ms"] = statistics.median(percentile(r[ops], 50) for r in reps)
        out["op_p99_ms"] = statistics.median(percentile(r[ops], 99) for r in reps)
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + HARD_LIMIT_S
    env = child_env(root)
    inputs = workloads.make_inputs(workload, seed)
    setup, setup_speed, info = probe_setup(root, env, deadline)
    budget_end = time.perf_counter() + seconds
    untraced, traced, crashes = [], [], []
    while True:
        # untraced and traced repetitions alternate when tracing
        want_trace = trace and len(traced) < len(untraced)
        t0 = time.perf_counter()
        rep = run_rep(root, env, workload, inputs, want_trace, deadline)
        if "crashed" in rep:
            crashes.append(rep["crashed"])
            break
        (traced if want_trace else untraced).append(rep)
        rep_s = time.perf_counter() - t0
        need_pair = trace and not traced
        # stop when the next repetition would end more than half of one past the budget
        if not need_pair and time.perf_counter() + rep_s / 2 > budget_end:
            break
        if time.perf_counter() + 1.5 * rep_s > deadline:
            break
    reps = untraced + traced
    failures = [f for r in reps for f in r["failures"]] + crashes
    result = {
        "workload": workload,
        "seed": seed,
        "environment": {k: v for k, v in info.items() if k != "lucaspf"},
        "inputs": workloads.describe_inputs(workload, inputs),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": max(1, sum(r["attempted"] for r in reps) + len(crashes)),
        "failed": len(failures),
        "failures": failures[:10],
        "speed": [r["speed"] for r in untraced],
        "notes": {k: [r["notes"][k] for r in untraced] for k in (untraced[0]["notes"] if untraced else {})},
    }
    if untraced:
        result["raw"] = timed_metrics(untraced, setup, "wall_s", "op_ms")
        result["e2e"] = timed_metrics(untraced, [t * setup_speed for t in setup],
                                      "norm_wall_s", "norm_op_ms")
        result["e2e"]["peak_rss_mb"] = max(r["rss_mb"] for r in untraced)
        result["ops_per_rep"] = len(untraced[0]["op_ms"])
        result["rep_walls"] = [r["norm_wall_s"] for r in untraced]
    if traced:
        layer = {k: statistics.median(r["per_layer"][k] for r in traced)
                 for k in traced[0]["per_layer"]}
        traced_wall = statistics.median(r["norm_wall_s"] for r in traced)
        plain_wall = statistics.median(r["norm_wall_s"] for r in untraced)
        layer["trace.overhead_s"] = traced_wall - plain_wall
        layer["trace.overhead_ratio"] = traced_wall / plain_wall - 1
        result["per_layer"] = layer
        result["missing_trace_points"] = traced[0]["missing"]
        result["spans"] = traced[0]["spans"]
    return result


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def metrics_block(result: dict, spec: dict, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result.get("per_layer" if trace else "e2e", {})
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in source}


def print_summary(result: dict, spec: dict, out_dir: Path) -> None:
    env = result["environment"]
    print(f"# workload {result['workload']} seed {result['seed']}: "
          f"python {env.get('python')}, mpmath {env.get('mpmath')} backend {env.get('backend')}, "
          f"nproc {env.get('nproc')}, workers=1, repetitions {result['repetitions']}")
    print("# inputs: " + json.dumps(result["inputs"]))
    factors = result["speed"]
    if factors:
        print(f"#   speed factor per repetition: {[round(f, 4) for f in factors]}")
    for name, m in metrics_block(result, spec, False).items():
        raw = result.get("raw", {}).get(name)
        note = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"#   {name:<12} {m['value']:.6g} {m['unit']}{note}")
    if "ops_per_rep" in result:
        print(f"#   operations per repetition: {result['ops_per_rep']}")
        print(f"#   wall_s per repetition: {[round(w, 4) for w in result['rep_walls']]}")
    if result["workload"] == "search" and "e2e" in result:
        indices = sum(job[3] for job in result["inputs"]["jobs"])
        print(f"#   indices_per_s {indices / result['e2e']['wall_s']:.6g} 1/s")
    for key, values in result["notes"].items():
        print(f"#   {key} per repetition: {values}")
    print(f"#   error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    if "per_layer" in result:
        for name, value in sorted(result["per_layer"].items()):
            print(f"#   {name:<38} {value:.6g}")
        if result["missing_trace_points"]:
            print(f"#   trace points not found: {result['missing_trace_points']}")
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{result['workload']}-{result['seed']}.json"
        path.write_text(json.dumps({"spans": result["spans"], "per_layer": result["per_layer"]}))
        print(f"#   spans written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lucaspf" / "__init__.py").is_file():
        print(f"error: no src/lucaspf under {root}; run from the root of a lucaspf checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            print_summary(result, spec, root / ".bench_out")
            results.append(result)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        for name, m in metrics_block(result, spec, bool(args.trace)).items():
            metrics[name if len(results) == 1 else f"{result['workload']}.{name}"] = m
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    expected = len(spec["per_layer"] if args.trace else spec["end_to_end"]) * len(results)
    print(json.dumps({"correct": failed == 0 and len(metrics) == expected,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
