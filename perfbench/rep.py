"""One timed repetition of a workload, in a fresh interpreter.

Run by ``run.py`` with ``src/`` on ``PYTHONPATH``; reads the job as JSON on
stdin and prints the result as one JSON line.  A fresh process per repetition
keeps lucaspf's module state (``_member_memo``, mpmath's global precision)
from carrying over between repetitions.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time

import lucaspf
from lucaspf import cli, pipeline

from speed import Clock
from tracer import Tracer
from workloads import fact_product


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline


class Rep:
    def __init__(self, tracer: Tracer | None, reference: str):
        self.tracer = tracer
        self.clock = Clock(reference)
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict[str, int] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def span(self, name: str, attrs: dict):
        return self.tracer.open_span(name, attrs) if self.tracer else None

    def end_span(self, span_id) -> None:
        if span_id is not None:
            self.tracer.close_span(span_id)

    # -- cascades: `lucaspf bounds` with some rows replayed from the oracle ------------

    def cascade(self, inputs: dict) -> None:
        measured = set(inputs["measured_rows"])
        frozen = inputs["frozen_rows"]
        scan = pipeline.find_threshold
        ran = []

        def replay(cfg, workers=1):
            if cfg.name not in measured:
                return frozen[cfg.name]
            self.attempted += 1
            t0 = time.perf_counter()
            got = scan(cfg, workers)
            self.clock.op((time.perf_counter() - t0) * 1e3)
            self.clock.checkpoint()
            ran.append(cfg.name)
            if got != frozen[cfg.name]:
                self.fail(f"row {cfg.name}: threshold {got}, oracle {frozen[cfg.name]}")
            return got

        pipeline.find_threshold = replay
        try:
            for command in inputs["commands"]:
                self.attempted += 1
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        code = cli.cli_dispatch(command["argv"])
                except Exception as exc:  # a crash is a failed operation, not a benchmark crash
                    self.fail(f"{command['argv']}: {type(exc).__name__}: {exc}")
                    continue
                if code != command["exit"] or out.getvalue() != command["stdout"]:
                    self.fail(f"{command['argv']}: exit {code}, stdout differs from the oracle")
        finally:
            pipeline.find_threshold = scan
        if not ran:
            # the replay no longer intercepts the row scans, so the timing
            # would silently cover a different amount of work
            self.fail(f"none of the measured rows {sorted(measured)} was scanned")

    # -- search ----------------------------------------------------------------------

    def search(self, inputs: dict) -> None:
        block = inputs["block"]
        for job in inputs["jobs"]:
            kind = lucaspf.SeqKind(job["kind"])
            hits = []
            for lo in range(1, job["n_max"] + 1, block):
                self.attempted += 1
                cfg = lucaspf.SearchConfig(job["r"], job["s"], kind, lo, min(job["n_max"], lo + block - 1))
                t0 = time.perf_counter()
                try:
                    hits += lucaspf.search_pf_terms(cfg)
                except Exception as exc:
                    self.fail(f"search {job['r']},{job['s']},{job['kind']} from {lo}: "
                              f"{type(exc).__name__}: {exc}")
                finally:
                    self.clock.op((time.perf_counter() - t0) * 1e3)
                    self.clock.checkpoint()
            got = [[h.index, h.value_digits, h.witness.sign, list(h.witness.args)] for h in hits]
            if got != job["hits"]:
                self.fail(f"search {job['r']},{job['s']},{job['kind']}: hits {got}, oracle {job['hits']}")

    # -- factorial-product queries ---------------------------------------------------

    def pf_queries(self, inputs: dict) -> None:
        limit = inputs["limit"]
        signal.signal(signal.SIGALRM, _on_alarm)
        for q in inputs["queries"]:
            self.attempted += 1
            n = q["n"]
            span_id = self.span("query", {"n": n, "tier": q["tier"]})
            if q["deadline_s"]:
                signal.setitimer(signal.ITIMER_REAL, q["deadline_s"])
            t0 = time.perf_counter()
            missed = False
            try:
                member = lucaspf.pf_member(n)
                witnesses = lucaspf.pf_decompose(n, limit=limit) if member else []
            except Deadline:
                missed = True
                continue
            except Exception as exc:
                self.fail(f"pf {n}: {type(exc).__name__}: {exc}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                (self.clock.wait if missed else self.clock.op)((time.perf_counter() - t0) * 1e3)
                self.end_span(span_id)
                self.clock.checkpoint()
            self._check_pf(q, member, witnesses)
        self.notes["deadline_misses"] = len(self.clock.wait_ms)

    def _check_pf(self, q: dict, member: bool, witnesses) -> None:
        n = q["n"]
        if member != q["member"]:
            self.fail(f"pf {n}: member={member}, reference {q['member']}")
            return
        sign = 1 if n > 0 else -1
        for w in witnesses:
            if w.sign * fact_product(w.args) != n:
                self.fail(f"pf {n}: witness {w.sign} {w.args} does not multiply back")
                return
        got = [list(w.args) for w in witnesses]
        if got != q["witnesses"] or any(w.sign != sign for w in witnesses):
            self.fail(f"pf {n}: witnesses {got}, reference {q['witnesses']}")


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(lucaspf)
    rep = Rep(tracer, job["reference"])
    runner = {"search": rep.search, "pf-queries": rep.pf_queries}.get(job["workload"], rep.cascade)
    runner(job["inputs"])
    clock = rep.clock
    clock.checkpoint(force=True)
    result = {
        "wall_s": clock.raw_s,
        "norm_wall_s": clock.norm_wall_s(),
        "op_ms": clock.op_ms + clock.wait_ms,
        "norm_op_ms": clock.norm_op_ms(),
        "speed": clock.factor(),
        "attempted": rep.attempted,
        "failures": rep.failures,
        "notes": rep.notes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["per_layer"] = tracer.metrics(lucaspf)
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
