"""Per-layer tracing of lucaspf from outside the package.

The tracer wraps the public functions of each layer where they are called:
every ``lucaspf`` module namespace that binds one of them gets the wrapper, and
the ``Interval`` methods are wrapped on the class.  Nothing under ``src/`` is
edited.  Coarse calls (a CLI command, a cascade row, a search, a query) are kept
as spans; hot leaf calls are only counted and timed in aggregate.

A layer's self time is the time inside its wrapped calls minus the time of
the wrapped calls they make.  Interval calls nested in another Interval call
(``__rsub__`` calling ``__sub__``, every op calling the constructor) are
counted but not timed on their own.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("interval", "bounds", "pipeline", "lucas", "factorials", "cyclotomic",
          "primes", "search", "cli")

_INTERVAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "log", "exp", "sqrt")

# (layer, module, attribute) of each wrapped module-level function.
_FUNCTIONS = (
    ("interval", "interval", "log_int"),
    ("interval", "interval", "log2"),
    ("interval", "interval", "euler_gamma"),
    ("interval", "interval", "pi"),
    ("bounds", "bounds", "mn_lower_affine"),
    ("bounds", "bounds", "mn_upper_sieve_affine"),
    ("bounds", "bounds", "phi_lower_rs"),
    ("bounds", "bounds", "phi_lower_omega"),
    ("bounds", "bounds", "omega_upper"),
    ("bounds", "bounds", "growth_log_alpha_lower"),
    ("bounds", "bounds", "primitive_divisor_log_bound"),
    ("pipeline", "pipeline", "find_threshold"),
    ("pipeline", "pipeline", "stage_violated"),
    ("pipeline", "pipeline", "run_general_cascade"),
    ("pipeline", "pipeline", "run_real_cascade"),
    ("pipeline", "pipeline", "run_unit_case"),
    ("pipeline", "pipeline", "emit_report"),
    ("lucas", "lucas", "u_at"),
    ("lucas", "lucas", "v_at"),
    ("lucas", "lucas", "validate_params"),
    ("factorials", "factorials", "pf_member"),
    ("factorials", "factorials", "pf_decompose"),
    ("factorials", "factorials", "pf_fast_reject"),
    ("cyclotomic", "cyclotomic", "arithmetic_profile"),
    ("cyclotomic", "cyclotomic", "cyclotomic_value"),
    ("primes", "primes", "nth_primes"),
    ("primes", "primes", "primorial"),
    ("search", "search", "search_pf_terms"),
    ("cli", "cli", "cli_dispatch"),
)

# Functions whose calls are kept as spans, with the span's name.
_SPANS = {"cli.cli_dispatch": "command", "pipeline.find_threshold": "row",
          "search.search_pf_terms": "search"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)        # key -> calls
        self.time = defaultdict(float)       # key -> seconds in timed calls
        self.outer = defaultdict(int)        # key -> timed calls (see _wrap)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)     # extra counters
        self.spans = []                      # [id, parent, name, start, end, attrs]
        self._stack = []                     # frames [layer, start, child_time]
        self._span_stack = []
        self.missing = []
        self.t0 = time.perf_counter()

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn, hook=None):
        stack = self._stack
        span_name = _SPANS.get(key)
        calls, timing, outer = self.calls, self.time, self.outer
        perf = time.perf_counter
        # Interval calls nest inside each other constantly (an op builds its
        # result through the constructor); only the outermost one is timed.
        flat = layer == "interval"

        def traced(*args, **kwargs):
            calls[key] += 1
            if hook is not None:
                hook(args, kwargs)
            if flat and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = self._open_span(span_name, args) if span_name else None
            frame = [layer, perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dt = end - frame[1]
                outer[key] += 1
                timing[key] += dt
                self.layer_self[layer] += dt - frame[2]
                if stack:
                    stack[-1][2] += dt
                if span_id is not None:
                    self._close_span(span_id, end)

        traced.__wrapped__ = fn
        return traced

    def _open_span(self, name, args):
        attrs = {}
        if name == "row" and args:
            attrs["row"] = getattr(args[0], "name", None)
        elif name == "command" and args:
            attrs["argv"] = list(args[0])
        elif name == "search" and args:
            cfg = args[0]
            attrs.update(r=cfg.r, s=cfg.s, kind=cfg.kind.value, n_min=cfg.n_min, n_max=cfg.n_max)
        return self.open_span(name, attrs)

    def open_span(self, name: str, attrs: dict | None = None) -> int:
        span_id = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append([span_id, parent, name, time.perf_counter() - self.t0, None, attrs or {}])
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id: int, end: float):
        self.spans[span_id][4] = end - self.t0
        if self._span_stack and self._span_stack[-1] == span_id:
            self._span_stack.pop()

    def close_span(self, span_id: int):
        self._close_span(span_id, time.perf_counter())

    def install(self, package) -> None:
        """Wrap every traced function in every loaded ``package`` module."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        for layer, mod_name, attr in _FUNCTIONS:
            key = f"{layer}.{attr}"
            home = sys.modules.get(f"{package.__name__}.{mod_name}")
            fn = getattr(home, attr, None) if home else None
            if fn is None:
                self.missing.append(key)
                continue
            if key == "factorials.pf_fast_reject":
                wrapped = self._wrap(layer, key, self._reject_counter(fn))
            elif key in ("lucas.u_at", "lucas.v_at"):
                wrapped = self._wrap(layer, key, self._term_counter(fn))
            elif key == "bounds.mn_lower_affine":
                wrapped = self._wrap(layer, key, fn, self._margin_hook)
            else:
                wrapped = self._wrap(layer, key, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)
        interval = sys.modules.get(f"{package.__name__}.interval")
        cls = getattr(interval, "Interval", None)
        if cls is None:
            self.missing.append("interval.Interval")
            return
        seen = {}
        for attr in _INTERVAL_OPS + ("__init__",):
            fn = cls.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"interval.Interval.{attr}")
                continue
            key = "interval.ctor" if attr == "__init__" else "interval.op"
            if fn not in seen:  # __radd__ is __add__: wrap once, bind to both names
                seen[fn] = self._wrap("interval", key, fn)
            setattr(cls, attr, seen[fn])

    # -- counters fed by wrapped calls ---------------------------------------------

    def _margin_hook(self, args, kwargs):
        ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
        cell = getattr(ctx, "n_range", None) is not None
        self.counts["bounds.margin_evals.cell" if cell else "bounds.margin_evals.point"] += 1
        if getattr(ctx, "prec", 64) > 64:
            self.counts["bounds.escalations"] += 1
        if any(self.spans[i][2] == "row" for i in self._span_stack):
            self.counts["pipeline.row_evals"] += 1

    def _reject_counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            reason = fn(*args, **kwargs)
            if reason is not None:
                counts["factorials.fast_reject.rejects"] += 1
            return reason

        return counted

    def _term_counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            term = fn(*args, **kwargs)
            counts["lucas.term_bits"] += abs(term.value).bit_length()
            return term

        return counted

    # -- report --------------------------------------------------------------------

    def metrics(self, package) -> dict[str, float]:
        c, t, o, k = self.calls, self.time, self.outer, self.counts

        def mean(key, scale):
            return t[key] / o[key] * scale if o[key] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        memo = getattr(sys.modules.get(f"{package.__name__}.factorials"), "_member_memo", None)
        rows = c["pipeline.find_threshold"]
        out = {
            "interval.ops": c["interval.op"],
            "interval.op_us": mean("interval.op", 1e6),
            "interval.ctor.calls": c["interval.ctor"],
            "interval.log_int.calls": c["interval.log_int"],
            "interval.log_int_us": mean("interval.log_int", 1e6),
            "bounds.margin_evals": c["bounds.mn_lower_affine"],
            "bounds.margin_evals.cell": k["bounds.margin_evals.cell"],
            "bounds.margin_evals.point": k["bounds.margin_evals.point"],
            "bounds.escalations": k["bounds.escalations"],
            "pipeline.rows": rows,
            "pipeline.row_s": mean("pipeline.find_threshold", 1.0),
            "pipeline.evals_per_row": ratio(k["pipeline.row_evals"], rows),
            "pipeline.point_checks": c["pipeline.stage_violated"],
            "pipeline.point_check_us": mean("pipeline.stage_violated", 1e6),
            "lucas.terms": c["lucas.u_at"] + c["lucas.v_at"],
            "lucas.term_us": ratio(t["lucas.u_at"] + t["lucas.v_at"],
                                   o["lucas.u_at"] + o["lucas.v_at"]) * 1e6,
            "lucas.term_bits": k["lucas.term_bits"],
            "factorials.fast_reject.calls": c["factorials.pf_fast_reject"],
            "factorials.fast_reject.reject_ratio": ratio(k["factorials.fast_reject.rejects"],
                                                         c["factorials.pf_fast_reject"]),
            "factorials.member.calls": c["factorials.pf_member"],
            "factorials.member_ms": mean("factorials.pf_member", 1e3),
            "factorials.decompose_ms": mean("factorials.pf_decompose", 1e3),
            "factorials.memo_entries": len(memo) if memo is not None else 0,
            "cyclotomic.profile.calls": c["cyclotomic.arithmetic_profile"],
            "cyclotomic.profile_us": mean("cyclotomic.arithmetic_profile", 1e6),
            "primes.nth_primes.calls": c["primes.nth_primes"],
            "primes.nth_primes_s": t["primes.nth_primes"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out
