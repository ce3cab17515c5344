"""Layer tracing of ``dfreud`` from outside the package.

``Tracer.install`` replaces every public function of the layer modules
(``moments``, ``hankel``, ``numerics``, ``recurrence``, ``asymptotics``,
``polynomials``, ``detasympt``) with a wrapper that records a span
``(name, start, end, parent, task, attrs)``.  The wrapper is installed at
*every* binding site inside the package: a name bound by
``from .moments import moment_table`` in ``dfreud.hankel`` is a separate
attribute from ``dfreud.moments.moment_table``, and patching only the
defining module would miss the calls that go through it.  The mpmath
kernels the layers lean on are spanned where the layer binds them
(``moments.pcfd``, ``numerics.quad``, ``polynomials.quad``).

Helpers called hundreds of thousands of times per task (``eval_poly``,
``WeightParams.weight`` and the scalar conversions) get counting-only
wrappers, so their calls are counted without a span.

Spans stay in memory; ``write_spans`` saves them when the run is over and
``layer_metrics`` turns them into the per-layer metrics.  ``uninstall``
puts every original back.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("moments", "hankel", "numerics", "recurrence", "asymptotics",
          "polynomials", "detasympt")

#: mpmath callables spanned at the layer module that binds them.
FOREIGN = {"moments": ("pcfd",), "numerics": ("quad",), "polynomials": ("quad",)}

#: public functions too small and too hot for a span: counted only.
COUNT_ONLY = ("polynomials.eval_poly", "numerics.to_fraction",
              "numerics.fraction_to_mpf", "recurrence.delta_parity",
              "polynomials.v0_prime")

#: counted method, patched on its class.
WEIGHT = "moments.WeightParams.weight"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _large_n_key(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    parity = _arg(args, kwargs, 1, "parity")
    ctx = _arg(args, kwargs, 2, "ctx")
    digits = (ctx.digits if ctx is not None
              else getattr(sys.modules["dfreud.asymptotics"], "_DEFAULT_DIGITS", 50))
    return {"key": f"{params.s}|{params.alpha}|{params.big_n}|{parity}|{digits}"}


def _gram_entries(args, kwargs, result):
    n = _arg(args, kwargs, 0, "n_max")
    return {"entries": (n + 1) * (n + 2) // 2}


#: attributes read from a call's arguments and result, per span name.
ATTRS = {
    "moments.moment_table": lambda a, k, r: {
        "entries": _arg(a, k, 1, "max_order") + 1,
        "source": _arg(a, k, 3, "source", "closed_form")},
    "hankel.h_sequence": lambda a, k, r: {
        "digits": _arg(a, k, 2, "ctx").digits, "digits_used": r.digits_used},
    "recurrence.dpi_forward": lambda a, k, r: {
        "steps": max(len(r.betas) - 2, 0), "cone_exit": r.failure_index is not None},
    "asymptotics.large_n_coefficients": _large_n_key,
    "polynomials.orthogonality_check": _gram_entries,
}


class Tracer:
    """Records spans of the wrapped ``dfreud`` functions while installed."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, task, attrs]
        self._stack: list = []
        self.task = None
        self.counts: dict = {}
        self.span_overhead_s = 0.0
        self._patches: list = []   # (owner, attribute, original)
        self._count_cost_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        import dfreud  # noqa: F401  (imports every layer module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dfreud" or name.startswith("dfreud."))]
        by_identity = {}
        for layer in LAYERS:
            mod = sys.modules[f"dfreud.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                by_identity[id(obj)] = (obj, self._counter(name, obj) if name in COUNT_ONLY
                                        else self._spanner(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = by_identity.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, attrs in FOREIGN.items():
            mod = sys.modules[f"dfreud.{layer}"]
            for attr in attrs:
                obj = getattr(mod, attr, None)
                if obj is not None:
                    self._patch(mod, attr, self._spanner(f"{layer}.{attr}", obj))
        weight_cls = sys.modules["dfreud.moments"].WeightParams
        self._patch(weight_cls, "weight", self._counter(WEIGHT, weight_cls.weight))
        self._count_cost_s = _calibrate_counter()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _spanner(self, name, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t2 = clock()
                stack.pop()
                spans[index] = [name, t1, t2, parent, tracer.task,
                                {"error": type(exc).__name__}]
                tracer.span_overhead_s += (t1 - t0) + (clock() - t2)
                raise
            t2 = clock()
            stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of is not None else None
            spans[index] = [name, t1, t2, parent, tracer.task, attrs]
            tracer.span_overhead_s += (t1 - t0) + (clock() - t2)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output ------------------------------------------------------------

    def overhead_s(self) -> float:
        """Time the wrappers themselves took: measured for spans, calibrated for counts."""
        return self.span_overhead_s + self._count_cost_s * sum(self.counts.values())

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, task, attrs in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7),
                                     parent, task, attrs]) + "\n")


def _calibrate_counter(calls: int = 200_000) -> float:
    """Seconds one counting wrapper adds to a call, measured on a no-op."""
    counts = {"x": 0}

    def bare():
        return None

    def counted():
        counts["x"] += 1
        return bare()

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            counted()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: every per-layer metric, in report order.
LAYER_METRICS = (
    "moments.table_calls", "moments.table_entries", "moments.table_s",
    "moments.quad_table_s", "moments.mu0_calls", "moments.mu0_s",
    "moments.pcfd_calls", "moments.pcfd_s",
    "hankel.h_sequence_calls", "hankel.h_sequence_s", "hankel.pivot_self_s",
    "hankel.attempts", "hankel.escalations", "hankel.useful_attempt_ratio",
    "hankel.guard_digits_mean", "hankel.digits_used_max",
    "numerics.integrate_calls", "numerics.integrate_s", "numerics.barnes_g_calls",
    "numerics.barnes_g_s",
    "recurrence.beta1_calls", "recurrence.beta1_s", "recurrence.dpi_calls",
    "recurrence.dpi_steps", "recurrence.dpi_s", "recurrence.sensitivity_s",
    "recurrence.cone_exits",
    "asymptotics.coeff_calls", "asymptotics.coeff_keys", "asymptotics.coeff_s",
    "asymptotics.eval_calls", "asymptotics.eval_self_s",
    "polynomials.build_s", "polynomials.residual_s", "polynomials.gram_calls",
    "polynomials.gram_entries", "polynomials.gram_s", "polynomials.quad_calls",
    "polynomials.weight_evals", "polynomials.eval_poly_calls",
    "detasympt.derivative_s", "detasympt.expansion_s",
    "trace.overhead_frac", "trace.unattributed_s",
)

_EVAL = {"asymptotics.beta_large_n", "asymptotics.beta_small_s",
         "asymptotics.beta_double_scaling"}
_RESIDUALS = {"polynomials.lowering_residual", "polynomials.compatibility_residuals",
              "polynomials.pn_ode_residual", "polynomials.sum_rule_residual",
              "polynomials.heun_operator_residual"}


class _SpanView:
    """Durations, parents and child time of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_s = [0.0] * len(spans)
        for name, start, end, parent, _task, _attrs in spans:
            if parent >= 0:
                self.child_s[parent] += end - start

    def of(self, names):
        return [(i, s) for i, s in enumerate(self.spans) if s[0] in names]

    def count(self, names) -> int:
        return len(self.of(names))

    def inclusive_s(self, names, where=None) -> float:
        """Time under the outermost spans named in ``names``."""
        total = 0.0
        for i, span in self.of(names):
            if where is not None and not where(span):
                continue
            if not self._has_ancestor(span[3], names):
                total += span[2] - span[1]
        return total

    def self_s(self, names) -> float:
        return sum(span[2] - span[1] - self.child_s[i] for i, span in self.of(names))

    def _has_ancestor(self, parent, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False


def layer_metrics(tracer: Tracer, loop_s: float) -> dict:
    """Every metric of ``LAYER_METRICS`` from the spans of one traced loop."""
    view = _SpanView(tracer.spans)
    counts = tracer.counts
    m = {}

    tables = view.of({"moments.moment_table"})
    m["moments.table_calls"] = len(tables)
    m["moments.table_entries"] = sum(s[5]["entries"] for _, s in tables if s[5])
    m["moments.table_s"] = view.inclusive_s(
        {"moments.moment_table"}, lambda s: s[5] and s[5]["source"] != "quadrature")
    m["moments.quad_table_s"] = view.inclusive_s(
        {"moments.moment_table"}, lambda s: s[5] and s[5]["source"] == "quadrature")
    m["moments.mu0_calls"] = view.count({"moments.mu0"})
    m["moments.mu0_s"] = view.inclusive_s({"moments.mu0"})
    m["moments.pcfd_calls"] = view.count({"moments.pcfd"})
    m["moments.pcfd_s"] = view.inclusive_s({"moments.pcfd"})

    hseq = view.of({"hankel.h_sequence"})
    attempts = sum(1 for _, s in tables if s[3] >= 0
                   and tracer.spans[s[3]][0] == "hankel.h_sequence")
    done = [s[5] for _, s in hseq if s[5] and "digits_used" in s[5]]
    per_call = {}
    for _, s in tables:
        if s[3] >= 0 and tracer.spans[s[3]][0] == "hankel.h_sequence":
            per_call[s[3]] = per_call.get(s[3], 0) + 1
    m["hankel.h_sequence_calls"] = len(hseq)
    m["hankel.h_sequence_s"] = view.inclusive_s({"hankel.h_sequence"})
    m["hankel.pivot_self_s"] = view.self_s({"hankel.h_sequence"})
    m["hankel.attempts"] = attempts
    m["hankel.escalations"] = sum(max(k // 2 - 1, 0) for k in per_call.values())
    m["hankel.useful_attempt_ratio"] = 2 * len(hseq) / attempts if attempts else 0.0
    m["hankel.guard_digits_mean"] = (statistics.fmean(a["digits_used"] - a["digits"]
                                                      for a in done) if done else 0.0)
    m["hankel.digits_used_max"] = max((a["digits_used"] for a in done), default=0)

    m["numerics.integrate_calls"] = view.count({"numerics.integrate_semi_infinite"})
    m["numerics.integrate_s"] = view.inclusive_s({"numerics.integrate_semi_infinite"})
    m["numerics.barnes_g_calls"] = view.count({"numerics.barnes_g_log"})
    m["numerics.barnes_g_s"] = view.inclusive_s({"numerics.barnes_g_log"})

    dpi = [s[5] for _, s in view.of({"recurrence.dpi_forward"}) if s[5]]
    m["recurrence.beta1_calls"] = view.count({"recurrence.beta1_initial"})
    m["recurrence.beta1_s"] = view.inclusive_s({"recurrence.beta1_initial"})
    m["recurrence.dpi_calls"] = view.count({"recurrence.dpi_forward"})
    m["recurrence.dpi_steps"] = sum(a["steps"] for a in dpi if "steps" in a)
    m["recurrence.dpi_s"] = view.inclusive_s({"recurrence.dpi_forward"})
    m["recurrence.sensitivity_s"] = view.inclusive_s({"recurrence.sensitivity_run"})
    m["recurrence.cone_exits"] = sum(1 for a in dpi if a.get("cone_exit"))

    coeffs = view.of({"asymptotics.large_n_coefficients"})
    m["asymptotics.coeff_calls"] = len(coeffs)
    m["asymptotics.coeff_keys"] = len({s[5]["key"] for _, s in coeffs if s[5] and "key" in s[5]})
    m["asymptotics.coeff_s"] = view.inclusive_s({"asymptotics.large_n_coefficients"})
    m["asymptotics.eval_calls"] = view.count(_EVAL)
    m["asymptotics.eval_self_s"] = view.self_s(_EVAL)

    grams = view.of({"polynomials.orthogonality_check"})
    m["polynomials.build_s"] = view.inclusive_s({"polynomials.build_polynomials"})
    m["polynomials.residual_s"] = view.inclusive_s(_RESIDUALS)
    m["polynomials.gram_calls"] = len(grams)
    m["polynomials.gram_entries"] = sum(s[5]["entries"] for _, s in grams if s[5]
                                        and "entries" in s[5])
    m["polynomials.gram_s"] = view.inclusive_s({"polynomials.orthogonality_check"})
    m["polynomials.quad_calls"] = view.count({"polynomials.quad"})
    m["polynomials.weight_evals"] = counts.get(WEIGHT, 0)
    m["polynomials.eval_poly_calls"] = counts.get("polynomials.eval_poly", 0)

    m["detasympt.derivative_s"] = view.inclusive_s(
        {"detasympt.logdet_derivative_exact", "detasympt.logdet_derivative_sum"})
    m["detasympt.expansion_s"] = view.inclusive_s(
        {"detasympt.logdet_expansion", "detasympt.appendix_b_coefficients",
         "detasympt.fit_abc"})

    roots_s = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    m["trace.overhead_frac"] = tracer.overhead_s() / loop_s if loop_s > 0 else 0.0
    m["trace.unattributed_s"] = max(loop_s - roots_s, 0.0)
    return {name: m[name] for name in LAYER_METRICS}
