"""Layer tracing for the cmcheck benchmark, installed from outside the package.

Every public module-level function of each cmcheck module is replaced, at
every place it is bound (module globals, module-level dicts and tuples, the
package namespace), by a wrapper that records a span (id, name, start, end,
parent) and the call.  Self time is a span's duration minus the time its
child spans cover.  A few wrappers also read the result to count work that
the package reports (sign-pattern evaluations, bisections, quadrature nodes,
scan points, achieved accuracy).  Nothing under src/ changes.
"""

import functools
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("specfun", "laurent", "cmdeg", "laplace", "inequalities", "suite", "cli")

# to_mpf converts every argument of every engine; wrapping it would multiply
# the span count and charge the wrapper's cost to its callers' self time.
UNTRACED = {"specfun.to_mpf"}

# name -> stats reported for it; every traced function also counts calls
REPORTED = {
    "laurent.tail_scaled_derivatives": ("calls", "self_s", "us_per_call"),
    "cmdeg.estimate_cm_degree": ("calls", "self_s", "us_per_call"),
    "cmdeg.check_sign_pattern": ("calls", "self_s"),
    "laplace.laplace_transform": ("calls", "self_s"),
    "laplace.kernel_1f2": ("calls", "self_s", "us_per_call"),
    "laplace.kernel_bessel": ("calls", "self_s", "us_per_call"),
    "laplace.h_kernel": ("calls", "self_s", "us_per_call"),
    "laplace.u_ratio": ("calls", "self_s", "us_per_call"),
    "specfun.hyp1f2": ("calls", "self_s", "us_per_call"),
    "specfun.bessel_i": ("calls", "self_s", "us_per_call"),
    "specfun.polygamma": ("calls", "self_s", "us_per_call"),
    "specfun.exp_recip_derivative": ("calls", "self_s", "us_per_call"),
    "laurent.h_function": ("calls", "self_s", "us_per_call"),
    "laurent.h_derivative": ("calls", "self_s", "us_per_call"),
    "laurent.remainder_hk": ("calls", "self_s", "us_per_call"),
    "inequalities.check_ineq_bessel": ("calls", "self_s", "us_per_call"),
    "inequalities.check_ineq_trigamma": ("calls", "self_s", "us_per_call"),
    "inequalities.f_poly": ("calls", "self_s", "us_per_call"),
    "cli.main": ("calls", "self_s"),
}

# suite is never called by a workload, so its module self time is always 0
SELF_TIMED_MODULES = ("specfun", "laurent", "cmdeg", "laplace", "inequalities", "cli")

UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.overkill = []
        self._stack = []  # [span id, time covered by children]
        self._active = Counter()
        self._next_id = 0

    def wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, name, start, end))
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_laurent_tail_scaled_derivatives(self, result):
        if self._active["cmdeg.check_sign_pattern"]:
            self.counts["series_in_scans"] += 1

    def _observe_cmdeg_check_sign_pattern(self, report):
        self.counts["cmdeg.check_sign_pattern.evaluations"] += report.evaluations

    def _observe_cmdeg_estimate_cm_degree(self, estimate):
        self.counts["cmdeg.bisections"] += estimate.bisections

    def _observe_laplace_laplace_transform(self, quad):
        self.counts["laplace.nodes"] += quad.nodes

    def _observe_laplace_verify_representation(self, check):
        # decimal digits delivered beyond the tolerance; an exact match
        # counts as reaching the working precision
        rel_err = max(float(check.rel_err), 1e-300)
        self.overkill.append(math.log10(float(check.tol) / rel_err))

    def _observe_inequalities_check_ineq_trigamma(self, report):
        self.counts["inequalities.scan_points"] += report.evaluations

    _observe_inequalities_check_ineq_bessel = _observe_inequalities_check_ineq_trigamma

    def metrics(self, wall_s, traced_s):
        """Per-layer metrics as {name: (value, unit)}.

        wall_s is the run's wall_s, measured as in the untraced run; traced_s
        is the time of all the traced calls.
        """
        out = {}
        for name, stats in REPORTED.items():
            calls = self.calls[name]
            for stat in stats:
                if stat == "calls":
                    value = calls
                elif stat == "self_s":
                    value = self.self_s[name]
                else:
                    value = self.total_s[name] / calls * 1e6 if calls else 0.0
                out[f"{name}.{stat}"] = (value, UNITS[stat])
        for name in ("cmdeg.check_sign_pattern.evaluations", "cmdeg.bisections",
                     "laplace.nodes", "inequalities.scan_points"):
            out[name] = (self.counts[name], "count")
        evaluations = self.counts["cmdeg.check_sign_pattern.evaluations"]
        out["cmdeg.series_per_evaluation"] = (
            self.counts["series_in_scans"] / evaluations if evaluations else 0.0,
            "ratio",
        )
        transforms = self.calls["laplace.laplace_transform"]
        out["laplace.nodes_per_transform"] = (
            self.counts["laplace.nodes"] / transforms if transforms else 0.0,
            "ratio",
        )
        out["laplace.overkill_digits"] = (
            statistics.median(self.overkill) if self.overkill else 0.0,
            "digits",
        )
        out["cli.report_bytes"] = (self.counts["cli.report_bytes"], "bytes")
        for module in SELF_TIMED_MODULES:
            value = sum(v for k, v in self.self_s.items() if k.startswith(module + "."))
            out[f"{module}.self_s"] = (value, "s")
        overhead = len(self.spans) * span_cost()
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.overhead_s"] = (overhead, "s")
        out["trace.overhead_share"] = (overhead / traced_s, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as handle:
            handle.write("id,parent,name,start,end\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


def span_cost(batches=5, calls=20000):
    """Seconds one span adds to a call: the best of several timed batches."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibration.noop", noop)
    best = math.inf
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return best / calls


def install(tracer, package):
    """Bind a traced wrapper in place of every public function of each layer.

    Returns the (namespace, key, original) triples that undo it.
    """
    modules = [getattr(package, layer) for layer in LAYERS]
    wrappers = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                wrappers[obj] = tracer.wrap(name, obj)
    undo = []
    for namespace in [package] + modules:
        for attr, obj in list(vars(namespace).items()):
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        undo.append((obj, key, value))
                        obj[key] = wrappers[value]
            elif isinstance(obj, tuple) and any(
                inspect.isfunction(v) and v in wrappers for v in obj
            ):
                undo.append((vars(namespace), attr, obj))
                setattr(namespace, attr, tuple(wrappers.get(v, v) for v in obj))
            elif inspect.isfunction(obj) and obj in wrappers:
                undo.append((vars(namespace), attr, obj))
                setattr(namespace, attr, wrappers[obj])
    return undo


def uninstall(undo):
    for namespace, key, original in reversed(undo):
        namespace[key] = original
