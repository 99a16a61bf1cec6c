"""Spans and counters around the public entry points of each resonlab layer.

Every hook is installed from the benchmark's side: it replaces a public
function, or the name a caller module imported, with a wrapper that records
a span (name, start, end, parent) and bumps counters.  Nothing under
``src/`` knows about this module, and ``Tracer.installed`` puts every
original back on exit.

Spans stay in memory in flat arrays until the traced run ends; busy and self
times are computed from them afterwards.  A span's self time is its
duration minus the durations of its direct children (one thread, so
children never overlap).  Layer names follow the package's modules.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Call-size classes of a scanned function: Newton/finite-difference calls
# take three points, circle checks and refinements up to 64, and boundary
# sweeps more.
NEWTON_POINTS = 3
SWEEP_POINTS = 64

SPAN_NAMES = (
    "cli.run", "potential", "quadrature", "ftransform", "rootscan.scan",
    "rootscan.f", "scatter.smatrix", "scatter.jost", "scatter.ode",
    "dickson.window", "dickson.strip", "hadamard.eval", "hadamard.fit",
    "hadamard.count",
)


def _size(x) -> int:
    return getattr(x, "size", 1)


def _by_call_size(counts: Counter, prefix: str, n: int) -> None:
    counts[prefix + "_points"] += n
    if n <= NEWTON_POINTS:
        counts[prefix + "_calls_le3"] += 1
    elif n <= SWEEP_POINTS:
        counts[prefix + "_calls_le64"] += 1
    else:
        counts[prefix + "_calls_gt64"] += 1


class Tracer:
    """In-memory spans plus deterministic counters for one traced run."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, fn, span: str, *, before=None, after=None):
        """fn inside a span; before may rewrite (args, kwargs), after counts."""
        nid = self._ids[span]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack

        def hooked(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return hooked

    # ------------------------------------------------------------ hooks

    def _hooks(self):
        """(module, owner attribute or None, name, replacement factory)."""
        c = self.counts

        def potential_points(args, out):
            c["potential.points"] += _size(args[1])

        def count_panels(args, kwargs):
            integrand = args[0]

            def counted(x):
                c["quadrature.panels"] += 1
                return integrand(x)

            return (counted,) + args[1:], kwargs

        def route_points(args, out):
            boundary = int(np.count_nonzero(out[2]))
            c["ftransform.points_boundary"] += boundary
            c["ftransform.points_direct"] += out[2].size - boundary

        scanned_f = lambda f: self.wrap(
            f, "rootscan.f",
            after=lambda a, out: _by_call_size(c, "rootscan.f", _size(a[0])))

        def trace_f(args, kwargs):
            return (scanned_f(args[0]),) + args[1:], kwargs

        def zeros_found(args, out):
            c["rootscan.zeros"] += out.total_multiplicity()

        def traced_xhat(fn):
            def xhat_function(*args, **kwargs):
                return self.wrap(
                    fn(*args, **kwargs), "scatter.jost",
                    after=lambda a, out: _by_call_size(
                        c, "scatter.jost", _size(a[0])))
            return xhat_function

        def one_jost(args, out):
            _by_call_size(c, "scatter.jost", 1)

        def rhs_evals(args, out):
            c["scatter.ode_rhs_evals"] += out.nfev

        span = lambda name, **kw: (lambda fn: self.wrap(fn, name, **kw))
        scan = span("rootscan.scan", before=trace_f, after=zeros_found)
        strip = span("dickson.strip")
        return [
            ("resonlab.potential", "Potential", "__call__",
             span("potential", after=potential_points)),
            ("resonlab.potential", "Potential", "derivative",
             span("potential", after=potential_points)),
            *[(mod, None, "adaptive_quadrature",
               span("quadrature", before=count_panels))
              for mod in ("resonlab.quadrature", "resonlab.ftransform",
                          "resonlab.potential")],
            ("resonlab.ftransform", None, "fourier_many",
             span("ftransform", after=route_points)),
            *[(mod, None, "locate_zeros", scan)
              for mod in ("resonlab.cli", "resonlab.scatter",
                          "resonlab.hadamard")],
            ("resonlab.scatter", None, "xhat_function", traced_xhat),
            ("resonlab.scatter", None, "jost_solve",
             span("scatter.jost", after=one_jost)),
            ("resonlab.scatter", None, "solve_ivp",
             span("scatter.ode", after=rhs_evals)),
            ("resonlab.cli", None, "scattering_matrix",
             span("scatter.smatrix")),
            ("resonlab.cli", None, "curvilinear_count",
             span("dickson.window")),
            *[("resonlab.cli", None, name, strip)
              for name in ("dickson_geometry", "recommended_alpha0",
                           "recommended_H", "strip_membership",
                           "containment_exceptions")],
            *[(mod, None, name, span(spn))
              for mod in ("resonlab.cli", "resonlab.hadamard")
              for name, spn in (("eval_product", "hadamard.eval"),
                                ("fit_prefactor", "hadamard.fit"))],
            ("resonlab.hadamard", None, "count_difference",
             span("hadamard.count")),
        ]

    @contextmanager
    def installed(self):
        """Hooks in place for the body; a missing name raises at once."""
        patched = []
        try:
            for module, owner, attr, make in self._hooks():
                target = importlib.import_module(module)
                if owner is not None:
                    target = getattr(target, owner)
                original = getattr(target, attr)
                patched.append((target, attr, original))
                setattr(target, attr, make(original))
            yield self
        finally:
            for target, attr, original in reversed(patched):
                setattr(target, attr, original)

    # ---------------------------------------------------------- results

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start),
                "end": np.array(self.end),
                "names": np.array(SPAN_NAMES)}

    def save(self, path) -> None:
        np.savez(path, **self.spans())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        s = self.spans()
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child],
                                minlength=dur.size)
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        busy = np.bincount(name, weights=dur, minlength=len(SPAN_NAMES))
        self_t = np.bincount(name, weights=own, minlength=len(SPAN_NAMES))
        ix = self._ids
        n = lambda span: int(calls[ix[span]])
        t = lambda *spans: float(sum(busy[ix[sp]] for sp in spans))
        c = self.counts
        f_points = c["rootscan.f_points"]
        zeros = c["rootscan.zeros"]
        out = {
            "potential.calls": (n("potential"), "count"),
            "potential.points": (c["potential.points"], "count"),
            "potential.busy_s": (t("potential"), "s"),
            "quadrature.calls": (n("quadrature"), "count"),
            "quadrature.panels": (c["quadrature.panels"], "count"),
            "quadrature.busy_s": (t("quadrature"), "s"),
            "ftransform.calls": (n("ftransform"), "count"),
            "ftransform.points_direct": (c["ftransform.points_direct"],
                                         "count"),
            "ftransform.points_boundary": (c["ftransform.points_boundary"],
                                           "count"),
            "ftransform.busy_s": (t("ftransform"), "s"),
            "rootscan.scans": (n("rootscan.scan"), "count"),
            "rootscan.f_calls": (n("rootscan.f"), "count"),
            "rootscan.f_points": (f_points, "count"),
            "rootscan.f_calls_le3": (c["rootscan.f_calls_le3"], "count"),
            "rootscan.f_calls_le64": (c["rootscan.f_calls_le64"], "count"),
            "rootscan.f_calls_gt64": (c["rootscan.f_calls_gt64"], "count"),
            "rootscan.busy_s": (t("rootscan.scan"), "s"),
            "rootscan.self_s": (float(self_t[ix["rootscan.scan"]]), "s"),
            "rootscan.f_points_per_zero": (f_points / zeros if zeros else 0.0,
                                           "points/zero"),
            "scatter.jost_calls": (n("scatter.jost"), "count"),
            "scatter.jost_points": (c["scatter.jost_points"], "count"),
            "scatter.jost_calls_le3": (c["scatter.jost_calls_le3"], "count"),
            "scatter.jost_calls_le64": (c["scatter.jost_calls_le64"],
                                        "count"),
            "scatter.jost_calls_gt64": (c["scatter.jost_calls_gt64"],
                                        "count"),
            "scatter.jost_busy_s": (t("scatter.jost"), "s"),
            "scatter.ode_solves": (n("scatter.ode"), "count"),
            "scatter.ode_rhs_evals": (c["scatter.ode_rhs_evals"], "count"),
            "scatter.smatrix_calls": (n("scatter.smatrix"), "count"),
            "dickson.window_calls": (n("dickson.window"), "count"),
            "dickson.busy_s": (t("dickson.window", "dickson.strip"), "s"),
            "hadamard.eval_calls": (n("hadamard.eval"), "count"),
            "hadamard.eval_busy_s": (t("hadamard.eval"), "s"),
            "hadamard.fit_busy_s": (t("hadamard.fit"), "s"),
            "hadamard.count_calls": (n("hadamard.count"), "count"),
            "hadamard.count_busy_s": (t("hadamard.count"), "s"),
            "cli.runs": (n("cli.run"), "count"),
            "cli.self_s": (float(self_t[ix["cli.run"]]), "s"),
            "cli.artifact_bytes": (c["cli.artifact_bytes"], "B"),
        }
        return out

    def span_counts(self) -> dict[str, int]:
        calls = np.bincount(np.array(self.name, dtype=np.int32),
                            minlength=len(SPAN_NAMES))
        return dict(zip(SPAN_NAMES, (int(k) for k in calls)))
