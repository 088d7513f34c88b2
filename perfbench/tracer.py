"""Per-layer tracing from outside the library.

The tracer replaces public padefit functions with timing wrappers at the
module attributes through which they are called.  Several modules import
names by value (fitting uses its own ``solve_dense`` and ``pole_scan``
bindings, selection its own ``fit_linearized``), so each binding is
wrapped where it is looked up.  Every call is a span named after the
function's defining module and name, e.g. ``rational.pole_scan``; a
span's self time is its duration minus the time of the spans it
directly contains.

Targets that do not exist are skipped and reported as absent, so the
benchmark keeps running when a later version of the library removes or
merges functions.
"""

from __future__ import annotations

import functools
import importlib
import time

#: Bindings to wrap, as "module:attribute".  The padefit.* entries are the
#: names the benchmark itself calls; padefit.cli names are the bindings
#: the command line front end calls.
TARGETS = (
    "padefit.fitting:solve_dense",
    "padefit.fitting:pole_scan",
    "padefit.fitting:oscillation_measure",
    "padefit.selection:fit_linearized",
    "padefit.selection:fit_regularized",
    "padefit.selection:pole_scan",
    "padefit.weibull:pole_scan",
    "padefit.linsys:design_matrix",
    "padefit.linsys:assemble_normal_system",
    "padefit.linsys:assemble_interpolation_system",
    "padefit.linsys:apply_regularization",
    "padefit:fit",
    "padefit:fit_linearized",
    "padefit:fit_regularized",
    "padefit:interpolate_reference",
    "padefit:build_reference_points",
    "padefit:grid_search",
    "padefit:q_search",
    "padefit:tune_lambda1",
    "padefit:lambda_sweep",
    "padefit:mle_fit",
    "padefit:transform_fit",
    "padefit:median_ranks",
    "padefit:mttf",
    "padefit:sample_noisy",
    "padefit:simulate_weibull_failures",
    "padefit:uniform_grid",
    "padefit.cli:fit_regularized",
    "padefit.cli:interpolate_reference",
    "padefit.cli:grid_search",
    "padefit.cli:lambda_sweep",
)

#: Fit entry points reported together as ``fitting.fit``.
FIT_SPANS = (
    "fitting.fit",
    "fitting.fit_linearized",
    "fitting.fit_regularized",
    "fitting.interpolate_reference",
)


class Tracer:
    """Span statistics for one process: calls, self time and failures per
    span name, plus the pole-scan and candidate counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, errors]
        self.absent: list[str] = []
        self.scan_points = 0
        self.scan_repeats = 0
        self.candidate_attempts = 0
        self.candidate_failures = 0
        self._stack: list[list] = []  # [name, child_s] per open span
        self._scanned: set = set()
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        """Wrap every target binding that exists; record the others."""
        absent = []
        for target in targets:
            module_name, attr = target.split(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                absent.append(target)
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                absent.append(target)
                continue
            wrapper = self._wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrappers[id(fn)] = self._wrap(fn)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        self.absent = absent

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def begin_task(self) -> None:
        """Start a new task: repeated pole scans are counted within a task."""
        self._scanned.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        counted_fit = name in FIT_SPANS
        is_scan = name == "rational.pole_scan"
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                duration = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += failed
                if parent is not None:
                    parent[1] += duration
                    if counted_fit and parent[0].startswith("selection."):
                        self.candidate_attempts += 1
                        self.candidate_failures += failed
            if is_scan:
                self._count_scan(args, kwargs, result)
            return result

        return span

    def _count_scan(self, args, kwargs, report) -> None:
        points = getattr(report, "scan_points", 0)
        self.scan_points += points
        model = args[0] if args else kwargs.get("model")
        key = (model, tuple(getattr(report, "scan_interval", ())), points)
        try:
            seen = key in self._scanned
        except TypeError:  # an unhashable model cannot be matched
            return
        self.scan_repeats += seen
        self._scanned.add(key)

    def snapshot(self) -> dict:
        """Plain-data totals, mergeable across processes with merge()."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "scan_points": self.scan_points,
            "scan_repeats": self.scan_repeats,
            "candidate_attempts": self.candidate_attempts,
            "candidate_failures": self.candidate_failures,
            "absent": list(self.absent),
        }


def merge(total: dict | None, part: dict) -> dict:
    """Add one snapshot into a running total (a fresh copy when total is None)."""
    if total is None:
        return {**part, "stats": {k: list(v) for k, v in part["stats"].items()}}
    for name, (calls, self_s, errors) in part["stats"].items():
        row = total["stats"].setdefault(name, [0, 0.0, 0])
        row[0] += calls
        row[1] += self_s
        row[2] += errors
    for key in ("scan_points", "scan_repeats", "candidate_attempts", "candidate_failures"):
        total[key] += part[key]
    total["absent"] = sorted(set(total["absent"]) | set(part["absent"]))
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, tasks: int) -> dict[str, float]:
    """Per-layer metrics from a snapshot covering `tasks` tasks; counts and
    times are per task, ratios are over the whole snapshot."""
    stats = snap["stats"]

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0))[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0))[1] for n in names)

    def errors(*names):
        return sum(stats.get(n, (0, 0.0, 0))[2] for n in names)

    scans = calls("rational.pole_scan")
    return {
        "rational.pole_scan.calls": scans / tasks,
        "rational.pole_scan.self_s": self_s("rational.pole_scan") / tasks,
        "rational.pole_scan.points": snap["scan_points"] / tasks,
        "rational.pole_scan.repeat_ratio": _ratio(snap["scan_repeats"], scans),
        "linsys.assemble_normal_system.calls": calls("linsys.assemble_normal_system") / tasks,
        "linsys.assemble_normal_system.self_s": self_s("linsys.assemble_normal_system") / tasks,
        "linsys.design_matrix.self_s": self_s("linsys.design_matrix") / tasks,
        "linsys.assemble_interpolation_system.calls": calls("linsys.assemble_interpolation_system") / tasks,
        "linsys.assemble_interpolation_system.self_s": self_s("linsys.assemble_interpolation_system") / tasks,
        "linsys.apply_regularization.self_s": self_s("linsys.apply_regularization") / tasks,
        "linsys.solve_dense.calls": calls("linsys.solve_dense") / tasks,
        "linsys.solve_dense.self_s": self_s("linsys.solve_dense") / tasks,
        "linsys.solve_dense.singular_ratio": _ratio(errors("linsys.solve_dense"), calls("linsys.solve_dense")),
        "fitting.fit.calls": calls(*FIT_SPANS) / tasks,
        "fitting.fit.self_s": self_s(*FIT_SPANS) / tasks,
        "fitting.fit.error_ratio": _ratio(errors(*FIT_SPANS), calls(*FIT_SPANS)),
        "diagnostics.oscillation_measure.calls": calls("diagnostics.oscillation_measure") / tasks,
        "diagnostics.oscillation_measure.self_s": self_s("diagnostics.oscillation_measure") / tasks,
        "selection.grid_search.self_s": self_s("selection.grid_search") / tasks,
        "selection.q_search.self_s": self_s("selection.q_search") / tasks,
        "selection.tune_lambda1.self_s": self_s("selection.tune_lambda1") / tasks,
        "selection.lambda_sweep.self_s": self_s("selection.lambda_sweep") / tasks,
        "selection.candidate_error_ratio": _ratio(snap["candidate_failures"], snap["candidate_attempts"]),
        "weibull.mttf.calls": calls("weibull.mttf") / tasks,
        "weibull.mttf.self_s": self_s("weibull.mttf") / tasks,
        "weibull.mttf.error_ratio": _ratio(errors("weibull.mttf"), calls("weibull.mttf")),
        "weibull.mle_fit.self_s": self_s("weibull.mle_fit") / tasks,
    }


def datagen_self_s(snap: dict) -> float:
    """Self time of every datagen span in the snapshot."""
    return sum(row[1] for name, row in snap["stats"].items() if name.startswith("datagen."))
