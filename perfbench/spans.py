"""Outside-in tracing of ou_drift_bench for the benchmark's traced pass.

`Tracer.install` replaces module attributes at the boundaries where one layer
of the package calls into the next with wrappers that record spans.  Nothing
inside the package changes, so the traced pass must write byte-identical
outputs; the benchmark checks that.

Every call becomes a span with a name, start, end, thread and parent.  Calls
made from pool threads have no open span of their own thread, so their
parent is the innermost span open on the main thread (the harness call that
started the pool).  Spans are aggregated per (parent, name, thread): a group
keeps the count, the summed duration and the start/end pairs, so per-path
spans stay compact.  Spans that can have children ("containers") are also
kept one by one, which gives each its self time: its duration minus the
union of its children's intervals.  The union matters because children on
the two pool threads overlap.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from dataclasses import dataclass, field

# measure(args, result) returns (elements, bytes) for the counters of a call.


def _scan_size(args, result):
    innovations = args[0]
    return innovations.size, innovations.nbytes


def _sample_size(args, result):
    return len(args[0]), 0


def _dense_size(args, result):
    return result.size, result.nbytes


def _path_steps(args, result):
    return args[0].n, 0


# (module, attribute, span name, layer, container, measure).  The span name
# is "<caller module>.<callee>"; the layer is the callee's.
_BOUNDARIES = (
    ("cli", "run_schedule", "cli.run_schedule", "harness", True, None),
    ("cli", "run_cell", "cli.run_cell", "harness", True, None),
    ("cli", "coupling_check", "cli.coupling_check", "harness", True, None),
    ("cli", "simulate_path", "cli.simulate_path", "ou_core", False, _path_steps),
    ("cli", "moment_report", "cli.moment_report", "oracles", True, None),
    ("estimators", "amce", "estimators.amce", "estimators", False, None),
    ("estimators", "amle", "estimators.amle", "estimators", False, None),
    ("harness", "path_rng", "harness.path_rng", "ou_core", False, None),
    ("harness", "_ar1_scan", "harness._ar1_scan", "ou_core", False, _scan_size),
    ("harness", "distance_report", "harness.distance_report", "metrics", True, None),
    ("harness", "sample_cumulants", "harness.sample_cumulants", "metrics", False, None),
    ("metrics", "w1_to_std_normal", "metrics.w1_to_std_normal", "metrics", False, _sample_size),
    (
        "metrics",
        "kolmogorov_to_std_normal",
        "metrics.kolmogorov_to_std_normal",
        "metrics",
        False,
        _sample_size,
    ),
    ("oracles", "covariance_matrix", "oracles.covariance_matrix", "oracles", False, _dense_size),
    ("oracles", "exact_var_fn_z", "oracles.exact_var_fn_z", "oracles", True, None),
    ("oracles", "k3_fn_z", "oracles.k3_fn_z", "oracles", True, None),
    ("oracles", "k4_fn_z_bound", "oracles.k4_fn_z_bound", "oracles", True, None),
    ("oracles", "exact_var_lambda", "oracles.exact_var_lambda", "oracles", True, None),
    ("oracles", "exact_k3_lambda", "oracles.exact_k3_lambda", "oracles", True, None),
    ("oracles", "exact_k4_lambda", "oracles.exact_k4_lambda", "oracles", True, None),
    ("oracles", "k3_lambda_is_zero", "oracles.k3_lambda_is_zero", "oracles", True, None),
    ("oracles", "k4_lambda", "oracles.k4_lambda", "oracles", True, None),
)

ROOT_NAME = "cli.main"
_NO_PARENT = 0


@dataclass
class _Container:
    name: str
    layer: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0


@dataclass
class _Group:
    """All calls of one name from one parent on one thread."""

    count: int = 0
    busy_s: float = 0.0
    intervals: array = field(default_factory=lambda: array("d"))
    elements: int = 0
    max_bytes: int = 0
    errors: dict = field(default_factory=dict)


class Tracer:
    """Span store plus the wrappers that feed it; thread-safe."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._last_id = 0
        self._layers: dict[str, str] = {ROOT_NAME: "cli"}
        self._restore: list[tuple[object, str, object]] = []
        self.containers: dict[int, _Container] = {}
        self.groups: dict[tuple[int, str, int], _Group] = {}
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return _NO_PARENT

    def wrap(self, fn, name: str, layer: str, container: bool, measure=None):
        """Return fn wrapped so every call records one span."""
        self._layers[name] = layer
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span_id = _NO_PARENT
            if container:
                with tracer._lock:
                    tracer._last_id += 1
                    span_id = tracer._last_id
                    tracer.containers[span_id] = _Container(name, layer, parent)
                stack.append(span_id)
                cpu0 = time.process_time()
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                if container:
                    stack.pop()
                    record = tracer.containers[span_id]
                    record.start, record.end = start, end
                    record.cpu_s = time.process_time() - cpu0
                sizes = (0, 0) if error or measure is None else measure(args, result)
                tracer._record(parent, name, start, end, sizes, error)
            return result

        return traced

    def _record(self, parent, name, start, end, sizes, error) -> None:
        key = (parent, name, threading.get_ident())
        with self._lock:
            group = self.groups.get(key)
            if group is None:
                group = self.groups[key] = _Group()
            group.count += 1
            group.busy_s += end - start
            group.intervals.append(start)
            group.intervals.append(end)
            group.elements += sizes[0]
            group.max_bytes = max(group.max_bytes, sizes[1])
            if error:
                group.errors[error] = group.errors.get(error, 0) + 1

    def install(self) -> None:
        """Wrap every boundary of the imported package; remember originals.

        A boundary the package no longer has is listed in `missing` and its
        metrics read 0, so the benchmark keeps running across refactors.
        """
        from importlib import import_module

        for module_name, attr, name, layer, container, measure in _BOUNDARIES:
            module = import_module(f"ou_drift_bench.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, layer, container, measure))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def _named(self, *names: str):
        return [g for (_, name, _), g in self.groups.items() if name in names]

    def _parent_layer(self, parent: int) -> str | None:
        record = self.containers.get(parent)
        return None if record is None else record.layer

    def _self_time(self, layer: str) -> float:
        """Summed over the layer's container spans: duration minus children."""
        children: dict[int, list[array]] = {}
        for (parent, _, _), group in self.groups.items():
            children.setdefault(parent, []).append(group.intervals)
        total = 0.0
        for span_id, record in self.containers.items():
            if record.layer != layer:
                continue
            pairs = []
            for intervals in children.get(span_id, ()):
                for i in range(0, len(intervals), 2):
                    lo = max(intervals[i], record.start)
                    hi = min(intervals[i + 1], record.end)
                    if hi > lo:
                        pairs.append((lo, hi))
            total += (record.end - record.start) - _union_length(pairs)
        return total

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer counters, and per-layer busy, self and CPU seconds.

        Cache counters and output bytes are not spans; the caller adds them.
        """

        def calls(*names):
            return sum(g.count for g in self._named(*names))

        def busy(*names):
            return sum(g.busy_s for g in self._named(*names))

        scans = self._named("harness._ar1_scan")
        sorts = self._named("metrics.w1_to_std_normal", "metrics.kolmogorov_to_std_normal")
        dense = self._named("oracles.covariance_matrix")
        oracle_entries = [
            g
            for (parent, name, _), g in self.groups.items()
            if self._layers.get(name) == "oracles" and self._parent_layer(parent) != "oracles"
        ]
        counters = {
            "ou_core.rng_setup_calls": calls("harness.path_rng"),
            "ou_core.scan_elements": sum(g.elements for g in scans),
            "ou_core.scan_block_mb": max((g.max_bytes for g in scans), default=0) / 2**20,
            "ou_core.simulate_path_calls": calls("cli.simulate_path"),
            "estimators.calls": calls("estimators.amce", "estimators.amle"),
            "metrics.distance_report_calls": calls("harness.distance_report"),
            "metrics.sorts": sum(g.count for g in sorts),
            "metrics.sorted_elements": sum(g.elements for g in sorts),
            "oracles.calls": sum(g.count for g in oracle_entries),
            "oracles.dense_calls": sum(g.count - sum(g.errors.values()) for g in dense),
            "oracles.dense_elements": sum(g.elements for g in dense),
            "oracles.refused": sum(
                g.errors.get("TooLarge", 0) for g in self._named("cli.moment_report")
            ),
        }
        seconds = {
            "ou_core.rng_setup": busy("harness.path_rng"),
            "ou_core.scan": busy("harness._ar1_scan"),
            "ou_core.simulate_path": busy("cli.simulate_path"),
            "estimators.busy": busy("estimators.amce", "estimators.amle"),
            "harness.self": self._self_time("harness"),
            "harness.cpu": sum(r.cpu_s for r in self.containers.values() if r.layer == "harness"),
            "metrics.distance_report": busy("harness.distance_report"),
            "metrics.sample_cumulants": busy("harness.sample_cumulants"),
            "oracles.busy": sum(g.busy_s for g in oracle_entries),
            "cli.self": self._self_time("cli"),
        }
        return counters, seconds

    def simulated_steps(self) -> int:
        """AR(1) steps the traced pass simulated: harness scans plus single paths."""
        paths = self._named("harness._ar1_scan", "cli.simulate_path")
        return sum(g.elements for g in paths)

    def span_table(self) -> list[dict]:
        """Container spans and span groups, for writing out after the run."""
        rows = [
            {"id": i, "name": r.name, "parent": r.parent, "start": r.start, "end": r.end}
            for i, r in sorted(self.containers.items())
        ]
        rows.extend(
            {
                "group": name,
                "parent": parent,
                "thread": thread,
                "count": g.count,
                "busy_s": g.busy_s,
                "errors": g.errors,
            }
            for (parent, name, thread), g in self.groups.items()
        )
        return rows


def _union_length(pairs: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(pairs):
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
