"""Span tracing of wsptools from outside the package.

`Tracer.install` replaces each public function listed in TARGETS with a
timing wrapper in every wsptools module namespace that binds it, so calls
made through `from wsptools.core import compute_arrival_times` are traced
as well as calls through the defining module.  `uninstall` restores the
originals.  Nothing in the package is edited.

Spans are kept in memory as [name, start, end, parent index, request id,
seconds covered by children] and written out when the run ends.  A
span's self time is its duration minus the time its children cover.
Per-cell leaf functions (gradient noise, spread rate, travel time) run
thousands of times per instance; they are aggregated as a call count and
total time per request instead of one span per call, and that time
counts as covered by the enclosing span.

Single-threaded use only: the span stack is not locked.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import defaultdict

SPAN = "span"
LEAF = "leaf"

PACKAGE_MODULES = (
    "wsptools",
    "wsptools.core",
    "wsptools.rothermel",
    "wsptools.noise",
    "wsptools.generator",
    "wsptools.solvers",
    "wsptools.mip",
    "wsptools.reductions",
    "wsptools.testkit",
    "wsptools.benchlab",
    "wsptools.cli",
)

# (defining module, function, span name, kind).  generator.instance,
# core.objective, reductions.verify and testkit.inputs are traced only so
# that their own work is not booked as the self time of their caller.
TARGETS = (
    ("wsptools.core", "compute_arrival_times", "core.arrival", SPAN),
    ("wsptools.core", "single_source_distances", "core.sssp", SPAN),
    ("wsptools.core", "check_feasibility", "core.feasibility", SPAN),
    ("wsptools.core", "objective", "core.objective", SPAN),
    ("wsptools.core", "instance_to_json", "core.json", SPAN),
    ("wsptools.core", "instance_from_json", "core.json", SPAN),
    ("wsptools.core", "save_instance", "core.json", SPAN),
    ("wsptools.core", "load_instance", "core.json", SPAN),
    ("wsptools.core", "solution_to_json", "core.json", SPAN),
    ("wsptools.core", "solution_from_json", "core.json", SPAN),
    ("wsptools.solvers", "random_search", "solvers.rs", SPAN),
    ("wsptools.solvers", "beam_search", "solvers.beam", SPAN),
    ("wsptools.solvers", "brute_force", "solvers.exact", SPAN),
    ("wsptools.solvers", "perimeter_candidates", "solvers.perimeter", SPAN),
    ("wsptools.generator", "generate_instance", "generator.instance", SPAN),
    ("wsptools.generator", "generate_landscape", "generator.landscape", SPAN),
    ("wsptools.generator", "build_travel_times", "generator.travel_times", SPAN),
    ("wsptools.generator", "compute_horizon", "generator.free_burn", SPAN),
    ("wsptools.generator", "build_resource_schedule", "generator.schedule", SPAN),
    ("wsptools.noise", "gradient_noise", "noise", LEAF),
    ("wsptools.rothermel", "rate_of_spread", "rothermel", LEAF),
    ("wsptools.rothermel", "travel_time", "rothermel", LEAF),
    ("wsptools.mip", "build_wsp_model", "mip.build", SPAN),
    ("wsptools.mip", "build_hof_model", "mip.build", SPAN),
    ("wsptools.mip", "build_wei_model", "mip.build", SPAN),
    ("wsptools.mip", "export_model", "mip.export", SPAN),
    ("wsptools.reductions", "mvnp_to_wsp", "reductions.transform", SPAN),
    ("wsptools.reductions", "mvnp_to_wwsp", "reductions.transform", SPAN),
    ("wsptools.reductions", "mvnp_to_hwsp", "reductions.transform", SPAN),
    ("wsptools.reductions", "decide_mvnp", "reductions.decide", SPAN),
    ("wsptools.reductions", "decide_wsp_brute", "reductions.decide", SPAN),
    ("wsptools.reductions", "decide_wwsp_brute", "reductions.decide", SPAN),
    ("wsptools.reductions", "decide_hwsp_brute", "reductions.decide", SPAN),
    ("wsptools.reductions", "verify_reductions", "reductions.verify", SPAN),
    ("wsptools.testkit", "random_mvnp_instance", "testkit.inputs", SPAN),
    ("wsptools.cli", "dispatch", "cli.dispatch", SPAN),
)

SOLVER_SPANS = ("solvers.rs", "solvers.beam", "solvers.exact")

# Per-layer metric -> unit.  Counts and seconds are totals over the trace
# window, the first TRACE_WINDOW requests of a traced run, seconds scaled
# to the reference machine speed (speed.py) request by request;
# noise.perm_cache_entries is the cache's size at the window's end.
LAYER_METRICS = {
    "core.arrival.calls": "count",
    "core.arrival.s": "s",
    "core.arrival.us_per_call": "us",
    "core.arrival.distinct_ratio": "ratio",
    "core.sssp.calls": "count",
    "core.sssp.s": "s",
    "core.feasibility.s": "s",
    "core.json.s": "s",
    "solvers.rs.s": "s",
    "solvers.beam.s": "s",
    "solvers.exact.s": "s",
    "solvers.perimeter.calls": "count",
    "solvers.perimeter.s": "s",
    "solvers.rs.ms_per_iteration": "ms",
    "solvers.beam.s_per_level": "s",
    "solvers.kernel_share": "ratio",
    "generator.instance.s": "s",
    "generator.landscape.s": "s",
    "generator.travel_times.s": "s",
    "generator.free_burn.s": "s",
    "generator.schedule.s": "s",
    "noise.calls": "count",
    "noise.s": "s",
    "noise.perm_cache_entries": "count",
    "rothermel.calls": "count",
    "rothermel.s": "s",
    "mip.build.s": "s",
    "mip.export.s": "s",
    "mip.variables": "count",
    "mip.constraints": "count",
    "mip.bytes_out": "bytes",
    "reductions.transform.s": "s",
    "reductions.decide.s": "s",
    "cli.dispatch.s": "s",
    "cli.self.s": "s",
    "trace.throughput_rps": "1/s",
}

# Counters that must repeat exactly across traced runs of one seed.
DETERMINISTIC = (
    "core.arrival.calls",
    "core.sssp.calls",
    "noise.calls",
    "noise.perm_cache_entries",
    "rothermel.calls",
    "solvers.perimeter.calls",
    "mip.variables",
    "mip.constraints",
    "core.arrival.distinct_ratio",
)


def _argument(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        # (name, request) -> [calls, seconds] for leaf functions
        self.leaf = defaultdict(lambda: [0, 0.0])
        # (counter, request) -> value for counts taken from arguments/results
        self.counts = defaultdict(int)
        self._distinct: set = set()
        self._graph_keys: dict[int, tuple] = {}
        self._patched: list[tuple] = []
        # request -> entries of noise._perm_cache when the request ended
        self.perm_cache_entries: dict[int, int] = {}
        self._noise = None

    # -- requests ----------------------------------------------------------

    def begin_request(self, index: int) -> None:
        self.request = index
        self._distinct.clear()

    def end_request(self) -> None:
        self.counts[("core.arrival.distinct", self.request)] += len(self._distinct)
        # the permutation cache is never evicted; its size is the leak
        # (0 once a package version has no such cache)
        self.perm_cache_entries[self.request] = len(getattr(self._noise, "_perm_cache", ()))
        self._distinct.clear()
        self.request = None

    # -- counts taken at the boundaries ------------------------------------

    def _graph_key(self, graph) -> tuple:
        entry = self._graph_keys.get(id(graph))
        if entry is None or entry[0]() is not graph:
            entry = (weakref.ref(graph), (graph.vertex_count, len(graph.arcs), hash(graph.arcs)))
            self._graph_keys[id(graph)] = entry
        return entry[1]

    def _on_arrival(self, args, kwargs, result) -> None:
        # arrivals depend on the graph, ignition, delays and protected set
        # only, so that is what makes two evaluations the same work
        instance = args[0] if args else kwargs["instance"]
        alloc = _argument(args, kwargs, 1, "alloc")
        delays = _argument(args, kwargs, 2, "vertex_delays")
        self._distinct.add((
            self._graph_key(instance.graph),
            instance.ignition,
            instance.delay,
            None if delays is None else tuple(delays),
            frozenset() if alloc is None else alloc.protected,
        ))

    def _on_random_search(self, args, kwargs, result) -> None:
        budget = _argument(args, kwargs, 1, "budget")
        if budget.max_iterations is not None and budget.max_seconds is None:
            self.counts[("solvers.rs.iterations", self.request)] += budget.max_iterations

    def _on_beam_search(self, args, kwargs, result) -> None:
        instance = args[0] if args else kwargs["instance"]
        self.counts[("solvers.beam.levels", self.request)] += len(instance.schedule)

    def _on_build(self, args, kwargs, result) -> None:
        self.counts[("mip.variables", self.request)] += len(result.variables)
        self.counts[("mip.constraints", self.request)] += len(result.constraints)

    def _on_export(self, args, kwargs, result) -> None:
        self.counts[("mip.bytes_out", self.request)] += len(result.encode())

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0.0, parent, self.request, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += record[2] - record[1]
            if hook is not None:
                # the hook's own cost is tracing overhead: booked nowhere
                hook_start = clock()
                hook(args, kwargs, result)
                if parent >= 0:
                    spans[parent][5] += clock() - hook_start
            return result

        return wrapper

    def _leaf(self, fn, name):
        spans, stack, leaf, clock = self.spans, self._stack, self.leaf, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            entry = leaf[(name, self.request)]
            entry[0] += 1
            entry[1] += elapsed
            if stack:
                spans[stack[-1]][5] += elapsed
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "core.arrival": self._on_arrival,
            "solvers.rs": self._on_random_search,
            "solvers.beam": self._on_beam_search,
            "mip.build": self._on_build,
            "mip.export": self._on_export,
        }
        modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
        self._noise = importlib.import_module("wsptools.noise")
        for module_name, attr, name, kind in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            if kind == LEAF:
                wrapper = self._leaf(original, name)
            else:
                wrapper = self._span(original, name, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def per_call(self, window: int, scales: list[float]) -> dict:
        """Calls, inclusive and self seconds per span name over requests
        0..window-1, each request's seconds multiplied by its scale (the
        run's machine-speed correction)."""
        table = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for name, start, end, _, request, covered in self.spans:
            if request is None or request >= window:
                continue
            row = table[name]
            row["calls"] += 1
            row["inclusive_s"] += (end - start) * scales[request]
            row["self_s"] += (end - start - covered) * scales[request]
        for (name, request), (calls, seconds) in self.leaf.items():
            if request is None or request >= window:
                continue
            row = table[name]
            row["calls"] += calls
            row["inclusive_s"] += seconds * scales[request]
            row["self_s"] += seconds * scales[request]
        return dict(table)

    def _count(self, counter: str, window: int) -> int:
        return sum(v for (name, request), v in self.counts.items()
                   if name == counter and request is not None and request < window)

    def _kernel_share(self, window: int, scales: list[float]) -> float:
        """Share of the solvers' inclusive time spent in arrival evaluation."""
        spans = self.spans

        def solver_ancestor(index: int) -> bool:
            parent = spans[index][3]
            while parent >= 0:
                if spans[parent][0] in SOLVER_SPANS:
                    return True
                parent = spans[parent][3]
            return False

        solver_s = kernel_s = 0.0
        for index, (name, start, end, _, request, _) in enumerate(spans):
            if request is None or request >= window:
                continue
            if name in SOLVER_SPANS and not solver_ancestor(index):
                solver_s += (end - start) * scales[request]
            elif name == "core.arrival" and solver_ancestor(index):
                kernel_s += (end - start) * scales[request]
        return kernel_s / solver_s if solver_s else 0.0

    def layer_metrics(self, window: int, throughput: float,
                      scales: list[float]) -> dict[str, float]:
        table = self.per_call(window, scales)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        def self_s(name):
            return table.get(name, {}).get("self_s", 0.0)

        def inclusive_s(name):
            return table.get(name, {}).get("inclusive_s", 0.0)

        arrival_calls = calls("core.arrival")
        iterations = self._count("solvers.rs.iterations", window)
        levels = self._count("solvers.beam.levels", window)
        metrics = {
            "core.arrival.calls": arrival_calls,
            "core.arrival.s": self_s("core.arrival"),
            "core.arrival.us_per_call":
                1e6 * self_s("core.arrival") / arrival_calls if arrival_calls else 0.0,
            "core.arrival.distinct_ratio":
                self._count("core.arrival.distinct", window) / arrival_calls
                if arrival_calls else 0.0,
            "core.sssp.calls": calls("core.sssp"),
            "core.sssp.s": self_s("core.sssp"),
            "core.feasibility.s": self_s("core.feasibility"),
            "core.json.s": self_s("core.json"),
            "solvers.rs.s": self_s("solvers.rs"),
            "solvers.beam.s": self_s("solvers.beam"),
            "solvers.exact.s": self_s("solvers.exact"),
            "solvers.perimeter.calls": calls("solvers.perimeter"),
            "solvers.perimeter.s": self_s("solvers.perimeter"),
            "solvers.rs.ms_per_iteration":
                1e3 * inclusive_s("solvers.rs") / iterations if iterations else 0.0,
            "solvers.beam.s_per_level": inclusive_s("solvers.beam") / levels if levels else 0.0,
            "solvers.kernel_share": self._kernel_share(window, scales),
            "generator.instance.s": self_s("generator.instance"),
            "generator.landscape.s": self_s("generator.landscape"),
            "generator.travel_times.s": self_s("generator.travel_times"),
            "generator.free_burn.s": self_s("generator.free_burn"),
            "generator.schedule.s": self_s("generator.schedule"),
            "noise.calls": calls("noise"),
            "noise.s": self_s("noise"),
            "noise.perm_cache_entries": self.perm_cache_entries.get(window - 1, 0),
            "rothermel.calls": calls("rothermel"),
            "rothermel.s": self_s("rothermel"),
            "mip.build.s": self_s("mip.build"),
            "mip.export.s": self_s("mip.export"),
            "mip.variables": self._count("mip.variables", window),
            "mip.constraints": self._count("mip.constraints", window),
            "mip.bytes_out": self._count("mip.bytes_out", window),
            "reductions.transform.s": self_s("reductions.transform"),
            "reductions.decide.s": self_s("reductions.decide"),
            "cli.dispatch.s": inclusive_s("cli.dispatch"),
            "cli.self.s": self_s("cli.dispatch"),
            "trace.throughput_rps": throughput,
        }
        assert metrics.keys() == LAYER_METRICS.keys()
        return metrics

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, request, self seconds."""
        with open(path, "w") as f:
            for name, start, end, parent, request, covered in self.spans:
                f.write(json.dumps([name, start, end, parent, request, end - start - covered]))
                f.write("\n")
