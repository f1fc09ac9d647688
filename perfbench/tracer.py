"""Span timers and counters installed around the program's layer boundaries.

Everything here lives in the benchmark: the program under test is never
edited.  :func:`install_layer_spans` replaces a public function or method
with a timing wrapper *where its caller looks it up* (a from-import is a
module global of the importing module, so it is patched there), records one
span per call with its parent, and keeps per-name totals in memory.  A
layer's self time is its spans' duration minus the part covered by child
spans, so the layer totals add up without double counting.
"""

from __future__ import annotations

import functools
import gc
import threading
import time

#: (module, attribute, span name) for module-level functions, patched in the
#: module that calls them.
FUNCTION_SPANS = (
    ("repro.analysis.validation", "observe_staleness", "analysis.observe"),
    ("repro.analysis.validation", "operation_latencies", "analysis.latencies"),
    ("repro.analysis.validation", "consistency_by_time", "analysis.curve"),
    ("repro.analysis.validation", "validation_workload", "workloads.build"),
    ("repro.faults.recovery", "observe_staleness", "analysis.observe"),
    ("repro.faults.recovery", "consistency_by_time", "analysis.curve"),
    ("repro.faults.recovery", "harvest_wars_observations", "faults.harvest"),
)

#: (module, class, method, span name) for methods, patched on the class.
METHOD_SPANS = (
    ("repro.cluster.client", "WorkloadRunner", "run", "cluster.sim"),
    ("repro.cluster.store", "DynamoCluster", "__init__", "cluster.build"),
    ("repro.scenarios.registry", "Scenario", "build_operations", "workloads.build"),
    ("repro.core.wars", "WARSModel", "sample", "wars.sample"),
    ("repro.core.wars", "WARSTrialResult", "read_latency_percentile", "wars.query"),
    ("repro.core.wars", "WARSTrialResult", "write_latency_percentile", "wars.query"),
    ("repro.montecarlo.engine", "SweepEngine", "run", "engine.run"),
    ("repro.analytic.predictor", "AnalyticEnvironment", "__post_init__", "analytic.env_build"),
    ("repro.analytic.predictor", "AnalyticPredictor", "result", "analytic.query"),
    ("repro.serving.service", "PredictorService", "predict", "serving.predict"),
    ("repro.serving.service", "PredictorService", "recommend", "serving.recommend"),
    ("repro.serving.service", "PredictorService", "ingest", "serving.ingest"),
    ("repro.serving.service", "PredictorService", "refit", "serving.refit"),
    (
        "repro.serving.service",
        "PredictorService",
        "consistency_probabilities",
        "serving.curve",
    ),
)

#: Lazy per-configuration answers: the analytic tables are evaluated when
#: these are called, after ``AnalyticPredictor.result`` has returned.
QUERY_METHODS = (
    "consistency_probability",
    "staleness_probability",
    "t_visibility",
    "probability_never_stale",
    "read_latency_percentile",
    "write_latency_percentile",
)


class Tracer:
    """In-memory span and counter store; one span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            #: name -> [calls, total seconds, self seconds]
            self.totals: dict[str, list] = {}
            self.counts: dict[str, int] = {}
            #: root name -> [root seconds, seconds covered by direct children,
            #: CPU seconds of the root's thread inside it]
            self.roots: dict[str, list] = {}
            self.gc_seconds = 0.0
            self.gc_collections = 0
            self._gc_started = None
            #: Clusters driven and fault runtimes built since the last reset,
            #: kept so their counters can be read after the public call.
            self.clusters: list = []
            self.fault_runtimes: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self, name: str) -> list:
        stack = self._stack()
        # A root span also reads its thread's CPU clock, so the spans of
        # several threads can be set against the whole process's CPU time.
        frame = [name, time.perf_counter(), 0.0, None if stack else time.thread_time()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        cpu = 0.0 if frame[3] is None else time.thread_time() - frame[3]
        stack = self._stack()
        stack.pop()
        with self._lock:
            entry = self.totals.setdefault(frame[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            else:
                root = self.roots.setdefault(frame[0], [0.0, 0.0, 0.0])
                root[0] += duration
                root[1] += frame[2]
                root[2] += cpu

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    # ------------------------------------------------------------------
    # CPython's cyclic collector, timed through ``gc.callbacks``.
    # ------------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def start_gc_timing(self) -> None:
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def stop_gc_timing(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def _all_subclasses(cls) -> set:
    found = set()
    for sub in cls.__subclasses__():
        found.add(sub)
        found |= _all_subclasses(sub)
    return found


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Importing the recovery and serving modules here also imports every
    latency distribution class, so the ``ppf`` counters below reach all of
    them.  Installation is once per process; there is no uninstall.
    """
    import importlib

    for module_name, attribute, span in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        setattr(module, attribute, tracer.wrap(getattr(module, attribute), span))
    for module_name, class_name, method, span in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), span))

    from repro.montecarlo.engine import SweepEngine

    traced_engine_run = SweepEngine.run

    @functools.wraps(traced_engine_run)
    def count_trials(self, trials, *args, **kwargs):
        tracer.count("engine.trials", trials)
        return traced_engine_run(self, trials, *args, **kwargs)

    SweepEngine.run = count_trials

    from repro.analytic.predictor import AnalyticConfigResult

    for method in QUERY_METHODS:
        original = getattr(AnalyticConfigResult, method)
        setattr(AnalyticConfigResult, method, tracer.wrap(original, "analytic.query"))

    # Leg quantile calls that tabulate an analytic environment.  Only classes
    # that define their own ``ppf`` are wrapped: ``ppf_batch`` compares
    # ``type(self).ppf`` against the base class to pick its fallback path.
    from repro.latency.base import LatencyDistribution

    def counted_ppf(fn):
        @functools.wraps(fn)
        def ppf(self, q):
            if tracer.inside("analytic.env_build"):
                tracer.count("analytic.ppf_calls")
            return fn(self, q)

        return ppf

    for cls in _all_subclasses(LatencyDistribution):
        if "ppf" in vars(cls):
            cls.ppf = counted_ppf(vars(cls)["ppf"])

    # Fault runtimes are created inside the public call; keep them so their
    # ``modulated_draws`` counter can be read afterwards.
    from repro.faults.runtime import FaultRuntime

    original_init = FaultRuntime.__init__

    @functools.wraps(original_init)
    def remember_runtime(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.fault_runtimes.append(self)

    FaultRuntime.__init__ = remember_runtime

    # Clusters the runner drove, for event and trace-row counts.
    from repro.cluster.client import WorkloadRunner

    traced_run = WorkloadRunner.run

    @functools.wraps(traced_run)
    def run_and_remember(self, *args, **kwargs):
        result = traced_run(self, *args, **kwargs)
        tracer.clusters.append(self.cluster)
        return result

    WorkloadRunner.run = run_and_remember


def trace_rows(trace_log) -> int:
    """Rows recorded in one cluster trace, counted through its public views.

    One row per write and per read, plus one per per-replica event: write
    arrivals, write acks, dropped replicas, quorum responses, late responses
    and read response arrivals.
    """
    rows = len(trace_log.writes) + len(trace_log.reads)
    for write in trace_log.writes:
        rows += len(write.replica_arrivals_ms) + len(write.ack_arrivals_ms)
        rows += len(write.dropped_replicas)
    for read in trace_log.reads:
        rows += len(read.quorum_responses) + len(read.late_responses)
        rows += len(read.response_arrivals_ms)
    return rows
