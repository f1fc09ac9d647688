"""Benchmarks for the cluster-simulator hot path (the §5.2 measured side).

Two claims are asserted:

* the overhauled simulation engine (tuple-heap events, batched draw buffers,
  pre-bound call dispatch — ``DynamoCluster(engine="batched")``, the default)
  processes **>= 5x** the events per second of the pre-overhaul engine
  (``engine="reference"``, pinned verbatim in :mod:`repro.cluster.reference`)
  on the single-cell validation workload, serial, same seed discipline;
* a full §5.2 grid cell at the paper's 50,000 writes completes within a
  modest wall-clock budget, which is what makes paper-fidelity validation a
  practical slow-suite target rather than an overnight job.

Timed regions run with the cyclic garbage collector paused (both engines
equally): the measured quantity is simulator throughput, and gen-2 GC scans
of the accumulated trace log would otherwise dominate the comparison with
allocator noise.  The ``measure_*`` bodies are shared with
``tools/bench_to_json.py`` so ``BENCH_sweep.json`` records the same numbers
the assertions gate.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import pytest

from repro.analysis.staleness import (
    measured_t_visibility,
    observe_staleness,
    observe_staleness_frame,
    operation_latencies,
)
from repro.analysis.validation import run_validation
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload

#: The §5.2 cell used throughout: W mean 20 ms, A=R=S mean 10 ms, N=3 R=W=1.
W_MEAN_MS = 20.0
ARS_MEAN_MS = 10.0
CONFIG = ReplicaConfig(n=3, r=1, w=1)
READ_OFFSETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)

#: Writes per measured run of the events/sec benchmark (~189k events each).
BENCH_WRITES = 2_500
#: Timed repetitions per engine; the median damps shared-machine noise.
BENCH_REPEATS = 3


def _cell_distributions() -> WARSDistributions:
    return WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(W_MEAN_MS),
        other=ExponentialLatency.from_mean(ARS_MEAN_MS),
        name=f"exp W={W_MEAN_MS}ms ARS={ARS_MEAN_MS}ms",
    )


def _run_cell_workload(engine: str, writes: int, seed: int) -> float:
    """Run one validation-cell workload; return events processed per second.

    The reference engine gets the pre-overhaul treatment end to end: event
    labels on (the original coordinator always built them) and the workload
    scheduled eagerly (the original runner pushed every operation up front).
    """
    reference = engine == "reference"
    cluster = DynamoCluster(
        config=CONFIG,
        distributions=_cell_distributions(),
        rng=seed,
        engine=engine,
        event_labels=reference,
    )
    operations = list(
        validation_workload(
            key="validation-key",
            writes=writes,
            write_interval_ms=max(10.0 * W_MEAN_MS, 100.0),
            read_offsets_ms=READ_OFFSETS_MS,
        )
    )
    runner = WorkloadRunner(cluster)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if reference:
            runner.schedule(operations)
            horizon = max(operation.start_ms for operation in operations) + 1_000.0
            cluster.run(until_ms=horizon)
            cluster.run()
        else:
            runner.run(operations)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return cluster.simulator.processed_events / elapsed


def measure_cluster_events_per_sec(
    writes: int = BENCH_WRITES, repeats: int = BENCH_REPEATS
) -> dict:
    """Old-vs-new simulator throughput on the single-cell validation workload."""
    # Warm both engines once (imports, allocator, distribution caches).
    _run_cell_workload("reference", 200, seed=0)
    _run_cell_workload("batched", 200, seed=0)
    reference = statistics.median(
        _run_cell_workload("reference", writes, seed=0) for _ in range(repeats)
    )
    batched = statistics.median(
        _run_cell_workload("batched", writes, seed=0) for _ in range(repeats)
    )
    return {
        "writes": writes,
        "repeats": repeats,
        "reference_events_per_sec": reference,
        "batched_events_per_sec": batched,
        "speedup": batched / reference,
    }


def measure_paper_scale_validation_cell(writes: int = 50_000, workers: int | None = None) -> dict:
    """One §5.2 grid cell at paper fidelity through ``run_validation``."""
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    result = run_validation(
        distributions=_cell_distributions(),
        config=CONFIG,
        writes=writes,
        write_interval_ms=max(10.0 * W_MEAN_MS, 100.0),
        read_offsets_ms=READ_OFFSETS_MS,
        prediction_trials=100_000,
        rng=0,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    return {
        "writes": writes,
        "workers": workers,
        "wall_clock_s": elapsed,
        "observations": result.observations,
        "consistency_rmse_pct": result.consistency_rmse * 100.0,
        "read_latency_nrmse_pct": result.read_latency_nrmse * 100.0,
        "write_latency_nrmse_pct": result.write_latency_nrmse * 100.0,
    }


def measure_trace_analytics(writes: int = 50_000, seed: int = 0) -> dict:
    """Columnar vs Fenwick trace analytics on one §5.2 baseline cell.

    Runs the baseline cell once per trace backend (timing the simulation —
    the recording overhead), then times the full analytics pass on each
    log: staleness observation, t-visibility at four targets, and the
    operation-latency extraction.  The columnar pass must be at least 2x
    the Fenwick path *and* produce identical observations, and switching
    the backend must not make the combined run slower.
    """

    def _timed_cell(trace_backend: str) -> tuple[DynamoCluster, float]:
        cluster = DynamoCluster(
            config=CONFIG,
            distributions=_cell_distributions(),
            rng=seed,
            trace_backend=trace_backend,
        )
        operations = validation_workload(
            key="validation-key",
            writes=writes,
            write_interval_ms=max(10.0 * W_MEAN_MS, 100.0),
            read_offsets_ms=READ_OFFSETS_MS,
        )
        runner = WorkloadRunner(cluster)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            runner.run(operations)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        return cluster, elapsed

    def _best_cell(trace_backend: str) -> tuple[DynamoCluster, float]:
        # Each repeat is a fresh cluster (the trace accumulates), so take
        # the fastest run to suppress scheduler noise in the sim timing.
        return min(
            (_timed_cell(trace_backend) for _ in range(BENCH_REPEATS)),
            key=lambda pair: pair[1],
        )

    def _timed_analytics(trace_log, columnar: bool) -> tuple[object, float]:
        """Time observe → t-visibility (4 targets) → latency extraction.

        The columnar pipeline stays in arrays end to end (the frame API);
        the Fenwick pipeline is the pre-overhaul shape: an observation-object
        list walked per curve.
        """
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            if columnar:
                observations = observe_staleness_frame(trace_log)
            else:
                observations = observe_staleness(trace_log, method="fenwick")
            for target in (0.9, 0.99, 0.999, 0.9999):
                measured_t_visibility(observations, target)
            operation_latencies(trace_log)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        return observations, elapsed

    columnar_cluster, columnar_sim_s = _best_cell("columnar")
    object_cluster, object_sim_s = _best_cell("object")
    # Warm both analytics paths before timing.
    _timed_analytics(object_cluster.trace_log, columnar=False)
    columnar_frame, columnar_analytics_s = min(
        (_timed_analytics(columnar_cluster.trace_log, columnar=True)
         for _ in range(BENCH_REPEATS)),
        key=lambda pair: pair[1],
    )
    fenwick_obs, fenwick_analytics_s = min(
        (_timed_analytics(object_cluster.trace_log, columnar=False)
         for _ in range(BENCH_REPEATS)),
        key=lambda pair: pair[1],
    )
    # Identical numbers, not just faster: operation ids are process-global,
    # so compare everything but the id.
    strip = lambda observations: [
        (obs.key, obs.t_since_commit_ms, obs.consistent, obs.version_lag)
        for obs in observations
    ]
    assert strip(columnar_frame.observations()) == strip(fenwick_obs)
    return {
        "writes": writes,
        "observations": len(columnar_frame),
        "columnar_sim_s": columnar_sim_s,
        "object_sim_s": object_sim_s,
        "columnar_analytics_s": columnar_analytics_s,
        "fenwick_analytics_s": fenwick_analytics_s,
        "speedup": fenwick_analytics_s / columnar_analytics_s,
        "total_wall_clock_ratio": (columnar_sim_s + columnar_analytics_s)
        / (object_sim_s + fenwick_analytics_s),
    }


def test_cluster_hot_path_speedup():
    """The overhauled engine must be >= 5x the pre-overhaul engine, serially."""
    result = measure_cluster_events_per_sec()
    speedup = result["speedup"]
    assert speedup >= 5.0, (
        f"expected >= 5x events/sec over the pre-overhaul simulator on the "
        f"validation workload, got {speedup:.2f}x "
        f"(reference {result['reference_events_per_sec']:,.0f}/s, "
        f"batched {result['batched_events_per_sec']:,.0f}/s)"
    )


def test_paper_scale_validation_cell_under_budget():
    """One full §5.2 cell at 50,000 writes stays inside the wall-clock budget.

    The budget is deliberately loose (shared CI runners); the point is the
    order of magnitude: pre-overhaul this cell took tens of minutes of
    simulation plus an O(writes x reads) analysis pass.
    """
    result = measure_paper_scale_validation_cell(writes=50_000)
    assert result["wall_clock_s"] < 600.0, (
        f"paper-scale cell took {result['wall_clock_s']:.0f}s "
        f"(workers={result['workers']})"
    )
    # ~400k staleness observations; the measured curve should now track the
    # prediction closely (paper: 0.28% average RMSE on its own cluster).
    assert result["observations"] >= 390_000
    assert result["consistency_rmse_pct"] < 2.0
    assert result["read_latency_nrmse_pct"] < 3.0
    assert result["write_latency_nrmse_pct"] < 5.0


def test_reduced_scale_validation_cell():
    """A >= 5,000-write cell (the CI-sized paper-scale stand-in) stays accurate."""
    result = measure_paper_scale_validation_cell(writes=5_000)
    assert result["wall_clock_s"] < 240.0
    assert result["observations"] >= 39_000
    assert result["consistency_rmse_pct"] < 4.0


def test_trace_analytics_speedup_at_paper_scale():
    """Columnar analytics >= 2x the Fenwick pass at the paper's 50,000 writes,
    with the combined simulate-plus-analyse wall clock no worse than the
    object-backend pipeline (small tolerance for shared-runner noise)."""
    result = measure_trace_analytics(writes=50_000)
    assert result["observations"] >= 390_000
    assert result["speedup"] >= 2.0, (
        f"expected >= 2x over the Fenwick staleness pass at 50k writes, got "
        f"{result['speedup']:.2f}x (columnar {result['columnar_analytics_s']:.3f}s, "
        f"fenwick {result['fenwick_analytics_s']:.3f}s)"
    )
    assert result["total_wall_clock_ratio"] <= 1.10, (
        f"columnar pipeline must not slow the combined run: ratio "
        f"{result['total_wall_clock_ratio']:.2f} "
        f"(sim {result['columnar_sim_s']:.1f}s vs {result['object_sim_s']:.1f}s)"
    )
