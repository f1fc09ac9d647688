"""The two in-process workloads: ``validation-cell`` and ``hostile-recovery``.

Each is one public call repeated at seeds derived from the run's seed:

* ``validation-cell`` — :func:`repro.analysis.validation.run_validation` on
  the paper's §5.2 cell (N=3, R=W=1; W exponential with mean 20 ms, A=R=S
  exponential with mean 10 ms; reads 1-80 ms after each write; writes 200 ms
  apart) on the blocked path (``workers=1``).  Almost all of its time is the
  simulator drain plus trace recording.
* ``hostile-recovery`` — :func:`repro.faults.run_adaptive_recovery` on the
  ``gray-failure`` scenario with 8 ingest→refit windows and empirical refits.
  It drives the same simulator under a fault runtime, consumes the
  per-replica response rows, and rebuilds analytic environments from
  empirical reservoirs.

Calls run with the cyclic garbage collector on, as a user's would.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from tracer import Tracer, install_layer_spans, trace_rows

#: Read offsets (ms after each write) of the paper's validation workload.
READ_OFFSETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)


def call_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th call of a run seeded with ``seed``."""
    return seed * 1_000 + index


def validation_cell(rng: int, writes: int) -> dict:
    """One §5.2 validation cell; returns the outputs the checks pin."""
    from repro.analysis.validation import run_validation
    from repro.core.quorum import ReplicaConfig
    from repro.latency.distributions import ExponentialLatency
    from repro.latency.production import WARSDistributions

    distributions = WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0),
        other=ExponentialLatency.from_mean(10.0),
        name="exp W=20.0ms ARS=10.0ms",
    )
    result = run_validation(
        distributions=distributions,
        config=ReplicaConfig(n=3, r=1, w=1),
        writes=writes,
        write_interval_ms=200.0,
        read_offsets_ms=READ_OFFSETS_MS,
        rng=rng,
        workers=1,
    )
    return {
        "observations": result.observations,
        "consistency_rmse_pct": result.consistency_rmse * 100.0,
    }


def hostile_recovery(rng: int, writes: int) -> dict:
    """One gray-failure adaptive-recovery run; returns the pinned outputs."""
    from repro.faults import run_adaptive_recovery

    trajectory = run_adaptive_recovery(
        "gray-failure", writes=writes, windows=8, refit_method="empirical", rng=rng
    )
    return {
        "observations": trajectory.observations,
        "harvested_samples": trajectory.harvested_samples,
        "recovered_fraction": trajectory.final_recovered_fraction,
    }


@dataclass(frozen=True)
class CellWorkload:
    call: Callable[[int, int], dict]
    #: Simulated writes per public call.
    writes: int
    #: Writes of the untimed first call that loads lazily built state.
    warmup_writes: int
    #: The output holding the workload's model-quality figure.
    quality: str


CELLS = {
    "validation-cell": CellWorkload(validation_cell, 10_000, 200, "consistency_rmse_pct"),
    "hostile-recovery": CellWorkload(hostile_recovery, 2_000, 200, "recovered_fraction"),
}


class CheckFailed(Exception):
    """A benchmark output differs from what the program must produce."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1) -> None:
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


def check_quality(workload: CellWorkload, calls: list[dict], bars: bool = True) -> None:
    """Bars on the run's median model quality, whatever the seed.

    The bars hold at the workload's own size; ``bars=False`` (smaller
    self-test calls) checks only that every call observed something.
    """
    for call in calls:
        if call["observations"] <= 0:
            raise CheckFailed("a call produced no staleness observations")
    if not bars:
        return
    median = statistics.median(call[workload.quality] for call in calls)
    if workload.quality == "consistency_rmse_pct" and not 0.0 < median <= 1.0:
        raise CheckFailed(f"median consistency RMSE {median:.4f}% is outside (0, 1]%")
    if workload.quality == "recovered_fraction" and median < 0.5:
        raise CheckFailed(f"median recovered fraction {median:.4f} is below 0.5")


def _timed_calls(
    workload: CellWorkload,
    seed: int,
    seconds: float,
    min_calls: int,
    writes: int,
    between: Callable[[], None] | None = None,
) -> list[tuple[float, dict]]:
    """Calls at successive seeds until their wall times would exceed ``seconds``.

    ``between`` runs before each call, untimed and outside the budget.
    """
    runs: list[tuple[float, dict]] = []
    while True:
        if len(runs) >= min_calls:
            walls = [wall for wall, _ in runs]
            if sum(walls) + statistics.median(walls) > seconds:
                return runs
        if between is not None:
            between()
        gc.collect()
        begin = time.perf_counter()
        outputs = workload.call(call_seed(seed, len(runs)), writes)
        runs.append((time.perf_counter() - begin, outputs))


def measure(
    workload: CellWorkload,
    seed: int,
    seconds: float,
    writes: int,
    between: Callable[[], None] | None = None,
) -> dict:
    """The untraced run: end-to-end figures plus the per-call outputs.

    ``between`` runs before each timed call, outside its timing.
    """
    workload.call(call_seed(seed, 999), workload.warmup_writes)
    runs = _timed_calls(workload, seed, seconds, min_calls=3, writes=writes, between=between)
    walls = [wall for wall, _ in runs]
    return {
        "walls": walls,
        "calls": [outputs for _, outputs in runs],
        # Work completed per second over every timed call.  The host's speed
        # swings by a quarter over tens of seconds; across ten-run sets this
        # total moved less than the median call did (IQR/median 0.06-0.20
        # against 0.10-0.23).
        "throughput_per_s": writes * len(walls) / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload: CellWorkload, seed: int, seconds: float, writes: int) -> dict:
    """Untraced then traced calls at the same seeds; per-layer figures.

    Times are per call (median over the traced calls); counts are those of
    the run's first call, so they repeat exactly at a given seed.
    """
    workload.call(call_seed(seed, 999), workload.warmup_writes)
    untraced = _timed_calls(workload, seed, seconds / 2.0, min_calls=2, writes=writes)

    tracer = Tracer()
    install_layer_spans(tracer)
    root = tracer.wrap(workload.call, "workload.call")
    per_call: list[dict] = []
    coverage: list[list] = []
    traced_walls: list[float] = []
    tracer.start_gc_timing()
    try:
        for index in range(len(untraced)):
            gc.collect()
            tracer.reset()
            begin = time.perf_counter()
            outputs = root(call_seed(seed, index), writes)
            traced_walls.append(time.perf_counter() - begin)
            per_call.append(_layer_figures(tracer, writes, outputs, count_rows=index == 0))
            coverage.append(tracer.roots["workload.call"])
            if outputs != untraced[index][1]:
                raise CheckFailed(
                    f"call {index} gave different outputs with tracing on: "
                    f"{outputs} != {untraced[index][1]}"
                )
    finally:
        tracer.stop_gc_timing()

    first = per_call[0]
    metrics = {
        name: statistics.median(call[name] for call in per_call)
        for name in first
        if name.endswith("_s")
    }
    for name in (
        "cluster.events",
        "cluster.trace_rows",
        "cluster.trace_rows_per_write",
        "analysis.observations",
        "analytic.env_builds",
        "analytic.ppf_calls",
        "faults.harvested_samples",
        "faults.modulated_draws",
        "runtime.gc_collections",
        "serving.refits",
    ):
        metrics[name] = first[name]
    total = sum(root[0] for root in coverage)
    metrics["trace.coverage_pct"] = 100.0 * sum(root[1] for root in coverage) / total
    untraced_wall = statistics.median(wall for wall, _ in untraced)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / untraced_wall - 1.0
    )
    return {"metrics": metrics, "calls": [outputs for _, outputs in untraced]}


def _layer_figures(tracer: Tracer, writes: int, outputs: dict, count_rows: bool) -> dict:
    events = sum(cluster.simulator.processed_events for cluster in tracer.clusters)
    sim_s = tracer.self_seconds("cluster.sim")
    rows = sum(trace_rows(c.trace_log) for c in tracer.clusters) if count_rows else 0
    return {
        "cluster.sim_s": sim_s,
        "cluster.events": events,
        "cluster.events_per_s": events / sim_s if sim_s > 0 else 0.0,
        "cluster.trace_rows": rows,
        "cluster.trace_rows_per_write": rows / writes,
        "runtime.gc_s": tracer.gc_seconds,
        "runtime.gc_collections": tracer.gc_collections,
        "analysis.observe_s": tracer.self_seconds("analysis.observe"),
        "analysis.latencies_s": tracer.self_seconds("analysis.latencies"),
        "analysis.curve_s": tracer.self_seconds("analysis.curve"),
        "analysis.observations": outputs["observations"],
        "wars.sample_s": tracer.self_seconds("wars.sample"),
        "wars.query_s": tracer.self_seconds("wars.query"),
        "cluster.build_s": tracer.self_seconds("cluster.build"),
        "workloads.build_s": tracer.self_seconds("workloads.build"),
        "analytic.env_build_s": tracer.self_seconds("analytic.env_build"),
        "analytic.env_builds": tracer.calls("analytic.env_build"),
        "analytic.ppf_calls": tracer.counts.get("analytic.ppf_calls", 0),
        "analytic.query_s": tracer.self_seconds("analytic.query"),
        "serving.refit_s": tracer.self_seconds("serving.refit"),
        "serving.refits": tracer.calls("serving.refit"),
        "faults.harvest_s": tracer.self_seconds("faults.harvest"),
        "faults.harvested_samples": outputs.get("harvested_samples", 0),
        "faults.modulated_draws": sum(r.modulated_draws for r in tracer.fault_runtimes),
    }
