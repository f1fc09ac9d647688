"""Benchmarks for the adaptive-recovery closed loop under gray failure.

The acceptance claim: streaming a hostile trace into a
:class:`~repro.serving.PredictorService` and refitting in timed windows
recovers **at least half** of the static model's divergence on the
``gray-failure`` scenario.  ``measure_adaptive_recovery`` returns the flat
section shape that ``tools/bench_to_json.py`` records as ``adaptive_recovery``
in ``BENCH_sweep.json`` so the closed loop's convergence is tracked per PR.

Two speed gates cover the loop's table-backed hot spots, each with identical
output required:

* tabulating an 8,192-value empirical leg (one ``np.quantile`` pass) is at
  least 10x the per-point ``ppf`` tabulation;
* the array harvest of a 2,000-write gray-failure trace is at least 10x the
  row-by-row oracle in ``tests/oracles/harvest.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.analytic.grid import LatencyGrid, quantile_ladder
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.faults import harvest_wars_observations, run_adaptive_recovery
from repro.latency.empirical import EmpiricalDistribution
from repro.scenarios.registry import ScenarioContext, get_scenario
from tests.oracles.harvest import as_tuples, harvest_by_row

#: Wall-clock ceiling for the full closed loop (shared CI runners).
RECOVERY_BUDGET_S = 600.0


def measure_adaptive_recovery(writes: int = 5_000, windows: int = 8) -> dict:
    """Run the gray-failure closed loop and return flat JSON-safe lines."""
    start = time.perf_counter()
    trajectory = run_adaptive_recovery("gray-failure", writes=writes, windows=windows)
    elapsed = time.perf_counter() - start
    return {
        "scenario": trajectory.scenario,
        "writes": trajectory.writes,
        "windows": len(trajectory.windows),
        "observations": trajectory.observations,
        "harvested_samples": trajectory.harvested_samples,
        "static_mean_abs_delta_p_pct": trajectory.static_mean_abs_delta_p * 100.0,
        "final_mean_abs_delta_p_pct": trajectory.final_mean_abs_delta_p * 100.0,
        "final_recovered_fraction": trajectory.final_recovered_fraction,
        "windows_to_threshold": trajectory.windows_to_threshold,
        "wall_clock_s": elapsed,
    }


def test_closed_loop_recovers_majority_of_static_divergence():
    """Acceptance criterion: the adaptive loop recovers >= 50% of the static
    model's mean |Δp| on the gray-failure scenario (margin is ~70%)."""
    start = time.perf_counter()
    trajectory = run_adaptive_recovery("gray-failure", writes=5_000, windows=8)
    elapsed = time.perf_counter() - start
    assert elapsed < RECOVERY_BUDGET_S
    assert trajectory.static_mean_abs_delta_p > 0.0
    assert trajectory.final_recovered_fraction >= 0.5, (
        f"closed loop recovered only {trajectory.final_recovered_fraction:.0%} "
        f"of static divergence ({trajectory.static_mean_abs_delta_p:.2%} -> "
        f"{trajectory.final_mean_abs_delta_p:.2%})"
    )
    # The loop converges early: the threshold is crossed, not just approached.
    assert trajectory.windows_to_threshold is not None
    assert trajectory.windows_to_threshold <= len(trajectory.windows)


def test_measure_adaptive_recovery_is_json_safe():
    """The emitter's section shape: flat finite scalars only."""
    import json
    import math

    section = measure_adaptive_recovery(writes=1_000, windows=4)
    payload = json.loads(json.dumps(section))
    for key, value in payload.items():
        if isinstance(value, float):
            assert math.isfinite(value), f"{key} is non-finite"
    assert payload["windows"] == 4
    assert payload["final_recovered_fraction"] > 0.0


@pytest.mark.benchmark(group="faults")
def test_bench_recovery_experiment(benchmark):
    """The registered ``recovery`` experiment end-to-end at reduced scale."""
    result = run_once(benchmark, "recovery", trials=2_000, rng=0)
    assert len(result.rows) == 8
    final = result.rows[-1]
    assert final["recovered_pct"] > 0.0


#: Required speedups of the two table-backed hot spots over their per-point
#: baselines.
TABULATION_SPEEDUP = 10.0
HARVEST_SPEEDUP = 10.0


def _best_seconds(call, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_empirical_tabulation_speedup():
    """One ``np.quantile`` pass over the ladder vs one ``ppf`` per rung."""
    leg = EmpiricalDistribution(np.random.default_rng(0).exponential(2.0, 8_192))
    ladder = quantile_ladder()

    def per_point() -> LatencyGrid:
        values = np.array([leg.ppf(float(q)) for q in ladder])
        return LatencyGrid(values=values, probs=ladder)

    fast, slow = LatencyGrid.from_distribution(leg), per_point()
    assert fast.values.tobytes() == slow.values.tobytes()
    assert fast.probs.tobytes() == slow.probs.tobytes()
    speedup = _best_seconds(per_point, 3) / _best_seconds(
        lambda: LatencyGrid.from_distribution(leg)
    )
    assert speedup >= TABULATION_SPEEDUP, f"tabulation speedup {speedup:.1f}x"


def _gray_failure_trace(writes: int = 2_000):
    scenario = get_scenario("gray-failure")
    cluster = DynamoCluster(
        config=ReplicaConfig(3, 1, 1),
        distributions=scenario.distributions_for_cluster(),
        rng=np.random.default_rng(1),
        **scenario.cluster_kwargs,
    )
    context = ScenarioContext(
        writes=writes,
        write_interval_ms=scenario.write_interval_ms,
        read_offsets_ms=scenario.read_offsets_ms,
        horizon_ms=writes * scenario.write_interval_ms,
        rng=np.random.default_rng(2),
    )
    operations = scenario.build_operations(context)
    if scenario.setup is not None:
        scenario.setup(cluster, context)
    WorkloadRunner(cluster).run(operations)
    return cluster.trace_log


def test_array_harvest_speedup():
    """The columnar harvest vs the per-row ``LegSample`` loop it replaced."""
    trace_log = _gray_failure_trace()
    fast = harvest_wars_observations(trace_log, 0.0, np.random.default_rng(3))
    slow = harvest_by_row(trace_log, 0.0, np.random.default_rng(3))
    assert as_tuples(fast) == slow
    speedup = _best_seconds(
        lambda: harvest_by_row(trace_log, 0.0, np.random.default_rng(3)), 3
    ) / _best_seconds(
        lambda: harvest_wars_observations(trace_log, 0.0, np.random.default_rng(3))
    )
    assert speedup >= HARVEST_SPEEDUP, f"harvest speedup {speedup:.1f}x"
