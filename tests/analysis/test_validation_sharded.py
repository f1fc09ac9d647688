"""Tests for sharded §5.2 validation runs and the fast staleness analysis.

Mirrors the PR 2/PR 4 methodology: block-sharded results must be bit-for-bit
identical for any worker count, the batched sampler must be statistically
equivalent to the legacy per-draw path, and the O((R+W) log W)
``observe_staleness`` must reproduce the naive quadratic scan exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.staleness import (
    StalenessFrame,
    StalenessObservation,
    observe_staleness,
    observe_staleness_frame,
)
from repro.analysis.validation import (
    VALIDATION_BLOCK_WRITES,
    _block_sizes,
    run_validation,
)
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.exceptions import AnalysisError
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload

CONFIG = ReplicaConfig(n=3, r=1, w=1)


def _distributions() -> WARSDistributions:
    return WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0),
        other=ExponentialLatency.from_mean(10.0),
    )


def _run(writes: int = 400, **kwargs):
    return run_validation(
        distributions=_distributions(),
        config=CONFIG,
        writes=writes,
        prediction_trials=20_000,
        rng=kwargs.pop("rng", 7),
        **kwargs,
    )


class TestBlockStructure:
    def test_paper_scale_splits_into_default_blocks(self):
        assert _block_sizes(50_000, VALIDATION_BLOCK_WRITES) == [5_000] * 10

    def test_remainder_becomes_tail_block(self):
        assert _block_sizes(12_000, 5_000) == [5_000, 5_000, 2_000]

    def test_tiny_tail_merges_into_previous_block(self):
        assert _block_sizes(5_009, 5_000) == [5_009]

    def test_single_block_workloads(self):
        assert _block_sizes(400, 5_000) == [400]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(AnalysisError):
            _run(workers=0)
        with pytest.raises(AnalysisError):
            _run(block_writes=5)
        with pytest.raises(AnalysisError):
            _run(writes=5)


class TestWorkerInvariance:
    def test_results_identical_for_any_worker_count(self, workers):
        serial = _run(writes=360, workers=1, block_writes=120)
        sharded = _run(writes=360, workers=workers, block_writes=120)
        assert serial == sharded

    def test_blocked_path_is_deterministic_across_calls(self):
        assert _run(writes=240, workers=1, block_writes=80) == _run(
            writes=240, workers=1, block_writes=80
        )

    def test_generator_rng_is_deterministic_given_state(self):
        first = _run(writes=240, workers=1, block_writes=80, rng=np.random.default_rng(3))
        second = _run(writes=240, workers=1, block_writes=80, rng=np.random.default_rng(3))
        assert first == second

    def test_block_structure_changes_results_but_not_quality(self):
        # Different block sizes are different (but equally valid) experiments.
        coarse = _run(writes=240, workers=1, block_writes=240)
        fine = _run(writes=240, workers=1, block_writes=80)
        assert coarse != fine
        # Block boundaries skip a handful of before-first-commit reads, so
        # counts differ by at most a few reads per extra block.
        assert abs(coarse.observations - fine.observations) <= 8 * 3
        assert abs(coarse.consistency_rmse - fine.consistency_rmse) < 0.05


class TestStatisticalEquivalence:
    """Batched draws vs the legacy per-draw stream (PR 4 methodology)."""

    def test_batched_and_per_draw_paths_within_validation_tolerance(self):
        batched = _run(writes=500)
        per_draw = _run(writes=500, draw_batch_size=1)
        # Both must clear the long-standing integration tolerance...
        assert batched.consistency_rmse < 0.06
        assert per_draw.consistency_rmse < 0.06
        # ...and agree with each other about the measured experiment (the
        # streams differ, so a few before-first-commit reads may shift).
        assert abs(batched.observations - per_draw.observations) <= 8
        assert batched.read_latency_nrmse < 0.06
        assert per_draw.read_latency_nrmse < 0.06

    def test_sharded_path_within_validation_tolerance(self):
        sharded = _run(writes=600, workers=2, block_writes=200)
        assert sharded.consistency_rmse < 0.06
        assert sharded.read_latency_nrmse < 0.06
        assert sharded.write_latency_nrmse < 0.10
        assert sharded.observations > 4_000


def _naive_observe_staleness(trace_log, key=None) -> list[StalenessObservation]:
    """The pre-overhaul quadratic reference implementation, kept verbatim."""
    observations = []
    for read in trace_log.completed_reads(key):
        committed = [
            write
            for write in trace_log.committed_writes(read.key)
            if write.committed_ms <= read.started_ms
        ]
        if not committed:
            continue
        latest = max(committed, key=lambda write: write.version)
        t_since_commit = read.started_ms - latest.committed_ms
        returned = read.returned_version
        consistent = returned is not None and returned >= latest.version
        if consistent:
            lag = 0
        elif returned is None:
            lag = len(committed)
        else:
            lag = sum(1 for write in committed if write.version > returned)
        observations.append(
            StalenessObservation(
                operation_id=read.operation_id,
                key=read.key,
                t_since_commit_ms=float(t_since_commit),
                consistent=consistent,
                version_lag=lag,
            )
        )
    return observations


@pytest.mark.parametrize("trace_backend", ["columnar", "object"])
class TestFastStalenessAnalysis:
    def _traced_cluster(
        self, loss: float = 0.0, keys: int = 1, trace_backend: str = "columnar"
    ) -> DynamoCluster:
        cluster = DynamoCluster(
            config=CONFIG,
            distributions=_distributions(),
            rng=11,
            loss_probability=loss,
            trace_backend=trace_backend,
        )
        runner = WorkloadRunner(cluster)
        operations = []
        for index in range(keys):
            operations.extend(
                validation_workload(
                    key=f"k{index}",
                    writes=60,
                    write_interval_ms=100.0,
                    read_offsets_ms=(1.0, 5.0, 20.0, 60.0),
                )
            )
        runner.run(operations)
        return cluster

    def test_matches_naive_reference_single_key(self, trace_backend):
        log = self._traced_cluster(trace_backend=trace_backend).trace_log
        assert observe_staleness(log, key="k0") == _naive_observe_staleness(log, key="k0")

    def test_matches_naive_reference_multi_key_all_keys(self, trace_backend):
        log = self._traced_cluster(keys=3, trace_backend=trace_backend).trace_log
        assert observe_staleness(log) == _naive_observe_staleness(log)

    def test_matches_naive_reference_under_message_loss(self, trace_backend):
        # Loss produces stale reads, empty reads, and version lags > 0 —
        # exactly the branches where the Fenwick bookkeeping could diverge.
        log = self._traced_cluster(loss=0.25, trace_backend=trace_backend).trace_log
        fast = observe_staleness(log, key="k0")
        naive = _naive_observe_staleness(log, key="k0")
        assert fast == naive
        assert any(not obs.consistent for obs in fast)
        assert any(obs.version_lag > 1 for obs in fast)

    def test_empty_log_returns_empty(self, trace_backend):
        from repro.cluster.tracelog import ColumnarTraceLog
        from repro.cluster.tracing import TraceLog

        log = ColumnarTraceLog() if trace_backend == "columnar" else TraceLog()
        assert observe_staleness(log) == []


class TestStalenessMethodDispatch:
    def _log(self, trace_backend: str = "columnar", loss: float = 0.25):
        cluster = DynamoCluster(
            config=CONFIG,
            distributions=_distributions(),
            rng=11,
            loss_probability=loss,
            trace_backend=trace_backend,
        )
        WorkloadRunner(cluster).run(
            validation_workload(
                key="k0", writes=60, write_interval_ms=100.0,
                read_offsets_ms=(1.0, 5.0, 20.0, 60.0),
            )
        )
        return cluster.trace_log

    def test_columnar_and_fenwick_methods_agree_exactly(self):
        log = self._log()
        columnar = observe_staleness(log, method="columnar")
        fenwick = observe_staleness(log, method="fenwick")
        assert columnar == fenwick
        assert any(not obs.consistent for obs in columnar)

    def test_fenwick_oracle_runs_on_both_backends(self):
        columnar_log = self._log("columnar")
        object_log = self._log("object")
        columnar_obs = observe_staleness(columnar_log, method="fenwick")
        object_obs = observe_staleness(object_log, method="fenwick")
        # Operation ids are process-global; compare everything but the id.
        strip = lambda obs: [
            (o.key, o.t_since_commit_ms, o.consistent, o.version_lag) for o in obs
        ]
        assert strip(columnar_obs) == strip(object_obs)

    def test_columnar_method_rejected_on_object_backend(self):
        with pytest.raises(AnalysisError):
            observe_staleness(self._log("object"), method="columnar")

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            observe_staleness(self._log(), method="quadratic")


class TestArrayNativeBlockedPath:
    """The blocked path merges per-block ``StalenessFrame``s instead of
    observation lists; every field must come out as the list path's would."""

    def _block_log(self, rng: int = 11, writes: int = 80):
        cluster = DynamoCluster(
            config=CONFIG, distributions=_distributions(), rng=rng, loss_probability=0.2
        )
        WorkloadRunner(cluster).run(
            validation_workload(
                key="validation-key",
                writes=writes,
                write_interval_ms=200.0,
                read_offsets_ms=(1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0),
            )
        )
        return cluster.trace_log

    def test_frame_observations_equal_observation_list_on_block_log(self):
        log = self._block_log()
        frame = observe_staleness_frame(log, key="validation-key")
        observations = observe_staleness(log, key="validation-key")
        assert frame.observations() == observations
        assert any(not obs.consistent for obs in observations)

    def test_concat_equals_joined_observation_lists(self):
        logs = [self._block_log(rng=seed, writes=40) for seed in (1, 2, 3)]
        frames = [observe_staleness_frame(log) for log in logs]
        joined = [obs for log in logs for obs in observe_staleness(log)]
        merged = StalenessFrame.concat(frames)
        assert merged.observations() == joined
        assert len(merged) == sum(len(frame) for frame in frames)

    def test_from_observations_round_trips(self):
        observations = observe_staleness(self._block_log(), method="fenwick")
        frame = StalenessFrame.from_observations(observations)
        assert frame.observations() == observations
        assert StalenessFrame.from_observations([]).observations() == []

    def test_one_worker_equals_two_workers_field_for_field(self):
        serial = _run(writes=360, workers=1, block_writes=120)
        sharded = _run(writes=360, workers=2, block_writes=120)
        for field in dataclasses.fields(serial):
            assert getattr(serial, field.name) == getattr(sharded, field.name), field.name

    def test_object_backend_blocks_match_columnar_blocks(self):
        columnar = _run(writes=240, workers=1, block_writes=80)
        objects = _run(writes=240, workers=1, block_writes=80, trace_backend="object")
        assert columnar == objects
