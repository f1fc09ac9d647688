"""The array harvest against the row-by-row oracle, sample for sample.

``harvest_wars_observations`` reads the trace log's event columns and must
return exactly what the per-row loop in :mod:`tests.oracles.harvest` returns:
the same legs, timestamps and values, in the same order, from the same R/S
split draws.  Every registered scenario is pinned on both trace backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.cluster.tracelog import ColumnarTraceLog
from repro.cluster.tracing import TraceLog
from repro.cluster.versioning import Version
from repro.core.quorum import ReplicaConfig
from repro.faults.recovery import LegSamples, harvest_wars_observations
from repro.scenarios.registry import ScenarioContext, get_scenario, scenario_names
from tests.oracles.harvest import as_tuples, harvest_by_row

#: Writes per scenario trace: enough for every fault plan to bite.
WRITES = 200


def scenario_trace(name: str, backend: str):
    """One block of a registered scenario, simulated as the recovery loop does."""
    scenario = get_scenario(name)
    cluster = DynamoCluster(
        config=ReplicaConfig(3, 1, 1),
        distributions=scenario.distributions_for_cluster(),
        rng=np.random.default_rng(3),
        trace_backend=backend,
        **scenario.cluster_kwargs,
    )
    context = ScenarioContext(
        writes=WRITES,
        write_interval_ms=scenario.write_interval_ms,
        read_offsets_ms=scenario.read_offsets_ms,
        horizon_ms=WRITES * scenario.write_interval_ms,
        rng=np.random.default_rng(4),
    )
    operations = scenario.build_operations(context)
    if scenario.setup is not None:
        scenario.setup(cluster, context)
    WorkloadRunner(cluster).run(operations)
    return cluster.trace_log


def assert_matches_oracle(trace_log, offset_ms: float = 0.0, seed: int = 9) -> LegSamples:
    array_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    samples = harvest_wars_observations(trace_log, offset_ms, array_rng)
    assert as_tuples(samples) == harvest_by_row(trace_log, offset_ms, oracle_rng)
    # Both harvests consumed the split stream identically.
    assert array_rng.random() == oracle_rng.random()
    return samples


@pytest.mark.parametrize("backend", ["columnar", "object"])
@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_matches_the_oracle(name, backend):
    trace_log = scenario_trace(name, backend)
    samples = assert_matches_oracle(trace_log, offset_ms=1_250.0)
    assert len(samples) > 0
    assert samples.leg.dtype == np.int8


@pytest.mark.parametrize("name", ["message-loss", "partition", "gray-failure"])
def test_backends_harvest_identically(name):
    columnar = harvest_wars_observations(
        scenario_trace(name, "columnar"), 0.0, np.random.default_rng(1)
    )
    converted = harvest_wars_observations(
        scenario_trace(name, "object"), 0.0, np.random.default_rng(1)
    )
    assert as_tuples(columnar) == as_tuples(converted)


def hand_built_log() -> ColumnarTraceLog:
    """A log with the cases simulated traces rarely or never produce.

    Write 0 has an ack from a replica whose arrival was never recorded (a
    lost trace) and a replica recorded twice; write 1's events interleave
    with write 0's; read 1 starts before read 0 responds and has a repeated
    response.
    """
    log = ColumnarTraceLog()
    first = log.begin_write(1, "k", Version(1, "c"), "c", 0.0)
    second = log.begin_write(2, "k", Version(2, "c"), "c", 1.0)
    log.note_write_arrival(first, "n1", 2.0)
    log.note_write_arrival(second, "n2", 2.5)
    log.note_write_arrival(first, "n2", 3.0)
    log.note_write_ack(first, "n3", 3.5)  # no recorded arrival at n3
    log.note_write_arrival(first, "n1", 4.0)  # n1 again: keeps its place, new value
    log.note_write_ack(second, "n2", 5.0)
    log.note_write_ack(first, "n1", 6.0)
    log.note_write_ack(first, "n2", 7.0)
    read_a = log.begin_read(3, "k", "c", 10.0)
    read_b = log.begin_read(4, "k", "c", 11.0)
    log.note_read_response(read_b, "n1", 12.0)
    log.note_read_response(read_a, "n2", 13.0)
    log.note_read_response(read_a, "n3", 14.0)
    log.note_read_response(read_b, "n1", 15.0)
    return log


class TestEdgeCases:
    def test_hand_built_log_matches_the_oracle(self):
        samples = assert_matches_oracle(hand_built_log())
        rows = as_tuples(samples)
        assert [leg for leg, _, _ in rows[:6]] == ["W", "W", "A", "A", "W", "A"]
        # The ack from n3 has no arrival, so write 0 yields two A samples.
        assert rows[2] == ("A", 6.0, 2.0) and rows[3] == ("A", 7.0, 4.0)

    def test_object_log_matches_the_oracle(self):
        object_log = hand_built_log().to_object_log()
        assert isinstance(object_log, TraceLog)
        assert_matches_oracle(object_log)

    def test_empty_log_draws_nothing(self):
        rng, untouched = np.random.default_rng(2), np.random.default_rng(2)
        samples = harvest_wars_observations(ColumnarTraceLog(), 0.0, rng)
        assert len(samples) == 0
        assert rng.random() == untouched.random()

    def test_writes_without_reads(self):
        log = ColumnarTraceLog()
        ref = log.begin_write(1, "k", Version(1, "c"), "c", 0.0)
        log.note_write_arrival(ref, "n1", 1.5)
        assert_matches_oracle(log)

    def test_unknown_event_set_is_rejected(self):
        with pytest.raises(ValueError):
            ColumnarTraceLog().event_columns("read_quorum")


class TestLegSamples:
    def test_values_select_one_leg_in_order(self):
        samples = harvest_wars_observations(hand_built_log())
        assert samples.values("W").tolist() == [4.0, 3.0, 1.5]
        assert samples.values("A").tolist() == [2.0, 4.0, 2.5]

    def test_concat_joins_end_to_end(self):
        log = hand_built_log()
        first = harvest_wars_observations(log, 0.0, np.random.default_rng(1))
        second = harvest_wars_observations(log, 100.0, np.random.default_rng(2))
        joined = LegSamples.concat([first, second])
        assert len(joined) == len(first) + len(second)
        assert as_tuples(joined[len(first):]) == as_tuples(second)
        assert as_tuples(joined[: len(first)]) == as_tuples(first)
