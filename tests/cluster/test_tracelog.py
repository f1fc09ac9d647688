"""Unit tests for the struct-of-arrays trace backend.

Pins the columnar pipeline's three contracts:

* the narrow ``begin_*``/``note_*`` recording API produces row views whose
  attribute surface is indistinguishable from the object dataclasses;
* ``ColumnarTraceLog.merge`` concatenates columns in block order, so a merged
  sharded log answers every query exactly like the serial log;
* query caches (sort orders, per-key commit indexes) are invalidated by
  mutation — and on the object log the per-key index is built exactly once,
  never once per query (the ``index_scans`` regression counter).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.tracelog import ColumnarTraceLog, _Column
from repro.cluster.tracing import ReadTrace, TraceLog, WriteTrace
from repro.cluster.versioning import Version


def _record_workload(log, op_base: int = 0) -> None:
    """Drive one small mixed workload through the narrow recording API."""
    w0 = log.begin_write(op_base + 0, "alpha", Version(1, "c-0"), "c-0", 10.0)
    log.note_write_arrival(w0, "node-0", 12.0)
    log.note_write_arrival(w0, "node-1", 15.5)
    log.note_write_ack(w0, "node-0", 13.0)
    log.note_write_commit(w0, 13.0)
    log.note_write_drop(w0, "node-2")

    w1 = log.begin_write(op_base + 1, "beta", Version(2, "c-1"), "c-1", 20.0)
    log.note_write_arrival(w1, "node-1", 24.0)
    # w1 never commits.

    w2 = log.begin_write(op_base + 2, "alpha", Version(3, "c-0"), "c-0", 30.0)
    log.note_write_arrival(w2, "node-0", 31.0)
    log.note_write_ack(w2, "node-0", 32.0)
    log.note_write_commit(w2, 32.0)

    r0 = log.begin_read(op_base + 3, "alpha", "c-0", 40.0)
    log.note_read_response(r0, "node-0", 41.0)
    log.note_read_quorum(r0, "node-0", Version(3, "c-0"))
    log.note_read_complete(r0, Version(3, "c-0"), 41.0)
    log.note_read_late(r0, "node-1", Version(1, "c-0"))
    log.note_read_repair(r0)

    r1 = log.begin_read(op_base + 4, "alpha", "c-1", 50.0)
    log.note_read_response(r1, "node-2", 51.0)
    log.note_read_quorum(r1, "node-2", None)
    log.note_read_complete(r1, None, 51.0)

    r2 = log.begin_read(op_base + 5, "beta", "c-0", 60.0)
    log.note_read_timeout(r2)


def _write_tuple(trace) -> tuple:
    return (
        trace.operation_id,
        trace.key,
        (trace.version.timestamp, trace.version.writer),
        trace.coordinator,
        trace.started_ms,
        trace.committed_ms,
        dict(trace.replica_arrivals_ms),
        dict(trace.ack_arrivals_ms),
        set(trace.dropped_replicas),
        trace.committed,
        trace.commit_latency_ms,
        trace.arrival_offsets_from_commit(),
    )


def _read_tuple(trace) -> tuple:
    return (
        trace.operation_id,
        trace.key,
        trace.coordinator,
        trace.started_ms,
        dict(trace.quorum_responses),
        dict(trace.late_responses),
        dict(trace.response_arrivals_ms),
        trace.returned_version,
        trace.completed_ms,
        trace.timed_out,
        trace.repairs_issued,
        trace.completed,
        trace.latency_ms,
    )


def _log_tuples(log) -> tuple:
    return (
        tuple(_write_tuple(t) for t in log.writes),
        tuple(_read_tuple(t) for t in log.reads),
    )


class TestNarrowApiEquivalence:
    """Both backends fed the same scalar calls expose identical traces."""

    def test_columnar_views_match_object_traces(self):
        columnar = ColumnarTraceLog()
        objects = TraceLog()
        _record_workload(columnar)
        _record_workload(objects)
        assert _log_tuples(columnar) == _log_tuples(objects)

    def test_view_scalars_are_python_types(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        write = log.writes[0]
        assert type(write.operation_id) is int
        assert type(write.started_ms) is float
        assert type(write.committed) is bool
        read = log.reads[0]
        assert type(read.repairs_issued) is int
        assert type(read.timed_out) is bool

    def test_counts_and_uncommitted_sentinels(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert log.write_count == 3
        assert log.read_count == 3
        assert log.writes[1].committed_ms is None
        assert log.writes[1].commit_latency_ms is None
        assert log.writes[1].arrival_offsets_from_commit() == {}
        assert log.reads[1].returned_version is None
        assert log.reads[2].completed is False
        assert log.reads[2].latency_ms is None

    def test_roundtrip_conversions(self):
        columnar = ColumnarTraceLog()
        _record_workload(columnar)
        materialised = columnar.to_object_log()
        assert _log_tuples(materialised) == _log_tuples(columnar)
        back = ColumnarTraceLog.from_object_log(materialised)
        assert _log_tuples(back) == _log_tuples(columnar)

    def test_clear_drops_rows_and_strings(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        log.clear()
        assert log.write_count == 0
        assert log.read_count == 0
        assert log.string_table() == []
        assert log.committed_writes() == []
        assert log.completed_reads() == []
        # The log is reusable after clear.
        _record_workload(log)
        assert log.write_count == 3


class TestColumnViewFreshness:
    """Recording appends to a column's list directly, so ``view()`` must
    notice appends by length and every other mutation by invalidation."""

    def test_view_is_fresh_after_direct_appends(self):
        column = _Column("float64")
        column.values.append(1.0)
        first = column.view()
        assert first.tolist() == [1.0]
        assert column.view() is first  # cached while unchanged
        column.values.append(2.0)
        assert column.view().tolist() == [1.0, 2.0]

    def test_view_is_fresh_after_set_extend_and_clear(self):
        column = _Column("int64")
        column.extend([1, 2, 3])
        assert column.view().tolist() == [1, 2, 3]
        column.set(1, 20)  # same length: only invalidation can catch this
        assert column.view().tolist() == [1, 20, 3]
        column.extend(np.array([4, 5]))
        assert column.view().tolist() == [1, 20, 3, 4, 5]
        column.clear()
        assert column.view().tolist() == []
        column.extend([7])
        assert column.view().tolist() == [7]

    def test_log_columns_track_in_place_recording(self):
        log = ColumnarTraceLog()
        row = log.begin_read(0, "k", "c-0", 1.0)
        assert np.isnan(log.read_columns()["completed_ms"][row])
        log.note_read_complete(row, Version(4, "c-0"), 3.0)
        columns = log.read_columns()
        assert columns["completed_ms"].tolist() == [3.0]
        assert columns["returned_ts"].tolist() == [4]
        assert log.string_table()[columns["returned_writer"][0]] == "c-0"
        write = log.begin_write(1, "k", Version(5, "c-0"), "c-0", 2.0)
        assert np.isnan(log.write_columns()["committed_ms"][write])
        log.note_write_commit(write, 6.0)
        assert log.write_columns()["committed_ms"].tolist() == [6.0]
        assert log.committed_write_rows("k").tolist() == [write]


class TestQueries:
    def test_committed_writes_in_commit_order(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        committed = log.committed_writes("alpha")
        assert [t.operation_id for t in committed] == [0, 2]
        assert [t.committed_ms for t in committed] == [13.0, 32.0]
        assert log.committed_writes("beta") == []
        assert log.committed_writes("missing") == []

    def test_completed_reads_in_start_order(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert [t.operation_id for t in log.completed_reads()] == [3, 4]
        assert [t.operation_id for t in log.completed_reads("alpha")] == [3, 4]
        assert log.completed_reads("beta") == []  # timed out

    def test_latest_committed_version_before(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert log.latest_committed_version_before("alpha", 12.9) is None
        assert log.latest_committed_version_before("alpha", 13.0) == Version(1, "c-0")
        assert log.latest_committed_version_before("alpha", 99.0) == Version(3, "c-0")
        assert log.latest_committed_version_before("missing", 99.0) is None

    def test_commit_time_of(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert log.commit_time_of("alpha", Version(1, "c-0")) == 13.0
        assert log.commit_time_of("alpha", Version(3, "c-0")) == 32.0
        assert log.commit_time_of("alpha", Version(2, "c-1")) is None
        assert log.commit_time_of("alpha", Version(1, "never-seen")) is None

    def test_mutation_invalidates_cached_queries(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert len(log.committed_writes("alpha")) == 2
        ref = log.begin_write(99, "alpha", Version(9, "c-0"), "c-0", 100.0)
        log.note_write_commit(ref, 105.0)
        assert len(log.committed_writes("alpha")) == 3
        assert log.latest_committed_version_before("alpha", 200.0) == Version(9, "c-0")

    def test_writer_sort_ranks_are_lexicographic(self):
        log = ColumnarTraceLog()
        # Intern in an order that differs from string order: "c-10" < "c-2".
        first = log.intern("c-2")
        second = log.intern("c-10")
        ranks = log.writer_sort_ranks()
        assert ranks[second] < ranks[first]


class TestMergeContract:
    """Block-order merge reproduces the serial log bit-for-bit."""

    def test_merge_equals_serial_recording(self):
        serial = ColumnarTraceLog()
        _record_workload(serial, op_base=0)
        _record_workload(serial, op_base=10)

        block_a = ColumnarTraceLog()
        block_b = ColumnarTraceLog()
        _record_workload(block_a, op_base=0)
        _record_workload(block_b, op_base=10)
        merged = ColumnarTraceLog.merge([block_a, block_b])

        assert _log_tuples(merged) == _log_tuples(serial)
        assert merged.string_table() == serial.string_table()
        # Query surfaces agree too (same rows, same order).
        assert [t.operation_id for t in merged.committed_writes("alpha")] == [
            t.operation_id for t in serial.committed_writes("alpha")
        ]
        assert merged.latest_committed_version_before(
            "alpha", 1e9
        ) == serial.latest_committed_version_before("alpha", 1e9)

    def test_merge_remaps_disjoint_string_tables(self):
        block_a = ColumnarTraceLog()
        ref = block_a.begin_write(0, "only-a", Version(1, "w-a"), "co-a", 1.0)
        block_a.note_write_commit(ref, 2.0)
        block_b = ColumnarTraceLog()
        ref = block_b.begin_read(1, "only-b", "co-b", 3.0)
        block_b.note_read_quorum(ref, "nb", Version(1, "w-a"))
        block_b.note_read_complete(ref, Version(1, "w-a"), 4.0)
        merged = ColumnarTraceLog.merge([block_b, block_a])
        assert merged.writes[0].key == "only-a"
        assert merged.reads[0].returned_version == Version(1, "w-a")
        assert merged.reads[0].quorum_responses == {"nb": Version(1, "w-a")}

    def test_merge_of_empty_logs(self):
        merged = ColumnarTraceLog.merge([ColumnarTraceLog(), ColumnarTraceLog()])
        assert merged.write_count == 0
        assert merged.read_count == 0

    def test_column_growth_past_initial_capacity(self):
        log = ColumnarTraceLog()
        for index in range(1_000):  # large enough to force repeated list growth
            ref = log.begin_write(index, "k", Version(index, "c"), "c", float(index))
            log.note_write_commit(ref, float(index) + 0.5)
        assert log.write_count == 1_000
        assert [t.operation_id for t in log.committed_writes("k")][:3] == [0, 1, 2]
        assert log.latest_committed_version_before("k", 1e9) == Version(999, "c")


class TestObjectLogIndexing:
    """The object log's per-key commit index is built once, not per query."""

    def _filled_log(self, writes: int = 50) -> TraceLog:
        log = TraceLog()
        for index in range(writes):
            log.record_write(
                WriteTrace(
                    operation_id=index,
                    key="hot",
                    version=Version(index, "c"),
                    coordinator="c",
                    started_ms=float(index),
                    committed_ms=float(index) + 0.5,
                )
            )
        return log

    def test_repeated_version_queries_scan_the_log_once(self):
        writes = 50
        log = self._filled_log(writes)
        assert log.index_scans == 0
        for probe in range(200):
            log.latest_committed_version_before("hot", float(probe % writes))
            log.commit_time_of("hot", Version(probe % writes, "c"))
        # 400 queries, one index build: the counter advances by one full scan,
        # not one per query.
        assert log.index_scans == writes

    def test_mutation_triggers_exactly_one_rebuild(self):
        writes = 50
        log = self._filled_log(writes)
        log.latest_committed_version_before("hot", 10.0)
        assert log.index_scans == writes
        log.record_write(
            WriteTrace(
                operation_id=writes,
                key="hot",
                version=Version(writes, "c"),
                coordinator="c",
                started_ms=float(writes),
                committed_ms=float(writes) + 0.5,
            )
        )
        for _ in range(10):
            assert log.latest_committed_version_before("hot", 1e9) == Version(writes, "c")
        assert log.index_scans == writes + (writes + 1)

    def test_committed_writes_returns_fresh_copies(self):
        log = self._filled_log(5)
        first = log.committed_writes("hot")
        first.clear()  # callers may mutate their copy...
        assert len(log.committed_writes("hot")) == 5  # ...without corrupting the cache

    def test_narrow_api_mutations_invalidate_caches(self):
        log = TraceLog()
        ref = log.begin_write(0, "k", Version(1, "c"), "c", 0.0)
        assert log.committed_writes("k") == []
        log.note_write_commit(ref, 1.0)
        assert len(log.committed_writes("k")) == 1
        read = log.begin_read(1, "k", "c", 2.0)
        log.note_read_complete(read, Version(1, "c"), 3.0)
        assert len(log.completed_reads("k")) == 1
        log.note_read_timeout(read)
        assert log.completed_reads("k") == []


class TestBackendSelection:
    def test_store_rejects_unknown_trace_backend(self):
        from repro.cluster.store import DynamoCluster
        from repro.core.quorum import ReplicaConfig
        from repro.exceptions import ConfigurationError
        from repro.latency.distributions import ExponentialLatency
        from repro.latency.production import WARSDistributions

        distributions = WARSDistributions.symmetric(ExponentialLatency.from_mean(1.0))
        with pytest.raises(ConfigurationError):
            DynamoCluster(
                ReplicaConfig(3, 1, 1), distributions, trace_backend="parquet"
            )

    def test_store_backend_types(self):
        from repro.cluster.store import DynamoCluster
        from repro.core.quorum import ReplicaConfig
        from repro.latency.distributions import ExponentialLatency
        from repro.latency.production import WARSDistributions

        distributions = WARSDistributions.symmetric(ExponentialLatency.from_mean(1.0))
        columnar = DynamoCluster(ReplicaConfig(3, 1, 1), distributions)
        assert isinstance(columnar.trace_log, ColumnarTraceLog)
        objects = DynamoCluster(
            ReplicaConfig(3, 1, 1), distributions, trace_backend="object"
        )
        assert isinstance(objects.trace_log, TraceLog)
