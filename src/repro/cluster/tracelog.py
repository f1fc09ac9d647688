"""Struct-of-arrays trace storage: the columnar twin of :mod:`repro.cluster.tracing`.

The object ``TraceLog`` spends a dataclass, two dicts, and a set on every
operation; at 10^5+ writes per validation cell that is per-event allocator and
GC churn the analysis layer then has to undo (re-sorting, re-grouping) before
it can answer a single staleness query.  ``ColumnarTraceLog`` stores the same
information as append-only columns (Python lists with cached numpy views):

* one row per write / read with scalar columns (``started_ms``,
  ``committed_ms``, interned key/coordinator ids, version timestamp + writer
  ids), and
* flat ``(row, node, time)`` triplet columns for the per-replica events
  (write arrivals, write acks, read responses) plus ``(row, node, version)``
  triplets for quorum/late read responses and ``(row, node)`` pairs for drops.

Recording happens through a narrow scalar API (``begin_write`` /
``note_write_*`` / ``begin_read`` / ``note_read_*``) shared with the object
backend, so the coordinator never builds per-operation containers; each call
appends straight to the column lists, one Python frame per call.  The
familiar ``WriteTrace``/``ReadTrace`` attribute surface survives as lazy row
views (:class:`ColumnarWriteTrace` / :class:`ColumnarReadTrace`) materialised
only when somebody asks.

``ColumnarTraceLog.merge`` concatenates logs column-wise in block order —
the same contract the sharded sweep engine relies on everywhere else — so a
sharded run's merged log is bit-for-bit the serial log.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.cluster.tracing import ReadTrace, TraceLog, WriteTrace
from repro.cluster.versioning import Version

__all__ = [
    "ColumnarTraceLog",
    "ColumnarWriteTrace",
    "ColumnarReadTrace",
]

_NO_VERSION = -1  # sentinel for "replica answered with no value" / "read returned None"


class _Column:
    """One append-optimised column: a Python list with a cached ndarray view.

    Scalar appends and in-place updates sit on the recording hot path — every
    simulated message touches one — so storage is a plain list (C-speed
    ``append``/``__setitem__``, no per-scalar numpy boxing).  The log's
    recording methods append to :attr:`values` directly, with no Python frame
    per scalar.  The analysis layer sees numpy through :meth:`view`,
    materialised once per log state, so a 50k-write analysis pass pays exactly
    one list→array conversion per column.  A cached view whose length differs
    from the list's is stale (appends never touch the cache); in-place
    updates (:meth:`set`), :meth:`extend` and :meth:`clear` drop it
    explicitly.
    """

    __slots__ = ("values", "_dtype", "_view")

    def __init__(self, dtype: str) -> None:
        self.values: list = []
        self._dtype = dtype
        self._view: "np.ndarray | None" = None

    @property
    def size(self) -> int:
        """Number of recorded scalars."""
        return len(self.values)

    def set(self, index: int, value) -> None:
        """Overwrite one scalar in place (commit times, timeout flags, ...)."""
        self.values[index] = value
        self._view = None

    def view(self) -> np.ndarray:
        """The column as an ndarray, cached until the next mutation."""
        view = self._view
        if view is None or view.shape[0] != len(self.values):
            self._view = view = np.asarray(self.values, dtype=self._dtype)
        return view

    def extend(self, values) -> None:
        """Append a whole array or list (used by :meth:`ColumnarTraceLog.merge`)."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        self.values.extend(values)
        self._view = None

    def clear(self) -> None:
        """Reset to empty."""
        self.values.clear()
        self._view = None


class _EventColumns:
    """Flat (row, node, value) triplet columns for per-replica events."""

    __slots__ = ("row", "node", "value")

    def __init__(self, value_dtype: str = "float64") -> None:
        self.row = _Column("int64")
        self.node = _Column("int64")
        self.value = _Column(value_dtype)

    def clear(self) -> None:
        """Reset all three columns."""
        self.row.clear()
        self.node.clear()
        self.value.clear()


class _VersionColumns:
    """Flat (row, node, version-ts, version-writer) columns for read responses."""

    __slots__ = ("row", "node", "ts", "writer")

    def __init__(self) -> None:
        self.row = _Column("int64")
        self.node = _Column("int64")
        self.ts = _Column("int64")
        self.writer = _Column("int64")

    def clear(self) -> None:
        """Reset all four columns."""
        self.row.clear()
        self.node.clear()
        self.ts.clear()
        self.writer.clear()


class _RowIndex:
    """row → triplet positions lookup built once per (log state, triplet set)."""

    __slots__ = ("order", "sorted_rows")

    def __init__(self, rows: np.ndarray) -> None:
        self.order = np.argsort(rows, kind="stable")
        self.sorted_rows = rows[self.order]

    def positions(self, row: int) -> np.ndarray:
        """Positions of ``row``'s events, in recording order."""
        lo = np.searchsorted(self.sorted_rows, row, side="left")
        hi = np.searchsorted(self.sorted_rows, row, side="right")
        return self.order[lo:hi]


class _EventTable:
    """One triplet set collapsed to the per-row ``{node: value}`` dict views.

    The views assign a row's events to a dict in recording order, so a node
    recorded twice for one row keeps its first place but its last value.
    This holds that rule as arrays: one entry per distinct ``(row, node)``
    pair, ``rows``/``nodes``/``values`` in the order iterating the views row
    by row visits them, and the sorted pair ``keys`` (with ``keyed_values``)
    for lookups by pair.
    """

    __slots__ = ("rows", "nodes", "values", "_width", "_keys", "_keyed_values")

    def __init__(self, columns: _EventColumns, width: int) -> None:
        row = columns.row.view()
        node = columns.node.view()
        value = columns.value.view()
        keys = row * width + node
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        # Keys are non-negative, so a -1 pad makes both ends of every run a change.
        first = by_key[np.diff(sorted_keys, prepend=-1) != 0]
        last = by_key[np.diff(sorted_keys, append=-1) != 0]
        self._width = width
        self._keys = keys[first]
        self._keyed_values = value[last]
        visit = np.lexsort((first, row[first]))
        self.rows = row[first][visit]
        self.nodes = node[first][visit]
        self.values = self._keyed_values[visit]
        for shared in (self.rows, self.nodes, self.values):
            shared.setflags(write=False)  # cached and handed out as is

    def lookup(self, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The value recorded for each ``(row, node)`` pair, NaN where none was."""
        keys = np.asarray(rows) * self._width + np.asarray(nodes)
        slot = np.searchsorted(self._keys, keys)
        found = slot < self._keys.size
        found[found] = self._keys[slot[found]] == keys[found]
        result = np.full(keys.shape, np.nan)
        result[found] = self._keyed_values[slot[found]]
        return result


class ColumnarWriteTrace:
    """Lazy row view over a :class:`ColumnarTraceLog` write, WriteTrace-shaped."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: "ColumnarTraceLog", row: int) -> None:
        self._log = log
        self._row = row

    @property
    def operation_id(self) -> int:
        """The operation id assigned by the coordinator."""
        return int(self._log._w_op.values[self._row])

    @property
    def key(self) -> str:
        """The written key."""
        return self._log._strings[self._log._w_key.values[self._row]]

    @property
    def version(self) -> Version:
        """The version this write created."""
        log = self._log
        return Version(
            int(log._w_ver_ts.values[self._row]),
            log._strings[log._w_ver_writer.values[self._row]],
        )

    @property
    def coordinator(self) -> str:
        """Node id of the coordinating node."""
        return self._log._strings[self._log._w_coord.values[self._row]]

    @property
    def started_ms(self) -> float:
        """Simulation time the write was issued."""
        return float(self._log._w_started.values[self._row])

    @property
    def committed_ms(self) -> Optional[float]:
        """Commit time, or ``None`` for uncommitted writes."""
        value = self._log._w_committed.values[self._row]
        return None if math.isnan(value) else float(value)

    @property
    def replica_arrivals_ms(self) -> dict[str, float]:
        """Per-replica arrival time of the write message (the W leg), by node id."""
        return self._log._event_dict(self._log._w_arrivals, "w_arrivals", self._row)

    @property
    def ack_arrivals_ms(self) -> dict[str, float]:
        """Per-replica acknowledgement arrival time at the coordinator (W + A legs)."""
        return self._log._event_dict(self._log._w_acks, "w_acks", self._row)

    @property
    def dropped_replicas(self) -> set[str]:
        """Replicas whose write message was dropped (failure or partition)."""
        log = self._log
        index = log._row_index(log._w_drops, "w_drops")
        strings = log._strings
        node = log._w_drops.node.values
        return {strings[node[p]] for p in index.positions(self._row)}

    @property
    def committed(self) -> bool:
        """True when the coordinator received its write quorum."""
        return not math.isnan(self._log._w_committed.values[self._row])

    @property
    def commit_latency_ms(self) -> Optional[float]:
        """Commit (write operation) latency, or ``None`` for uncommitted writes."""
        committed = self.committed_ms
        if committed is None:
            return None
        return committed - self.started_ms

    def arrival_offsets_from_commit(self) -> dict[str, float]:
        """Per-replica arrival time relative to commit (negative = before commit)."""
        committed = self.committed_ms
        if committed is None:
            return {}
        return {
            replica: arrival - committed
            for replica, arrival in self.replica_arrivals_ms.items()
        }


class ColumnarReadTrace:
    """Lazy row view over a :class:`ColumnarTraceLog` read, ReadTrace-shaped."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: "ColumnarTraceLog", row: int) -> None:
        self._log = log
        self._row = row

    @property
    def operation_id(self) -> int:
        """The operation id assigned by the coordinator."""
        return int(self._log._r_op.values[self._row])

    @property
    def key(self) -> str:
        """The read key."""
        return self._log._strings[self._log._r_key.values[self._row]]

    @property
    def coordinator(self) -> str:
        """Node id of the coordinating node."""
        return self._log._strings[self._log._r_coord.values[self._row]]

    @property
    def started_ms(self) -> float:
        """Simulation time the read was issued."""
        return float(self._log._r_started.values[self._row])

    @property
    def quorum_responses(self) -> dict[str, Optional[Version]]:
        """The first R responses (node id → version, None when replica was empty)."""
        return self._log._version_dict(self._log._r_quorum, "r_quorum", self._row)

    @property
    def late_responses(self) -> dict[str, Optional[Version]]:
        """Responses that arrived after the operation already returned."""
        return self._log._version_dict(self._log._r_late, "r_late", self._row)

    @property
    def response_arrivals_ms(self) -> dict[str, float]:
        """Per-replica response arrival time at the coordinator (R + S legs)."""
        return self._log._event_dict(self._log._r_responses, "r_responses", self._row)

    @property
    def returned_version(self) -> Optional[Version]:
        """Version the coordinator returned to the client (None = key not found)."""
        log = self._log
        ts = log._r_ret_ts.values[self._row]
        if ts == _NO_VERSION:
            return None
        return Version(int(ts), log._strings[log._r_ret_writer.values[self._row]])

    @property
    def completed_ms(self) -> Optional[float]:
        """Completion time, or ``None`` when the read never assembled a quorum."""
        value = self._log._r_completed.values[self._row]
        return None if math.isnan(value) else float(value)

    @property
    def timed_out(self) -> bool:
        """True when the read gave up before assembling R responses."""
        return bool(self._log._r_timeout.values[self._row])

    @property
    def repairs_issued(self) -> int:
        """Number of read-repair pushes this read triggered (0 when disabled)."""
        return int(self._log._r_repairs.values[self._row])

    @property
    def completed(self) -> bool:
        """True when the coordinator assembled a read quorum before timing out."""
        return not math.isnan(self._log._r_completed.values[self._row]) and not self.timed_out

    @property
    def latency_ms(self) -> Optional[float]:
        """Read operation latency, or ``None`` for timed-out reads."""
        completed = self.completed_ms
        if completed is None:
            return None
        return completed - self.started_ms


class ColumnarTraceLog:
    """Struct-of-arrays trace store with the same query surface as ``TraceLog``.

    The recording API is narrow and scalar-only; views and queries reconstruct
    the object shapes lazily.  All query indexes are cached and invalidated by
    a mutation counter, so repeated analysis passes touch numpy only once.
    """

    __slots__ = (
        "_strings",
        "_string_ids",
        "_w_op",
        "_w_key",
        "_w_ver_ts",
        "_w_ver_writer",
        "_w_coord",
        "_w_started",
        "_w_committed",
        "_w_arrivals",
        "_w_acks",
        "_w_drops",
        "_r_op",
        "_r_key",
        "_r_coord",
        "_r_started",
        "_r_completed",
        "_r_timeout",
        "_r_ret_ts",
        "_r_ret_writer",
        "_r_repairs",
        "_r_responses",
        "_r_quorum",
        "_r_late",
        "_mutations",
        "_cache_token",
        "_cache",
    )

    def __init__(self) -> None:
        self._strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        # Write rows.
        self._w_op = _Column("int64")
        self._w_key = _Column("int64")
        self._w_ver_ts = _Column("int64")
        self._w_ver_writer = _Column("int64")
        self._w_coord = _Column("int64")
        self._w_started = _Column("float64")
        self._w_committed = _Column("float64")
        # Write per-replica events.
        self._w_arrivals = _EventColumns()
        self._w_acks = _EventColumns()
        self._w_drops = _EventColumns("int64")  # value column unused (always 0)
        # Read rows.
        self._r_op = _Column("int64")
        self._r_key = _Column("int64")
        self._r_coord = _Column("int64")
        self._r_started = _Column("float64")
        self._r_completed = _Column("float64")
        self._r_timeout = _Column("int64")
        self._r_ret_ts = _Column("int64")
        self._r_ret_writer = _Column("int64")
        self._r_repairs = _Column("int64")
        # Read per-replica events.
        self._r_responses = _EventColumns()
        self._r_quorum = _VersionColumns()
        self._r_late = _VersionColumns()
        self._mutations = 0
        self._cache_token = -1
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # String interning.
    # ------------------------------------------------------------------
    def intern(self, value: str) -> int:
        """Intern a string (key / node id / writer), returning its table id."""
        ids = self._string_ids
        found = ids.get(value)
        if found is None:
            found = len(self._strings)
            self._strings.append(value)
            ids[value] = found
        return found

    def string_table(self) -> list[str]:
        """The interned string table (id → string), shared by all columns."""
        return self._strings

    def interned_id(self, value: str) -> Optional[int]:
        """The table id of ``value``, or ``None`` if it was never recorded."""
        return self._string_ids.get(value)

    # ------------------------------------------------------------------
    # Narrow recording API — write lifecycle.
    #
    # These run once per simulated message, so they append to the column
    # lists directly and intern node ids with an inline dict lookup: no
    # Python frame is spent per scalar, only on a string's first sighting.
    # ------------------------------------------------------------------
    def begin_write(
        self,
        operation_id: int,
        key: str,
        version: Version,
        coordinator: str,
        started_ms: float,
    ) -> int:
        """Open a write row; returns the row reference used by ``note_write_*``."""
        ids = self._string_ids
        key_id = ids.get(key)
        if key_id is None:
            key_id = self.intern(key)
        writer = version.writer
        writer_id = ids.get(writer)
        if writer_id is None:
            writer_id = self.intern(writer)
        coordinator_id = ids.get(coordinator)
        if coordinator_id is None:
            coordinator_id = self.intern(coordinator)
        operations = self._w_op.values
        row = len(operations)
        operations.append(operation_id)
        self._w_key.values.append(key_id)
        self._w_ver_ts.values.append(version.timestamp)
        self._w_ver_writer.values.append(writer_id)
        self._w_coord.values.append(coordinator_id)
        self._w_started.values.append(started_ms)
        self._w_committed.values.append(math.nan)
        self._mutations += 1
        return row

    def note_write_arrival(self, ref: int, node_id: str, time_ms: float) -> None:
        """Record the write message reaching a replica (the W leg)."""
        node = self._string_ids.get(node_id)
        if node is None:
            node = self.intern(node_id)
        columns = self._w_arrivals
        columns.row.values.append(ref)
        columns.node.values.append(node)
        columns.value.values.append(time_ms)
        self._mutations += 1

    def note_write_ack(self, ref: int, node_id: str, time_ms: float) -> None:
        """Record a replica acknowledgement reaching the coordinator (W + A legs)."""
        node = self._string_ids.get(node_id)
        if node is None:
            node = self.intern(node_id)
        columns = self._w_acks
        columns.row.values.append(ref)
        columns.node.values.append(node)
        columns.value.values.append(time_ms)
        self._mutations += 1

    def note_write_commit(self, ref: int, time_ms: float) -> None:
        """Record the coordinator assembling its write quorum."""
        committed = self._w_committed
        committed.values[ref] = time_ms
        committed._view = None
        self._mutations += 1

    def note_write_drop(self, ref: int, node_id: str) -> None:
        """Record a write message dropped on the way to a replica."""
        node = self._string_ids.get(node_id)
        if node is None:
            node = self.intern(node_id)
        columns = self._w_drops
        columns.row.values.append(ref)
        columns.node.values.append(node)
        columns.value.values.append(0)
        self._mutations += 1

    def write_view(self, ref: int) -> ColumnarWriteTrace:
        """A lazy ``WriteTrace``-shaped view of a write row."""
        return ColumnarWriteTrace(self, ref)

    # ------------------------------------------------------------------
    # Narrow recording API — read lifecycle (same inlining as writes).
    # ------------------------------------------------------------------
    def begin_read(
        self, operation_id: int, key: str, coordinator: str, started_ms: float
    ) -> int:
        """Open a read row; returns the row reference used by ``note_read_*``."""
        ids = self._string_ids
        key_id = ids.get(key)
        if key_id is None:
            key_id = self.intern(key)
        coordinator_id = ids.get(coordinator)
        if coordinator_id is None:
            coordinator_id = self.intern(coordinator)
        operations = self._r_op.values
        row = len(operations)
        operations.append(operation_id)
        self._r_key.values.append(key_id)
        self._r_coord.values.append(coordinator_id)
        self._r_started.values.append(started_ms)
        self._r_completed.values.append(math.nan)
        self._r_timeout.values.append(0)
        self._r_ret_ts.values.append(_NO_VERSION)
        self._r_ret_writer.values.append(_NO_VERSION)
        self._r_repairs.values.append(0)
        self._mutations += 1
        return row

    def note_read_response(self, ref: int, node_id: str, time_ms: float) -> None:
        """Record a replica response reaching the coordinator (R + S legs)."""
        node = self._string_ids.get(node_id)
        if node is None:
            node = self.intern(node_id)
        columns = self._r_responses
        columns.row.values.append(ref)
        columns.node.values.append(node)
        columns.value.values.append(time_ms)
        self._mutations += 1

    def note_read_quorum(self, ref: int, node_id: str, version: Optional[Version]) -> None:
        """Record a response counted among the first R."""
        ids = self._string_ids
        node = ids.get(node_id)
        if node is None:
            node = self.intern(node_id)
        if version is None:
            ts = writer = _NO_VERSION
        else:
            ts = version.timestamp
            writer = ids.get(version.writer)
            if writer is None:
                writer = self.intern(version.writer)
        columns = self._r_quorum
        columns.row.values.append(ref)
        columns.node.values.append(node)
        columns.ts.values.append(ts)
        columns.writer.values.append(writer)
        self._mutations += 1

    def note_read_late(self, ref: int, node_id: str, version: Optional[Version]) -> None:
        """Record a response that arrived after the read already returned."""
        ids = self._string_ids
        node = ids.get(node_id)
        if node is None:
            node = self.intern(node_id)
        if version is None:
            ts = writer = _NO_VERSION
        else:
            ts = version.timestamp
            writer = ids.get(version.writer)
            if writer is None:
                writer = self.intern(version.writer)
        columns = self._r_late
        columns.row.values.append(ref)
        columns.node.values.append(node)
        columns.ts.values.append(ts)
        columns.writer.values.append(writer)
        self._mutations += 1

    def note_read_complete(
        self, ref: int, version: Optional[Version], time_ms: float
    ) -> None:
        """Record the read returning ``version`` to the client at ``time_ms``."""
        completed = self._r_completed
        completed.values[ref] = time_ms
        completed._view = None
        if version is not None:
            writer = self._string_ids.get(version.writer)
            if writer is None:
                writer = self.intern(version.writer)
            returned_ts = self._r_ret_ts
            returned_ts.values[ref] = version.timestamp
            returned_ts._view = None
            returned_writer = self._r_ret_writer
            returned_writer.values[ref] = writer
            returned_writer._view = None
        self._mutations += 1

    def note_read_timeout(self, ref: int) -> None:
        """Record the read giving up before assembling R responses."""
        self._r_timeout.set(ref, 1)
        self._mutations += 1

    def note_read_repair(self, ref: int) -> None:
        """Record one read-repair push triggered by this read."""
        self._r_repairs.set(ref, self._r_repairs.values[ref] + 1)
        self._mutations += 1

    def read_view(self, ref: int) -> ColumnarReadTrace:
        """A lazy ``ReadTrace``-shaped view of a read row."""
        return ColumnarReadTrace(self, ref)

    # ------------------------------------------------------------------
    # Object-trace ingestion (conversion from the object backend).
    # ------------------------------------------------------------------
    def record_write(self, trace: WriteTrace) -> None:
        """Ingest a fully-built object ``WriteTrace`` (conversion/back-compat)."""
        ref = self.begin_write(
            trace.operation_id, trace.key, trace.version, trace.coordinator, trace.started_ms
        )
        for node_id, time_ms in trace.replica_arrivals_ms.items():
            self.note_write_arrival(ref, node_id, time_ms)
        for node_id, time_ms in trace.ack_arrivals_ms.items():
            self.note_write_ack(ref, node_id, time_ms)
        for node_id in sorted(trace.dropped_replicas):
            self.note_write_drop(ref, node_id)
        if trace.committed_ms is not None:
            self.note_write_commit(ref, trace.committed_ms)

    def record_read(self, trace: ReadTrace) -> None:
        """Ingest a fully-built object ``ReadTrace`` (conversion/back-compat)."""
        ref = self.begin_read(
            trace.operation_id, trace.key, trace.coordinator, trace.started_ms
        )
        for node_id, time_ms in trace.response_arrivals_ms.items():
            self.note_read_response(ref, node_id, time_ms)
        for node_id, version in trace.quorum_responses.items():
            self.note_read_quorum(ref, node_id, version)
        for node_id, version in trace.late_responses.items():
            self.note_read_late(ref, node_id, version)
        if trace.completed_ms is not None or trace.returned_version is not None:
            completed = trace.completed_ms
            self.note_read_complete(
                ref, trace.returned_version, math.nan if completed is None else completed
            )
        if trace.timed_out:
            self.note_read_timeout(ref)
        for _ in range(trace.repairs_issued):
            self.note_read_repair(ref)

    @classmethod
    def from_object_log(cls, log: TraceLog) -> "ColumnarTraceLog":
        """Convert an object ``TraceLog`` into a columnar one, in record order."""
        columnar = cls()
        for trace in log.writes:
            columnar.record_write(trace)
        for trace in log.reads:
            columnar.record_read(trace)
        return columnar

    def to_object_log(self) -> TraceLog:
        """Materialise an object ``TraceLog`` with equal traces, in record order."""
        log = TraceLog()
        for view in self.writes:
            log.record_write(
                WriteTrace(
                    operation_id=view.operation_id,
                    key=view.key,
                    version=view.version,
                    coordinator=view.coordinator,
                    started_ms=view.started_ms,
                    replica_arrivals_ms=view.replica_arrivals_ms,
                    ack_arrivals_ms=view.ack_arrivals_ms,
                    committed_ms=view.committed_ms,
                    dropped_replicas=view.dropped_replicas,
                )
            )
        for view in self.reads:
            log.record_read(
                ReadTrace(
                    operation_id=view.operation_id,
                    key=view.key,
                    coordinator=view.coordinator,
                    started_ms=view.started_ms,
                    quorum_responses=view.quorum_responses,
                    late_responses=view.late_responses,
                    response_arrivals_ms=view.response_arrivals_ms,
                    returned_version=view.returned_version,
                    completed_ms=view.completed_ms,
                    timed_out=view.timed_out,
                    repairs_issued=view.repairs_issued,
                )
            )
        return log

    # ------------------------------------------------------------------
    # Row-view sequences (back-compat with ``TraceLog.writes`` / ``.reads``).
    # ------------------------------------------------------------------
    @property
    def writes(self) -> list[ColumnarWriteTrace]:
        """Lazy views of every write row, in record order."""
        return [ColumnarWriteTrace(self, row) for row in range(self._w_op.size)]

    @property
    def reads(self) -> list[ColumnarReadTrace]:
        """Lazy views of every read row, in record order."""
        return [ColumnarReadTrace(self, row) for row in range(self._r_op.size)]

    @property
    def write_count(self) -> int:
        """Number of write rows recorded."""
        return self._w_op.size

    @property
    def read_count(self) -> int:
        """Number of read rows recorded."""
        return self._r_op.size

    # ------------------------------------------------------------------
    # Column accessors for the vectorized analysis layer.
    # ------------------------------------------------------------------
    def write_columns(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the scalar write columns, keyed by name."""
        return {
            "operation_id": self._w_op.view(),
            "key": self._w_key.view(),
            "version_ts": self._w_ver_ts.view(),
            "version_writer": self._w_ver_writer.view(),
            "coordinator": self._w_coord.view(),
            "started_ms": self._w_started.view(),
            "committed_ms": self._w_committed.view(),
        }

    def read_columns(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the scalar read columns, keyed by name."""
        return {
            "operation_id": self._r_op.view(),
            "key": self._r_key.view(),
            "coordinator": self._r_coord.view(),
            "started_ms": self._r_started.view(),
            "completed_ms": self._r_completed.view(),
            "timed_out": self._r_timeout.view(),
            "returned_ts": self._r_ret_ts.view(),
            "returned_writer": self._r_ret_writer.view(),
            "repairs": self._r_repairs.view(),
        }

    def event_columns(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, node, value)`` arrays of one per-replica event set, as the views see it.

        ``name`` is ``"write_arrivals"`` (the W leg), ``"write_acks"`` (W + A)
        or ``"read_responses"`` (R + S).  There is one entry per distinct
        ``(row, node)`` pair, in the order iterating the per-row dict views
        (``replica_arrivals_ms``, ``ack_arrivals_ms``,
        ``response_arrivals_ms``) row by row visits it, with the value that
        view holds.  ``row`` indexes the write or read columns, ``node`` the
        string table, and ``value`` is the event's arrival time (ms).
        """
        table = self._event_table(name)
        return table.rows, table.nodes, table.values

    def event_values(self, name: str, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The time (ms) event set ``name`` holds for each ``(row, node)``, NaN if none.

        Vectorised ``view.<event dict>.get(node)`` over many pairs, e.g. the
        write arrival behind each ack.
        """
        return self._event_table(name).lookup(rows, nodes)

    def writer_sort_ranks(self) -> np.ndarray:
        """Rank of each interned string under lexicographic string order.

        Interning order is arrival order, which is *not* lexicographic (e.g.
        ``"coordinator-10" < "coordinator-2"``), so version comparisons over
        encoded columns must rank writers by sorted string value.  Cached per
        log state.
        """
        cache = self._query_cache()
        ranks = cache.get("writer_ranks")
        if ranks is None:
            order = sorted(range(len(self._strings)), key=self._strings.__getitem__)
            ranks = np.empty(len(order), dtype=np.int64)
            ranks[np.asarray(order, dtype=np.int64)] = np.arange(len(order), dtype=np.int64)
            cache["writer_ranks"] = ranks
        return ranks

    # ------------------------------------------------------------------
    # Cached query indexes.
    # ------------------------------------------------------------------
    def _query_cache(self) -> dict:
        if self._cache_token != self._mutations:
            self._cache = {}
            self._cache_token = self._mutations
        return self._cache

    def _row_index(self, columns, name: str) -> _RowIndex:
        cache = self._query_cache()
        index = cache.get(name)
        if index is None:
            index = _RowIndex(columns.row.view())
            cache[name] = index
        return index

    def _event_table(self, name: str) -> _EventTable:
        columns = {
            "write_arrivals": self._w_arrivals,
            "write_acks": self._w_acks,
            "read_responses": self._r_responses,
        }.get(name)
        if columns is None:
            raise ValueError(f"unknown event set {name!r}")
        cache = self._query_cache()
        table = cache.get(("events", name))
        if table is None:
            table = _EventTable(columns, len(self._strings))
            cache[("events", name)] = table
        return table

    def _event_dict(self, columns: _EventColumns, name: str, row: int) -> dict[str, float]:
        index = self._row_index(columns, name)
        strings = self._strings
        node = columns.node.values
        value = columns.value.values
        return {strings[node[p]]: float(value[p]) for p in index.positions(row)}

    def _version_dict(
        self, columns: _VersionColumns, name: str, row: int
    ) -> dict[str, Optional[Version]]:
        index = self._row_index(columns, name)
        strings = self._strings
        node = columns.node.values
        ts = columns.ts.values
        writer = columns.writer.values
        result: dict[str, Optional[Version]] = {}
        for p in index.positions(row):
            stamp = ts[p]
            result[strings[node[p]]] = (
                None if stamp == _NO_VERSION else Version(int(stamp), strings[writer[p]])
            )
        return result

    def _committed_order(self, key: str | None) -> np.ndarray:
        """Committed write rows sorted by commit time (stable), cached."""
        cache = self._query_cache()
        cached = cache.get(("committed", key))
        if cached is None:
            committed = self._w_committed.view()
            mask = ~np.isnan(committed)
            if key is not None:
                key_id = self._string_ids.get(key)
                if key_id is None:
                    mask = np.zeros_like(mask)
                else:
                    mask = mask & (self._w_key.view() == key_id)
            rows = np.flatnonzero(mask)
            cached = rows[np.argsort(committed[rows], kind="stable")]
            cache[("committed", key)] = cached
        return cached

    def _completed_order(self, key: str | None) -> np.ndarray:
        """Completed read rows sorted by start time (stable), cached."""
        cache = self._query_cache()
        cached = cache.get(("completed", key))
        if cached is None:
            completed = self._r_completed.view()
            mask = ~np.isnan(completed) & (self._r_timeout.view() == 0)
            if key is not None:
                key_id = self._string_ids.get(key)
                if key_id is None:
                    mask = np.zeros_like(mask)
                else:
                    mask = mask & (self._r_key.view() == key_id)
            rows = np.flatnonzero(mask)
            cached = rows[np.argsort(self._r_started.view()[rows], kind="stable")]
            cache[("completed", key)] = cached
        return cached

    def _key_commit_index(self, key: str):
        """(commit times, prefix-max Versions, version → commit time) for one key."""
        cache = self._query_cache()
        cached = cache.get(("key_index", key))
        if cached is None:
            rows = self._committed_order(key)
            times = self._w_committed.view()[rows]
            ts = self._w_ver_ts.view()[rows]
            writer = self._w_ver_writer.view()[rows]
            prefix_max: list[Version] = []
            best: Optional[Version] = None
            strings = self._strings
            for position in range(rows.shape[0]):
                candidate = Version(int(ts[position]), strings[writer[position]])
                if best is None or candidate > best:
                    best = candidate
                prefix_max.append(best)
            version_times = {
                (int(ts[position]), int(writer[position])): float(times[position])
                for position in range(rows.shape[0])
            }
            cached = (times, prefix_max, version_times)
            cache[("key_index", key)] = cached
        return cached

    # ------------------------------------------------------------------
    # Queries used by the analysis package (TraceLog-compatible surface).
    # ------------------------------------------------------------------
    def committed_write_rows(self, key: str | None = None) -> np.ndarray:
        """Committed write row ids in commit-time order (the analysis column order)."""
        return self._committed_order(key)

    def completed_read_rows(self, key: str | None = None) -> np.ndarray:
        """Completed read row ids in start-time order (the analysis column order)."""
        return self._completed_order(key)

    def committed_writes(self, key: str | None = None) -> list[ColumnarWriteTrace]:
        """All committed writes, optionally restricted to one key, in commit order."""
        return [ColumnarWriteTrace(self, int(row)) for row in self._committed_order(key)]

    def completed_reads(self, key: str | None = None) -> list[ColumnarReadTrace]:
        """All completed reads, optionally restricted to one key, in start order."""
        return [ColumnarReadTrace(self, int(row)) for row in self._completed_order(key)]

    def latest_committed_version_before(self, key: str, time_ms: float) -> Optional[Version]:
        """The newest version of ``key`` whose commit time is <= ``time_ms``."""
        times, prefix_max, _ = self._key_commit_index(key)
        position = int(np.searchsorted(times, time_ms, side="right"))
        if position == 0:
            return None
        return prefix_max[position - 1]

    def commit_time_of(self, key: str, version: Version) -> Optional[float]:
        """Commit time of a specific version, or ``None`` if it never committed."""
        _, _, version_times = self._key_commit_index(key)
        writer_id = self._string_ids.get(version.writer)
        if writer_id is None:
            return None
        return version_times.get((version.timestamp, writer_id))

    def clear(self) -> None:
        """Drop all recorded traces (string table included)."""
        for name in self.__slots__:
            if name.startswith(("_w_", "_r_")):
                getattr(self, name).clear()
        self._strings = []
        self._string_ids = {}
        self._mutations += 1

    # ------------------------------------------------------------------
    # Block merge (sharded runs).
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, logs: Sequence["ColumnarTraceLog"]) -> "ColumnarTraceLog":
        """Concatenate logs column-wise in block order.

        String ids and triplet row references are remapped, so merging the
        per-block logs of a sharded run reproduces the serial log's query
        results exactly (same rows, same order, same strings).
        """
        merged = cls()
        for log in logs:
            remap = np.asarray(
                [merged.intern(value) for value in log._strings], dtype=np.int64
            )
            write_offset = merged._w_op.size
            read_offset = merged._r_op.size
            merged._w_op.extend(log._w_op.view())
            merged._w_key.extend(remap[log._w_key.view()] if log._w_key.size else log._w_key.view())
            merged._w_ver_ts.extend(log._w_ver_ts.view())
            merged._w_ver_writer.extend(
                remap[log._w_ver_writer.view()] if log._w_ver_writer.size else log._w_ver_writer.view()
            )
            merged._w_coord.extend(
                remap[log._w_coord.view()] if log._w_coord.size else log._w_coord.view()
            )
            merged._w_started.extend(log._w_started.view())
            merged._w_committed.extend(log._w_committed.view())
            for source, target in (
                (log._w_arrivals, merged._w_arrivals),
                (log._w_acks, merged._w_acks),
                (log._w_drops, merged._w_drops),
            ):
                target.row.extend(source.row.view() + write_offset)
                target.node.extend(
                    remap[source.node.view()] if source.node.size else source.node.view()
                )
                target.value.extend(source.value.view())
            merged._r_op.extend(log._r_op.view())
            merged._r_key.extend(remap[log._r_key.view()] if log._r_key.size else log._r_key.view())
            merged._r_coord.extend(
                remap[log._r_coord.view()] if log._r_coord.size else log._r_coord.view()
            )
            merged._r_started.extend(log._r_started.view())
            merged._r_completed.extend(log._r_completed.view())
            merged._r_timeout.extend(log._r_timeout.view())
            ret_writer = log._r_ret_writer.view()
            if ret_writer.size:
                remapped_writer = np.where(
                    ret_writer == _NO_VERSION, np.int64(_NO_VERSION), remap[ret_writer]
                )
            else:
                remapped_writer = ret_writer
            merged._r_ret_ts.extend(log._r_ret_ts.view())
            merged._r_ret_writer.extend(remapped_writer)
            merged._r_repairs.extend(log._r_repairs.view())
            merged._r_responses.row.extend(log._r_responses.row.view() + read_offset)
            merged._r_responses.node.extend(
                remap[log._r_responses.node.view()]
                if log._r_responses.node.size
                else log._r_responses.node.view()
            )
            merged._r_responses.value.extend(log._r_responses.value.view())
            for source, target in (
                (log._r_quorum, merged._r_quorum),
                (log._r_late, merged._r_late),
            ):
                target.row.extend(source.row.view() + read_offset)
                target.node.extend(
                    remap[source.node.view()] if source.node.size else source.node.view()
                )
                ts_values = source.ts.view()
                writer_values = source.writer.view()
                if writer_values.size:
                    writer_values = np.where(
                        writer_values == _NO_VERSION,
                        np.int64(_NO_VERSION),
                        remap[writer_values],
                    )
                target.ts.extend(ts_values)
                target.writer.extend(writer_values)
            merged._mutations += 1
        return merged
