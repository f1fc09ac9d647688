"""Dynamo-style data-store substrate: a discrete-event replicated key-value store.

This is the stand-in for the instrumented Cassandra cluster used in the
paper's §5.2 validation.  Coordinators forward every operation to all N
replicas of a key, commit writes after W acknowledgements, answer reads from
the first R responses, and record WARS-grade traces for staleness analysis.
Optional subsystems (read repair, hinted handoff, Merkle anti-entropy, failure
injection) support the ablation experiments.
"""

from repro.cluster.antientropy import AntiEntropyStats, MerkleAntiEntropy
from repro.cluster.client import ClientSession, SessionStats, WorkloadRunner
from repro.cluster.coordinator import Coordinator, ReadHandle, WriteHandle
from repro.cluster.events import Event, EventQueue
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.cluster.membership import Membership
from repro.cluster.merkle import MerkleTree
from repro.cluster.network import Network
from repro.cluster.node import ApplyResult, StorageNode
from repro.cluster.ring import ConsistentHashRing
from repro.cluster.sampling import (
    DEFAULT_DRAW_BATCH_SIZE,
    LatencyDrawBuffer,
    UniformDrawBuffer,
)
from repro.cluster.simulator import Simulator
from repro.cluster.staleness_detector import StalenessDetector, StalenessSignal
from repro.cluster.store import DynamoCluster
from repro.cluster.tracelog import (
    ColumnarReadTrace,
    ColumnarTraceLog,
    ColumnarWriteTrace,
)
from repro.cluster.tracing import ReadTrace, TraceLog, WriteTrace
from repro.cluster.versioning import (
    Causality,
    LamportClock,
    VectorClock,
    Version,
    VersionedValue,
)

__all__ = [
    "AntiEntropyStats",
    "MerkleAntiEntropy",
    "ClientSession",
    "SessionStats",
    "WorkloadRunner",
    "Coordinator",
    "ReadHandle",
    "WriteHandle",
    "Event",
    "EventQueue",
    "FailureEvent",
    "FailureInjector",
    "Membership",
    "MerkleTree",
    "Network",
    "ApplyResult",
    "StorageNode",
    "ConsistentHashRing",
    "DEFAULT_DRAW_BATCH_SIZE",
    "LatencyDrawBuffer",
    "UniformDrawBuffer",
    "Simulator",
    "StalenessDetector",
    "StalenessSignal",
    "DynamoCluster",
    "ColumnarReadTrace",
    "ColumnarTraceLog",
    "ColumnarWriteTrace",
    "ReadTrace",
    "TraceLog",
    "WriteTrace",
    "Causality",
    "LamportClock",
    "VectorClock",
    "Version",
    "VersionedValue",
]
