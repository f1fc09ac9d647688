"""Row-by-row W/A/R/S harvest: the oracle for ``harvest_wars_observations``.

This is the per-row loop the array harvest replaced.  It walks the trace
log's row views (``writes``/``reads``), so it works on both trace backends,
and it returns one ``(leg, at_ms, value_ms)`` tuple per sample, in the order
the array harvest must reproduce.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import WARS_LEGS


def harvest_by_row(
    trace_log,
    offset_ms: float = 0.0,
    split_rng: np.random.Generator | None = None,
) -> list[tuple[str, float, float]]:
    """Per-leg samples of one trace log, one Python tuple per sample."""
    rng = np.random.default_rng(0) if split_rng is None else split_rng
    samples: list[tuple[str, float, float]] = []
    for write in trace_log.writes:
        start = write.started_ms
        arrivals = write.replica_arrivals_ms
        for arrival in arrivals.values():
            samples.append(("W", offset_ms + arrival, arrival - start))
        for replica, ack in write.ack_arrivals_ms.items():
            arrival = arrivals.get(replica)
            if arrival is None:  # ack without a recorded arrival: lost trace
                continue
            samples.append(("A", offset_ms + ack, ack - arrival))
    for read in trace_log.reads:
        start = read.started_ms
        for response in read.response_arrivals_ms.values():
            round_trip = response - start
            r_leg = float(rng.random()) * round_trip
            samples.append(("R", offset_ms + response, r_leg))
            samples.append(("S", offset_ms + response, round_trip - r_leg))
    return samples


def as_tuples(samples) -> list[tuple[str, float, float]]:
    """A columnar ``LegSamples`` as the oracle's list of tuples."""
    return [
        (WARS_LEGS[int(code)], float(at), float(value))
        for code, at, value in zip(samples.leg, samples.at_ms, samples.value_ms)
    ]
