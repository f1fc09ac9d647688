"""Deterministic fault injection and the adaptive-recovery closed loop.

Two halves:

* :mod:`repro.faults.plan` / :mod:`repro.faults.runtime` — declarative
  :class:`FaultPlan` specs (:class:`GrayFailure`, :class:`BurstProcess`)
  injected via ``DynamoCluster(fault_plan=...)``, modulating network delay
  draws on a schedule without consuming extra generator draws.
* :mod:`repro.faults.recovery` — the closed loop: harvest per-leg W/A/R/S
  observations from a hostile run's trace log, stream them into a
  :class:`~repro.serving.service.PredictorService` tenant in timed windows,
  refit, and report a :class:`RecoveryTrajectory` quantifying how much of
  the static model's divergence an adaptive predictor recovers.

``recovery`` is imported lazily: the plan/runtime layer sits *below*
:mod:`repro.cluster` (the network imports it), while the recovery loop sits
*above* :mod:`repro.scenarios` and :mod:`repro.serving`; a lazy import keeps
``cluster → faults.plan`` free of the cycle.
"""

from __future__ import annotations

from repro.faults.plan import WARS_LEGS, BurstProcess, FaultPlan, GrayFailure
from repro.faults.runtime import FaultRuntime

__all__ = [
    "WARS_LEGS",
    "BurstProcess",
    "FaultPlan",
    "GrayFailure",
    "FaultRuntime",
    "LegSamples",
    "RecoveryTrajectory",
    "RecoveryWindow",
    "harvest_wars_observations",
    "run_adaptive_recovery",
]

_RECOVERY_EXPORTS = (
    "LegSamples",
    "RecoveryTrajectory",
    "RecoveryWindow",
    "harvest_wars_observations",
    "run_adaptive_recovery",
)


def __getattr__(name: str):
    if name in _RECOVERY_EXPORTS:
        from repro.faults import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
