"""Simulated network time plane: PTP/NTP sync, attacks, and the defense.

Models the layer the metering stack silently trusts — that hosts agree
what time it is.  See :mod:`repro.timesync.netplane` for the protocol and
servo model, :mod:`repro.timesync.plan` for the attack taxonomy and
:mod:`repro.timesync.spec` for the per-experiment configuration mapping
(docs/timesync.md walks through all three).
"""

from .netplane import (LinkModel, LocalClock, NtpDaemon, OffsetEstimator,
                       PtpDaemon, SyncNetwork, TimeSyncError,
                       PTP_STEP_THRESHOLD_NS)
from .plan import SyncAttackPlan, sweep_sync_plan
from .spec import TimeSyncSpec, sweep_timesync, SWEEP_DRIFT_PPB

__all__ = [
    "LinkModel",
    "LocalClock",
    "NtpDaemon",
    "OffsetEstimator",
    "PtpDaemon",
    "SyncNetwork",
    "TimeSyncError",
    "PTP_STEP_THRESHOLD_NS",
    "SyncAttackPlan",
    "sweep_sync_plan",
    "TimeSyncSpec",
    "sweep_timesync",
    "SWEEP_DRIFT_PPB",
]
