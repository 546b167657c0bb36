"""Deterministic hardware/clock fault injection.

The fault layer turns the simulator from "attacks on a perfect clock" into
"metering under unreliable and adversarial time": a serializable
:class:`FaultPlan` describes which hardware lies (timer, TSC, interrupt
lines, /proc, the paravirtual steal clock) and the injectors in
:mod:`repro.faults.injectors` carry it out, seeded and replayable.  The
kernel-side defense — the clocksource watchdog with lost-tick catch-up and
trust-graded metering intervals — lives in :mod:`repro.kernel.timekeeping`.

See ``docs/faults.md`` for the fault taxonomy, watchdog semantics and
trust levels.
"""

from .injectors import (
    TICK_DROP,
    TICK_FIRE,
    IrqStorm,
    StaleProcfs,
    TickFaultInjector,
    TscFault,
)
from .plan import FaultPlan, sweep_plan

__all__ = [
    "FaultPlan",
    "sweep_plan",
    "TickFaultInjector",
    "TscFault",
    "IrqStorm",
    "StaleProcfs",
    "TICK_DROP",
    "TICK_FIRE",
]
