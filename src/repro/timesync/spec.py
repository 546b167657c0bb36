"""Spec-level configuration of the time plane for one experiment.

A :class:`TimeSyncSpec` is the mapping carried by
``ExperimentSpec.timesync``: which protocol the victim host runs, how bad
its oscillator is, what the link looks like, whether the guest-side
defense estimator is armed, and the (optional) :class:`SyncAttackPlan`.
Like fault plans, an *inert* spec — no attack, no drift, no jitter —
normalizes to None (:meth:`~repro.plan.Plan.normalize`) so absent and
do-nothing configurations share one identity and every pre-timesync cache
key stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..plan import Plan
from .plan import SyncAttackPlan, sweep_sync_plan

#: Default sync-exchange cadence (PTP syncs this often; NTP polls 8x
#: slower — see :class:`~repro.timesync.netplane.NtpDaemon`).
DEFAULT_INTERVAL_NS = 100_000_000

#: Canonical victim oscillator error used by the figure/CLI sweeps:
#: 40 ppm, a perfectly ordinary uncompensated crystal.
SWEEP_DRIFT_PPB = 40_000


@dataclass(frozen=True)
class TimeSyncSpec(Plan):
    """Everything the time plane needs to know about one run."""

    #: The attack plan, or None for an honest network.  A mapping or an
    #: empty plan is normalized once, on construction.
    attack: Optional[SyncAttackPlan] = None
    #: ``"ptp"`` or ``"ntp"``.
    protocol: str = "ptp"
    #: Base sync-exchange interval (ns).
    interval_ns: int = DEFAULT_INTERVAL_NS
    #: Victim host's natural oscillator error (ppb, signed).
    drift_ppb: int = 0
    #: Honest one-way link delay (ns).
    link_delay_ns: int = 500_000
    #: Uniform per-packet link jitter bound (ns).
    link_jitter_ns: int = 0
    #: Arm the guest-side offset estimator (the defense).
    defense: bool = True

    def __post_init__(self) -> None:
        if self.protocol not in ("ptp", "ntp"):
            raise ConfigError(f"unknown sync protocol {self.protocol!r}")
        if self.interval_ns <= 0:
            raise ConfigError("sync interval_ns must be positive")
        if self.link_delay_ns < 0 or self.link_jitter_ns < 0:
            raise ConfigError("link delays must be >= 0")
        object.__setattr__(self, "attack",
                           SyncAttackPlan.normalize(self.attack))

    def is_empty(self) -> bool:
        """True when running the sync plane would change nothing: no
        attack, a perfect oscillator and a jitterless link leave every
        offset estimate at exactly zero."""
        return self.attack is None and self.drift_ppb == 0 \
            and self.link_jitter_ns == 0

    def describe(self) -> str:
        bits = [self.protocol,
                f"drift {self.drift_ppb}ppb",
                "defense on" if self.defense else "defense off"]
        bits.append(self.attack.describe() if self.attack is not None
                    else "no sync attack")
        return ", ".join(bits)


def sweep_timesync(offset_ns: int, defense: bool = True,
                   protocol: str = "ptp",
                   interval_ns: int = DEFAULT_INTERVAL_NS) -> TimeSyncSpec:
    """Canonical one-knob spec for the ``timesync`` figure and CLI: a
    delay-asymmetry attack targeting ``offset_ns`` of clock skew against
    a victim with an ordinary 40 ppm crystal and a jitterless link (so
    the figure's strict inequalities are deterministic).  ``interval_ns``
    sets the exchange cadence; short scaled-down runs pass a smaller
    interval so the servo sees enough rounds to converge."""
    return TimeSyncSpec(attack=sweep_sync_plan(offset_ns),
                        protocol=protocol,
                        drift_ppb=SWEEP_DRIFT_PPB,
                        defense=defense,
                        interval_ns=interval_ns)
