"""Deterministic simulated network time plane: links, clocks, daemons.

This module models the part of a datacenter the metering papers take for
granted: that every host agrees what time it is.  A :class:`SyncNetwork`
owns one *true time* axis (the simulator's event clock — the same exact
oracle the invariant checker reconciles billing against) and a reference
master; each participating host hangs a :class:`LocalClock` (an integer
phase/frequency ledger over true time) and a :class:`PtpDaemon` or
:class:`NtpDaemon` off it.  Daemons run periodic two-way exchange rounds
(master→slave sync carrying t1/t2, slave→master delay-req carrying t3/t4)
over a seeded :class:`LinkModel`, estimate ``offset = ((t2-t1)-(t4-t3))/2``
and discipline the local clock with a servo — a PI phase/frequency servo
for PTP (ptp4l-style: step when far, slew when close) and a step-only,
slow-poll servo for NTP.

Everything is integer nanoseconds / parts-per-billion; every probabilistic
choice reads a named ``timesync:*`` stream of the run's
:class:`~repro.sim.rng.DeterministicRng`.  Two runs with the same spec and
seed produce bit-identical sync histories, and a run *without* a time-sync
spec constructs none of these objects at all.

Conservation: a :class:`LocalClock` never forgets where its phase came
from.  Its offset from true time decomposes *exactly* (integer equality,
no epsilon) into initial offset + accrued natural drift + accrued servo
slew + issued servo steps, and the daemon keeps an independent ledger of
the corrections it issued.  :meth:`SyncNetwork.check_conservation` crosses
the two ledgers and the true-time oracle and raises
:class:`TimeSyncError` on any mismatch; the machine integration reports
that through the :class:`~repro.verify.invariants.InvariantChecker` as the
``timesync-conservation`` law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ConfigError, SimulationError
from .plan import SyncAttackPlan

#: Integer scale for frequency arithmetic: parts-per-billion per second.
PPB = 1_000_000_000

#: Offsets at or beyond this make the PTP servo *step* the clock instead
#: of slewing (mirrors ptp4l's first-sync behaviour).
PTP_STEP_THRESHOLD_NS = 1_000_000

#: Servo frequency corrections are clamped to +/-500 ppm, the classic
#: adjtimex() limit — a servo chasing a lying master saturates here.
MAX_ADJ_PPB = 500_000_000 // 1000  # 500_000 ppb == 500 ppm


class TimeSyncError(SimulationError):
    """A time-sync conservation law failed (a harness bug, not an attack)."""


@dataclass(frozen=True)
class LinkModel:
    """Seeded symmetric network path between master and slave.

    ``base_delay_ns`` is the honest one-way delay; ``jitter_ns`` adds a
    uniform integer draw in ``[0, jitter_ns]`` per packet from the
    ``timesync:link`` stream.  Attack-injected asymmetry lives in the
    :class:`SyncAttackPlan`, not here — the link itself is honest.
    """

    base_delay_ns: int = 500_000
    jitter_ns: int = 0

    def __post_init__(self) -> None:
        if self.base_delay_ns < 0 or self.jitter_ns < 0:
            raise ConfigError("link delays must be >= 0")

    def one_way_delay_ns(self, rng) -> int:
        if self.jitter_ns:
            return self.base_delay_ns + rng.randint(0, self.jitter_ns)
        return self.base_delay_ns


class LocalClock:
    """Integer-exact local clock: phase + frequency ledger over true time.

    ``read(true_ns)`` returns the host's local view of the wall clock;
    ``offset_ns`` is (local - true) with every contribution recorded in a
    separate ledger column so the decomposition can be re-checked exactly:

        offset_ns == initial_offset_ns + drift_ledger_ns
                     + servo_freq_ledger_ns + servo_step_ledger_ns

    Accrual is piecewise: each commit floors the (drift + adj) product over
    the elapsed span independently, and both the offset and the ledger are
    built from the *same* commits, so the identity is exact by arithmetic,
    not by tolerance.
    """

    def __init__(self, drift_ppb: int = 0, offset_ns: int = 0,
                 start_ns: int = 0) -> None:
        self.drift_ppb = drift_ppb          # natural oscillator error
        self.adj_ppb = 0                    # servo frequency discipline
        self.offset_ns = offset_ns          # local - true, at _committed_ns
        self.initial_offset_ns = offset_ns
        self.drift_ledger_ns = 0            # cumulative natural drift
        self.servo_freq_ledger_ns = 0       # cumulative servo slew
        self.servo_step_ledger_ns = 0       # cumulative servo steps
        self._committed_ns = start_ns       # true time of last commit

    def advance_to(self, true_ns: int) -> None:
        """Commit phase accrued between the last commit and ``true_ns``."""
        if true_ns < self._committed_ns:
            raise TimeSyncError(
                f"clock advanced backwards: {true_ns} < {self._committed_ns}")
        span = true_ns - self._committed_ns
        if span:
            drift_add = self.drift_ppb * span // PPB
            slew_add = self.adj_ppb * span // PPB
            self.offset_ns += drift_add + slew_add
            self.drift_ledger_ns += drift_add
            self.servo_freq_ledger_ns += slew_add
            self._committed_ns = true_ns

    def read(self, true_ns: int) -> int:
        """The host's local wall clock at true time ``true_ns``."""
        self.advance_to(true_ns)
        return true_ns + self.offset_ns

    def step(self, delta_ns: int, true_ns: int) -> None:
        """Servo phase step (clock_settime-style jump)."""
        self.advance_to(true_ns)
        self.offset_ns += delta_ns
        self.servo_step_ledger_ns += delta_ns

    def set_freq(self, adj_ppb: int, true_ns: int) -> None:
        """Servo frequency adjustment (adjtimex-style slew)."""
        self.advance_to(true_ns)  # old rate accrues up to this instant
        self.adj_ppb = adj_ppb

    def servo_total_ns(self) -> int:
        """Everything the servo ever did to this clock (steps + slew)."""
        return self.servo_step_ledger_ns + self.servo_freq_ledger_ns

    def conservation_error_ns(self) -> int:
        """Exact ledger identity residue — nonzero means a harness bug."""
        return self.offset_ns - (self.initial_offset_ns
                                 + self.drift_ledger_ns
                                 + self.servo_freq_ledger_ns
                                 + self.servo_step_ledger_ns)


class PtpDaemon:
    """Slave-side IEEE 1588-style daemon: two-way exchange + PI servo.

    The servo steps the clock when the estimate is beyond
    ``PTP_STEP_THRESHOLD_NS`` and otherwise slews with a PI filter
    (proportional gain 1/2, integral gain 1/8 per round) clamped to
    +/-500 ppm.  It keeps an *issued-corrections ledger* independent of
    the clock's own, so :meth:`SyncNetwork.check_conservation` can cross
    the two.
    """

    protocol = "ptp"

    def __init__(self, name: str, clock: LocalClock,
                 interval_ns: int) -> None:
        if interval_ns <= 0:
            raise ConfigError("sync interval must be positive")
        self.name = name
        self.clock = clock
        self.interval_ns = interval_ns
        self.rounds = 0
        self.lost_rounds = 0
        self.last_offset_est_ns = 0
        self.last_delay_est_ns = 0
        # Independent ledger of corrections this daemon *issued*:
        self.issued_step_ns = 0
        self.issued_adj_ppb = 0
        self._integral_ppb = 0

    def note_lost(self) -> None:
        self.lost_rounds += 1

    def servo_update(self, offset_est_ns: int, delay_est_ns: int,
                     true_ns: int) -> None:
        """Discipline the local clock toward ``offset_est -> 0``."""
        self.rounds += 1
        self.last_offset_est_ns = offset_est_ns
        self.last_delay_est_ns = delay_est_ns
        if abs(offset_est_ns) >= PTP_STEP_THRESHOLD_NS:
            self.clock.step(-offset_est_ns, true_ns)
            self.issued_step_ns += -offset_est_ns
            return
        self._integral_ppb += -(offset_est_ns * PPB) // (self.interval_ns * 8)
        p_ppb = -(offset_est_ns * PPB) // (self.interval_ns * 2)
        adj = self._integral_ppb + p_ppb
        adj = max(-MAX_ADJ_PPB, min(MAX_ADJ_PPB, adj))
        self.clock.set_freq(adj, true_ns)
        self.issued_adj_ppb = adj


class NtpDaemon(PtpDaemon):
    """NTP-flavoured variant: slow poll, step-only, no frequency
    discipline.  With a drifting oscillator its offset sawtooths between
    polls — measurably worse residual than PTP, same exchange math."""

    protocol = "ntp"

    #: NTP polls far less often than PTP syncs.
    POLL_MULTIPLIER = 8

    def __init__(self, name: str, clock: LocalClock,
                 interval_ns: int) -> None:
        super().__init__(name, clock, interval_ns * self.POLL_MULTIPLIER)

    def servo_update(self, offset_est_ns: int, delay_est_ns: int,
                     true_ns: int) -> None:
        self.rounds += 1
        self.last_offset_est_ns = offset_est_ns
        self.last_delay_est_ns = delay_est_ns
        if offset_est_ns:
            self.clock.step(-offset_est_ns, true_ns)
            self.issued_step_ns += -offset_est_ns


class SyncNetwork:
    """One reference master plus any number of disciplined slave hosts.

    The master *is* the true-time oracle unless the attack plan says it
    lies (``master_offset_ns`` / ``master_drift_ppb``).  Attack hooks —
    delay asymmetry, timestamp tampering, round loss — are applied here,
    on the wire, exactly where a network attacker sits; daemons and
    clocks never know whether they are under attack.
    """

    def __init__(self, rng, attack: Optional[SyncAttackPlan] = None,
                 link: Optional[LinkModel] = None,
                 start_ns: int = 0) -> None:
        self.attack = SyncAttackPlan.normalize(attack)
        self.link = link or LinkModel()
        self.start_ns = start_ns
        self.hosts: List[PtpDaemon] = []
        self._link_rng = rng.stream("timesync:link")
        self._tamper_rng = rng.stream("timesync:tamper")
        self._loss_rng = rng.stream("timesync:loss")

    # -- topology ----------------------------------------------------------

    def add_host(self, name: str, drift_ppb: int = 0,
                 protocol: str = "ptp",
                 interval_ns: int = 100_000_000) -> PtpDaemon:
        if protocol not in ("ptp", "ntp"):
            raise ConfigError(f"unknown sync protocol {protocol!r}")
        clock = LocalClock(drift_ppb=drift_ppb, start_ns=self.start_ns)
        cls = PtpDaemon if protocol == "ptp" else NtpDaemon
        daemon = cls(name, clock, interval_ns)
        self.hosts.append(daemon)
        return daemon

    def max_flight_ns(self) -> int:
        """Worst-case true-time span one exchange can occupy (both flight
        legs at maximum jitter plus any injected asymmetry) — callers use
        it to keep whole rounds inside their horizon."""
        worst_leg = self.link.base_delay_ns + self.link.jitter_ns
        asym = self.attack.delay_asymmetry_ns if self.attack else 0
        return 2 * worst_leg + asym

    # -- master ------------------------------------------------------------

    def master_time_ns(self, true_ns: int) -> int:
        """What the (possibly byzantine) master claims the time is."""
        claimed = true_ns
        if self.attack is not None:
            claimed += self.attack.master_offset_ns
            claimed += self.attack.master_drift_ppb \
                * (true_ns - self.start_ns) // PPB
        return claimed

    # -- the two-way exchange ----------------------------------------------

    def exchange(self, daemon: PtpDaemon, true_ns: int) -> Optional[int]:
        """Run one sync round for ``daemon`` starting at true ``true_ns``.

        Returns the daemon's offset estimate (ns) or None if the round
        was lost.  The exchange is evaluated in closed form over the
        packet flight times; callers must space rounds further apart than
        one round trip (intervals are ~100ms, delays ~0.5ms).
        """
        attack = self.attack
        if attack is not None and attack.loss_prob > 0 \
                and self._loss_rng.random() < attack.loss_prob:
            daemon.note_lost()
            return None

        fwd = self.link.one_way_delay_ns(self._link_rng)
        rev = self.link.one_way_delay_ns(self._link_rng)
        if attack is not None:
            fwd += attack.delay_asymmetry_ns  # master->slave path only

        # master->slave sync message
        t1 = self.master_time_ns(true_ns)
        slave_recv_true = true_ns + fwd
        t2 = daemon.clock.read(slave_recv_true)
        # slave->master delay request (sent immediately on receipt)
        t3 = t2
        t4 = self.master_time_ns(slave_recv_true + rev)

        if attack is not None and attack.tamper_prob > 0:
            # the wire-crossing master stamps are the tamperable pair
            if self._tamper_rng.random() < attack.tamper_prob:
                t1 += self._tamper_rng.randint(-attack.tamper_ns,
                                               attack.tamper_ns)
            if self._tamper_rng.random() < attack.tamper_prob:
                t4 += self._tamper_rng.randint(-attack.tamper_ns,
                                               attack.tamper_ns)

        offset_est = ((t2 - t1) - (t4 - t3)) // 2
        delay_est = ((t2 - t1) + (t4 - t3)) // 2
        daemon.servo_update(offset_est, delay_est, slave_recv_true)
        return offset_est

    # -- standalone driver -------------------------------------------------

    def run(self, duration_ns: int) -> None:
        """Drive every host's exchange grid for ``duration_ns`` of true
        time (standalone use; the Machine integration schedules rounds on
        its own event queue instead)."""
        end_ns = self.start_ns + duration_ns
        flight = self.max_flight_ns()
        due = {id(d): self.start_ns + d.interval_ns for d in self.hosts}
        while True:
            pending = [(due[id(d)], i, d) for i, d in enumerate(self.hosts)
                       if due[id(d)] + flight <= end_ns]
            if not pending:
                break
            when, _, daemon = min(pending)
            self.exchange(daemon, when)
            due[id(daemon)] = when + daemon.interval_ns
        for daemon in self.hosts:
            daemon.clock.advance_to(end_ns)
        self.check_conservation(end_ns)

    # -- conservation ------------------------------------------------------

    def check_conservation(self, true_ns: int) -> None:
        """Exact-integer cross-check of every host's clock against its
        ledgers, its daemon's issued-corrections ledger, and the true-time
        oracle.  Raises :class:`TimeSyncError` on any mismatch."""
        for daemon in self.hosts:
            clock = daemon.clock
            residue = clock.conservation_error_ns()
            if residue:
                raise TimeSyncError(
                    f"{daemon.name}: clock ledger identity off by "
                    f"{residue}ns")
            if daemon.issued_step_ns != clock.servo_step_ledger_ns:
                raise TimeSyncError(
                    f"{daemon.name}: daemon issued {daemon.issued_step_ns}ns "
                    f"of steps but the clock recorded "
                    f"{clock.servo_step_ledger_ns}ns")
            if daemon.issued_adj_ppb != clock.adj_ppb:
                raise TimeSyncError(
                    f"{daemon.name}: daemon issued adj {daemon.issued_adj_ppb}"
                    f"ppb but the clock runs at {clock.adj_ppb}ppb")
            if clock.read(true_ns) - true_ns != clock.offset_ns:
                raise TimeSyncError(
                    f"{daemon.name}: local clock disagrees with its own "
                    f"offset against the true-time oracle")


class OffsetEstimator:
    """Guest-side, platform-agnostic clock-offset estimator (the defense).

    The guest cannot see true time — but it *can* see everything its own
    sync servo did to its clock (`chronyc tracking` style): every step and
    every slewed interval is local state, captured exactly in the clock's
    servo ledgers.  A sane oscillator needs at most
    ``tolerance_ppb * elapsed`` of total correction; cumulative servo
    activity beyond that envelope cannot be physics and is attributed to
    the network.

    Per round the estimator grades the interval:

    * ``|est| <= plausible``            -> TRUSTED (indistinguishable
      from honest oscillator drift);
    * ``|est| > plausible``             -> DEGRADED (the clock was steered
      further than the oscillator could need);
    * ``|est| > untrusted_factor * plausible`` or more than half the
      rounds lost                        -> UNTRUSTED.

    where ``est`` is the servo-activity total and ``plausible`` the
    drift envelope at that instant.  :meth:`correction_ns` clips the
    estimate to the envelope — the metering layer subtracts it from
    cross-host stamps, leaving a residual bounded by
    :meth:`uncertainty_ns` *by construction*: the true offset decomposes
    into servo total (known exactly) plus natural drift (unknown but
    inside the envelope whenever ``tolerance_ppb`` bounds the real
    oscillator).
    """

    def __init__(self, daemon: PtpDaemon, start_ns: int,
                 tolerance_ppb: int = 100_000,
                 untrusted_factor: int = 8) -> None:
        if tolerance_ppb <= 0:
            raise ConfigError("oscillator tolerance must be positive")
        self.daemon = daemon
        self.start_ns = start_ns
        self.tolerance_ppb = tolerance_ppb
        self.untrusted_factor = untrusted_factor
        self.trusted_rounds = 0
        self.degraded_rounds = 0
        self.untrusted_rounds = 0
        self._last_true_ns = start_ns

    # -- the estimate ------------------------------------------------------

    def est_offset_ns(self) -> int:
        """Best guest-side estimate of (local - true): the servo total."""
        return self.daemon.clock.servo_total_ns()

    def plausible_ns(self, true_ns: int) -> int:
        """Honest-oscillator correction envelope since the epoch."""
        return self.tolerance_ppb * (true_ns - self.start_ns) // PPB

    def uncertainty_ns(self, true_ns: int) -> int:
        """Declared residual bound after :meth:`correction_ns` is applied:
        the unknown natural-drift term plus the clipped envelope."""
        return 2 * self.plausible_ns(true_ns)

    def correction_ns(self, true_ns: int) -> int:
        """What the metering layer should subtract from a locally-stamped
        interval: the servo total clipped to the plausible envelope, so an
        honest host is never 'corrected' at all."""
        est = self.est_offset_ns()
        envelope = self.plausible_ns(true_ns)
        if abs(est) <= envelope:
            return 0
        return est - envelope if est > 0 else est + envelope

    # -- grading -----------------------------------------------------------

    def observe_round(self, true_ns: int) -> str:
        """Grade the interval since the last observation; returns the
        grade name (``trusted``/``degraded``/``untrusted``)."""
        self._last_true_ns = true_ns
        est = abs(self.est_offset_ns())
        envelope = self.plausible_ns(true_ns)
        total = self.daemon.rounds + self.daemon.lost_rounds
        starved = total > 0 and self.daemon.lost_rounds * 2 > total
        if starved or est > self.untrusted_factor * max(envelope, 1):
            self.untrusted_rounds += 1
            return "untrusted"
        if est > envelope:
            self.degraded_rounds += 1
            return "degraded"
        self.trusted_rounds += 1
        return "trusted"

    def summary(self, true_ns: int) -> Dict[str, Any]:
        return {
            "est_offset_ns": self.est_offset_ns(),
            "uncertainty_ns": self.uncertainty_ns(true_ns),
            "correction_ns": self.correction_ns(true_ns),
            "trusted_rounds": self.trusted_rounds,
            "degraded_rounds": self.degraded_rounds,
            "untrusted_rounds": self.untrusted_rounds,
        }
