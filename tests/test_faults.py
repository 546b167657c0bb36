"""The hardware fault-injection layer and the clocksource watchdog.

Covers the fault plan's serialization and cache-identity contract, the
injectors' determinism, the watchdog's flagging/catch-up semantics, and the
graceful degradation of billing (trust levels + uncertainty bounds).
See docs/faults.md.
"""

import pytest

from repro.config import default_config
from repro.errors import ConfigError
from repro.faults import FaultPlan, sweep_plan
from repro.faults.injectors import (
    TICK_DROP,
    TICK_FIRE,
    TickFaultInjector,
    TscFault,
)
from repro.hw.cpu import CPU
from repro.hw.machine import Machine
from repro.kernel.timekeeping import (
    ClocksourceWatchdog,
    TimeKeeper,
    TrustLevel,
)
from repro.metering.billing import TrustReport, invoice_for
from repro.runner import ExperimentSpec, run_spec, spec_key
from repro.sim.clock import Clock
from repro.sim.tracing import HW_FAULT_CATEGORY, TraceLog


CFG = default_config()


def _busyloop_spec(jiffies=40, faults=None, seed=None):
    cfg = default_config(seed=seed) if seed is not None else None
    total = CFG.cpu_freq_hz * jiffies * CFG.tick_ns // 1_000_000_000
    return ExperimentSpec(program="busyloop",
                          program_kwargs={"total_cycles": int(total),
                                          "chunk": 10_000_000},
                          cfg=cfg, faults=faults)


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_roundtrip(self):
        plan = FaultPlan(tick_loss_prob=0.2, tsc_drift_ppm=5_000,
                         irq_storm_pps=1_000.0, watchdog=False)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(ConfigError, match="tick_los_prob"):
            FaultPlan.from_dict({"tick_los_prob": 0.2})

    @pytest.mark.parametrize("kwargs", [
        {"tick_loss_prob": 1.5},
        {"tick_loss_prob": -0.1},
        {"tick_delay_prob": 0.2},                 # no delay max
        {"smi_duration_ns": 100},                 # no period
        {"tsc_freeze_duration_cycles": 100},      # no period
        {"tsc_drift_ppm": -1},
        {"irq_storm_pps": -5.0},
        {"steal_lie_factor": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPlan(**kwargs)

    def test_empty_plan_ignores_watchdog_flag(self):
        assert FaultPlan().is_empty()
        assert FaultPlan(watchdog=False).is_empty()
        assert not FaultPlan(tick_loss_prob=0.01).is_empty()

    def test_normalize_collapses_empty_to_none(self):
        assert FaultPlan.normalize(None) is None
        assert FaultPlan.normalize({}) is None
        assert FaultPlan.normalize({"watchdog": False}) is None
        assert FaultPlan.normalize(FaultPlan()) is None
        active = FaultPlan.normalize({"tick_loss_prob": 0.1})
        assert isinstance(active, FaultPlan)

    def test_sweep_plan_scales_both_knobs(self):
        plan = sweep_plan(0.1)
        assert plan.tick_loss_prob == 0.1
        assert plan.tsc_drift_ppm == 100_000
        assert plan.watchdog
        assert not sweep_plan(0.1, watchdog=False).watchdog
        assert sweep_plan(0.0).is_empty()

    def test_tolerated_categories(self):
        assert FaultPlan(tick_loss_prob=0.5).tolerated_categories() == set()
        assert FaultPlan(steal_lie_factor=2.0).tolerated_categories() == \
            {"steal-injection"}


# ---------------------------------------------------------------------------
# zero-fault bit-identity (the cache/figure compatibility contract)
# ---------------------------------------------------------------------------

class TestZeroFaultIdentity:
    def test_empty_plans_share_the_pre_fault_cache_key(self):
        base = ExperimentSpec(program="O", program_kwargs={"iterations": 60})
        empty = ExperimentSpec(program="O", program_kwargs={"iterations": 60},
                               faults={})
        wd_only = ExperimentSpec(program="O",
                                 program_kwargs={"iterations": 60},
                                 faults={"watchdog": False})
        assert spec_key(base) == spec_key(empty) == spec_key(wd_only)

    def test_nonempty_plan_changes_the_key(self):
        base = ExperimentSpec(program="O", program_kwargs={"iterations": 60})
        faulted = ExperimentSpec(program="O",
                                 program_kwargs={"iterations": 60},
                                 faults={"tick_loss_prob": 0.1})
        assert spec_key(base) != spec_key(faulted)

    def test_empty_plan_result_is_bit_identical(self):
        spec = ExperimentSpec(program="O", program_kwargs={"iterations": 60})
        with_empty = ExperimentSpec(program="O",
                                    program_kwargs={"iterations": 60},
                                    faults={})
        assert run_spec(spec).to_dict() == run_spec(with_empty).to_dict()

    def test_faulted_run_is_deterministic(self):
        spec = _busyloop_spec(jiffies=20,
                              faults={"tick_loss_prob": 0.3,
                                      "tsc_drift_ppm": 50_000})
        assert run_spec(spec).to_dict() == run_spec(spec).to_dict()


# ---------------------------------------------------------------------------
# injectors
# ---------------------------------------------------------------------------

class TestTickFaultInjector:
    def _injector(self, seed=1, **kwargs):
        import random

        plan = FaultPlan(**kwargs)
        return TickFaultInjector(plan, random.Random(seed), CFG.tick_ns)

    def test_deterministic_given_stream(self):
        a = self._injector(tick_loss_prob=0.4, tick_delay_prob=0.3,
                           tick_delay_max_ns=1_000_000)
        b = self._injector(tick_loss_prob=0.4, tick_delay_prob=0.3,
                           tick_delay_max_ns=1_000_000)
        decisions = [(a.decide(i * CFG.tick_ns), b.decide(i * CFG.tick_ns))
                     for i in range(500)]
        assert all(x == y for x, y in decisions)
        assert a.ticks_dropped > 0 and a.ticks_delayed > 0

    def test_delay_always_below_one_tick(self):
        inj = self._injector(tick_delay_prob=1.0,
                             tick_delay_max_ns=10 * CFG.tick_ns)
        for i in range(200):
            delay = inj.decide(i * CFG.tick_ns)
            assert 0 < delay < CFG.tick_ns

    def test_smi_blackout_swallows_grid_ticks(self):
        inj = self._injector(smi_period_ns=10 * CFG.tick_ns,
                             smi_duration_ns=CFG.tick_ns + 1)
        verdicts = [inj.decide(i * CFG.tick_ns) for i in range(20)]
        # Ticks 0 and 1 of each 10-tick period fall inside the window.
        assert verdicts[0] == verdicts[1] == TICK_DROP
        assert all(v == TICK_FIRE for v in verdicts[2:10])
        assert verdicts[10] == verdicts[11] == TICK_DROP


class TestTscFault:
    def test_drift(self):
        fault = TscFault(FaultPlan(tsc_drift_ppm=100_000))
        assert fault.transform(1_000_000) == 1_100_000

    def test_step_applies_at_trigger(self):
        fault = TscFault(FaultPlan(tsc_step_cycles=500,
                                   tsc_step_after_cycles=1_000))
        assert fault.transform(999) == 999
        assert fault.transform(1_000) == 1_500

    def test_freeze_sticks_at_window_start(self):
        fault = TscFault(FaultPlan(tsc_freeze_duration_cycles=100,
                                   tsc_freeze_period_cycles=1_000))
        assert fault.transform(1_050) == 1_000  # inside the freeze
        assert fault.transform(1_100) == 1_100  # past it

    def test_read_side_only(self):
        # The CPU's retired-cycle counter (metering ground truth) must not
        # see the fault; only TSC reads do.
        cpu = CPU(CFG.cpu_freq_hz)
        cpu.retire_cycles(1_000_000)
        assert cpu.read_tsc() == 1_000_000
        cpu.tsc_fault = TscFault(FaultPlan(tsc_drift_ppm=200_000))
        assert cpu.read_tsc() == 1_200_000  # the read lies...
        assert cpu._cycles == 1_000_000     # ...the retired counter doesn't


# ---------------------------------------------------------------------------
# the clocksource watchdog (unit level)
# ---------------------------------------------------------------------------

def _watchdog(drift_ppm=0):
    cpu = CPU(CFG.cpu_freq_hz)
    if drift_ppm:
        cpu.tsc_fault = TscFault(FaultPlan(tsc_drift_ppm=drift_ppm))
    timekeeper = TimeKeeper(CFG.tick_ns)
    wd = ClocksourceWatchdog(cpu, Clock(), timekeeper, CFG.tick_ns)
    return timekeeper, wd


def _run_jiffies(timekeeper, wd, n, start=1):
    for i in range(start, start + n):
        timekeeper.tick(True, True)
        wd.on_tick(i * CFG.tick_ns)
    return start + n


class TestClocksourceWatchdog:
    def test_clean_clock_stays_trusted(self):
        timekeeper, wd = _watchdog()
        _run_jiffies(timekeeper, wd, 64)
        assert wd.checks == 8 and not wd.unstable
        assert all(i.trust is TrustLevel.TRUSTED for i in wd.intervals)
        assert wd.total_uncertainty_ns() == 0
        assert wd.clocksource == "tsc"

    def test_heavy_drift_flagged_at_first_check(self):
        # 20% drift >= the 10% unstable threshold: the very first check
        # window (8 jiffies) must catch it — bounded detection latency.
        timekeeper, wd = _watchdog(drift_ppm=200_000)
        _run_jiffies(timekeeper, wd, 24)
        assert wd.unstable
        assert wd.flagged_at_jiffy == wd.check_every_ticks
        assert wd.clocksource == "jiffies"
        assert wd.intervals[0].trust is TrustLevel.UNTRUSTED
        # After the fallback, windows are degraded (coarse clocksource),
        # never untrusted again: the latch is sticky, the lie is contained.
        assert all(i.trust is TrustLevel.DEGRADED
                   for i in wd.intervals[1:])

    def test_mild_drift_degrades_without_flagging(self):
        timekeeper, wd = _watchdog(drift_ppm=50_000)  # 5%: over degraded,
        _run_jiffies(timekeeper, wd, 32)              # under unstable
        assert not wd.unstable
        assert all(i.trust is TrustLevel.DEGRADED for i in wd.intervals)
        assert wd.total_uncertainty_ns() > 0

    def test_caught_up_ticks_degrade_their_window(self):
        timekeeper, wd = _watchdog()
        next_i = _run_jiffies(timekeeper, wd, 8)
        assert wd.intervals[-1].trust is TrustLevel.TRUSTED
        wd.note_caught_up(2)
        timekeeper.jiffies_caught_up += 2
        _run_jiffies(timekeeper, wd, 8, start=next_i)
        last = wd.intervals[-1]
        assert last.trust is TrustLevel.DEGRADED
        assert last.caught_up == 2
        # Each recovered jiffy contributes a tick of uncertainty.
        assert last.uncertainty_ns >= 2 * CFG.tick_ns

    def test_finalize_closes_partial_window(self):
        timekeeper, wd = _watchdog()
        _run_jiffies(timekeeper, wd, 5)  # below check_every_ticks
        assert wd.checks == 0
        wd.finalize(5 * CFG.tick_ns)
        assert wd.checks == 1 and wd.intervals[-1].jiffies == 5

    def test_uncertainty_bounds_the_skew(self):
        timekeeper, wd = _watchdog(drift_ppm=50_000)
        _run_jiffies(timekeeper, wd, 8)
        interval = wd.intervals[0]
        assert interval.uncertainty_ns >= abs(interval.skew_ns)


# ---------------------------------------------------------------------------
# experiment level: lost-tick catch-up and graceful degradation
# ---------------------------------------------------------------------------

class TestFaultedExperiments:
    def test_catch_up_recovers_lost_jiffies(self):
        clean = run_spec(_busyloop_spec())
        faulted = run_spec(_busyloop_spec(
            faults={"tick_loss_prob": 0.3, "watchdog": True}))
        assert faulted.stats["fault_ticks_lost"] > 0
        # Catch-up replays every missed jiffy that had a later tick to
        # observe it; only losses in the final tail can stay unrecovered.
        lost = faulted.stats["fault_ticks_lost"]
        caught = faulted.stats["fault_jiffies_caught_up"]
        assert caught >= lost - 2
        # Billing stays within a couple of ticks of the fault-free run.
        assert abs(faulted.usage.total_ns - clean.usage.total_ns) \
            <= 3 * CFG.tick_ns

    def test_without_watchdog_lost_ticks_underbill(self):
        clean = run_spec(_busyloop_spec())
        faulted = run_spec(_busyloop_spec(
            faults={"tick_loss_prob": 0.3, "watchdog": False}))
        assert faulted.stats["fault_ticks_lost"] > 0
        assert faulted.stats["fault_jiffies_caught_up"] == 0
        assert "watchdog_checks" not in faulted.stats
        assert faulted.usage.total_ns < clean.usage.total_ns - CFG.tick_ns

    def test_drift_produces_untrusted_intervals_and_uncertainty(self):
        res = run_spec(_busyloop_spec(faults={"tsc_drift_ppm": 200_000}))
        assert res.stats["watchdog_unstable"] == 1
        assert res.stats["watchdog_flagged_at_jiffy"] <= 16
        assert res.stats["watchdog_intervals_untrusted"] >= 1
        assert res.stats["watchdog_uncertainty_ns"] > 0

    def test_invariants_hold_under_faults(self):
        spec = ExperimentSpec(
            program="busyloop",
            program_kwargs=_busyloop_spec().program_kwargs,
            faults={"tick_loss_prob": 0.3, "tick_delay_prob": 0.2,
                    "tick_delay_max_ns": 1_000_000,
                    "tsc_drift_ppm": 200_000, "irq_storm_pps": 5_000.0},
            check_invariants=True)
        res = run_spec(spec)  # raises InvariantViolation on any breakage
        assert res.stats["fault_spurious_irqs"] > 0
        assert res.stats.get("tolerated_violations", 0) == 0

    def test_stale_procfs_serves_old_snapshots(self):
        from repro.kernel import procfs
        from repro.programs.attackers import make_busyloop
        from repro.programs.stdlib import install_standard_libraries

        machine = Machine(default_config(),
                          faults={"procfs_staleness_ns": 50 * CFG.tick_ns})
        install_standard_libraries(machine.kernel.libraries)
        task = machine.new_shell().run_command(
            make_busyloop(total_cycles=10_000_000_000))
        machine.run_for(2 * CFG.tick_ns)
        first = procfs.stat(machine.kernel, task.pid)
        machine.run_for(10 * CFG.tick_ns)
        second = procfs.stat(machine.kernel, task.pid)
        assert second == first, "within the staleness window: same snapshot"
        assert machine.kernel.procfs_fault.stale_reads >= 1


# ---------------------------------------------------------------------------
# trust-annotated billing + verification (graceful degradation)
# ---------------------------------------------------------------------------

class TestTrustedBilling:
    def _faulted_result(self):
        return run_spec(_busyloop_spec(
            faults={"tick_loss_prob": 0.3, "tsc_drift_ppm": 200_000}))

    def test_trust_report_from_stats(self):
        res = self._faulted_result()
        trust = TrustReport.from_stats(res.stats)
        assert trust.level is TrustLevel.UNTRUSTED
        assert trust.uncertainty_ns == res.stats["watchdog_uncertainty_ns"]
        assert trust.intervals_untrusted >= 1

    def test_invoice_carries_bounds(self):
        res = self._faulted_result()
        trust = TrustReport.from_stats(res.stats)
        invoice = invoice_for("job", res.usage, trust=trust)
        low, high = invoice.billable_bounds_ns()
        assert low <= invoice.billable_ns <= high
        assert high - low == 2 * trust.uncertainty_ns
        rendered = invoice.render()
        assert "untrusted" in rendered and "bounds" in rendered

    def test_untrusted_invoice_without_report_has_tight_bounds(self):
        res = self._faulted_result()
        invoice = invoice_for("job", res.usage)
        assert invoice.billable_bounds_ns() == (invoice.billable_ns,
                                                invoice.billable_ns)

    def test_verifier_widens_margin_by_uncertainty(self):
        from repro.kernel.accounting import CpuUsage
        from repro.metering.verification import (
            BillVerifier,
            VerificationOutcome,
        )
        from repro.programs.workloads import make_paper_program

        program = make_paper_program("O", iterations=900)
        verifier = BillVerifier()
        reference = verifier.reference_run(program)
        # A bill short by well over the base margin: undercharged when
        # taken at face value...
        short = int(reference.total_ns * 0.80)
        billed = CpuUsage(utime_ns=short, stime_ns=0)
        bare = verifier.verify(make_paper_program("O", iterations=900), billed)
        assert bare.outcome is VerificationOutcome.UNDERCHARGED
        # ...but consistent once the meter's declared uncertainty covers
        # the gap: degraded metering is judged against what it could
        # honestly report.
        trust = TrustReport(level=TrustLevel.DEGRADED,
                            uncertainty_ns=reference.total_ns // 2,
                            intervals_degraded=3)
        lenient = verifier.verify(make_paper_program("O", iterations=900),
                                  billed, trust=trust)
        assert lenient.outcome is VerificationOutcome.CONSISTENT
        assert lenient.trust_level == "degraded"
        assert "degraded" in lenient.render()


# ---------------------------------------------------------------------------
# tracing: hardware faults get their own category
# ---------------------------------------------------------------------------

class TestHwFaultTracing:
    def test_own_bucket_in_capacity_drop_breakdown(self):
        log = TraceLog(enabled=("fault", HW_FAULT_CATEGORY), capacity=1)
        log.emit(0, "fault", "page fault")          # stored, fills capacity
        log.emit(1, HW_FAULT_CATEGORY, "tick lost")  # dropped
        log.emit(2, "fault", "page fault")           # dropped
        assert log.dropped_by_category() == {"fault": 1,
                                             HW_FAULT_CATEGORY: 1}
        assert log.count(HW_FAULT_CATEGORY) == 1
        assert log.count("fault") == 2

    def test_injectors_emit_under_the_category(self):
        from repro.programs.attackers import make_busyloop
        from repro.programs.stdlib import install_standard_libraries

        machine = Machine(default_config(), trace=(HW_FAULT_CATEGORY,),
                          faults={"tick_loss_prob": 0.5,
                                  "irq_storm_pps": 10_000.0})
        install_standard_libraries(machine.kernel.libraries)
        machine.new_shell().run_command(
            make_busyloop(total_cycles=100_000_000_000))
        machine.run_for(40 * CFG.tick_ns)
        records = machine.trace_log.records(HW_FAULT_CATEGORY)
        messages = {r.message for r in records}
        assert any("tick lost" in m for m in messages)
        assert any("spurious irq" in m for m in messages)
        assert any("catch-up" in m for m in messages)
        # Page-fault records (category "fault") did not leak in.
        assert all(r.category == HW_FAULT_CATEGORY for r in records)


# ---------------------------------------------------------------------------
# VM level: the lying steal clock
# ---------------------------------------------------------------------------

class TestStealLie:
    def _vm_spec(self, faults=None):
        # A co-resident attacker so the victim actually experiences steal
        # (a solo VM is never descheduled while runnable).
        return ExperimentSpec(program="O",
                              program_kwargs={"iterations": 600},
                              attack="vm-sched",
                              attack_kwargs={"burn_fraction": 0.5},
                              vm={}, faults=faults,
                              check_invariants=True)

    def test_honest_plan_matches_no_plan(self):
        base = run_spec(self._vm_spec())
        honest = run_spec(self._vm_spec(faults={"steal_lie_factor": 1.0}))
        assert base.to_dict() == honest.to_dict()

    def test_lying_steal_clock_inflates_guest_counter(self):
        truth = run_spec(self._vm_spec())
        lied = run_spec(self._vm_spec(faults={"steal_lie_factor": 3.0}))
        assert truth.stats["victim_steal_ns"] > 0
        assert lied.stats["fault_steal_lie_ns"] > 0
        # The guest-visible counter carries the lie; the hypervisor's own
        # ledger (ground truth) does not.
        assert lied.stats["victim_guest_steal_ns"] > \
            lied.stats["victim_steal_ns"]
        # The invariant checker saw the divergence but the plan declared
        # it: recorded as tolerated, not raised.
        assert lied.stats["tolerated_violations"] > 0
