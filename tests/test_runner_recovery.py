"""Sweep-runner failure handling: dead workers and sub-second timeouts.

Two classes of failure the batch runner must absorb without losing the
sweep:

* a worker process that dies outright (``os._exit``, OOM kill, segfault)
  breaks the whole ``ProcessPoolExecutor`` — every in-flight future fails
  with ``BrokenProcessPool``; the runner must replace the executor,
  charge the death to its culprit only and keep going;
* a per-point wall-clock timeout below one second — ``signal.alarm``
  truncates to whole seconds (0.3 s becomes "no timeout at all"), so the
  runner uses ``setitimer`` and must honour fractional ceilings in both
  directions.

The killer "programs" are registered into ``PROGRAM_FACTORIES`` in the
parent; pool workers inherit them via fork (specs only pickle the registry
name), so these tests are POSIX-only.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runner import BatchRunner, ExperimentSpec
from repro.runner import pool as pool_module
from repro.runner import specs as specs_module

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="fork/SIGALRM semantics are POSIX")


def _persistent_killer(delay_s=0.4):
    """Takes the worker down on every attempt.  The delay lets the quick
    honest points drain off the pool first, so only the killer itself is
    in flight when the executor breaks."""
    time.sleep(delay_s)
    os._exit(42)


def _transient_killer(sentinel=""):
    """Takes the worker down on the first attempt only: the sentinel file
    survives the ``os._exit`` and flips the factory to a real program."""
    if os.path.exists(sentinel):
        from repro.programs.workloads import make_ourprogram
        return make_ourprogram(iterations=30, mallocs=2)
    with open(sentinel, "w"):
        pass
    os._exit(42)


def _signalling_killer(sentinel=""):
    """Takes the worker down on every attempt, first leaving a sentinel
    file that tells :func:`_blocked_until_killed` it has fired."""
    with open(sentinel, "w"):
        pass
    os._exit(42)


def _blocked_until_killed(sentinel="", linger_s=0.5):
    """An honest point that cannot finish before the killer has fired: it
    waits for the sentinel, then lingers so the pool breaks under it."""
    deadline = time.monotonic() + 30.0
    while not os.path.exists(sentinel) and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(linger_s)
    from repro.programs.workloads import make_ourprogram
    return make_ourprogram(iterations=30, mallocs=2)


class _SubmitAfterFirstDone(ProcessPoolExecutor):
    """Holds every submit after the first until the first point is done,
    so a killer submitted first has broken the pool by then."""

    first = None

    def submit(self, fn, /, *args, **kwargs):
        if self.first is None:
            self.first = super().submit(fn, *args, **kwargs)
            return self.first
        wait([self.first])
        return super().submit(fn, *args, **kwargs)


class _BrokenBeforeFirstSubmit(ProcessPoolExecutor):
    """The first pool made is broken before any point is submitted, as
    when an idle worker is killed."""

    made = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).made += 1
        self.broken = type(self).made == 1

    def submit(self, fn, /, *args, **kwargs):
        if self.broken:
            raise BrokenProcessPool("an idle worker died")
        return super().submit(fn, *args, **kwargs)


def _good(label):
    return ExperimentSpec(program="O", program_kwargs={"iterations": 40},
                          label=label)


class TestBrokenPoolRecovery:
    def test_sweep_survives_persistent_worker_death(self, monkeypatch):
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__killer__",
                            _persistent_killer)
        sweep = [_good("g0"), _good("g1"), _good("g2"),
                 ExperimentSpec(program="__killer__", label="killer")]

        runner = BatchRunner(jobs=2, retries=2)
        outcomes = runner.run(sweep)

        assert len(outcomes) == len(sweep)
        by_label = {o.spec.label: o for o in outcomes}

        # The killer point: retried on a fresh executor each time, then
        # recorded as a structured failure naming the pool breakage.
        dead = by_label["killer"]
        assert not dead.ok
        assert dead.attempts == 3
        assert "Broken" in dead.failure.error_type
        assert dead.failure.message  # never an empty failure message

        # The honest points completed despite the pool being replaced.
        for label in ("g0", "g1", "g2"):
            outcome = by_label[label]
            assert outcome.ok, f"{label}: {outcome.failure}"
            assert outcome.result.usage.total_ns > 0

    def test_worker_death_is_charged_to_its_culprit_only(
            self, monkeypatch, tmp_path):
        """An innocent point in flight when the killer takes the pool down
        is re-run alone and keeps its first attempt; only the killer, which
        breaks a pool by itself, spends its retry budget."""
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__killer__",
                            _signalling_killer)
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__blocked__",
                            _blocked_until_killed)
        sentinel = str(tmp_path / "killer-fired")
        sweep = [
            ExperimentSpec(program="__killer__",
                           program_kwargs={"sentinel": sentinel},
                           label="killer"),
            ExperimentSpec(program="__blocked__",
                           program_kwargs={"sentinel": sentinel},
                           label="innocent"),
        ]

        runner = BatchRunner(jobs=2, retries=1)
        outcomes = runner.run(sweep)

        by_label = {o.spec.label: o for o in outcomes}
        innocent = by_label["innocent"]
        assert innocent.ok, str(innocent.failure)
        assert innocent.attempts == 1
        killer = by_label["killer"]
        assert not killer.ok
        assert killer.attempts == 2
        assert "Broken" in killer.failure.error_type

    def test_quarantine_holds_only_the_points_that_were_running(
            self, monkeypatch):
        """A sweep larger than ``jobs`` keeps one point per worker in
        flight, so a worker death quarantines at most ``jobs`` suspects;
        the points still queued run in the replacement pool."""
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__killer__",
                            _persistent_killer)
        alone = []
        run_alone = BatchRunner._run_alone

        def counted(self, spec):
            alone.append(spec.label)
            return run_alone(self, spec)

        monkeypatch.setattr(BatchRunner, "_run_alone", counted)
        killer = ExperimentSpec(program="__killer__",
                                program_kwargs={"delay_s": 0.0},
                                label="killer")
        sweep = [killer] + [_good(f"g{i}") for i in range(7)]

        runner = BatchRunner(jobs=2, retries=1)
        outcomes = runner.run(sweep)

        # At most one innocent shared the pool with the killer; the
        # killer's one retry also runs alone.
        assert len(alone) <= runner.jobs + runner.retries, alone
        assert alone.count("killer") >= 1
        by_label = {o.spec.label: o for o in outcomes}
        assert not by_label["killer"].ok
        assert by_label["killer"].attempts == 2
        for i in range(7):
            good = by_label[f"g{i}"]
            assert good.ok, str(good.failure)
            assert good.attempts == 1

    def test_pool_broken_before_a_submit_is_replaced(self, monkeypatch):
        """A worker may die between two submits.  A point that could not
        be submitted never ran: it waits for the replacement pool and is
        not charged."""
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__killer__",
                            _persistent_killer)
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor",
                            _SubmitAfterFirstDone)
        killer = ExperimentSpec(program="__killer__",
                                program_kwargs={"delay_s": 0.0},
                                label="killer")

        outcomes = BatchRunner(jobs=2, retries=1).run([killer, _good("g0")])

        killer_outcome, good = outcomes
        assert not killer_outcome.ok
        assert killer_outcome.attempts == 2
        assert good.ok, str(good.failure)
        assert good.attempts == 1

    def test_pool_broken_with_nothing_in_flight_is_replaced(
            self, monkeypatch):
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor",
                            _BrokenBeforeFirstSubmit)
        monkeypatch.setattr(_BrokenBeforeFirstSubmit, "made", 0)

        outcomes = BatchRunner(jobs=2).run([_good("g0"), _good("g1")])

        assert [o.attempts for o in outcomes] == [1, 1]
        assert all(o.ok for o in outcomes)
        assert _BrokenBeforeFirstSubmit.made == 2

    def test_transient_worker_death_costs_a_retry_not_the_sweep(
            self, monkeypatch, tmp_path):
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__flaky__",
                            _transient_killer)
        flaky = ExperimentSpec(
            program="__flaky__",
            program_kwargs={"sentinel": str(tmp_path / "died-once")},
            label="flaky")
        # The flaky point goes first so the honest points are in flight
        # (or queued) when the pool breaks — they must be folded into
        # retries rather than lost or misrecorded.
        sweep = [flaky, _good("g0"), _good("g1"), _good("g2")]

        runner = BatchRunner(jobs=2, retries=1)
        outcomes = runner.run(sweep)

        assert all(o.ok for o in outcomes), \
            [str(o.failure) for o in outcomes if not o.ok]
        by_label = {o.spec.label: o for o in outcomes}
        assert by_label["flaky"].attempts == 2
        assert runner.telemetry.retries >= 1

    def test_broken_payload_has_message_even_when_exc_is_bare(self):
        payload = BatchRunner._broken_payload(RuntimeError())
        status, (error_type, message, _), _wall = payload
        assert status == "error"
        assert error_type == "RuntimeError"
        assert message


def _poison_execute(spec, timeout_s):
    """Worker-side wrapper producing an unpicklable *result*: the run
    itself succeeds, but the payload cannot cross the pickle boundary back
    to the parent, so the future raises in the parent instead."""
    from repro.runner import pool as pool_module

    payload = pool_module._real_execute_spec(spec, timeout_s)
    if spec.label == "poison":
        return ("ok", lambda: None, payload[2])
    return payload


class TestUnpicklableResult:
    def test_unpicklable_result_consumes_retry_budget(self, monkeypatch):
        """A future that raises (unpicklable result) must route through
        the same bounded-retry fold as a worker crash: the point charges
        every attempt, emits RETRIED events, and lands as a structured
        failure naming the pickling error — never a terminal failure on
        attempt one with retries left, and never a lost sweep."""
        from repro.runner import pool as pool_module
        from repro.runner.progress import FAILED, RETRIED

        monkeypatch.setattr(pool_module, "_real_execute_spec",
                            pool_module._execute_spec, raising=False)
        monkeypatch.setattr(pool_module, "_execute_spec", _poison_execute)

        poison = ExperimentSpec(program="O",
                                program_kwargs={"iterations": 40},
                                label="poison")
        sweep = [_good("g0"), poison, _good("g1")]
        runner = BatchRunner(jobs=2, retries=2)
        outcomes = runner.run(sweep)

        by_label = {o.spec.label: o for o in outcomes}
        bad = by_label["poison"]
        assert not bad.ok
        assert bad.attempts == 3  # 1 initial + 2 retries, fully consumed
        assert bad.failure.attempts == 3
        assert "pickle" in bad.failure.message.lower()
        assert bad.failure.message  # never an empty failure message

        kinds = [e.kind for e in runner.telemetry.events if e.index == 1]
        assert kinds.count(RETRIED) == 2
        assert kinds.count(FAILED) == 1

        # The rest of the sweep is untouched.
        for label in ("g0", "g1"):
            assert by_label[label].ok, str(by_label[label].failure)


class TestFractionalTimeout:
    def test_sub_second_timeout_fires(self, monkeypatch):
        # With alarm()-based enforcement int(0.3) == 0 disables the timer
        # entirely and this run would take the full 0.9 s and succeed.
        monkeypatch.setattr("repro.runner.pool.run_spec",
                            lambda spec: time.sleep(0.9) or "unreachable")
        runner = BatchRunner(timeout_s=0.3)
        start = time.perf_counter()
        outcome, = runner.run([_good("slow")])
        elapsed = time.perf_counter() - start
        assert not outcome.ok
        assert outcome.failure.error_type == "TimeoutError"
        assert "0.3" in outcome.failure.message
        assert elapsed < 0.8

    def test_fractional_ceiling_is_not_truncated_down(self, monkeypatch):
        # alarm(int(1.5)) would fire at 1.0 s and kill this 1.2 s run;
        # setitimer honours the full 1.5 s ceiling.
        monkeypatch.setattr("repro.runner.pool.run_spec",
                            lambda spec: time.sleep(1.2) or "done")
        runner = BatchRunner(timeout_s=1.5)
        outcome, = runner.run([_good("slowish")])
        assert outcome.ok
        assert outcome.result == "done"
