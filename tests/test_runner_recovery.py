"""Sweep-runner failure handling: dead workers and wall-clock timeouts.

Two classes of failure the batch runner must absorb without losing the
sweep:

* a worker process that dies outright (``os._exit``, OOM kill, segfault):
  the death is charged to exactly the point that worker held, the other
  workers keep running, and a dead worker is replaced while points remain
  queued;
* a per-point wall-clock timeout: the parent kills the worker at its
  deadline, so fractional ceilings hold in both directions, from any
  calling thread and against a point that masks signals.

No worker process outlives ``run()``.

The killer "programs" are registered into ``PROGRAM_FACTORIES`` in the
parent; workers inherit them via fork (specs only pickle the registry
name), so these tests are POSIX-only.  Where one point must wait for
another, it waits on a sentinel file, never on a sleep.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.runner import BatchRunner, ExperimentSpec
from repro.runner import specs as specs_module
from repro.runner.pool import WORKER_DIED
from repro.runner.progress import COMPLETED

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="fork and signal semantics are POSIX")


def _persistent_killer(delay_s=0.4):
    """Takes the worker down on every attempt."""
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
    waits for the sentinel, then lingers while the killer's worker dies."""
    _wait_for(lambda: os.path.exists(sentinel))
    time.sleep(linger_s)
    from repro.programs.workloads import make_ourprogram
    return make_ourprogram(iterations=30, mallocs=2)


def _dies_when_idle(marker="", pid_file=""):
    """An honest point whose worker dies after answering: a thread armed
    here takes the worker down once the parent has the result (it creates
    ``marker``) and the worker sits idle."""
    with open(pid_file, "w") as handle:
        handle.write(str(os.getpid()))

    def die():
        _wait_for(lambda: os.path.exists(marker))
        os._exit(43)

    threading.Thread(target=die, daemon=True).start()
    from repro.programs.workloads import make_ourprogram
    return make_ourprogram(iterations=30, mallocs=2)


def _wait_for(condition, limit_s=30.0):
    deadline = time.monotonic() + limit_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def _good(label):
    return ExperimentSpec(program="O", program_kwargs={"iterations": 40},
                          label=label)


def _run_in_thread(runner, sweep):
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(outcomes=runner.run(sweep)))
    thread.start()
    thread.join(60)
    return box["outcomes"]


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

        # The killer point: retried on a fresh worker each time, then
        # recorded as a structured failure naming the worker's exit code.
        dead = by_label["killer"]
        assert not dead.ok
        assert dead.attempts == 3
        assert dead.failure.error_type == WORKER_DIED
        assert "code 42" in dead.failure.message

        # The honest points completed on the surviving workers.
        for label in ("g0", "g1", "g2"):
            outcome = by_label[label]
            assert outcome.ok, f"{label}: {outcome.failure}"
            assert outcome.result.usage.total_ns > 0

    def test_worker_death_is_charged_to_its_culprit_only(
            self, monkeypatch, tmp_path):
        """An innocent point running when the killer's worker dies keeps
        running on its own worker; only the killer spends its retries."""
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
        assert killer.failure.error_type == WORKER_DIED

    def test_one_off_crash_fails_only_the_crasher(self, monkeypatch,
                                                  tmp_path):
        """With no retries, a crash that would not happen again still
        fails only the point that crashed, never the one running beside
        it."""
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__flaky__",
                            _transient_killer)
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__blocked__",
                            _blocked_until_killed)
        sentinel = str(tmp_path / "died-once")
        sweep = [
            ExperimentSpec(program="__flaky__",
                           program_kwargs={"sentinel": sentinel},
                           label="crasher"),
            ExperimentSpec(program="__blocked__",
                           program_kwargs={"sentinel": sentinel},
                           label="innocent"),
        ]

        crasher, innocent = BatchRunner(jobs=2, retries=0).run(sweep)

        assert not crasher.ok
        assert crasher.attempts == 1
        assert crasher.failure.error_type == WORKER_DIED
        assert innocent.ok, str(innocent.failure)
        assert innocent.attempts == 1

    def test_quarantine_holds_only_the_points_that_were_running(
            self, monkeypatch):
        """A sweep larger than ``jobs``: the killer spends its own retry
        budget and nobody else's, and every queued point still runs."""
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__killer__",
                            _persistent_killer)
        killer = ExperimentSpec(program="__killer__",
                                program_kwargs={"delay_s": 0.0},
                                label="killer")
        sweep = [killer] + [_good(f"g{i}") for i in range(7)]

        outcomes = BatchRunner(jobs=2, retries=1).run(sweep)

        by_label = {o.spec.label: o for o in outcomes}
        assert not by_label["killer"].ok
        assert by_label["killer"].attempts == 2
        for i in range(7):
            good = by_label[f"g{i}"]
            assert good.ok, str(good.failure)
            assert good.attempts == 1

    def test_worker_dying_idle_is_replaced(self, monkeypatch, tmp_path):
        """A worker that dies after answering holds no point, so nothing
        is charged: the next point runs on a replacement worker."""
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__dies_idle__",
                            _dies_when_idle)
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__blocked__",
                            _blocked_until_killed)
        marker = str(tmp_path / "answered")
        pid_file = str(tmp_path / "worker.pid")

        def kill_after_answer(event):
            # Runs in the parent before it hands out another point: the
            # worker is let die, and its exit is awaited here.
            if event.kind != COMPLETED or event.label != "dies-idle":
                return
            with open(pid_file) as handle:
                pid = int(handle.read())
            with open(marker, "w"):
                pass
            _wait_for(lambda: pid not in {
                p.pid for p in multiprocessing.active_children()})

        sweep = [
            ExperimentSpec(program="__dies_idle__",
                           program_kwargs={"marker": marker,
                                           "pid_file": pid_file},
                           label="dies-idle"),
            # Holds the other worker until the first one has died, so the
            # queued point needs the replacement.
            ExperimentSpec(program="__blocked__",
                           program_kwargs={"sentinel": marker,
                                           "linger_s": 0.0},
                           label="blocked"),
            _good("next"),
        ]

        runner = BatchRunner(jobs=2, progress=kill_after_answer)
        outcomes = runner.run(sweep)

        assert all(o.ok for o in outcomes), \
            [str(o.failure) for o in outcomes if not o.ok]
        assert [o.attempts for o in outcomes] == [1, 1, 1]

    def test_transient_worker_death_costs_a_retry_not_the_sweep(
            self, monkeypatch, tmp_path):
        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__flaky__",
                            _transient_killer)
        flaky = ExperimentSpec(
            program="__flaky__",
            program_kwargs={"sentinel": str(tmp_path / "died-once")},
            label="flaky")
        # The flaky point goes first so the honest points are running (or
        # queued) when its worker dies — they must be neither lost nor
        # charged.
        sweep = [flaky, _good("g0"), _good("g1"), _good("g2")]

        runner = BatchRunner(jobs=2, retries=1)
        outcomes = runner.run(sweep)

        assert all(o.ok for o in outcomes), \
            [str(o.failure) for o in outcomes if not o.ok]
        assert [o.attempts for o in outcomes] == [2, 1, 1, 1]
        assert runner.telemetry.retries == 1


def _poison_execute(spec):
    """Worker-side wrapper producing an unpicklable *result*: the run
    itself succeeds, but the payload cannot cross the pickle boundary back
    to the parent, so the worker answers with an error instead."""
    from repro.runner import pool as pool_module

    payload = pool_module._real_execute_spec(spec)
    if spec.label == "poison":
        return ("ok", lambda: None, payload[2])
    return payload


class TestUnpicklableResult:
    def test_unpicklable_result_consumes_retry_budget(self, monkeypatch):
        """A result that cannot be pickled must route through the same
        bounded-retry fold as a worker crash: the point charges every
        attempt, emits RETRIED events, and lands as a structured failure
        naming the pickling error — never a terminal failure on attempt
        one with retries left, and never a lost sweep."""
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


def _sleep_with_sigalrm_blocked(spec):
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(2.0)
    return "unreachable"


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
        # the full 1.5 s ceiling holds.
        monkeypatch.setattr("repro.runner.pool.run_spec",
                            lambda spec: time.sleep(1.2) or "done")
        runner = BatchRunner(timeout_s=1.5)
        outcome, = runner.run([_good("slowish")])
        assert outcome.ok
        assert outcome.result == "done"

    def test_timeout_fires_off_the_main_thread(self, monkeypatch):
        monkeypatch.setattr("repro.runner.pool.run_spec",
                            lambda spec: time.sleep(1.5) or "unreachable")
        for jobs in (1, 2):
            outcome, = _run_in_thread(BatchRunner(jobs=jobs, timeout_s=0.3),
                                      [_good("slow")])
            assert not outcome.ok, f"jobs={jobs}"
            assert outcome.failure.error_type == "TimeoutError"

    def test_timeout_kills_a_point_that_blocks_signals(self, monkeypatch):
        monkeypatch.setattr("repro.runner.pool.run_spec",
                            _sleep_with_sigalrm_blocked)
        outcome, = BatchRunner(jobs=2, timeout_s=0.3).run([_good("masked")])
        assert not outcome.ok
        assert outcome.failure.error_type == "TimeoutError"


class TestNoLeakedWorkers:
    def test_no_worker_outlives_run(self, monkeypatch):
        """Every worker is reaped before ``run()`` returns: after a clean
        sweep, after a worker death and after a timeout kill."""
        BatchRunner(jobs=2).run([_good("g0"), _good("g1")])
        assert multiprocessing.active_children() == []

        monkeypatch.setitem(specs_module.PROGRAM_FACTORIES, "__killer__",
                            _persistent_killer)
        killer = ExperimentSpec(program="__killer__",
                                program_kwargs={"delay_s": 0.0},
                                label="killer")
        outcomes = BatchRunner(jobs=2).run([killer, _good("g0")])
        assert [o.ok for o in outcomes] == [False, True]
        assert multiprocessing.active_children() == []

        monkeypatch.setattr("repro.runner.pool.run_spec",
                            lambda spec: time.sleep(30) or "unreachable")
        outcome, = BatchRunner(jobs=2, timeout_s=0.3).run([_good("hung")])
        assert outcome.failure.error_type == "TimeoutError"
        assert multiprocessing.active_children() == []
