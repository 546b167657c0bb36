"""The batch experiment runner: fan a sweep across worker processes.

``BatchRunner.run(specs)`` resolves each point against the result cache,
executes the misses — serially for ``jobs=1``, on a
``concurrent.futures.ProcessPoolExecutor`` otherwise — and returns one
:class:`RunOutcome` per spec *in input order*.  A point that raises (or
exceeds the per-run wall timeout) is retried up to ``retries`` times and
then recorded as a structured :class:`FailureRecord`; the rest of the sweep
always completes.

Determinism: every point boots a fresh machine from its spec's config and
seed, so the parallel path is bit-identical to the serial one (the
equivalence suite enforces this field by field).

Timeouts are enforced *inside* the executing process via a real-time
interval timer (``SIGALRM``; POSIX main thread only — silently skipped
elsewhere), at full sub-second resolution, so a hung point turns into an
ordinary failure instead of a leaked worker.

A worker that dies outright (OOM kill, segfault, ``os._exit``) breaks the
whole ``ProcessPoolExecutor``.  The runner keeps at most one point per
worker in flight, so only running points fail with it; it replaces the
executor, re-runs each of them alone in a single-worker quarantine pool,
and charges an attempt only to a point that breaks a pool by itself — so
one worker-killer cannot spend the retry budget of the points it shared
the pool with.  The sweep continues.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .cache import ResultCache
from .progress import (
    CACHED,
    COMPLETED,
    FAILED,
    RETRIED,
    STARTED,
    ProgressEvent,
    ProgressHook,
    SweepTelemetry,
    fanout,
)
from .specs import ExperimentSpec, run_spec, spec_key

if TYPE_CHECKING:  # pragma: no cover - typing only (import-cycle guard)
    from ..analysis.experiment import ExperimentResult


class SweepError(ReproError):
    """Raised by :meth:`BatchRunner.run_results` when any point failed."""


@dataclass(frozen=True)
class FailureRecord:
    """Why one sweep point did not produce a result."""

    label: str
    key: str
    error_type: str
    message: str
    attempts: int
    traceback: str = ""

    def __str__(self) -> str:
        return (f"{self.label}: {self.error_type}: {self.message} "
                f"(after {self.attempts} attempt(s))")


@dataclass
class RunOutcome:
    """One spec's fate: a result (live or cached) or a failure record."""

    spec: ExperimentSpec
    key: str
    result: Optional[ExperimentResult] = None
    failure: Optional[FailureRecord] = None
    cached: bool = False
    wall_s: float = 0.0
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.result is not None


class _RunTimeout(Exception):
    """The in-worker SIGALRM fired."""


def _alarm_handler(signum, frame):  # pragma: no cover - signal context
    raise _RunTimeout()


def _execute_spec(spec: ExperimentSpec,
                  timeout_s: Optional[float]) -> Tuple[str, object, float]:
    """Worker-side entry: run one spec, never raise across the pickle
    boundary.  Returns ("ok", result, wall_s) or ("error", record-less
    (type, message, traceback) tuple, wall_s)."""
    use_alarm = (timeout_s is not None and timeout_s > 0
                 and hasattr(signal, "SIGALRM")
                 and hasattr(signal, "setitimer")
                 and threading.current_thread() is threading.main_thread())
    start = time.perf_counter()
    previous = None
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _alarm_handler)
        # setitimer, not alarm(): alarm truncates to whole seconds, which
        # turns a 0.5s ceiling into 1s (and 0 into "no timeout at all").
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        result = run_spec(spec)
        return ("ok", result, time.perf_counter() - start)
    except _RunTimeout:
        wall = time.perf_counter() - start
        return ("error", ("TimeoutError",
                          f"run exceeded {timeout_s}s wall clock", ""), wall)
    except Exception as exc:
        wall = time.perf_counter() - start
        return ("error", (type(exc).__name__, str(exc),
                          traceback.format_exc(limit=8)), wall)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class BatchRunner:
    """Execute sweeps of :class:`ExperimentSpec`s with caching and retry.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) runs in-process with no
        executor, which is also the reference path for equivalence tests.
    cache:
        Optional :class:`ResultCache` (or a path-like, which constructs
        one).  Hits skip execution entirely.
    timeout_s:
        Per-point wall-clock ceiling, enforced in the executing process.
    retries:
        Extra attempts after a failed point before recording the failure.
    progress:
        Optional hook (or list of hooks) receiving
        :class:`~repro.runner.progress.ProgressEvent`s.  A fresh
        :class:`SweepTelemetry` is attached per ``run`` as
        ``self.telemetry`` regardless.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 0,
                 progress: Optional[object] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.cache = ResultCache(cache) if isinstance(cache, (str, bytes)) \
            or hasattr(cache, "__fspath__") else cache
        self.timeout_s = timeout_s
        self.retries = retries
        hooks = progress if isinstance(progress, (list, tuple)) \
            else [progress]
        self._extra_hooks: List[Optional[ProgressHook]] = list(hooks)
        self.telemetry = SweepTelemetry()

    # -- public API ---------------------------------------------------------

    def run(self, specs: Sequence[ExperimentSpec]) -> List[RunOutcome]:
        """Run every spec; outcomes come back in input order."""
        specs = list(specs)
        self.telemetry = SweepTelemetry()
        emit = fanout(self.telemetry, *self._extra_hooks)
        total = len(specs)
        outcomes: List[Optional[RunOutcome]] = [None] * total

        live: List[int] = []
        for index, spec in enumerate(specs):
            key = spec_key(spec)
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                outcomes[index] = RunOutcome(
                    spec=spec, key=key, result=cached, cached=True)
                emit(ProgressEvent(CACHED, index, total, spec.name))
            else:
                outcomes[index] = RunOutcome(spec=spec, key=key)
                live.append(index)

        if live:
            if self.jobs == 1:
                self._run_serial(specs, live, outcomes, total, emit)
            else:
                self._run_pool(specs, live, outcomes, total, emit)
        return [outcome for outcome in outcomes if outcome is not None]

    def run_results(self,
                    specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Like :meth:`run` but unwraps results, raising :class:`SweepError`
        if any point failed — for callers (the figures) that need every
        point."""
        outcomes = self.run(specs)
        failures = [o.failure for o in outcomes if not o.ok]
        if failures:
            raise SweepError(
                f"{len(failures)}/{len(outcomes)} sweep points failed: "
                + "; ".join(str(f) for f in failures[:3]))
        return [o.result for o in outcomes]

    # -- execution paths ----------------------------------------------------

    def _finish(self, outcomes: List[Optional[RunOutcome]], index: int,
                total: int, payload: Tuple[str, object, float],
                attempt: int, emit: ProgressHook) -> bool:
        """Fold one worker payload into ``outcomes[index]``.  Returns True
        if the point should be retried."""
        outcome = outcomes[index]
        status, value, wall = payload
        outcome.attempts = attempt
        outcome.wall_s += wall
        if status == "ok":
            outcome.result = value
            if self.cache is not None:
                self.cache.put(outcome.spec, value)
            emit(ProgressEvent(COMPLETED, index, total, outcome.spec.name,
                               wall_s=wall, attempt=attempt))
            return False
        error_type, message, tb = value
        if attempt <= self.retries:
            emit(ProgressEvent(RETRIED, index, total, outcome.spec.name,
                               wall_s=wall, attempt=attempt,
                               error=f"{error_type}: {message}"))
            return True
        outcome.failure = FailureRecord(
            label=outcome.spec.name, key=outcome.key,
            error_type=error_type, message=message,
            attempts=attempt, traceback=tb)
        emit(ProgressEvent(FAILED, index, total, outcome.spec.name,
                           wall_s=wall, attempt=attempt,
                           error=f"{error_type}: {message}"))
        return False

    def _run_serial(self, specs, live, outcomes, total, emit) -> None:
        for index in live:
            attempt = 0
            while True:
                attempt += 1
                emit(ProgressEvent(STARTED, index, total, specs[index].name,
                                   attempt=attempt))
                payload = _execute_spec(specs[index], self.timeout_s)
                if not self._finish(outcomes, index, total, payload,
                                    attempt, emit):
                    break

    def _run_pool(self, specs, live, outcomes, total, emit) -> None:
        attempts: Dict[int, int] = {index: 0 for index in live}
        queue: List[int] = list(live)  # points awaiting (re)submission
        pending: Dict[object, int] = {}  # in-flight future -> spec index
        executor = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            while queue or pending:
                # At most one point per worker in flight: a broken pool
                # fails every pending future, and only the points that
                # were running can have killed it.
                while queue and len(pending) < self.jobs:
                    try:
                        future = executor.submit(_execute_spec,
                                                 specs[queue[0]],
                                                 self.timeout_s)
                    except BrokenExecutor:
                        # A worker died since the last wait.  The points
                        # in flight carry the breakage into the fold
                        # below; with none in flight, replace the pool.
                        if pending:
                            break
                        executor.shutdown(wait=False)
                        executor = ProcessPoolExecutor(max_workers=self.jobs)
                        continue
                    index = queue.pop(0)
                    attempts[index] += 1
                    emit(ProgressEvent(STARTED, index, total,
                                       specs[index].name,
                                       attempt=attempts[index]))
                    pending[future] = index
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                # Points in flight when a worker died outright (OOM kill,
                # segfault, os._exit), with their breakage payloads.
                suspects: Dict[int, Tuple[str, object, float]] = {}
                for future in done:
                    index = pending.pop(future)
                    payload, broken = self._collect(future)
                    if broken:
                        suspects[index] = payload
                    elif self._finish(outcomes, index, total, payload,
                                      attempts[index], emit):
                        queue.append(index)
                if suspects:
                    # The pool is unusable from here: every other
                    # in-flight future fails with the same breakage.
                    for future, index in pending.items():
                        payload, broken = self._collect(future, timeout=5.0)
                        if broken:
                            suspects[index] = payload
                        elif self._finish(outcomes, index, total, payload,
                                          attempts[index], emit):
                            queue.append(index)
                    pending = {}
                    executor.shutdown(wait=False)
                    executor = ProcessPoolExecutor(max_workers=self.jobs)
                    self._quarantine(specs, suspects, attempts, outcomes,
                                     total, emit)
        finally:
            executor.shutdown(wait=False)

    def _quarantine(self, specs, suspects, attempts, outcomes, total,
                    emit) -> None:
        """Find which of a broken pool's ``suspects`` killed it.

        Only a point that breaks a pool by itself is charged an attempt:
        a lone suspect already did; otherwise each suspect re-runs the
        same attempt alone in a single-worker pool, and the ones that
        break it are the culprits.  The others keep that re-run's
        outcome uncharged, so a persistent worker-killer cannot spend
        the retry budget of innocent points that shared its pool.  A
        culprit's retries stay in quarantine.  If no suspect breaks its
        pool again (a one-off crash), the culprit cannot be told apart:
        every suspect is charged and its re-run counts as its retry.
        """
        if len(suspects) == 1:
            runs = {index: (payload, True)
                    for index, payload in suspects.items()}
        else:
            runs = {index: self._run_alone(specs[index])
                    for index in suspects}
        reproduced = any(broken for _, broken in runs.values())
        for index, (payload, _) in runs.items():
            if not reproduced:
                if not self._finish(outcomes, index, total, suspects[index],
                                    attempts[index], emit):
                    continue
                attempts[index] += 1
                emit(ProgressEvent(STARTED, index, total, specs[index].name,
                                   attempt=attempts[index]))
            while self._finish(outcomes, index, total, payload,
                               attempts[index], emit):
                attempts[index] += 1
                emit(ProgressEvent(STARTED, index, total, specs[index].name,
                                   attempt=attempts[index]))
                payload, _ = self._run_alone(specs[index])

    def _run_alone(self, spec: ExperimentSpec
                   ) -> Tuple[Tuple[str, object, float], bool]:
        with ProcessPoolExecutor(max_workers=1) as executor:
            return self._collect(executor.submit(_execute_spec, spec,
                                                 self.timeout_s))

    @classmethod
    def _collect(cls, future, timeout: Optional[float] = None
                 ) -> Tuple[Tuple[str, object, float], bool]:
        """A finished future's payload, and whether its pool broke."""
        try:
            return future.result(timeout=timeout), False
        except BrokenExecutor as exc:
            return cls._broken_payload(exc), True
        except Exception as exc:
            # The future itself raised — an unpicklable result or
            # argument, most commonly.  Same bounded retry-or-failure fold
            # as every other error: the point charges its attempt and
            # retries until the budget runs out.
            return cls._error_payload(exc), False

    @staticmethod
    def _broken_payload(exc: BaseException) -> Tuple[str, object, float]:
        message = str(exc) or ("a worker process died abruptly; "
                               "the pool was replaced")
        return ("error", (type(exc).__name__, message, ""), 0.0)

    @staticmethod
    def _error_payload(exc: BaseException) -> Tuple[str, object, float]:
        """A future-raised exception (unpicklable result/argument, executor
        bookkeeping error) as a worker payload — never an empty message."""
        message = str(exc) or type(exc).__name__
        return ("error", (type(exc).__name__, message, ""), 0.0)
