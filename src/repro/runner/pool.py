"""The batch experiment runner: fan a sweep across worker processes.

``BatchRunner.run(specs)`` resolves each point against the result cache,
executes the misses and returns one :class:`RunOutcome` per spec *in
input order*.  ``jobs=1`` without a timeout runs the points in-process;
otherwise they run on up to ``jobs`` long-lived worker processes, forked
per ``run()``.  A point that raises, kills its worker or exceeds the
per-run wall timeout is retried up to ``retries`` times and then recorded
as a structured :class:`FailureRecord`; the rest of the sweep always
completes.

Determinism: every point boots a fresh machine from its spec's config and
seed, so the parallel path is bit-identical to the serial one (the
equivalence suite enforces this field by field).

Each worker has one duplex pipe to the parent and holds at most one
point, so the parent always knows which point a worker is running.  A
worker that dies outright (OOM kill, segfault, ``os._exit``) shows as EOF
on its pipe or as its process sentinel firing; the death is charged to
exactly the point it held, naming the exit code or signal, and the other
workers keep running.  A timeout is the parent killing the worker when
its point's deadline passes, so it holds whichever thread calls ``run()``
and against a point that masks signals.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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

#: ``FailureRecord.error_type`` of a point whose worker process died.
WORKER_DIED = "WorkerDied"

#: ("ok", result, wall_s) or ("error", (type, message, traceback), wall_s).
Payload = Tuple[str, object, float]


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


def _error(error_type: str, message: str, wall: float,
           tb: str = "") -> Payload:
    return ("error", (error_type, message, tb), wall)


def _execute_spec(spec: ExperimentSpec) -> Payload:
    """Run one spec and never raise: the exception becomes the payload."""
    start = time.perf_counter()
    try:
        return ("ok", run_spec(spec), time.perf_counter() - start)
    except Exception as exc:
        return _error(type(exc).__name__, str(exc),
                      time.perf_counter() - start,
                      traceback.format_exc(limit=8))


def _serve(conn, parent_end) -> None:
    """Worker-process loop: run each spec the parent sends and answer with
    its payload.  The parent kills the worker when it is done with it."""
    parent_end.close()  # so the parent's death ends the loop below
    try:
        while True:
            payload = _execute_spec(conn.recv())
            try:
                conn.send(payload)
            except OSError:
                raise
            except Exception as exc:
                # The result does not pickle, so nothing was written:
                # answer with an ordinary error the retry fold can charge.
                conn.send(_error(type(exc).__name__,
                                 str(exc) or type(exc).__name__, payload[2]))
    except (EOFError, OSError):
        return  # the parent is gone


class _Worker:
    """One worker process, the parent's end of its pipe, and the index of
    the point it holds (None while idle)."""

    def __init__(self, context) -> None:
        self.conn, child_end = context.Pipe()
        self.process = context.Process(target=_serve,
                                       args=(child_end, self.conn))
        self.process.start()
        child_end.close()
        self.index: Optional[int] = None
        self.started = 0.0

    def hand(self, index: int, spec: ExperimentSpec) -> bool:
        """Give the worker a point; False if it has already died."""
        try:
            self.conn.send(spec)
        except OSError:
            self.process.join()
            return False
        self.index, self.started = index, time.perf_counter()
        return True

    def take(self) -> Payload:
        """The held point's payload, or its death if the worker died."""
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        self.process.join()
        code = self.process.exitcode
        cause = (f"killed by signal {-code}" if code < 0
                 else f"exited with code {code}")
        return _error(WORKER_DIED, f"worker process {cause}",
                      time.perf_counter() - self.started)

    def close(self) -> None:
        self.process.kill()
        self.process.join()
        self.process.close()
        self.conn.close()


class BatchRunner:
    """Execute sweeps of :class:`ExperimentSpec`s with caching and retry.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) without a timeout runs
        in-process, which is also the reference path for equivalence
        tests.
    cache:
        Optional :class:`ResultCache` (or a path-like, which constructs
        one).  Hits skip execution entirely.
    timeout_s:
        Per-point wall-clock ceiling: the parent kills the worker running
        a point that passes it.  Setting it runs every point in a worker
        (one when ``jobs=1``).
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
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
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
            if self.jobs == 1 and self.timeout_s is None:
                self._run_serial(specs, live, outcomes, total, emit)
            else:
                self._run_workers(specs, live, outcomes, total, emit)
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
                total: int, payload: Payload,
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
                payload = _execute_spec(specs[index])
                if not self._finish(outcomes, index, total, payload,
                                    attempt, emit):
                    break

    def _run_workers(self, specs, live, outcomes, total, emit) -> None:
        context = multiprocessing.get_context()
        queue = deque(live)  # points awaiting a worker, retries at the end
        attempts = dict.fromkeys(live, 0)
        workers: List[_Worker] = []
        try:
            while True:
                # A dead idle worker is dropped; a replacement is forked
                # below only if points are still queued.
                for worker in [w for w in workers if w.index is None
                               and not w.process.is_alive()]:
                    workers.remove(worker)
                    worker.close()
                idle = [w for w in workers if w.index is None]
                while queue and (idle or len(workers) < self.jobs):
                    if idle:
                        worker = idle.pop()
                    else:
                        worker = _Worker(context)
                        workers.append(worker)
                    index = queue[0]
                    if not worker.hand(index, specs[index]):
                        continue  # died idle: dropped on the next pass
                    queue.popleft()
                    attempts[index] += 1
                    emit(ProgressEvent(STARTED, index, total,
                                       specs[index].name,
                                       attempt=attempts[index]))
                busy = [w for w in workers if w.index is not None]
                if not busy:
                    if not queue:
                        return
                    continue  # every worker tried had died: fork anew
                timeout = None
                if self.timeout_s is not None:
                    first = min(w.started for w in busy) + self.timeout_s
                    timeout = max(0.0, first - time.perf_counter())
                ready = set(wait([w.conn for w in busy]
                                 + [w.process.sentinel for w in workers],
                                 timeout))
                now = time.perf_counter()
                for worker in busy:
                    if ready & {worker.conn, worker.process.sentinel}:
                        payload = worker.take()
                    elif (self.timeout_s is not None
                          and now - worker.started >= self.timeout_s):
                        worker.process.kill()
                        worker.process.join()
                        payload = _error(
                            "TimeoutError",
                            f"run exceeded {self.timeout_s}s wall clock",
                            now - worker.started)
                    else:
                        continue
                    index, worker.index = worker.index, None
                    if self._finish(outcomes, index, total, payload,
                                    attempts[index], emit):
                        queue.append(index)
        finally:
            for worker in workers:
                worker.close()
