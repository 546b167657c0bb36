"""Service-plane chaos engineering for the metering daemon.

``repro.chaos`` injects *infrastructure* faults — SQLite contention and
latency, worker crashes and hangs, HTTP 5xx/resets/slowdowns, dark
shards — into the serving plane, and ships the resilience machinery
(bounded seeded backoff, circuit breaker, per-request deadlines) that
keeps billing exact underneath them.  The ``repro chaos`` gauntlet
(:mod:`repro.chaos.gauntlet`) runs a sharded fleet through all of it and
asserts the trustworthiness invariants live.  See ``docs/chaos.md``.

The gauntlet module is imported lazily (it pulls in the fleet stack);
the store proxies take their operation list from
:data:`repro.serve.store.STORE_OPERATIONS`.
"""

from .inject import ChaosInjector, ChaosStoreProxy, WorkerCrash
from .plan import ChaosPlan, gauntlet_plan
from .resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BackoffPolicy,
    CircuitBreaker,
    CircuitOpenError,
    ResilientStore,
    retry_call,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BackoffPolicy",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosStoreProxy",
    "CircuitBreaker",
    "CircuitOpenError",
    "ResilientStore",
    "WorkerCrash",
    "gauntlet_plan",
    "retry_call",
]
