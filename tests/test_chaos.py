"""Chaos plane unit contracts: plans, injection, retry, breaker.

The properties under test are the ones ``docs/chaos.md`` leans on: an
empty :class:`ChaosPlan` is an *identity* (normalises to None, installs
nothing), a non-empty plan's fault stream is a pure function of its
seed, retry/backoff schedules are deterministic and bounded, and the
circuit breaker walks CLOSED → OPEN → HALF_OPEN → CLOSED exactly as
documented — all with injected clocks and sleeps, no wall time.
"""

import inspect
import random
import sqlite3

import pytest

from repro.chaos import (
    BackoffPolicy,
    ChaosInjector,
    ChaosPlan,
    ChaosStoreProxy,
    CircuitBreaker,
    CircuitOpenError,
    ResilientStore,
    WorkerCrash,
    gauntlet_plan,
    retry_call,
)
from repro.serve.store import STORE_OPERATIONS, UsageStore

#: Public store methods the chaos proxies deliberately leave alone:
#: in-memory quota reservations, the integrity self-audit, test crash
#: hooks and connection teardown.
EXEMPT_STORE_METHODS = frozenset({
    "try_reserve", "release_reservation", "reservation_count",
    "integrity_check", "set_crash_hook", "close",
})


class TestChaosPlan:
    def test_default_plan_is_empty_and_normalises_to_none(self):
        plan = ChaosPlan()
        assert plan.is_empty()
        assert ChaosPlan.normalize(plan) is None
        assert ChaosPlan.normalize(None) is None

    def test_resilience_knobs_do_not_make_a_plan_non_empty(self):
        plan = ChaosPlan(retries=9, backoff_base_ms=50.0,
                         breaker_threshold=2, request_deadline_s=1.0)
        assert plan.is_empty()
        assert ChaosPlan.normalize(plan) is None

    def test_any_fault_probability_makes_it_non_empty(self):
        for field in ("store_error_prob", "worker_crash_prob",
                      "http_error_prob", "http_reset_prob"):
            plan = ChaosPlan(**{field: 0.1})
            assert not plan.is_empty()
            assert ChaosPlan.normalize(plan) is plan
        assert not ChaosPlan(down_shards=(1,)).is_empty()

    def test_roundtrip_through_dict(self):
        plan = gauntlet_plan(0.5, seed=42, down_shards=(2,))
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(Exception, match="unknown"):
            ChaosPlan.from_dict({"store_error_prob": 0.1, "bogus": 1})

    @pytest.mark.parametrize("kwargs", [
        {"store_error_prob": 1.5},
        {"store_error_prob": -0.1},
        {"store_slow_prob": 0.5, "store_slow_ms": 0.0},
        {"retries": -1},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(Exception):
            ChaosPlan(**kwargs)

    def test_gauntlet_plan_scales_with_intensity(self):
        lo, hi = gauntlet_plan(0.1), gauntlet_plan(0.8)
        assert lo.store_error_prob < hi.store_error_prob
        assert not hi.is_empty()


class TestChaosInjector:
    def test_fault_stream_is_a_pure_function_of_seed_and_scope(self):
        plan = ChaosPlan(store_error_prob=0.5, seed=7)

        def draw(scope):
            injector = ChaosInjector(plan, scope=scope)
            hits = []
            for _ in range(50):
                try:
                    injector.store_fault("bill_job")
                    hits.append(0)
                except sqlite3.OperationalError:
                    hits.append(1)
            return hits

        assert draw("a") == draw("a")
        assert draw("a") != draw("b")

    def test_injected_faults_are_counted_by_site_and_kind(self):
        plan = ChaosPlan(worker_crash_prob=1.0, seed=0)
        injector = ChaosInjector(plan)
        for _ in range(3):
            with pytest.raises(WorkerCrash):
                injector.worker_fault()
        assert injector.injected_by_site() == {"worker.crash": 3}
        assert injector.injected_total() == 3

    def test_http_fault_returns_actionable_tuples(self):
        plan = ChaosPlan(http_slow_prob=1.0, http_slow_ms=7.0, seed=0)
        injector = ChaosInjector(plan)
        assert injector.http_fault() == ("slow", 7.0)
        assert ChaosInjector(ChaosPlan(seed=0)).http_fault() is None

    def test_sites_draw_from_independent_streams(self):
        plan = ChaosPlan(store_error_prob=0.5, worker_crash_prob=0.5,
                         seed=3)
        lone = ChaosInjector(plan)
        mixed = ChaosInjector(plan)
        lone_hits = [bool(lone._hit("store", "error", 0.5))
                     for _ in range(20)]
        mixed_hits = []
        for _ in range(20):
            mixed._hit("worker", "crash", 0.5)  # interleaved other site
            mixed_hits.append(bool(mixed._hit("store", "error", 0.5)))
        assert lone_hits == mixed_hits


class TestChaosStoreProxy:
    def test_faults_fire_before_delegation(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        injector = ChaosInjector(ChaosPlan(store_error_prob=1.0, seed=0))
        proxy = ChaosStoreProxy(store, injector)
        with pytest.raises(sqlite3.OperationalError, match="chaos"):
            proxy.register_tenant("t")
        # Fault fired *before* the write: nothing half-executed.
        assert store.tenants() == []
        store.close()

    def test_unlisted_methods_pass_through_untouched(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        injector = ChaosInjector(ChaosPlan(store_error_prob=1.0, seed=0))
        proxy = ChaosStoreProxy(store, injector)
        assert proxy.integrity_check()["ok"]
        assert injector.injected_total() == 0
        store.close()

    def test_every_store_method_is_an_operation_or_exempt(self):
        public = {name for name, _ in
                  inspect.getmembers(UsageStore, inspect.isfunction)
                  if not name.startswith("_")}
        assert not STORE_OPERATIONS & EXEMPT_STORE_METHODS
        assert public == STORE_OPERATIONS | EXEMPT_STORE_METHODS

    def test_metrics_store_reads_are_faulted(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        injector = ChaosInjector(ChaosPlan(store_error_prob=1.0, seed=0))
        proxy = ChaosStoreProxy(store, injector)
        with pytest.raises(sqlite3.OperationalError, match="chaos"):
            proxy.deadline_exceeded_count()
        assert injector.injected_by_site() == {"store.error": 1}
        store.close()


class TestBackoffAndRetry:
    def test_delay_schedule_is_bounded_exponential(self):
        policy = BackoffPolicy(base_ms=5.0, multiplier=2.0, max_ms=30.0,
                               jitter_fraction=0.0)
        delays = [policy.delay_ms(a) for a in range(5)]
        assert delays == [5.0, 10.0, 20.0, 30.0, 30.0]

    def test_jitter_is_seeded_and_symmetric(self):
        policy = BackoffPolicy(base_ms=100.0, jitter_fraction=0.2)
        a = [policy.delay_ms(0, random.Random(1)) for _ in range(5)]
        b = [policy.delay_ms(0, random.Random(1)) for _ in range(5)]
        assert a == b
        assert all(80.0 <= d <= 120.0 for d in a)

    def test_retry_call_retries_only_declared_exceptions(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        policy = BackoffPolicy(retries=5, jitter_fraction=0.0)
        slept = []
        assert retry_call(flaky, policy, sleep=slept.append) == "ok"
        assert len(calls) == 3 and len(slept) == 2

        def domain_error():
            raise KeyError("nope")

        with pytest.raises(KeyError):
            retry_call(domain_error, policy, sleep=slept.append)

    def test_budget_exhaustion_raises_the_real_error(self):
        policy = BackoffPolicy(retries=2, jitter_fraction=0.0)
        attempts = []

        def always_fails():
            attempts.append(1)
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            retry_call(always_fails, policy, sleep=lambda s: None)
        assert len(attempts) == 3  # initial try + 2 retries

    def test_on_retry_sees_each_absorbed_fault(self):
        policy = BackoffPolicy(retries=3, jitter_fraction=0.0)
        seen = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise sqlite3.OperationalError("locked")
            return 1

        retry_call(flaky, policy, sleep=lambda s: None,
                   on_retry=lambda attempt, exc: seen.append(attempt))
        assert seen == [0, 1]


class TestCircuitBreaker:
    def make(self, threshold=3, reset_s=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(threshold=threshold, reset_s=reset_s,
                                 clock=lambda: clock["now"])
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.failure()
        assert not breaker.is_open
        breaker.failure()
        assert breaker.is_open and breaker.trips == 1
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.failure()
        breaker.success()
        breaker.failure()
        assert not breaker.is_open

    def test_half_open_probe_closes_or_reopens(self):
        breaker, clock = self.make(threshold=1, reset_s=5.0)
        breaker.failure()
        assert breaker.state == "open"
        clock["now"] = 6.0
        assert breaker.state == "half-open"
        breaker.allow()  # the single admitted probe
        with pytest.raises(CircuitOpenError, match="probe"):
            breaker.allow()
        breaker.success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_the_window(self):
        breaker, clock = self.make(threshold=1, reset_s=5.0)
        breaker.failure()
        clock["now"] = 6.0
        breaker.allow()
        breaker.failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_call_wraps_admission_and_outcome(self):
        breaker, _ = self.make(threshold=1)
        with pytest.raises(ValueError):
            breaker.call(lambda: (_ for _ in ()).throw(ValueError("x")))
        assert breaker.is_open
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: 1)


class TestResilientStore:
    def test_absorbs_injected_contention_end_to_end(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        plan = ChaosPlan(store_error_prob=0.4, seed=5, retries=8,
                         backoff_base_ms=0.0, backoff_max_ms=0.0)
        injector = ChaosInjector(plan)
        resilient = ResilientStore.from_plan(
            ChaosStoreProxy(store, injector), plan)
        # Hammer the faulted read path; every call must succeed.
        tenant = resilient.register_tenant("t")
        for _ in range(30):
            assert resilient.tenant(tenant["tenant_id"])["name"] == "t"
        assert injector.injected_total() > 0
        assert resilient.retries_total >= injector.injected_total() > 0
        store.close()

    def test_counters_and_breaker_visible_through_the_wrapper(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        plan = ChaosPlan(store_error_prob=1.0, seed=1, retries=1,
                         backoff_base_ms=0.0, backoff_max_ms=0.0,
                         breaker_threshold=1)
        injector = ChaosInjector(plan)
        resilient = ResilientStore.from_plan(
            ChaosStoreProxy(store, injector), plan)
        with pytest.raises(sqlite3.OperationalError):
            resilient.ledger_count()
        assert resilient.breaker.is_open
        with pytest.raises(CircuitOpenError):
            resilient.ledger_count()
        # Non-resilient attributes delegate straight through.
        assert resilient.chaos_injector is injector
        assert resilient.fsyncs == store.fsyncs
        store.close()

    def test_retries_the_deadline_exceeded_count(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))

        class Flaky:
            """Fails the first two store calls with contention."""

            def __init__(self):
                self.calls = 0

            def __getattr__(self, name):
                attr = getattr(store, name)

                def flaky(*args, **kwargs):
                    self.calls += 1
                    if self.calls <= 2:
                        raise sqlite3.OperationalError("database is locked")
                    return attr(*args, **kwargs)
                return flaky

        resilient = ResilientStore(
            Flaky(), policy=BackoffPolicy(retries=3, jitter_fraction=0.0),
            sleep=lambda s: None)
        assert resilient.deadline_exceeded_count() == 0
        assert resilient.retries_total == 2
        store.close()

    def test_domain_errors_propagate_without_retry(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        plan = ChaosPlan(store_error_prob=0.0, store_slow_prob=0.0,
                         worker_crash_prob=0.1, seed=1)
        resilient = ResilientStore.from_plan(store, plan)
        with pytest.raises(KeyError):
            resilient.tenant("t-unknown")
        assert resilient.retries_total == 0
        store.close()
