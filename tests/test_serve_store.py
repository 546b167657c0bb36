"""Crash-safety suite for the serve daemon's durable usage store.

The store's contract (docs/serve.md): every billing write is one atomic
WAL transaction, ledger inserts are idempotent per job, and killing the
process at *any* instant inside the transaction leaves — after reopening
the database — either the complete bill or no trace of it, never a torn
row and never a double charge.  The suite kills the store at each named
point via injected-crash hooks and re-verifies the invariants from a
fresh connection, exactly as a restarted daemon would see them.
"""

import pytest

from repro.serve import (
    InjectedCrash,
    MeteringService,
    QuotaExceeded,
    StoreError,
    UsageStore,
)
from repro.serve.store import JOB_STATES


def result_doc(utime_ns=30_000_000, stime_ns=5_000_000):
    """A minimal stored-result document (what integrity_check audits)."""
    return {"usage": {"utime_ns": utime_ns, "stime_ns": stime_ns},
            "stats": {}, "oracle_seconds": {}}


def bill(store, job_id, utime_ns=30_000_000, stime_ns=5_000_000,
         cached=False):
    return store.bill_job(
        job_id, result_doc(utime_ns, stime_ns),
        billed_ns=utime_ns + stime_ns, utime_ns=utime_ns,
        stime_ns=stime_ns, trust_level="trusted", uncertainty_ns=0,
        amount_microdollars=1, cached=cached)


@pytest.fixture
def store(tmp_path):
    store = UsageStore(str(tmp_path / "usage.db"))
    yield store
    store.close()


@pytest.fixture
def tenant(store):
    return store.register_tenant("acme")


def crash():
    raise InjectedCrash("simulated power loss")


class TestTenants:
    def test_register_assigns_ids_and_defaults(self, store):
        a = store.register_tenant("a")
        b = store.register_tenant("b", plan="per-cpu-hour",
                                  quota_ns=10)
        assert a["tenant_id"] == "t-0001"
        assert b["tenant_id"] == "t-0002"
        assert a["plan"] == "per-cpu-second"
        assert a["quota_ns"] is None
        assert b["quota_ns"] == 10
        assert [t["name"] for t in store.tenants()] == ["a", "b"]

    def test_duplicate_name_rejected(self, store):
        store.register_tenant("a")
        with pytest.raises(StoreError):
            store.register_tenant("a")

    def test_unknown_tenant_is_key_error(self, store):
        with pytest.raises(KeyError):
            store.tenant("t-9999")

    def test_quota_validation(self, store, tenant):
        with pytest.raises(StoreError):
            store.set_quota(tenant["tenant_id"], -1)
        store.set_quota(tenant["tenant_id"], 5)
        assert store.tenant(tenant["tenant_id"])["quota_ns"] == 5
        store.set_quota(tenant["tenant_id"], None)
        assert store.tenant(tenant["tenant_id"])["quota_ns"] is None


class TestJobs:
    def test_create_and_fetch(self, store, tenant):
        job, created = store.create_job(tenant["tenant_id"], "k1",
                                        {"program": "W"})
        assert created
        assert job["job_id"] == "j-000001"
        assert job["state"] == "queued"
        assert job["spec"] == {"program": "W"}
        assert job["idempotency_key"] == "auto:j-000001"

    def test_idempotency_key_dedups(self, store, tenant):
        tid = tenant["tenant_id"]
        first, created1 = store.create_job(tid, "k1", {"program": "W"},
                                           idempotency_key="retry")
        again, created2 = store.create_job(tid, "k1", {"program": "W"},
                                           idempotency_key="retry")
        assert created1 and not created2
        assert first["job_id"] == again["job_id"]
        assert store.job_state_counts()["queued"] == 1

    def test_idempotency_scoped_per_tenant(self, store):
        a = store.register_tenant("a")["tenant_id"]
        b = store.register_tenant("b")["tenant_id"]
        ja, _ = store.create_job(a, "k1", {}, idempotency_key="retry")
        jb, _ = store.create_job(b, "k1", {}, idempotency_key="retry")
        assert ja["job_id"] != jb["job_id"]

    def test_state_machine_names_enforced(self, store, tenant):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        with pytest.raises(StoreError):
            store.set_job_state(job["job_id"], "meditating")
        for state in JOB_STATES:
            store.set_job_state(job["job_id"], state)
            assert store.job(job["job_id"])["state"] == state


class TestBilling:
    def test_bill_completes_and_appends(self, store, tenant):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        assert bill(store, job["job_id"]) is True
        done = store.job(job["job_id"])
        assert done["state"] == "completed"
        assert done["result"] == result_doc()
        entry = store.ledger_entry_for_job(job["job_id"])
        assert entry.billed_ns == 35_000_000
        assert store.ledger_total_ns(tenant["tenant_id"]) == 35_000_000

    def test_double_bill_is_idempotent(self, store, tenant):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        assert bill(store, job["job_id"]) is True
        assert bill(store, job["job_id"]) is False
        assert store.ledger_count() == 1
        assert store.integrity_check()["ok"]

    def test_find_result_by_spec_serves_earliest(self, store, tenant):
        tid = tenant["tenant_id"]
        j1, _ = store.create_job(tid, "same-spec", {})
        j2, _ = store.create_job(tid, "same-spec", {})
        bill(store, j1["job_id"], utime_ns=10)
        bill(store, j2["job_id"], utime_ns=20)
        assert store.find_result_by_spec("same-spec") == result_doc(
            utime_ns=10)
        assert store.find_result_by_spec("never-ran") is None

    def test_integrity_names_the_tenant_whose_bills_disagree(self, store):
        honest, padded = (store.register_tenant(name)["tenant_id"]
                          for name in ("honest", "padded"))
        store.register_tenant("idle")  # no jobs: 0 recomputed, 0 billed
        for tid in (honest, honest, padded):
            job, _ = store.create_job(tid, "k", {})
            bill(store, job["job_id"])
        job, _ = store.create_job(padded, "k", {})
        store.bill_job(job["job_id"], result_doc(), billed_ns=99,
                       utime_ns=30_000_000, stime_ns=5_000_000,
                       trust_level="trusted", uncertainty_ns=0,
                       amount_microdollars=1)
        report = store.integrity_check()
        assert not report["ok"]
        assert report["problems"] == [
            f"tenant {padded}: ledger total 35000099 != billed ns "
            f"recomputed from job results 70000000"]


class TestCrashRecovery:
    """Kill the store mid-transaction, reopen, audit the wreckage."""

    def reopen(self, store):
        store.close()
        return UsageStore(store.path)

    @pytest.mark.parametrize("point", ["bill:after-insert",
                                       "bill:before-commit"])
    def test_crash_inside_transaction_leaves_no_trace(self, store, tenant,
                                                      point):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        store.set_job_state(job["job_id"], "running")
        store.set_crash_hook(point, crash)
        with pytest.raises(InjectedCrash):
            bill(store, job["job_id"])
        recovered = self.reopen(store)
        try:
            # No torn rows: the half-written bill vanished entirely.
            assert recovered.ledger_count() == 0
            after = recovered.job(job["job_id"])
            assert after["state"] == "running"
            assert after["result"] is None
            assert recovered.integrity_check()["ok"]
            # The crash-and-retry path bills exactly once.
            assert bill(recovered, job["job_id"]) is True
            assert recovered.ledger_count() == 1
            assert recovered.integrity_check()["ok"]
        finally:
            recovered.close()

    def test_crash_after_commit_is_durable_and_retry_safe(self, store,
                                                          tenant):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        store.set_crash_hook("bill:after-commit", crash)
        with pytest.raises(InjectedCrash):
            bill(store, job["job_id"])
        recovered = self.reopen(store)
        try:
            # The commit beat the crash: the bill survived...
            assert recovered.ledger_count() == 1
            assert recovered.job(job["job_id"])["state"] == "completed"
            # ...and the oblivious client's retry does NOT double-bill.
            assert bill(recovered, job["job_id"]) is False
            assert recovered.ledger_count() == 1
            assert recovered.integrity_check()["ok"]
        finally:
            recovered.close()

    def test_repeated_crash_retry_cycles_bill_once(self, store, tenant):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        for _ in range(3):
            store.set_crash_hook("bill:before-commit", crash)
            with pytest.raises(InjectedCrash):
                bill(store, job["job_id"])
            store = self.reopen(store)
        store.set_crash_hook("bill:before-commit", None)
        assert bill(store, job["job_id"]) is True
        assert store.ledger_count() == 1
        assert store.integrity_check()["ok"]

    def test_clean_reopen_preserves_everything(self, store, tenant):
        tid = tenant["tenant_id"]
        job, _ = store.create_job(tid, "k1", {"program": "W"})
        bill(store, job["job_id"])
        fsyncs = store.fsyncs
        assert fsyncs > 0
        recovered = self.reopen(store)
        try:
            assert recovered.ledger_total_ns(tid) == 35_000_000
            assert recovered.job(job["job_id"])["spec"] == {"program": "W"}
            assert recovered.integrity_check()["ok"]
        finally:
            recovered.close()

    def test_integrity_check_catches_tampered_ledger(self, store, tenant):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        bill(store, job["job_id"])
        # Falsify the books behind the store's back: conservation breaks.
        store._conn.execute("UPDATE ledger SET billed_ns = billed_ns + 1")
        report = store.integrity_check()
        assert not report["ok"]
        assert any("ledger total" in p for p in report["problems"])

    def test_integrity_check_catches_orphan_completed_job(self, store,
                                                          tenant):
        job, _ = store.create_job(tenant["tenant_id"], "k1", {})
        store.set_job_state(job["job_id"], "completed")
        report = store.integrity_check()
        assert not report["ok"]
        assert any("no ledger row" in p for p in report["problems"])


class TestServiceCrashRetry:
    """The daemon-level story: a worker dies mid-bill, the retry path
    completes the job from a reopened store without double-billing."""

    def spec_doc(self):
        return {"program": "W", "program_kwargs": {"loops": 120},
                "label": "crash-retry"}

    def test_crashed_job_retries_to_single_bill(self, tmp_path):
        path = str(tmp_path / "usage.db")
        store = UsageStore(path)
        service = MeteringService(store, jobs=1)
        tenant = service.register_tenant("acme")
        store.set_crash_hook("bill:before-commit", crash)
        job = service.submit(tenant["tenant_id"], self.spec_doc())
        assert job["state"] == "running"  # the crash ate the completion
        assert store.ledger_count() == 0
        service._pool.shutdown(wait=True)
        store.close()

        # "Restart": fresh store, fresh service, same database file.
        store = UsageStore(path)
        service = MeteringService(store, jobs=1)
        retried = service.retry_job(job["job_id"])
        assert retried["state"] == "completed"
        assert retried["invoice"]["billed_ns"] > 0
        assert store.ledger_count() == 1
        assert store.integrity_check()["ok"]
        service.close()

    def test_retry_after_durable_commit_serves_not_rebills(self, tmp_path):
        path = str(tmp_path / "usage.db")
        store = UsageStore(path)
        service = MeteringService(store, jobs=1)
        tenant = service.register_tenant("acme")
        store.set_crash_hook("bill:after-commit", crash)
        job = service.submit(tenant["tenant_id"], self.spec_doc())
        assert job["state"] == "completed"  # commit won the race
        store.set_crash_hook("bill:after-commit", None)
        retried = service.retry_job(job["job_id"])
        assert retried["state"] == "completed"
        assert store.ledger_count() == 1  # still exactly one bill
        assert store.integrity_check()["ok"]
        service.close()


class TestQuotaStore:
    def test_quota_exceeded_carries_job_doc(self, tmp_path):
        store = UsageStore(str(tmp_path / "usage.db"))
        service = MeteringService(store, jobs=1)
        tenant = service.register_tenant("capped", quota_ns=1)
        spec = {"program": "W", "program_kwargs": {"loops": 120}}
        service.submit(tenant["tenant_id"], dict(spec, label="first"))
        with pytest.raises(QuotaExceeded) as excinfo:
            service.submit(tenant["tenant_id"], dict(spec, label="second"))
        assert excinfo.value.job["state"] == "rejected"
        assert store.job_state_counts()["rejected"] == 1
        service.close()


class TestReadStatementCounts:
    """Every tenant read is a fixed number of SQL statements: none of them
    re-fetches per job, so a read costs the same at 1 and at 40 jobs."""

    @staticmethod
    def statements_per_read(tmp_path, completed):
        store = UsageStore(str(tmp_path / f"usage-{completed}.db"))
        service = MeteringService(store, jobs=1)
        tid = service.register_tenant("acme")["tenant_id"]
        for i in range(completed):
            job, _ = store.create_job(tid, f"key-{i}", {"program": "W",
                                                        "label": f"j{i}"})
            bill(store, job["job_id"])
        statements = []
        store._conn.set_trace_callback(statements.append)
        counts = {}
        for read in (service.tenant_doc, service.usage_doc,
                     service.jobs_doc):
            del statements[:]
            doc = read(tid)
            counts[read.__name__] = len(statements)
        store._conn.set_trace_callback(None)
        assert len(doc) == completed  # jobs_doc lists every job
        service.close()
        return counts

    def test_tenant_reads_issue_the_same_statements_at_any_size(
            self, tmp_path):
        assert self.statements_per_read(tmp_path, 1) == \
            self.statements_per_read(tmp_path, 40)
