"""Serve-plane resilience satellites: cross-process store contention,
graceful shutdown/drain, durable deadline markers, crash-and-retry.

These are the daemon-side halves of the chaos plane (docs/chaos.md):
two serve processes sharing one store must ride out each other's write
locks via ``PRAGMA busy_timeout``; SIGTERM must drain in-flight jobs and
leave their invoices durable; a blown wait deadline must leave a durable
``deadline_exceeded`` marker without failing the job; and an injected
worker crash must leave the job terminal, retryable, and billed exactly
once after the retry.
"""

import json
import signal
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.chaos import ChaosInjector, ChaosPlan
from repro.config import ServeConfig
from repro.runner.specs import run_spec
from repro.serve import MeteringService, ReproServer, UsageStore

SPEC = {"program": "W", "program_kwargs": {"loops": 200},
        "label": "chaos:unit"}

#: Holds a cross-process write lock on the store for ``argv[2]`` seconds.
HOLDER = """
import sqlite3, sys, time
conn = sqlite3.connect(sys.argv[1])
conn.execute("BEGIN IMMEDIATE")
print("HOLDING", flush=True)
time.sleep(float(sys.argv[2]))
conn.commit()
"""


def hold_lock(path, seconds):
    proc = subprocess.Popen([sys.executable, "-c", HOLDER, path,
                             str(seconds)], stdout=subprocess.PIPE,
                            text=True)
    assert proc.stdout.readline().strip() == "HOLDING"
    return proc


def http(method, url, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestBusyTimeout:
    def test_default_timeout_is_set_as_a_pragma(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        assert store.busy_timeout_ms \
            == UsageStore.DEFAULT_BUSY_TIMEOUT_MS == 5_000
        row = store._conn.execute("PRAGMA busy_timeout").fetchone()
        assert row[0] == 5_000
        store.close()
        with pytest.raises(Exception, match="busy_timeout"):
            UsageStore(str(tmp_path / "v.db"), busy_timeout_ms=-1)

    def test_zero_timeout_fails_fast_under_a_foreign_lock(self, tmp_path):
        path = str(tmp_path / "u.db")
        store = UsageStore(path, busy_timeout_ms=0)
        holder = hold_lock(path, 10.0)
        try:
            started = time.monotonic()
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.register_tenant("t")
            assert time.monotonic() - started < 2.0
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()
            store.close()

    def test_default_timeout_rides_out_the_contention(self, tmp_path):
        path = str(tmp_path / "u.db")
        store = UsageStore(path)  # default 5s budget > 0.5s hold
        holder = hold_lock(path, 0.5)
        try:
            tenant = store.register_tenant("t")
            assert tenant["name"] == "t"
            assert store.tenants()[0]["tenant_id"] == tenant["tenant_id"]
        finally:
            holder.wait(timeout=10)
            holder.stdout.close()
            store.close()


class TestGracefulShutdown:
    def test_shutdown_drains_the_inflight_job_durably(self, tmp_path):
        path = str(tmp_path / "u.db")
        service = MeteringService(UsageStore(path), jobs=2)
        tenant = service.register_tenant("t")
        job = service.submit(tenant["tenant_id"], SPEC, wait=False)
        assert service.shutdown(drain_timeout_s=60.0) is True

        reopened = UsageStore(path)  # the daemon's store was closed
        doc = reopened.job(job["job_id"])
        assert doc["state"] == "completed"
        assert reopened.ledger_count() == 1
        assert reopened.integrity_check()["ok"]
        reopened.close()

    def test_draining_flips_readyz_to_503(self, tmp_path):
        service = MeteringService(UsageStore(str(tmp_path / "u.db")))
        server = ReproServer(service)
        server.start_background()
        try:
            status, doc = http("GET", server.address + "/readyz")
            assert status == 200
            assert doc["ready"] is True and doc["draining"] is False
            service.draining = True
            status, doc = http("GET", server.address + "/readyz")
            assert status == 503
            assert doc["ready"] is False and doc["draining"] is True
        finally:
            service.draining = False
            server.close()

    def test_sigterm_drains_and_returns(self, tmp_path, capsys):
        from repro.serve.api import serve_forever

        cfg = ServeConfig(db=str(tmp_path / "u.db"), port=0,
                          drain_timeout_s=30.0)
        before = signal.getsignal(signal.SIGTERM)
        submitted = {}

        def ready(server):
            def fire():
                base = server.address
                _, tenant = http("POST", base + "/v1/tenants",
                                 {"name": "t"})
                _, job = http(
                    "POST",
                    base + f"/v1/tenants/{tenant['tenant_id']}/jobs",
                    {"spec": SPEC, "wait": False})
                submitted["job_id"] = job["job_id"]
                signal.raise_signal(signal.SIGTERM)
            threading.Thread(target=fire, daemon=True).start()

        serve_forever(cfg, verbose=False, ready=ready)  # returns on TERM

        assert signal.getsignal(signal.SIGTERM) == before
        out = capsys.readouterr().out
        assert "received SIGTERM, draining" in out
        # The in-flight job was drained before the store closed.
        store = UsageStore(cfg.db)
        doc = store.job(submitted["job_id"])
        assert doc["state"] == "completed"
        assert store.ledger_count() == 1
        store.close()


class TestDeadlineMarker:
    def make_service(self, tmp_path, delay_s=0.4):
        def slow_run(spec):
            time.sleep(delay_s)
            return run_spec(spec)
        store = UsageStore(str(tmp_path / "u.db"))
        return store, MeteringService(store, jobs=1, run=slow_run)

    def test_blown_deadline_marks_but_never_fails_the_job(self, tmp_path):
        store, service = self.make_service(tmp_path)
        tenant = service.register_tenant("t")
        job = service.submit(tenant["tenant_id"], SPEC, wait=True,
                             timeout_s=0.05)
        assert job["deadline_exceeded"] is True
        assert job["state"] in ("queued", "running")
        assert store.deadline_exceeded_count() == 1

        assert service.drain(timeout_s=60.0) is True
        doc = service.job_doc(job["job_id"])
        # The marker is an SLO paper trail: it survives completion.
        assert doc["state"] == "completed"
        assert doc["deadline_exceeded"] is True
        assert doc["invoice"]["billed_ns"] > 0
        assert "repro_serve_deadline_exceeded_total 1" \
            in service.metrics_text()
        service.close()

    def test_met_deadline_leaves_no_marker(self, tmp_path):
        store, service = self.make_service(tmp_path, delay_s=0.0)
        tenant = service.register_tenant("t")
        job = service.submit(tenant["tenant_id"], SPEC, wait=True,
                             timeout_s=60.0)
        assert job["state"] == "completed"
        assert job["deadline_exceeded"] is False
        assert store.deadline_exceeded_count() == 0
        service.close()

    def test_marker_rejects_unknown_jobs(self, tmp_path):
        store = UsageStore(str(tmp_path / "u.db"))
        with pytest.raises(KeyError):
            store.mark_deadline_exceeded("j-999999")
        store.close()


class TestCrashAndRetry:
    def crashing_service(self, tmp_path, jobs=1):
        store = UsageStore(str(tmp_path / "u.db"))
        injector = ChaosInjector(ChaosPlan(worker_crash_prob=1.0, seed=0))
        return store, MeteringService(store, jobs=jobs, chaos=injector)

    def test_crash_then_retry_bills_exactly_once(self, tmp_path):
        store, service = self.crashing_service(tmp_path)
        tenant = service.register_tenant("t")
        job = service.submit(tenant["tenant_id"], SPEC, wait=True)
        assert job["state"] == "failed"
        assert "WorkerCrash" in job["error"]
        assert store.ledger_count() == 0  # crashed before any billing

        service._chaos = None  # lift the chaos for the retry
        done = service.retry_job(job["job_id"])
        assert done["state"] == "completed"
        assert done["invoice"]["billed_ns"] > 0
        assert store.ledger_count() == 1

        again = service.retry_job(job["job_id"])  # idempotent
        assert again["state"] == "completed"
        assert store.ledger_count() == 1
        assert store.integrity_check()["ok"]
        service.close()

    def test_drain_under_crashes_leaves_every_job_retryable(self, tmp_path):
        store, service = self.crashing_service(tmp_path, jobs=2)
        tenant = service.register_tenant("t")
        jobs = [service.submit(
                    tenant["tenant_id"],
                    {**SPEC, "label": f"chaos:drain{i}",
                     "program_kwargs": {"loops": 100 + i}},
                    wait=False)
                for i in range(3)]
        assert service.drain(timeout_s=60.0) is True
        for job in jobs:
            assert service.job_doc(job["job_id"])["state"] == "failed"

        service._chaos = None
        for job in jobs:
            assert service.retry_job(
                job["job_id"])["state"] == "completed"
        assert store.ledger_count() == 3
        assert store.integrity_check()["ok"]
        service.close()

    def test_http_retry_route_recovers_a_crashed_job(self, tmp_path):
        store, service = self.crashing_service(tmp_path)
        server = ReproServer(service)
        server.start_background()
        try:
            base = server.address
            _, tenant = http("POST", base + "/v1/tenants", {"name": "t"})
            _, job = http(
                "POST", base + f"/v1/tenants/{tenant['tenant_id']}/jobs",
                {"spec": SPEC})
            assert job["state"] == "failed"

            service._chaos = None
            status, doc = http(
                "POST", base + f"/v1/jobs/{job['job_id']}/retry", {})
            assert status == 200
            assert doc["state"] == "completed"
            assert doc["invoice"]["billed_ns"] > 0
            assert store.ledger_count() == 1

            status, doc = http("POST", base + "/v1/jobs/j-999999/retry",
                               {})
            assert status == 404
        finally:
            server.close()
