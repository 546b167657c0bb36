"""End-to-end selftest for ``repro serve`` — also the CI smoke scenario.

Boots a *real* server on an ephemeral port and drives it over HTTP the
way a tenant would (stdlib ``urllib``, no test framework):

* an **honest** tenant submits the paper's W workload and must get a
  ``consistent`` audit verdict;
* an **attacker** tenant submits the same workload under the §IV-B1
  scheduling attack (nice −20, tick-dodging forks) and must get billed
  for the stolen cycles *and flagged* by the tenant audit;
* a re-submission of the honest spec is served from the durable ledger
  without re-running, byte-identical invoice included;
* a **capped** tenant exhausts its CPU-time quota and sees a 429, then a
  queued submission released by a quota raise;
* ``/metrics`` exposes the whole story and the store passes its
  integrity check (conservation law included).

Every observation lands in the same ``[PASS]/[FAIL]`` check list the
``vm``/``faults`` commands use, and ``repro serve --selftest`` exits
non-zero if any check fails.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

from ..analysis.scenario import CheckList
from .api import ReproServer
from .service import MeteringService
from .store import UsageStore

POLL_TIMEOUT_S = 60.0


class _Client:
    """Tiny JSON-over-HTTP client for the selftest (stdlib only)."""

    def __init__(self, base: str) -> None:
        self.base = base

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Any, str]:
        """(status, parsed JSON or None, raw text)."""
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                status = resp.status
                text = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            status = exc.code
            text = exc.read().decode("utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        return status, doc, text

    def get(self, path: str) -> Tuple[int, Any, str]:
        return self.request("GET", path)

    def post(self, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any, str]:
        return self.request("POST", path, body or {})


def _settled(service: MeteringService, client: _Client,
             job_id: str) -> Dict[str, Any]:
    """A job's document once every dispatched job is terminal.  The
    selftest owns the service, so it drains it rather than polling: one
    GET per job, however long the simulation takes."""
    if not service.drain(timeout_s=POLL_TIMEOUT_S):
        raise TimeoutError(f"job {job_id} not settled after "
                           f"{POLL_TIMEOUT_S}s")
    return client.get(f"/v1/jobs/{job_id}")[1]


def _canon(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True)


def run_selftest(db: str, scale: float = 0.1, jobs: int = 2,
                 quiet: bool = False) -> Dict[str, Any]:
    """Run the scenario against a throwaway server; return the report doc
    (``passed``, ``checks``, endpoint samples)."""
    from ..analysis.figures import paper_workload_params

    checks = CheckList(echo=not quiet)
    check = checks.check

    params = dict(paper_workload_params(scale)["W"])
    honest_spec = {"program": "W", "program_kwargs": params,
                   "label": "serve:honest"}
    attack_spec = {"program": "W", "program_kwargs": params,
                   "attack": "scheduling",
                   "attack_kwargs": {"nice": -20,
                                     "forks": max(1, int(8_000 * scale))},
                   "label": "serve:attacker"}

    store = UsageStore(db)
    service = MeteringService(store, jobs=jobs)
    server = ReproServer(service)
    server.start_background()
    client = _Client(server.address)
    try:
        status, health, _ = client.get("/healthz")
        check("healthz answers", status == 200 and health.get("ok") is True,
              f"status={status} doc={health}")

        _, honest, _ = client.post("/v1/tenants", {"name": "honest"})
        _, attacker, _ = client.post(
            "/v1/tenants", {"name": "attacker", "plan": "per-cpu-second"})
        status, bad, _ = client.post("/v1/tenants",
                                     {"name": "bad", "plan": "free-lunch"})
        check("unknown plan rejected",
              status == 400 and "plan" in bad.get("error", ""),
              f"status={status} error={bad.get('error')!r}")

        # Honest tenant: synchronous submit, audit must come back clean.
        status, hjob, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": honest_spec})
        check("honest job completes synchronously",
              status == 200 and hjob["state"] == "completed"
              and hjob["invoice"] is not None,
              f"status={status} state={hjob.get('state')}")
        _, haudit, _ = client.get(f"/v1/jobs/{hjob['job_id']}/audit")
        check("honest tenant's audit is consistent",
              haudit["verdict"] == "consistent" and not haudit["flagged"],
              f"verdict={haudit['verdict']} "
              f"overbilling={haudit['overbilling_ns'] / 1e9:+.3f}s")

        # Attacker tenant: §IV-B1 scheduling attack, asynchronous submit.
        status, ajob, _ = client.post(
            f"/v1/tenants/{attacker['tenant_id']}/jobs",
            {"spec": attack_spec, "wait": False})
        check("async submit returns immediately with a pollable job",
              status == 200 and ajob["job_id"].startswith("j-"),
              f"status={status} state={ajob.get('state')}")
        ajob = _settled(service, client, ajob["job_id"])
        check("attacker job completes", ajob["state"] == "completed",
              f"state={ajob['state']} error={ajob.get('error')}")
        _, aaudit, _ = client.get(f"/v1/jobs/{ajob['job_id']}/audit")
        check("scheduling attack flagged by the tenant audit",
              aaudit["flagged"]
              and aaudit["verdict"] in ("overbilled", "misreported"),
              f"verdict={aaudit['verdict']} "
              f"overbilling={aaudit['overbilling_ns'] / 1e9:+.3f}s")
        check("attack inflates the victim's bill",
              ajob["invoice"]["billed_ns"] > hjob["invoice"]["billed_ns"],
              f"attacked={ajob['invoice']['billed_ns'] / 1e9:.3f}s "
              f"honest={hjob['invoice']['billed_ns'] / 1e9:.3f}s")

        # Idempotency: same key returns the same job, no re-run.
        status, hjob2, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": honest_spec, "idempotency_key": "retry-1"})
        status, hjob3, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": honest_spec, "idempotency_key": "retry-1"})
        check("idempotency key dedups the resubmission",
              hjob2["job_id"] == hjob3["job_id"],
              f"{hjob2['job_id']} vs {hjob3['job_id']}")
        check("resubmitted spec served from the ledger, not re-run",
              hjob2["cached"] is True,
              f"cached={hjob2['cached']}")
        check("ledger-served invoice byte-identical to the original",
              _canon(hjob2["invoice"]) == _canon(hjob["invoice"]),
              f"{len(_canon(hjob2['invoice']))} bytes compared")

        # Quota: capped tenant runs once, then hits its budget.
        _, capped, _ = client.post(
            "/v1/tenants", {"name": "capped", "quota_ns": 1_000_000})
        status, cjob, _ = client.post(
            f"/v1/tenants/{capped['tenant_id']}/jobs",
            {"spec": dict(honest_spec, label="serve:capped")})
        check("capped tenant's first job runs (budget not yet consumed)",
              status == 200 and cjob["state"] == "completed",
              f"status={status} state={cjob.get('state')}")
        status, rejected, _ = client.post(
            f"/v1/tenants/{capped['tenant_id']}/jobs",
            {"spec": dict(honest_spec, label="serve:capped2")})
        check("over-budget submission rejected with 429",
              status == 429 and rejected["job"]["state"] == "rejected",
              f"status={status} error={rejected.get('error')!r}")
        status, queued, _ = client.post(
            f"/v1/tenants/{capped['tenant_id']}/jobs",
            {"spec": dict(honest_spec, label="serve:capped3"),
             "over_quota": "queue", "wait": False})
        check("over-budget submission can queue instead",
              status == 200 and queued["state"] == "queued",
              f"status={status} state={queued.get('state')}")
        client.post(f"/v1/tenants/{capped['tenant_id']}/quota",
                    {"quota_ns": None})
        released = _settled(service, client, queued["job_id"])
        check("queued job released by the quota raise",
              released["state"] == "completed",
              f"state={released['state']}")

        # Usage history and the conservation law.
        _, usage, _ = client.get(
            f"/v1/tenants/{honest['tenant_id']}/usage")
        ledger_sum = sum(entry["billed_ns"] for entry in usage["ledger"])
        check("usage ledger sums to the reported total",
              ledger_sum == usage["total_billed_ns"] and ledger_sum > 0,
              f"{len(usage['ledger'])} entries, "
              f"{ledger_sum / 1e9:.3f}s billed")
        integrity = store.integrity_check()
        check("store integrity + conservation law hold",
              integrity["ok"],
              f"problems={integrity['problems']}")

        # Error surface.
        status, _, _ = client.get("/v1/jobs/j-999999")
        check("unknown job is a 404", status == 404, f"status={status}")
        status, badspec, _ = client.post(
            f"/v1/tenants/{honest['tenant_id']}/jobs",
            {"spec": {"program": "W", "bogus_field": 1}})
        check("malformed spec is a 400",
              status == 400 and "bogus_field" in badspec.get("error", ""),
              f"status={status} error={badspec.get('error')!r}")

        # Metrics exposition.
        status, _, metrics_text = client.get("/metrics")
        expected_series = [
            'repro_serve_jobs_total{state="completed"}',
            "repro_serve_jobs_inflight",
            'repro_serve_billed_ns_total{tenant="attacker"',
            'repro_serve_quota_rejections_total{tenant="capped"} 1',
            "repro_serve_ledger_entries_total",
            "repro_serve_store_fsyncs_total",
            'repro_serve_http_requests_total{code="429",method="POST"} 1',
        ]
        missing = [s for s in expected_series if s not in metrics_text]
        check("/metrics exposes the expected series",
              status == 200 and not missing,
              f"missing={missing}" if missing
              else f"{len(metrics_text.splitlines())} lines")
        completed = service.store.job_state_counts()["completed"]
        check("metrics job counts agree with the store",
              f'repro_serve_jobs_total{{state="completed"}} {completed}'
              in metrics_text,
              f"completed={completed}")
    finally:
        server.close()

    return {
        "command": "serve-selftest",
        "db": db,
        "scale": scale,
        "jobs": jobs,
        "passed": checks.passed,
        "checks": checks.to_list(),
        "metrics": metrics_text if checks.passed else None,
    }
