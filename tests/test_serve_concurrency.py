"""Determinism-under-contention suite for the serve daemon.

The simulator is deterministic given a spec, so the serving layer must
not launder that away: N threads hammering one service with interleaved
tenant workloads have to produce invoices **byte-identical** to the same
specs run serially through :func:`~repro.runner.specs.run_spec`, and the
durable ledger has to obey the conservation law — the sum of every
completed job's billed nanoseconds equals the ledger total — no matter
how the worker pool interleaved the billing transactions.
"""

import json
import threading

import pytest

from repro.metering.billing import PER_SECOND_PLAN
from repro.runner.specs import run_spec, spec_from_dict
from repro.serve import MeteringService, UsageStore
from repro.serve.service import invoice_doc_for, spec_doc_name

N_TENANTS = 4
JOBS_PER_TENANT = 2  # 8 concurrent submissions, the acceptance floor


def spec_docs():
    """Eight distinct small W workloads (distinct spec identities), one of
    them attacked, plus one spec shared verbatim by two tenants."""
    docs = []
    for i in range(N_TENANTS * JOBS_PER_TENANT):
        doc = {"program": "W", "program_kwargs": {"loops": 120 + 40 * i},
               "label": f"wl-{i}"}
        if i == 3:
            doc["attack"] = "scheduling"
            doc["attack_kwargs"] = {"nice": -20, "forks": 200}
        docs.append(doc)
    # Tenants 0 and 2 submit an identical spec: same identity, and the
    # ledger must end up with one bill per *job*, identical amounts.
    docs[6] = dict(docs[2])
    return docs


def canon(doc):
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def contention(tmp_path_factory):
    """Run the whole contention scenario once; the tests assert on it."""
    docs = spec_docs()
    serial_invoices = {}
    for doc in docs:
        if canon(doc) in serial_invoices:
            continue
        result = run_spec(spec_from_dict(doc))
        serial_invoices[canon(doc)] = invoice_doc_for(
            spec_doc_name(doc), result.to_dict(), PER_SECOND_PLAN)

    store = UsageStore(str(tmp_path_factory.mktemp("serve") / "usage.db"))
    service = MeteringService(store, jobs=4)
    tenants = [service.register_tenant(f"tenant-{i}")
               for i in range(N_TENANTS)]

    barrier = threading.Barrier(len(docs))
    jobs = {}
    errors = []

    def submit(index, doc):
        tenant = tenants[index % N_TENANTS]
        barrier.wait()
        try:
            jobs[index] = service.submit(tenant["tenant_id"], doc,
                                         wait=True)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append((index, exc))

    threads = [threading.Thread(target=submit, args=(i, doc))
               for i, doc in enumerate(docs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    yield {"docs": docs, "serial": serial_invoices, "jobs": jobs,
           "errors": errors, "store": store, "service": service}
    service.close()


class TestInterleavedSubmissions:
    def test_all_jobs_complete(self, contention):
        assert contention["errors"] == []
        assert len(contention["jobs"]) == len(contention["docs"])
        states = [job["state"] for job in contention["jobs"].values()]
        assert states == ["completed"] * len(contention["docs"])

    def test_concurrent_invoices_byte_identical_to_serial(self, contention):
        for index, doc in enumerate(contention["docs"]):
            concurrent = canon(contention["jobs"][index]["invoice"])
            serial = canon(contention["serial"][canon(doc)])
            assert concurrent == serial, f"invoice diverged for job {index}"

    def test_duplicate_spec_bills_identically_per_tenant(self, contention):
        # Jobs 2 and 6 carry the same spec from different tenants: two
        # ledger rows, byte-identical invoices (one possibly served from
        # the ledger, which must not change a single byte).
        j2, j6 = contention["jobs"][2], contention["jobs"][6]
        assert j2["job_id"] != j6["job_id"]
        assert j2["spec_key"] == j6["spec_key"]
        assert canon(j2["invoice"]) == canon(j6["invoice"])
        store = contention["store"]
        assert store.ledger_entry_for_job(j2["job_id"]).billed_ns == \
            store.ledger_entry_for_job(j6["job_id"]).billed_ns

    def test_conservation_law_under_contention(self, contention):
        store = contention["store"]
        billed_by_jobs = sum(job["invoice"]["billed_ns"]
                             for job in contention["jobs"].values())
        ledger_total = sum(
            store.ledger_total_ns(t["tenant_id"])
            for t in store.tenants())
        assert billed_by_jobs == ledger_total
        assert store.ledger_count() == len(contention["docs"])
        assert ledger_total > 0

    def test_store_integrity_after_contention(self, contention):
        report = contention["store"].integrity_check()
        assert report["ok"], report["problems"]

    def test_ledger_amounts_match_plan(self, contention):
        store = contention["store"]
        for job in contention["jobs"].values():
            entry = store.ledger_entry_for_job(job["job_id"])
            assert entry.amount_microdollars == \
                PER_SECOND_PLAN.cost_microdollars(entry.billed_ns)

    def test_ledger_rows_match_their_invoices(self, contention):
        store = contention["store"]
        for job in contention["jobs"].values():
            entry = store.ledger_entry_for_job(job["job_id"])
            invoice = job["invoice"]
            assert (entry.billed_ns, entry.trust_level, entry.uncertainty_ns,
                    entry.amount_microdollars) == (
                invoice["billed_ns"], invoice["trust"]["level"],
                invoice["trust"]["uncertainty_ns"],
                invoice["amount_microdollars"])

    def test_metrics_agree_with_ledger(self, contention):
        text = contention["service"].metrics_text()
        n = len(contention["docs"])
        assert f'repro_serve_jobs_total{{state="completed"}} {n}' in text
        assert f"repro_serve_ledger_entries_total {n}" in text
        assert "repro_serve_jobs_inflight 0" in text
