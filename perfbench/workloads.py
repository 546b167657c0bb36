"""The benchmark's three workloads: ``figures``, ``fleet_warm`` and
``serve_mixed`` (see README.md for why each exists).

A workload object is built from the seed, set up (``setup`` returns the
duration of each set-up it did, in seconds), then measured by one or more
timed phases.  Each phase runs whole units of work (a figure pass, a warm
fleet run, a client cycle) until ``seconds`` have passed, and returns a
:class:`Phase` with everything the end-to-end and per-layer metrics are
computed from.  Every workload checks its own outputs as it goes and
counts failed operations against attempted ones.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.analysis.figures as figures_mod
import repro.runner.specs as specs_mod
from repro.analysis.experiment import ExperimentResult
from repro.analysis.figures import paper_workload_params
from repro.hw.machine import Machine
from repro.metering.billing import PER_SECOND_PLAN, TrustReport
from repro.metering.steal import audit_result
from repro.runner.cache import ResultCache
from repro.runner.progress import COMPLETED, FAILED, STARTED
from repro.serve.service import invoice_doc_for

from tracing import HEADER, Tracer

#: Figure set of the ``figures`` workload, at the CLI's default scale:
#: every shape check passes there, while fig10 and fig11 fail at 0.3.
FIGURE_IDS = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
              "fig11", "vmsched", "smp", "faultsweep", "timesync")
FIGURES_SCALE = 0.4

#: 10k hosts rather than 20k: the per-host cost is the same, and halving
#: each warm run fits four of them, and two cold primings, in one run.
FLEET_HOSTS = 10_000
FLEET_GUESTS = 2
FLEET_SCALE = 0.05
#: Cold primings per run, each into a fresh cache; ``setup_s`` takes
#: their median and ``fresh_*`` pools their points.
FLEET_SETUPS = 2

SERVE_SCALE = 0.05
SERVE_JOBS = 2
SERVE_CLIENTS = 2
#: One ``/metrics`` scrape every this many client cycles.
SERVE_METRICS_EVERY = 5
#: Server set-ups per run; ``setup_s`` takes their median.
SERVE_SETUPS = 3

#: Read samples after each figure and after each warm fleet run: at least
#: 100 per run, so that ten lie beyond p90.
FIGURE_READ_ROUNDS = 9
FLEET_READ_ROUNDS = 25

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (50 or 90), inclusive method."""
    if not values:
        return 0.0
    if q == 50 or len(values) == 1:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tenant_read(name: str, result: ExperimentResult) -> str:
    """What a tenant reads about one result: its invoice, trust grade and
    steal audit, derived exactly as the serve layer's GETs derive them."""
    trust = TrustReport.from_stats(result.stats)
    audit = audit_result(result, trust_uncertainty_ns=trust.uncertainty_ns)
    return canonical([invoice_doc_for(name, result.to_dict(),
                                      PER_SECOND_PLAN),
                      trust.level.value, audit.verdict.value,
                      audit.overbilling_ns])


@dataclass
class Phase:
    """Measurements of one timed phase."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Wall seconds of each unit of work (pass / warm run / client cycle).
    units: List[float] = field(default_factory=list)
    requests: int = 0
    hosts: int = 0
    #: Simulated nanoseconds of every result delivered.
    sim_ns: int = 0
    latency_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {"fresh": [], "repeat": [], "read": []})
    attempted: int = 0
    failed: int = 0
    #: Results whose ``stats`` feed the exact ``sim.*`` counts.
    results: List[ExperimentResult] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Wall and CPU seconds spent in read probes, kept off the clocks.
    probe_s: float = 0.0
    probe_cpu_s: float = 0.0

    def merge(self, other: "Phase") -> None:
        """Fold in a phase measured concurrently with this one."""
        self.units.extend(other.units)
        self.requests += other.requests
        self.hosts += other.hosts
        self.sim_ns += other.sim_ns
        for cls, values in other.latency_ms.items():
            self.latency_ms[cls].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.results.extend(other.results)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def read_probe(self, named: List[Tuple[str, ExperimentResult]],
                   rounds: int) -> None:
        """Tenant reads over results the phase just produced.

        One sample derives the reads of every result in ``named``: a single
        result's read takes tens of microseconds, too short to time steadily
        on its own.  Probes run between units, so their samples spread over
        the whole phase; their time is excluded from the phase's clocks.
        """
        start, cpu = time.perf_counter(), time.process_time()
        for _ in range(rounds):
            began = time.perf_counter()
            try:
                for name, result in named:
                    tenant_read(name, result)
                ok = True
            except Exception:  # a failed read is counted, not fatal
                ok = False
            self.latency_ms["read"].append(
                (time.perf_counter() - began) * 1e3)
            self.count(ok)
        self.probe_s += time.perf_counter() - start
        self.probe_cpu_s += time.process_time() - cpu


def run_units(seconds: float, unit: Callable[[Phase], None]) -> Phase:
    """Run whole units until ``seconds`` have passed (at least one)."""
    phase = Phase()
    start, cpu = time.perf_counter(), time.process_time()
    while True:
        began, probed = time.perf_counter(), phase.probe_s
        unit(phase)
        phase.units.append(time.perf_counter() - began
                           - (phase.probe_s - probed))
        if time.perf_counter() - start >= seconds:
            break
    phase.wall_s = time.perf_counter() - start - phase.probe_s
    phase.cpu_s = time.process_time() - cpu - phase.probe_cpu_s
    return phase


STORE_METHODS = ("create_job", "try_reserve", "bill_job",
                 "find_result_by_spec", "job")


def install_layers(tracer: Tracer) -> None:
    """Trace the public entry points of every layer the workloads reach."""
    from repro.fleet import aggregate, expand
    from repro.serve.service import MeteringService
    from repro.serve.store import UsageStore

    tracer.wrap_method(Machine, "__init__", "hw.machine_init")
    tracer.wrap_function(specs_mod, "run_spec", "runner.run_spec")
    tracer.wrap_function(specs_mod, "spec_key", "runner.spec_key")
    tracer.wrap_method(ResultCache, "get", "runner.cache_get",
                       flag=lambda result: result is not None)
    tracer.wrap_function(expand, "distinct_units", "fleet.distinct_units")
    tracer.wrap_method(aggregate.FleetAggregator, "add",
                       "fleet.aggregate.add")
    tracer.wrap_method(aggregate.FleetAggregator, "report",
                       "fleet.aggregate.report")
    for method in ("submit", "invoice_doc", "trust_doc", "audit_doc",
                   "usage_doc", "metrics_text", "register_tenant"):
        tracer.wrap_method(MeteringService, method, f"serve.service.{method}")
    for method in STORE_METHODS:
        tracer.wrap_method(UsageStore, method, f"serve.store.{method}")


# -- figures -----------------------------------------------------------------

class Figures:
    """Every figure, cold and serial with no cache: simulator-bound."""

    name = "figures"

    def __init__(self, seed: int, out_dir: str) -> None:
        # Every figure keeps its committed config and seeds, because its
        # shape checks are calibrated on them: the inputs (and the digest)
        # are the same for every --seed.  The order is fixed as well, so
        # the same points are "fresh" and "repeat" in every run.
        self.scale = FIGURES_SCALE
        self.digests: List[str] = []
        self.failed_checks: List[str] = []
        self._points: List[Tuple[Any, float, ExperimentResult]] = []
        self._tracer: Optional[Tracer] = None
        with open(EXPECTED, encoding="utf-8") as handle:
            self.expected = json.load(handle)["figures"]

    def setup(self) -> List[float]:
        start = time.perf_counter()
        # Warm-up: the simulator planes run_spec imports lazily.
        import repro.faults  # noqa: F401
        import repro.timesync  # noqa: F401
        import repro.virt.experiment  # noqa: F401

        self._saved_run_spec = figures_mod.run_spec

        def timed_run_spec(spec: Any) -> ExperimentResult:
            began = time.perf_counter()
            result = specs_mod.run_spec(spec)  # traced when tracing is on
            self._points.append((spec, (time.perf_counter() - began) * 1e3,
                                 result))
            return result

        figures_mod.run_spec = timed_run_spec
        return [time.perf_counter() - start]

    def instrument(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer

    def _pass(self, phase: Phase) -> None:
        identity = specs_mod.spec_identity
        seen = set()
        docs: Dict[str, Dict[str, Any]] = {}
        phase.results = []
        for fid in FIGURE_IDS:
            self._points = []
            start = time.perf_counter()
            if self._tracer is not None:
                fig = self._tracer.call(f"figure.{fid}",
                                        figures_mod.run_figure,
                                        (fid,), {"scale": self.scale},
                                        rid=fid)
            else:
                fig = figures_mod.run_figure(fid, scale=self.scale)
            walls = phase.extra.setdefault("figure_wall_s", {})
            walls[fid] = walls.get(fid, 0.0) + time.perf_counter() - start
            for spec, ms, result in self._points:
                key = canonical(identity(spec))
                phase.latency_ms["repeat" if key in seen else "fresh"] \
                    .append(ms)
                seen.add(key)
                phase.sim_ns += result.wall_ns
                phase.hosts += 1
            phase.requests += 1
            phase.count(fig.passed)
            self.failed_checks.extend(f"{fid}: {c.name}"
                                      for c in fig.failed_checks())
            docs[fid] = {label: res.to_dict()
                         for label, res in fig.results.items()}
            phase.results.extend(fig.results.values())
            phase.read_probe(list(fig.results.items()), FIGURE_READ_ROUNDS)
        self.digests.append(hashlib.sha256(
            canonical(docs).encode("utf-8")).hexdigest())

    def measure(self, seconds: float) -> Phase:
        phase = run_units(seconds, self._pass)
        phase.extra["passes"] = len(phase.units)
        return phase

    def checks(self) -> List[Tuple[str, bool, str]]:
        return [
            ("every figure shape check passes", not self.failed_checks,
             "; ".join(self.failed_checks[:3]) or "ok"),
            ("figures result digest repeats across passes",
             len(set(self.digests)) == 1, f"{len(self.digests)} passes"),
            ("figures result digest matches the pinned digest",
             self.digests[-1] == self.expected["digest"]
             and self.scale == self.expected["scale"],
             f"digest={self.digests[-1]}"),
        ]

    def provenance(self) -> Dict[str, Any]:
        return {"scale": self.scale, "figures": list(FIGURE_IDS),
                "digest": self.digests[-1] if self.digests else None}

    def close(self) -> None:
        if hasattr(self, "_saved_run_spec"):
            figures_mod.run_spec = self._saved_run_spec


# -- fleet_warm --------------------------------------------------------------

class RunCounter:
    """BatchRunner progress hook: live runs, their wall times, failures."""

    def __init__(self) -> None:
        self.live = 0
        self.failed = 0
        self.wall_ms: List[float] = []

    def __call__(self, event: Any) -> None:
        if event.kind == STARTED:
            self.live += 1
        elif event.kind == COMPLETED:
            self.wall_ms.append(event.wall_s * 1e3)
        elif event.kind == FAILED:
            self.failed += 1


class TimedCache(ResultCache):
    """A :class:`ResultCache` that keeps each lookup's latency and the
    results it served."""

    def __init__(self, cache_dir: str) -> None:
        super().__init__(cache_dir)
        self.get_ms: List[float] = []
        self.served: List[Tuple[str, ExperimentResult]] = []

    def get(self, spec: Any) -> Optional[ExperimentResult]:
        start = time.perf_counter()
        result = super().get(spec)
        self.get_ms.append((time.perf_counter() - start) * 1e3)
        if result is not None:
            self.served.append((spec.name, result))
        return result


class FleetWarm:
    """A 10k-host fleet re-served from a primed result cache: spec
    identity, expansion and aggregation, with no simulation."""

    name = "fleet_warm"

    def __init__(self, seed: int, out_dir: str) -> None:
        from repro.fleet import FleetSpec

        self.fleet = FleetSpec(hosts=FLEET_HOSTS, guests=FLEET_GUESTS,
                               seed=seed, scale=FLEET_SCALE)
        self.out_dir = out_dir
        self.dir: Optional[str] = None
        self.fresh_ms: List[float] = []
        self.cold_failed = 0
        self._tracer: Optional[Tracer] = None
        self._runs = 0
        self._mismatches: List[str] = []

    def setup(self) -> List[float]:
        from repro.fleet import run_fleet

        samples = []
        for _ in range(FLEET_SETUPS):
            self.close()
            start = time.perf_counter()
            self.dir = tempfile.mkdtemp(prefix="fleet-cache-",
                                        dir=self.out_dir)
            self.cache = TimedCache(self.dir)
            counter = RunCounter()
            self.cold = run_fleet(self.fleet, cache=self.cache,
                                  progress=counter).report()
            samples.append(time.perf_counter() - start)
            self.fresh_ms.extend(counter.wall_ms)
            self.cold_failed += counter.failed
        self.cold_text = canonical(self.cold)
        return samples

    def instrument(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer

    def _warm_run(self, phase: Phase) -> None:
        from repro.fleet import run_fleet

        counter = RunCounter()
        self.cache.get_ms, self.cache.served = [], []
        self._runs += 1
        kwargs = {"cache": self.cache, "progress": counter}
        if self._tracer is not None:
            aggregator = self._tracer.call(
                "fleet.phase", run_fleet, (self.fleet,), kwargs,
                rid=f"warm-{self._runs}")
        else:
            aggregator = run_fleet(self.fleet, **kwargs)
        report = aggregator.report()
        ok = (canonical(report) == self.cold_text and counter.live == 0
              and report["failed_runs"] == 0)
        if not ok:
            self._mismatches.append(
                f"warm run {self._runs}: live={counter.live} "
                f"failed_runs={report['failed_runs']} "
                f"identical={canonical(report) == self.cold_text}")
        phase.count(ok)
        phase.requests += 1
        phase.hosts += self.fleet.hosts
        phase.latency_ms["repeat"].extend(self.cache.get_ms)
        phase.results = [result for _name, result in self.cache.served]
        phase.sim_ns += sum(result.wall_ns for result in phase.results)
        phase.extra["distinct_ratio"] = (report["distinct_runs"]
                                         / report["population"])
        phase.read_probe(self.cache.served, FLEET_READ_ROUNDS)

    def measure(self, seconds: float) -> Phase:
        phase = run_units(seconds, self._warm_run)
        phase.latency_ms["fresh"] = list(self.fresh_ms)
        return phase

    def checks(self) -> List[Tuple[str, bool, str]]:
        return [
            ("cold set-up run had no failed points",
             self.cold_failed == 0 and self.cold["failed_runs"] == 0,
             f"distinct_runs={self.cold['distinct_runs']}"),
            ("every warm report is byte-identical to the cold report, "
             "with 0 live runs", not self._mismatches,
             "; ".join(self._mismatches[:3]) or f"{self._runs} warm runs"),
        ]

    def provenance(self) -> Dict[str, Any]:
        return {"hosts": self.fleet.hosts, "guests": self.fleet.guests,
                "scale": self.fleet.scale, "fleet_seed": self.fleet.seed,
                "distinct_runs": self.cold["distinct_runs"],
                "population": self.cold["population"]}

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


# -- serve_mixed -------------------------------------------------------------

class ServeClient:
    """One tenant: a keep-alive connection in a closed loop."""

    def __init__(self, host: str, port: int, index: int, seed: int) -> None:
        self.index = index
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.rng = random.Random(f"perfbench:serve:{seed}:{index}")
        self.used_seeds: set = set()
        self.deck: List[Tuple[str, Optional[str]]] = []
        self.specs: List[Tuple[Dict[str, Any], str]] = []
        self.params = paper_workload_params(SERVE_SCALE)
        self.forks = max(1, int(8_000 * SERVE_SCALE))
        self.serial = 0
        self.cycles = 0
        self.fresh = 0
        self.tracer: Optional[Tracer] = None
        self.begin(Phase())
        tenant = self.request("POST", "/v1/tenants",
                              {"name": f"tenant-{index}"}, "setup")
        self.tenant_id = tenant["tenant_id"]

    def begin(self, phase: Phase) -> None:
        self.phase = phase
        self.errors: List[str] = []
        self.repeats = 0
        self.ledger_hits = 0

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]], cls: str) -> Any:
        self.serial += 1
        rid = f"c{self.index}-{self.serial}"
        headers = {HEADER: rid}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        start = time.perf_counter_ns()
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        end = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record("serve.http.request", start, end, rid=rid)
        if cls in self.phase.latency_ms:
            self.phase.latency_ms[cls].append((end - start) / 1e6)
        ok = 200 <= response.status < 300
        self.phase.requests += cls != "setup"
        self.phase.count(ok)
        if not ok:
            self.errors.append(f"{method} {path} -> {response.status}")
            return None
        if response.getheader("Content-Type", "").startswith(
                "application/json"):
            return json.loads(raw)
        return raw

    def _fresh_spec(self) -> Dict[str, Any]:
        # Deal the 8 (program, attack) pairs in shuffled rounds, so every
        # seed submits the same mix and only its order and seeds differ.
        if not self.deck:
            self.deck = [(program, attack) for program in "OPWB"
                         for attack in (None, "scheduling")]
            self.rng.shuffle(self.deck)
        program, attack = self.deck.pop()
        # Seeds are disjoint across clients, so every fresh spec is new.
        cfg_seed = self.rng.randrange(1 << 30) * SERVE_CLIENTS + self.index
        while cfg_seed in self.used_seeds:
            cfg_seed = self.rng.randrange(1 << 30) * SERVE_CLIENTS \
                + self.index
        self.used_seeds.add(cfg_seed)
        doc: Dict[str, Any] = {"program": program,
                               "program_kwargs": dict(self.params[program]),
                               "cfg": {"seed": cfg_seed}}
        if attack is not None:
            doc["attack"] = attack
            doc["attack_kwargs"] = {"nice": -20, "forks": self.forks}
        return doc

    def cycle(self) -> None:
        jobs = f"/v1/tenants/{self.tenant_id}/jobs"
        spec = self._fresh_spec()
        job = self.request("POST", jobs, {"spec": spec}, "fresh")
        self.fresh += 1
        if job is None:
            return
        self.phase.hosts += 1
        self.phase.sim_ns += job["result"]["wall_ns"]
        self.phase.results.append(ExperimentResult.from_dict(job["result"]))
        self.specs.append((spec, canonical(job["invoice"])))

        old_spec, old_invoice = self.rng.choice(self.specs)
        repeat = self.request("POST", jobs, {"spec": old_spec}, "repeat")
        self.repeats += 1
        if repeat is not None:
            self.phase.hosts += 1
            self.phase.sim_ns += repeat["result"]["wall_ns"]
            self.ledger_hits += bool(repeat["cached"])
            if not repeat["cached"]:
                self.phase.failed += 1
                self.errors.append(f"repeat {repeat['job_id']}: not served "
                                   f"from the ledger")
            if canonical(repeat["invoice"]) != old_invoice:
                self.phase.failed += 1
                self.errors.append(f"repeat {repeat['job_id']}: invoice "
                                   f"differs from the fresh invoice")

        job_path = f"/v1/jobs/{job['job_id']}"
        for tail in ("invoice", "trust", "audit"):
            self.request("GET", f"{job_path}/{tail}", None, "read")
        self.request("GET", f"/v1/tenants/{self.tenant_id}/usage", None,
                     "read")
        self.cycles += 1
        if self.cycles % SERVE_METRICS_EVERY == 0:
            self.request("GET", "/metrics", None, "metrics")

    def close(self) -> None:
        self.conn.close()


class ServeMixed:
    """Two tenants in a closed loop against the in-process HTTP server:
    fresh submits, ledger-served repeats and reads."""

    name = "serve_mixed"

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.server: Any = None
        self.dir: Optional[str] = None
        self.clients: List[ServeClient] = []
        self.simulated = 0
        self._simulated_lock = threading.Lock()
        self.errors: List[str] = []

    def _run(self, spec: Any) -> ExperimentResult:
        with self._simulated_lock:  # called from the service's worker pool
            self.simulated += 1
        return specs_mod.run_spec(spec)  # traced when tracing is on

    def _start(self) -> None:
        from repro.serve import MeteringService, ReproServer, UsageStore

        self.dir = tempfile.mkdtemp(prefix="serve-", dir=self.out_dir)
        self.simulated = 0
        store = UsageStore(os.path.join(self.dir, "usage.db"))
        self.service = MeteringService(store, jobs=SERVE_JOBS, run=self._run)
        self.server = ReproServer(self.service)
        self.server.start_background()
        host, port = self.server.server_address[:2]
        self.clients = [ServeClient(host, port, index, self.seed)
                        for index in range(SERVE_CLIENTS)]
        for client in self.clients:  # warm-up cycle, discarded
            client.cycle()
            self.errors.extend(client.errors)

    def _stop(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def setup(self) -> List[float]:
        samples = []
        for attempt in range(SERVE_SETUPS):
            if attempt:
                self._stop()
            start = time.perf_counter()
            self._start()
            samples.append(time.perf_counter() - start)
        return samples

    def instrument(self, tracer: Optional[Tracer]) -> None:
        for client in self.clients:
            client.tracer = tracer
        if tracer is not None:
            tracer.wrap_http_handler(self.server.RequestHandlerClass)
            tracer.propagate(self.service._pool)

    def measure(self, seconds: float) -> Phase:
        # Each client thread fills its own phase; they merge after the join.
        for client in self.clients:
            client.begin(Phase())
        failures: List[Exception] = []
        start, cpu = time.perf_counter(), time.process_time()
        deadline = start + seconds

        def loop(client: ServeClient) -> None:
            try:
                while time.perf_counter() < deadline:
                    began = time.perf_counter()
                    client.cycle()
                    client.phase.units.append(time.perf_counter() - began)
            except Exception as exc:  # re-raised after the join
                failures.append(exc)

        threads = [threading.Thread(target=loop, args=(client,),
                                    name=f"perfbench-client-{client.index}")
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if failures:
            raise failures[0]
        phase = Phase(wall_s=wall, cpu_s=cpu)
        for client in self.clients:
            phase.merge(client.phase)
            self.errors.extend(client.errors)
        repeats = sum(client.repeats for client in self.clients)
        phase.extra["ledger_hit_ratio"] = (
            sum(client.ledger_hits for client in self.clients) / repeats
            if repeats else 0.0)
        return phase

    def checks(self) -> List[Tuple[str, bool, str]]:
        integrity = self.service.store.integrity_check()
        fresh = sum(client.fresh for client in self.clients)
        return [
            ("every response is 2xx; every repeat is served from the "
             "ledger with an invoice byte-identical to its fresh invoice",
             not self.errors,
             "; ".join(self.errors[:3]) or "ok"),
            ("run_spec calls equal fresh submits", self.simulated == fresh,
             f"run_spec={self.simulated} fresh={fresh}"),
            ("store integrity check is clean", integrity["ok"],
             "; ".join(integrity["problems"][:3])
             or f"ledger_entries={integrity['ledger_entries']}"),
        ]

    def provenance(self) -> Dict[str, Any]:
        return {"scale": SERVE_SCALE, "jobs": SERVE_JOBS,
                "clients": SERVE_CLIENTS, "loop": "closed",
                "metrics_every_cycles": SERVE_METRICS_EVERY,
                "setups": SERVE_SETUPS}

    def close(self) -> None:
        self._stop()


WORKLOADS: Dict[str, Callable[[int, str], Any]] = {
    "figures": Figures,
    "fleet_warm": FleetWarm,
    "serve_mixed": ServeMixed,
}
