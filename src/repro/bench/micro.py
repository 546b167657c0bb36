"""Microbenchmarks of the simulator's hot paths.

Each benchmark targets one of the paths the engine optimisation work
touched, so a regression here points at the responsible subsystem before
it shows up as a slow figure run:

* ``engine.slice_loop`` — the execution-engine charge loop, driven through
  a full machine running a compute-heavy workload (ops = simulated
  jiffies, so the number is "wall ns per simulated jiffy");
* ``acct.charge_tick.<scheme>`` — one exact charge + one timer-tick sample
  per op, for each accounting scheme;
* ``sched.pick_next.<kind>`` — one pick_next/update_curr/put_prev rotation
  per op, with a populated run queue;
* ``trace.emit.stored`` / ``trace.emit.suppressed`` — the trace append
  path for an enabled and a disabled category (the suppressed path is the
  one experiments pay millions of times);
* ``cache.roundtrip`` — one ResultCache put + get of a real (tiny)
  experiment result per op;
* ``chaos.backoff`` — one absorbed retryable fault per op through
  ``retry_call`` with a no-op sleep (the chaos plane's retry overhead);
* ``serve.store_contention`` — one store write transaction per op while
  a rival connection hammers the same file (the busy_timeout path two
  serve daemons sharing a store exercise).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from typing import Iterator

from .harness import BenchSpec

#: Run-queue depth for the scheduler benchmarks.
SCHED_QUEUE_DEPTH = 16


# ---------------------------------------------------------------------------
# engine slice loop
# ---------------------------------------------------------------------------

def _bench_engine(quick: bool) -> BenchSpec:
    from ..config import default_config
    from ..hw.machine import Machine
    from ..programs.stdlib import install_standard_libraries
    from ..programs.workloads import make_ourprogram

    cfg = default_config()
    machine = Machine(cfg)
    install_standard_libraries(machine.kernel.libraries)
    shell = machine.new_shell()
    # Large enough to outlive the measurement: the engine must stay busy
    # for every measured jiffy (an exited task would turn the tail of the
    # run into fast-forwarded idle time and flatter the number).
    shell.run_command(make_ourprogram(iterations=10_000_000,
                                      cycles_per_iter=430_000,
                                      mallocs=64))
    tick_ns = cfg.tick_ns
    jiffies = 200 if quick else 1200

    def fn(ops: int) -> None:
        machine.run_for(ops * tick_ns)

    return BenchSpec(name="engine.slice_loop", kind="micro", ops=jiffies,
                     fn=fn, note="wall ns per simulated jiffy")


# ---------------------------------------------------------------------------
# accounting: exact charge + tick sample
# ---------------------------------------------------------------------------

def _bench_accounting(scheme: str, quick: bool) -> BenchSpec:
    from ..config import default_config
    from ..hw.cpu import CPUMode
    from ..kernel.accounting import ChargeKind, make_accounting
    from ..kernel.process import Task

    cfg = replace(default_config(), accounting=scheme,
                  process_aware_irq_accounting=True)
    acct = make_accounting(cfg)
    task = Task(pid=1, name="bench")
    user, kernel = CPUMode.USER, CPUMode.KERNEL
    charge_user, charge_irq = ChargeKind.USER, ChargeKind.IRQ
    ops = 40_000 if quick else 200_000

    def fn(n: int) -> None:
        charge = acct.charge
        on_tick = acct.on_tick
        for i in range(n):
            charge(task, user, 1_200, charge_user)
            charge(task, kernel, 300, charge_irq)
            on_tick(task, user if i & 1 else kernel)

    return BenchSpec(name=f"acct.charge_tick.{scheme}", kind="micro",
                     ops=ops, fn=fn,
                     note="2 charges + 1 tick sample per op")


# ---------------------------------------------------------------------------
# scheduler pick_next rotation
# ---------------------------------------------------------------------------

def _bench_scheduler(kind: str, quick: bool) -> BenchSpec:
    from ..config import default_config
    from ..kernel.process import Task, TaskState
    from ..kernel.sched import make_scheduler

    cfg = default_config()
    cfg = replace(cfg, scheduler=replace(cfg.scheduler, kind=kind))
    sched = make_scheduler(cfg)
    for i in range(SCHED_QUEUE_DEPTH):
        task = Task(pid=i + 1, name=f"bench{i}", nice=(i % 5) - 2)
        task.state = TaskState.READY
        sched.enqueue(task, wakeup=True)
    ops = 20_000 if quick else 100_000

    def fn(n: int) -> None:
        pick = sched.pick_next
        update = sched.update_curr
        put = sched.put_prev
        for _ in range(n):
            task = pick()
            update(task, 1_000_000)
            put(task)

    return BenchSpec(name=f"sched.pick_next.{kind}", kind="micro", ops=ops,
                     fn=fn,
                     note=f"pick/update_curr/put_prev over "
                          f"{SCHED_QUEUE_DEPTH} tasks")


# ---------------------------------------------------------------------------
# SMP: load balancer and lockstep slice loop
# ---------------------------------------------------------------------------

def _bench_load_balance(quick: bool) -> BenchSpec:
    from ..config import default_config
    from ..hw.machine import Machine
    from ..kernel.process import Task, TaskState

    machine = Machine(default_config(nproc=2))
    kernel = machine.kernel
    ctxs = kernel._cpu_contexts
    tasks = []
    for i in range(SCHED_QUEUE_DEPTH):
        task = Task(pid=1000 + i, name=f"bench{i}", nice=(i % 5) - 2)
        task.state = TaskState.READY
        tasks.append(task)
    ops = 5_000 if quick else 25_000

    def fn(n: int) -> None:
        balance = kernel.load_balance
        src = ctxs[0].scheduler
        for _ in range(n):
            # Pile everything on CPU 0, balance it flat, drain both
            # queues — one full worst-case rebalance per op.
            for task in tasks:
                task.cpu = 0
                src.enqueue(task, wakeup=False)
            balance()
            for task in tasks:
                ctxs[task.cpu].scheduler.dequeue(task)

    return BenchSpec(name="sched.load_balance", kind="micro", ops=ops,
                     fn=fn,
                     note=f"rebalance {SCHED_QUEUE_DEPTH} piled-up tasks "
                          f"across 2 CPUs per op")


def _bench_smp_slice(quick: bool) -> BenchSpec:
    from ..config import default_config
    from ..hw.machine import Machine
    from ..programs.stdlib import install_standard_libraries
    from ..programs.workloads import make_ourprogram

    cfg = default_config(nproc=2)
    machine = Machine(cfg)
    install_standard_libraries(machine.kernel.libraries)
    shell = machine.new_shell()
    # Two long-lived burners so the balancer spreads them and *both* CPUs
    # stay busy for every measured jiffy (see _bench_engine on why).
    for _ in range(2):
        shell.run_command(make_ourprogram(iterations=10_000_000,
                                          cycles_per_iter=430_000,
                                          mallocs=64))
    tick_ns = cfg.tick_ns
    jiffies = 150 if quick else 800

    def fn(ops: int) -> None:
        machine.run_for(ops * tick_ns)

    return BenchSpec(name="engine.smp_slice", kind="micro", ops=jiffies,
                     fn=fn,
                     note="wall ns per simulated jiffy, 2 CPUs busy "
                          "(lockstep slice + barrier path)")


# ---------------------------------------------------------------------------
# trace append
# ---------------------------------------------------------------------------

def _bench_trace(stored: bool, quick: bool) -> BenchSpec:
    from ..sim.tracing import TraceLog

    if stored:
        ops = 40_000 if quick else 200_000
        name, category = "trace.emit.stored", "bench"
    else:
        ops = 100_000 if quick else 500_000
        name, category = "trace.emit.suppressed", "quiet"

    def fn(n: int) -> None:
        log = TraceLog(enabled=("bench",), capacity=n + 1)
        emit = log.emit
        for i in range(n):
            emit(i, category, "bench event", pid=1, value=i)

    return BenchSpec(name=name, kind="micro", ops=ops, fn=fn)


# ---------------------------------------------------------------------------
# fault injection + clocksource watchdog
# ---------------------------------------------------------------------------

def _bench_fault_tick(quick: bool) -> BenchSpec:
    import random

    from ..config import default_config
    from ..faults import FaultPlan
    from ..faults.injectors import TickFaultInjector

    cfg = default_config()
    plan = FaultPlan(tick_loss_prob=0.1, tick_delay_prob=0.1,
                     tick_delay_max_ns=1_000_000,
                     smi_period_ns=50_000_000, smi_duration_ns=500_000)
    injector = TickFaultInjector(plan, random.Random(42), cfg.tick_ns)
    tick_ns = cfg.tick_ns
    ops = 40_000 if quick else 200_000

    def fn(n: int) -> None:
        decide = injector.decide
        for i in range(n):
            decide(i * tick_ns)

    return BenchSpec(name="fault.tick", kind="micro", ops=ops, fn=fn,
                     note="one timer-fire fault decision per op "
                          "(SMI + loss + delay branches armed)")


def _bench_watchdog_check(quick: bool) -> BenchSpec:
    from ..config import default_config
    from ..faults import FaultPlan
    from ..faults.injectors import TscFault
    from ..hw.cpu import CPU
    from ..kernel.timekeeping import ClocksourceWatchdog, TimeKeeper
    from ..sim.clock import Clock

    cfg = default_config()
    cpu = CPU(cfg.cpu_freq_hz)
    # Mild drift so checks take the skew-classification path without ever
    # tripping the (sticky) unstable latch.
    cpu.tsc_fault = TscFault(FaultPlan(tsc_drift_ppm=10_000))
    timekeeper = TimeKeeper(cfg.tick_ns)
    watchdog = ClocksourceWatchdog(cpu, Clock(), timekeeper, cfg.tick_ns)
    tick_ns = cfg.tick_ns
    ops = 20_000 if quick else 100_000

    def fn(n: int) -> None:
        tick = timekeeper.tick
        on_tick = watchdog.on_tick
        for i in range(1, n + 1):
            tick(True, True)
            on_tick(i * tick_ns)

    return BenchSpec(name="watchdog.check", kind="micro", ops=ops, fn=fn,
                     note="one sampled jiffy per op; a TSC cross-check "
                          "every 8th")


def _bench_sync_round(quick: bool) -> BenchSpec:
    from ..sim.rng import DeterministicRng
    from ..timesync import LinkModel, SyncNetwork, sweep_sync_plan

    # Attacked + jittered so the exchange takes every branch: loss draw,
    # asymmetry add, tamper draws, servo update.
    net = SyncNetwork(DeterministicRng(42),
                      attack=sweep_sync_plan(5_000_000),
                      link=LinkModel(base_delay_ns=500_000,
                                     jitter_ns=100_000))
    daemon = net.add_host("bench", drift_ppb=40_000)
    interval = daemon.interval_ns
    ops = 20_000 if quick else 100_000

    def fn(n: int) -> None:
        exchange = net.exchange
        for i in range(1, n + 1):
            exchange(daemon, i * interval)

    return BenchSpec(name="timesync.sync_round", kind="micro", ops=ops,
                     fn=fn,
                     note="one full two-way sync exchange per op "
                          "(delay-asymmetry attack + servo armed)")


def _bench_servo_step(quick: bool) -> BenchSpec:
    from ..timesync.netplane import LocalClock, PtpDaemon

    clock = LocalClock(drift_ppb=40_000)
    daemon = PtpDaemon("bench", clock, 100_000_000)
    interval = daemon.interval_ns
    ops = 40_000 if quick else 200_000

    def fn(n: int) -> None:
        update = daemon.servo_update
        for i in range(1, n + 1):
            # Alternate sub-threshold (slew) and over-threshold (step)
            # estimates so both servo paths stay hot.
            est = 2_000_000 if i % 8 == 0 else -40_000
            update(est, 500_000, i * interval)

    return BenchSpec(name="timesync.servo_step", kind="micro", ops=ops,
                     fn=fn,
                     note="one servo decision per op (PI slew with a "
                          "step every 8th)")


# ---------------------------------------------------------------------------
# hypervisor: tick path and vCPU context switch
# ---------------------------------------------------------------------------

def _busy_hypervisor(n_vms: int = 2):
    from ..programs.attackers import make_busyloop
    from ..programs.stdlib import install_standard_libraries
    from ..virt.hypervisor import Hypervisor

    hv = Hypervisor()
    for i in range(n_vms):
        vm = hv.create_vm(f"bench{i}")
        install_standard_libraries(vm.machine.kernel.libraries)
        # Outlives any measurement window, so every tick samples a busy
        # vCPU (an idle guest would fast-forward and flatter the number).
        vm.machine.new_shell().run_command(
            make_busyloop(total_cycles=10_000_000_000_000))
    return hv


def _bench_virt_tick(quick: bool) -> BenchSpec:
    hv = _busy_hypervisor()
    tick_ns = hv.cfg.tick_ns
    ticks = 100 if quick else 600

    def fn(ops: int) -> None:
        hv.run_for(ops * tick_ns)

    return BenchSpec(name="virt.tick", kind="micro", ops=ticks, fn=fn,
                     note="wall ns per hypervisor accounting tick "
                          "(2 busy guests)")


def _bench_vcpu_switch(quick: bool) -> BenchSpec:
    hv = _busy_hypervisor()
    hv.step()  # dispatch one vCPU so every _reschedule is a real switch
    ops = 20_000 if quick else 100_000

    def fn(n: int) -> None:
        resched = hv._reschedule
        for _ in range(n):
            hv.need_resched = True
            resched()

    return BenchSpec(name="virt.vcpu_switch", kind="micro", ops=ops, fn=fn,
                     note="requeue + pick_next + ledger sync per op, "
                          "alternating 2 vCPUs")


# ---------------------------------------------------------------------------
# result-cache round trip
# ---------------------------------------------------------------------------

def _bench_cache(quick: bool) -> BenchSpec:
    from ..runner.cache import ResultCache
    from ..runner.specs import ExperimentSpec, run_spec

    # A genuinely tiny point: one real result exercises the full
    # to_dict/from_dict serialisation both ways per op.
    spec = ExperimentSpec(program="O",
                          program_kwargs={"iterations": 3,
                                          "cycles_per_iter": 50_000,
                                          "mallocs": 1})
    result = run_spec(spec)
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    cache = ResultCache(tmpdir)
    ops = 60 if quick else 300

    def fn(n: int) -> None:
        try:
            for _ in range(n):
                cache.put(spec, result)
                cache.get(spec)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)

    return BenchSpec(name="cache.roundtrip", kind="micro", ops=ops, fn=fn,
                     note="1 put + 1 get of a real result per op")


# ---------------------------------------------------------------------------
# fleet: expansion/dedup and streaming aggregation
# ---------------------------------------------------------------------------

def _bench_fleet_expand(quick: bool) -> BenchSpec:
    from ..fleet import FleetSpec, distinct_units

    hosts = 200 if quick else 2_000

    def fn(n: int) -> None:
        distinct_units(FleetSpec(hosts=n, guests=2, prevalence=0.1,
                                 seed=7, scale=0.05))

    return BenchSpec(name="fleet.expand", kind="micro", ops=hosts, fn=fn,
                     note="one host drawn and deduped per op; each "
                          "distinct draw spec-built and hashed once "
                          "(no experiments run)")


def _bench_fleet_aggregate(quick: bool) -> BenchSpec:
    from ..fleet import FleetAggregator, FleetSpec, distinct_units
    from ..runner import BatchRunner

    # Real outcomes, produced once in setup; the timed loop is the pure
    # streaming fold (audit + trust grade + sketch update per op).
    fleet = FleetSpec(hosts=6, guests=2, prevalence=0.3, seed=7, scale=0.04)
    groups = distinct_units(fleet)
    outcomes = BatchRunner().run([group.unit.spec for group in groups])
    pairs = list(zip(groups, outcomes))
    ops = 10_000 if quick else 50_000

    def fn(n: int) -> None:
        aggregator = FleetAggregator(fleet)
        add = aggregator.add
        for i in range(n):
            group, outcome = pairs[i % len(pairs)]
            add(group, outcome)
        aggregator.report()

    return BenchSpec(name="fleet.aggregate", kind="micro", ops=ops, fn=fn,
                     note="one weighted outcome folded into the streaming "
                          "aggregate per op")


# ---------------------------------------------------------------------------
# serve submit round trip
# ---------------------------------------------------------------------------

def _bench_serve_submit(quick: bool) -> BenchSpec:
    import json as _json
    import os
    import urllib.request

    from ..serve import MeteringService, ReproServer, UsageStore

    tmpdir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    store = UsageStore(os.path.join(tmpdir, "usage.db"))
    server = ReproServer(MeteringService(store, jobs=1))
    server.start_background()
    base = server.address

    def post(path: str, body: dict) -> dict:
        req = urllib.request.Request(
            base + path, data=_json.dumps(body).encode(), method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=30) as resp:
            return _json.loads(resp.read())

    tenant = post("/v1/tenants", {"name": "bench"})
    submit_path = f"/v1/tenants/{tenant['tenant_id']}/jobs"
    spec = {"program": "W", "program_kwargs": {"loops": 50},
            "label": "bench:serve"}
    # Warm the ledger: every measured submission is the steady-state hot
    # path (HTTP + validation + idempotency check + ledger-served bill).
    post(submit_path, {"spec": spec})
    ops = 25 if quick else 100

    def fn(n: int) -> None:
        try:
            for i in range(n):
                post(submit_path, {"spec": spec,
                                   "idempotency_key": f"op-{i}"})
        finally:
            server.close()
            shutil.rmtree(tmpdir, ignore_errors=True)

    return BenchSpec(name="serve.submit_roundtrip", kind="micro", ops=ops,
                     fn=fn,
                     note="1 HTTP submit billed from the ledger per op")


# ---------------------------------------------------------------------------
# chaos plane: retry/backoff and contended store writes
# ---------------------------------------------------------------------------

def _bench_chaos_backoff(quick: bool) -> BenchSpec:
    import random
    import sqlite3

    from ..chaos import BackoffPolicy, retry_call

    # Every op absorbs exactly one retryable fault: one failed call, one
    # jittered backoff computation (sleep is a no-op — the schedule math
    # and retry plumbing are what is being priced), one successful call.
    policy = BackoffPolicy(retries=2, base_ms=1.0, multiplier=2.0,
                           max_ms=8.0, jitter_fraction=0.1)
    rng = random.Random(1)
    ops = 20_000 if quick else 100_000

    def fn(n: int) -> None:
        flip = {"fail": False}

        def flaky() -> None:
            flip["fail"] = not flip["fail"]
            if flip["fail"]:
                raise sqlite3.OperationalError("database is locked")

        for _ in range(n):
            retry_call(flaky, policy, rng=rng, sleep=lambda _s: None)

    return BenchSpec(name="chaos.backoff", kind="micro", ops=ops, fn=fn,
                     note="one absorbed fault (retry + jittered backoff "
                          "schedule) per op, no-op sleep")


def _bench_store_contention(quick: bool) -> BenchSpec:
    import os
    import threading

    from ..serve import UsageStore

    # Two connections to one store file, as two serve daemons sharing a
    # database would be: a rival thread hammers write transactions while
    # the timed loop lands its own — each op is one BEGIN IMMEDIATE
    # transaction that may have to ride out the rival's lock via the
    # store's busy_timeout budget.
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-store-")
    path = os.path.join(tmpdir, "usage.db")
    store = UsageStore(path)
    tenant_id = store.register_tenant("bench")["tenant_id"]
    rival = UsageStore(path)
    stop = threading.Event()

    def hammer() -> None:
        quota = 10 ** 9
        while not stop.is_set():
            quota += 1
            rival.set_quota(tenant_id, quota)

    thread = threading.Thread(target=hammer, daemon=True,
                              name="bench-rival-writer")
    thread.start()
    ops = 200 if quick else 1_000

    def fn(n: int) -> None:
        try:
            for i in range(n):
                store.set_quota(tenant_id, 10 ** 6 + i)
        finally:
            stop.set()
            thread.join()
            rival.close()
            store.close()
            shutil.rmtree(tmpdir, ignore_errors=True)

    return BenchSpec(name="serve.store_contention", kind="micro", ops=ops,
                     fn=fn,
                     note="one write txn against a rival writer on the "
                          "same store file per op")


#: name → builder(quick) pairs, dependency-light first.  The names are
#: static so :func:`repro.bench.harness.run_suite` can filter *before*
#: constructing a benchmark (construction does the setup work — building
#: machines, running the tiny cache-seed experiment — which is also why
#: it happens outside the timed window).
MICRO_BUILDERS = [
    ("trace.emit.suppressed",
     lambda quick: _bench_trace(stored=False, quick=quick)),
    ("trace.emit.stored",
     lambda quick: _bench_trace(stored=True, quick=quick)),
] + [
    (f"acct.charge_tick.{scheme}",
     lambda quick, scheme=scheme: _bench_accounting(scheme, quick))
    for scheme in ("tick", "tsc", "dual")
] + [
    (f"sched.pick_next.{kind}",
     lambda quick, kind=kind: _bench_scheduler(kind, quick))
    for kind in ("cfs", "o1", "rr")
] + [
    ("sched.load_balance", _bench_load_balance),
    ("fault.tick", _bench_fault_tick),
    ("watchdog.check", _bench_watchdog_check),
    ("timesync.sync_round", _bench_sync_round),
    ("timesync.servo_step", _bench_servo_step),
    ("cache.roundtrip", _bench_cache),
    ("fleet.expand", _bench_fleet_expand),
    ("fleet.aggregate", _bench_fleet_aggregate),
    ("serve.submit_roundtrip", _bench_serve_submit),
    ("chaos.backoff", _bench_chaos_backoff),
    ("serve.store_contention", _bench_store_contention),
    ("virt.vcpu_switch", _bench_vcpu_switch),
    ("virt.tick", _bench_virt_tick),
    ("engine.slice_loop", _bench_engine),
    ("engine.smp_slice", _bench_smp_slice),
]


def micro_benchmarks(quick: bool = False) -> Iterator[BenchSpec]:
    """The micro suite (lazy: each spec is built as it is yielded)."""
    return (builder(quick) for _, builder in MICRO_BUILDERS)
