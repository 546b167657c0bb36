"""End-to-end and per-layer metrics, computed from measured phases.

Every metric is ``{"value": ..., "unit": ...}``; BENCHMARK.json at the
repository root lists the names, units and directions.
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Dict, List

from tracing import LayerStats, Tracer
from workloads import FIGURE_IDS, STORE_METHODS, Phase, percentile

Metrics = Dict[str, Dict[str, Any]]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_s: float) -> Metrics:
    """The end-to-end metrics of an untraced phase."""
    lat = phase.latency_ms
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(phase.units), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_s_per_host_s": metric(phase.sim_ns / 1e9 / phase.wall_s, "s/s"),
        "hosts_per_s": metric(phase.hosts / phase.wall_s, "1/s"),
        "req_per_s": metric(phase.requests / phase.wall_s, "1/s"),
    }
    for cls in ("fresh", "repeat", "read"):
        for q in (50, 90):
            metrics[f"{cls}_p{q}_ms"] = metric(percentile(lat[cls], q), "ms")
    return metrics


def per_layer(plain: Phase, traced: Phase, tracer: Tracer) -> Metrics:
    """The per-layer metrics of a traced phase, next to its untraced twin."""
    layers = tracer.summary()

    def layer(name: str) -> LayerStats:
        return layers.get(name, LayerStats(0, 0.0, 0.0, 0))

    init, run = layer("hw.machine_init"), layer("runner.run_spec")
    keys, gets = layer("runner.spec_key"), layer("runner.cache_get")
    distinct = layer("fleet.distinct_units")
    submit = layer("serve.service.submit")
    simulated_s = (sum(r.wall_ns for r in traced.results) / 1e9
                   if run.calls else 0.0)
    # run_spec's self time: its duration minus the machine inits inside it.
    kernel_s = run.self_s
    metrics: Metrics = {
        "hw.machine_init.calls": metric(init.calls, "count"),
        "hw.machine_init.s": metric(init.total_s, "s"),
        "runner.run_spec.calls": metric(run.calls, "count"),
        "runner.run_spec.s": metric(run.total_s, "s"),
        "kernel.run_s": metric(kernel_s, "s"),
        "engine.host_s_per_sim_s": metric(
            kernel_s / simulated_s if simulated_s else 0.0, "s/s"),
    }
    for stat, key in (("ticks", "ticks"),
                      ("context_switches", "context_switches_total"),
                      ("major_faults", "major_faults"),
                      ("debug_exceptions", "debug_exceptions")):
        metrics[f"sim.{stat}"] = metric(
            sum(int(r.stats.get(key, 0)) for r in traced.results), "count")
    metrics["sim.wall_ns"] = metric(
        sum(r.wall_ns for r in traced.results), "ns")
    passes = traced.extra.get("passes", 1)
    walls = traced.extra.get("figure_wall_s", {})
    for fid in FIGURE_IDS:
        metrics[f"figure.{fid}.wall_s"] = metric(
            walls.get(fid, 0.0) / passes, "s")
    metrics.update({
        "fleet.distinct_units.s": metric(distinct.total_s, "s"),
        "fleet.distinct_units.us_per_host": metric(
            distinct.total_s * 1e6 / traced.hosts
            if distinct.calls and traced.hosts else 0.0, "us"),
        "runner.spec_key.calls": metric(keys.calls, "count"),
        "runner.spec_key.s": metric(keys.total_s, "s"),
        "runner.cache_get.calls": metric(gets.calls, "count"),
        "runner.cache_get.s": metric(gets.total_s, "s"),
        "runner.cache_get.hit_ratio": metric(
            gets.flagged / gets.calls if gets.calls else 0.0, "ratio"),
        "fleet.aggregate.s": metric(
            layer("fleet.aggregate.add").total_s
            + layer("fleet.aggregate.report").total_s, "s"),
        "fleet.distinct_ratio": metric(
            traced.extra.get("distinct_ratio", 0.0), "ratio"),
        "serve.service.submit.calls": metric(submit.calls, "count"),
        "serve.service.submit.s": metric(submit.total_s, "s"),
    })
    for method in STORE_METHODS:
        stats = layer(f"serve.store.{method}")
        metrics[f"serve.store.{method}.calls"] = metric(stats.calls, "count")
        metrics[f"serve.store.{method}.s"] = metric(stats.total_s, "s")
    metrics["serve.ledger_hit_ratio"] = metric(
        traced.extra.get("ledger_hit_ratio", 0.0), "ratio")
    http_self = http_self_ms(tracer)
    metrics["serve.http.self_ms.p50"] = metric(percentile(http_self, 50),
                                               "ms")
    metrics["serve.http.self_ms.p90"] = metric(percentile(http_self, 90),
                                               "ms")
    metrics["process.cpu_s"] = metric(plain.cpu_s, "s")
    metrics["process.wall_s"] = metric(plain.wall_s, "s")
    metrics["trace.wall_s"] = metric(statistics.median(traced.units), "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced.units) - statistics.median(plain.units),
        "s")
    return metrics


def http_self_ms(tracer: Tracer) -> List[float]:
    """Per HTTP request: client latency minus the service calls it made."""
    service_ns: Dict[str, int] = {}
    for span in tracer.spans:
        if (span.parent is None and span.rid is not None
                and span.name.startswith("serve.service.")):
            service_ns[span.rid] = (service_ns.get(span.rid, 0)
                                    + span.end_ns - span.start_ns)
    return [(span.end_ns - span.start_ns - service_ns.get(span.rid, 0)) / 1e6
            for span in tracer.spans if span.name == "serve.http.request"]


def samples(phase: Phase) -> Dict[str, int]:
    """Sample counts behind the phase's percentiles and rates."""
    counts = {cls: len(values) for cls, values in phase.latency_ms.items()}
    counts["units"] = len(phase.units)
    counts["requests"] = phase.requests
    return counts
