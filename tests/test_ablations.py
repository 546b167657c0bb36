"""Ablations behind the paper's defense and comparison claims.

* fine-grained metering (TSC + process-aware interrupt accounting)
  neutralises the scheduling and interrupt-flood inflation (§VI-B);
* the scheduling attack is roughly HZ-invariant: finer ticks shrink the
  per-jiffy headroom, but the bursts fire once per jiffy, so only exact
  charging removes the flaw (§III-A, §VI-B);
* CFS fork placement is what the scheduling attack rides; the modelled
  O(1) scheduler and round-robin blunt it (DESIGN.md §5);
* the §V-C strength ordering: launch attacks > thrashing > interrupt
  flood, measured as relative inflation on the same workload.

Workloads run at scale 0.4, the scale the bounds were calibrated at.
"""

from repro.config import SchedulerConfig, default_config
from repro.runner import ExperimentSpec, run_spec

SCALE = 0.4
LOOPS = int(4_000 * SCALE)
FORKS = int(8_000 * SCALE)
ITERATIONS = int(2_000 * SCALE)

SCHEDULING = {"attack": "scheduling",
              "attack_kwargs": {"nice": -20, "forks": FORKS}}


def _w(cfg, **attack):
    return run_spec(ExperimentSpec(program="W",
                                   program_kwargs={"loops": LOOPS},
                                   cfg=cfg, **attack))


def _o(cfg=None, **attack):
    return run_spec(ExperimentSpec(program="O",
                                   program_kwargs={"iterations": ITERATIONS},
                                   cfg=cfg, **attack))


def _sched_inflation(cfg):
    return _w(cfg, **SCHEDULING).total_s / _w(cfg).total_s


def test_fine_grained_metering_neutralises_sampling_attacks():
    schemes = {
        "tick": default_config(accounting="tick"),
        "tsc+pa": default_config(accounting="tsc",
                                 process_aware_irq_accounting=True),
    }
    inflation, flood_delta = {}, {}
    for label, cfg in schemes.items():
        inflation[label] = _sched_inflation(cfg)
        flood = _o(cfg, attack="irq-flood",
                   attack_kwargs={"rate_pps": 25_000})
        flood_delta[label] = flood.stime_s - _o(cfg).stime_s
    assert inflation["tick"] > 1.10
    assert inflation["tsc+pa"] < 1.03
    assert flood_delta["tick"] > 0.0
    assert flood_delta["tsc+pa"] < flood_delta["tick"] / 5 + 0.001


def test_scheduling_attack_vs_tick_granularity():
    inflation = [_sched_inflation(default_config(hz=hz))
                 for hz in (100, 250, 1000)]
    # Effective at every granularity the paper considers, and roughly
    # equally so (HZ-invariance).
    assert min(inflation) > 1.08
    assert max(inflation) <= 1.10 * min(inflation)


def test_scheduling_attack_by_scheduler():
    inflation = {kind: _sched_inflation(
        default_config(scheduler=SchedulerConfig(kind=kind)))
        for kind in ("cfs", "o1", "rr")}
    assert inflation["cfs"] > 1.10
    assert inflation["cfs"] > inflation["o1"]
    assert inflation["cfs"] > inflation["rr"]


def test_comparison_strength_ordering():
    base = _o().total_s
    inflation = {
        name: _o(attack=name, attack_kwargs=kwargs).total_s / base
        for name, kwargs in (("shell", {"payload_cycles": 506_000_000}),
                             ("thrashing", {"watch_symbol": "i"}),
                             ("irq-flood", {"rate_pps": 20_000}))}
    # The unbounded launch attack dominates; the interrupt flood is the
    # weakest.
    assert inflation["shell"] > inflation["thrashing"] > 1.0
    assert inflation["thrashing"] > inflation["irq-flood"]
