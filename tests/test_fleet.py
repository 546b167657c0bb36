"""Fleet sweeps: spec hygiene, deterministic expansion, exact streaming
aggregation, and the serve-layer fleet endpoint.

The contract under test is the one ``docs/fleet.md`` promises: a
:class:`FleetSpec` is a pure seed — the same spec always expands to the
same population, collapses to the same bounded set of distinct spec
identities, and aggregates to the same report *bit for bit* no matter how
many worker processes shard the runs or in what order partial aggregates
are merged.
"""

import json
from dataclasses import replace

import pytest

from repro.fleet import (
    FleetAggregator,
    FleetSpec,
    FleetSpecError,
    HistogramSketch,
    distinct_units,
    expand_fleet,
    fleet_from_dict,
    fleet_key,
    run_fleet,
)
from repro.runner import spec_key

#: Small enough for CI, large enough to populate every mix stratum.
SMALL = dict(hosts=10, guests=2, prevalence=0.3, seed=11, scale=0.04)


class TestFleetSpec:
    def test_defaults_validate_and_roundtrip(self):
        fleet = FleetSpec()
        assert fleet.population == fleet.hosts * fleet.guests
        assert fleet_from_dict(fleet.to_dict()) == fleet

    @pytest.mark.parametrize("kwargs", [
        {"hosts": 0},
        {"guests": -1},
        {"prevalence": 1.5},
        {"vm_fraction": -0.1},
        {"scale": 0.0},
        {"workload_mix": ()},
        {"workload_mix": (("nosuch", 1.0),)},
        {"nproc_mix": ((0, 1.0),)},
        {"burn_mix": ((1.5, 1.0),)},
        {"fault_mix": ((0.5, -1.0),)},
    ])
    def test_bad_specs_are_rejected(self, kwargs):
        with pytest.raises(FleetSpecError):
            FleetSpec(**kwargs)

    def test_from_dict_rejects_unknown_fields_and_bad_mixes(self):
        with pytest.raises(FleetSpecError, match="unknown fleet fields"):
            fleet_from_dict({"hosts": 4, "bogus": 1})
        with pytest.raises(FleetSpecError, match="pairs"):
            fleet_from_dict({"workload_mix": ["W"]})
        with pytest.raises(FleetSpecError, match="mapping"):
            fleet_from_dict("not a doc")

    def test_fleet_key_tracks_identity(self):
        a = FleetSpec(**SMALL)
        b = FleetSpec(**SMALL)
        assert fleet_key(a) == fleet_key(b)
        assert fleet_key(a) != fleet_key(FleetSpec(**{**SMALL, "seed": 12}))


class TestHistogramSketch:
    def test_counts_and_percentiles(self):
        sketch = HistogramSketch(0.0, 10.0, bins=10)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            sketch.add(value, weight=2)
        assert sketch.total == 10
        assert sketch.min == 1.0 and sketch.max == 5.0
        assert sketch.percentile(0.0) <= sketch.percentile(0.5) \
            <= sketch.percentile(1.0)
        assert 2.0 <= sketch.percentile(0.5) <= 4.0
        assert 2.5 <= sketch.mean() <= 4.0

    def test_outliers_land_in_edge_buckets_and_clamp(self):
        sketch = HistogramSketch(0.0, 1.0, bins=4)
        sketch.add(-5.0)
        sketch.add(99.0)
        assert sketch.underflow == 1 and sketch.overflow == 1
        assert sketch.percentile(0.0) == -5.0
        assert sketch.percentile(1.0) == 99.0

    def test_merge_is_exact_and_order_independent(self):
        values = [(-0.5, 1), (0.1, 3), (0.9, 2), (7.0, 1), (2.5, 4)]
        whole = HistogramSketch(-1.0, 5.0, bins=32)
        for value, weight in values:
            whole.add(value, weight)
        a = HistogramSketch(-1.0, 5.0, bins=32)
        b = HistogramSketch(-1.0, 5.0, bins=32)
        for value, weight in values[:2]:
            a.add(value, weight)
        for value, weight in values[2:]:
            b.add(value, weight)
        b.merge(a)  # reversed shard order on purpose
        assert b.to_dict() == whole.to_dict()

    def test_merge_refuses_mismatched_grids(self):
        with pytest.raises(ValueError, match="grids"):
            HistogramSketch(0, 1).merge(HistogramSketch(0, 2))

    def test_wire_roundtrip(self):
        sketch = HistogramSketch(-1.0, 1.0, bins=8)
        for value in (-2.0, -0.5, 0.25, 0.25, 3.0):
            sketch.add(value)
        doc = sketch.to_dict()
        again = HistogramSketch.from_dict(json.loads(json.dumps(doc)))
        assert again.to_dict() == doc


class TestExpansion:
    def test_expansion_is_deterministic(self):
        fleet = FleetSpec(**SMALL)
        first = [(u.host, u.guest, u.kind, u.workload, u.attacked,
                  u.spec.label) for u in expand_fleet(fleet)]
        second = [(u.host, u.guest, u.kind, u.workload, u.attacked,
                   u.spec.label) for u in expand_fleet(fleet)]
        assert first == second
        assert len(first) == fleet.population

    def test_host_draws_are_prefix_stable(self):
        """Host i is the same host in an 8-host fleet and an 80-host one —
        per-host RNG streams, so growing the fleet never reshuffles it."""
        small = list(expand_fleet(FleetSpec(**{**SMALL, "hosts": 8})))
        large = list(expand_fleet(FleetSpec(**{**SMALL, "hosts": 80})))
        n = len(small)
        assert [u.spec for u in large[:n]] == [u.spec for u in small]

    def test_prevalence_extremes(self):
        none = list(expand_fleet(FleetSpec(**{**SMALL, "prevalence": 0.0})))
        everyone = list(expand_fleet(
            FleetSpec(**{**SMALL, "prevalence": 1.0})))
        assert not any(u.attacked for u in none)
        assert all(u.attacked for u in everyone)
        assert all(u.spec.attack is None for u in none)
        assert all(u.spec.attack in ("vm-sched", "scheduling")
                   for u in everyone)

    def test_distinct_identities_are_bounded_by_the_mixes(self):
        """The dedup fold is what makes 10k hosts tractable: distinct
        identities are capped by the mix cross-product, not the host
        count."""
        lo = distinct_units(FleetSpec(**{**SMALL, "hosts": 100}))
        hi = distinct_units(FleetSpec(**{**SMALL, "hosts": 400}))
        assert len(hi) <= 120  # cross-product ceiling for the default mixes
        assert len(hi) <= len(lo) + 20  # growth has flattened out
        assert sum(g.weight for g in hi) \
            == FleetSpec(**{**SMALL, "hosts": 400}).population

    def test_vm_units_pin_single_cpu_and_bare_units_draw_nproc(self):
        units = list(expand_fleet(FleetSpec(**{**SMALL, "hosts": 40})))
        kinds = {u.kind for u in units}
        assert kinds == {"vm", "bare"}
        for unit in units:
            if unit.kind == "vm":
                assert unit.spec.vm is not None
                assert unit.spec.nproc == 1
            else:
                assert unit.spec.vm is None
                assert unit.spec.nproc in (1, 2)

    def test_attacked_units_carry_their_drawn_attack_parameters(self):
        units = list(expand_fleet(FleetSpec(**{**SMALL, "hosts": 40,
                                               "prevalence": 1.0})))
        burns = {u.spec.attack_kwargs["burn_fraction"]
                 for u in units if u.kind == "vm"}
        assert burns == {burn for burn, _ in FleetSpec().burn_mix}
        for unit in units:
            if unit.kind == "bare":
                assert unit.spec.attack_kwargs == {"nice": -20,
                                                   "forks": 320}


def _reference_groups(fleet, host_range=None):
    """The naive fold: hash every unit of the expansion, group by key,
    and relabel each first-seen representative with its weight."""
    groups = {}
    for unit in expand_fleet(fleet, host_range=host_range):
        key = spec_key(unit.spec)
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [unit, 1]
    result = []
    for key, (unit, weight) in groups.items():
        label = (f"fleet:{unit.kind}:{unit.workload}"
                 f"{':attacked' if unit.attacked else ''}"
                 f"{f':i={unit.intensity}' if unit.intensity else ''}"
                 f"{f':sync={unit.sync_offset_ns}' if unit.sync_offset_ns else ''}"
                 f":x{weight}")
        result.append((key, weight,
                       replace(unit, spec=replace(unit.spec, label=label))))
    return result


#: Non-zero fault mix and an armed sync mix, so every draw dimension
#: reaches the spec somewhere in the population.
RICH = dict(hosts=40, guests=2, seed=5, scale=0.04,
            fault_mix=((0.0, 0.5), (0.1, 0.3), (0.4, 0.2)),
            sync_mix=((0, 0.5), (2_000_000, 0.3), (8_000_000, 0.2)))


class TestDistinctUnitsEquivalence:
    """distinct_units hashes once per distinct draw; it must still equal
    the fold that hashes every slot, group for group."""

    @pytest.mark.parametrize("vm_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("prevalence", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("host_range", [None, (0, 13), (13, 40),
                                            (7, 8)])
    def test_equals_the_per_slot_reference(self, vm_fraction, prevalence,
                                           host_range):
        fleet = FleetSpec(**RICH, vm_fraction=vm_fraction,
                          prevalence=prevalence)
        got = [(g.key, g.weight, g.unit)
               for g in distinct_units(fleet, host_range=host_range)]
        assert got == _reference_groups(fleet, host_range)

    def test_spec_key_runs_once_per_distinct_draw(self, monkeypatch):
        from repro.fleet import expand

        calls = []

        def counting_spec_key(spec):
            calls.append(spec)
            return spec_key(spec)

        monkeypatch.setattr(expand, "spec_key", counting_spec_key)
        fleet = FleetSpec(hosts=2000, guests=2, prevalence=0.1, seed=7,
                          scale=0.05)
        groups = distinct_units(fleet)
        draws = {draw for _, _, draw in expand._walk(fleet, None)}
        assert len(calls) == len(draws) == len(groups)
        assert len(calls) < fleet.population // 20
        assert sum(g.weight for g in groups) == fleet.population


class TestAggregation:
    def test_jobs_do_not_change_the_report_bit_for_bit(self):
        """Satellite: the aggregate JSON is identical under --jobs 1 and
        --jobs 4 — sharding the runs across processes must not leak into
        the report."""
        fleet = FleetSpec(**SMALL)
        serial = json.dumps(run_fleet(fleet, jobs=1).report(),
                            sort_keys=True)
        sharded = json.dumps(run_fleet(fleet, jobs=4).report(),
                             sort_keys=True)
        assert serial == sharded

    def test_chunk_size_does_not_change_the_report(self):
        fleet = FleetSpec(**SMALL)
        one = json.dumps(run_fleet(fleet, chunk_size=1).report(),
                         sort_keys=True)
        big = json.dumps(run_fleet(fleet, chunk_size=10_000).report(),
                         sort_keys=True)
        assert one == big

    def test_merged_shards_equal_the_single_pass(self):
        from repro.runner import BatchRunner

        fleet = FleetSpec(**SMALL)
        groups = distinct_units(fleet)
        outcomes = BatchRunner().run([g.unit.spec for g in groups])
        whole = FleetAggregator(fleet)
        for group, outcome in zip(groups, outcomes):
            whole.add(group, outcome)
        left, right = FleetAggregator(fleet), FleetAggregator(fleet)
        for i, (group, outcome) in enumerate(zip(groups, outcomes)):
            (left if i % 2 else right).add(group, outcome)
        right.merge(left)
        assert json.dumps(right.report(), sort_keys=True) \
            == json.dumps(whole.report(), sort_keys=True)

    def test_report_shape_and_accounting_identities(self):
        fleet = FleetSpec(**SMALL)
        report = run_fleet(fleet).report()
        assert report["schema"] == "repro-fleet-report-v1"
        assert report["population"] == fleet.population
        assert report["failed_runs"] == 0
        assert sum(report["verdicts"].values()) == fleet.population
        assert sum(report["trust_mix"].values()) == fleet.population
        audit = report["audit"]
        assert audit["attacked_weight"] + audit["honest_weight"] \
            == fleet.population
        assert report["billing_error"]["all"]["count"] == fleet.population
        assert report["overbilled_total_ns"] \
            == report["billed_total_ns"] - report["ran_total_ns"]
        # Nobody in an honest stratum gets flagged: the detection overlay
        # measures the attack, not audit noise.
        assert audit["false_positive_rate"] == 0.0

    def test_failed_runs_are_counted_not_dropped(self):
        fleet = FleetSpec(**SMALL)
        groups = distinct_units(fleet)

        class _Failed:
            ok = False
            cached = False
            result = None

        aggregator = FleetAggregator(fleet)
        aggregator.add(groups[0], _Failed())
        report = aggregator.report()
        assert report["failed_runs"] == 1
        assert report["failed_weight"] == groups[0].weight
        assert report["billing_error"]["all"]["count"] == 0


class TestServeFleetEndpoint:
    @pytest.fixture()
    def served(self, tmp_path):
        from repro.serve import MeteringService, ReproServer, UsageStore

        store = UsageStore(str(tmp_path / "usage.db"))
        server = ReproServer(MeteringService(store, jobs=1))
        server.start_background()
        yield server
        server.close()

    @staticmethod
    def _post(base, path, body):
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            base + path, data=json.dumps(body).encode(), method="POST")
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    @staticmethod
    def _get(base, path):
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(base + path, timeout=60) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_submit_poll_and_report(self, served):
        base = served.address
        _, tenant = self._post(base, "/v1/tenants", {"name": "fleet-op"})
        tid = tenant["tenant_id"]
        fleet_doc = {"hosts": 6, "guests": 2, "prevalence": 0.3,
                     "seed": 5, "scale": 0.03}
        status, job = self._post(base, f"/v1/tenants/{tid}/fleet",
                                 {"fleet": fleet_doc})
        assert status == 200
        assert job["state"] == "completed"
        assert job["spec"]["fleet"]["hosts"] == 6
        billed = job["invoice"]["billed_ns"]
        assert billed > 0

        status, report = self._get(base, f"/v1/jobs/{job['job_id']}/fleet")
        assert status == 200
        assert report["population"] == 12
        assert report["job_id"] == job["job_id"]
        # The invoice bills exactly the population's aggregate.
        assert billed == report["billed_total_ns"]
        # And the aggregate equals an in-process serial run, bit for bit.
        reference = run_fleet(fleet_from_dict(fleet_doc)).report()
        assert {k: v for k, v in report.items() if k != "job_id"} \
            == reference

    def test_repeat_submission_served_from_ledger(self, served):
        base = served.address
        _, tenant = self._post(base, "/v1/tenants", {"name": "rerun"})
        tid = tenant["tenant_id"]
        fleet_doc = {"hosts": 4, "guests": 1, "prevalence": 0.5,
                     "seed": 9, "scale": 0.03}
        _, first = self._post(base, f"/v1/tenants/{tid}/fleet",
                              {"fleet": fleet_doc})
        _, again = self._post(base, f"/v1/tenants/{tid}/fleet",
                              {"fleet": fleet_doc,
                               "idempotency_key": "second"})
        assert again["state"] == "completed"
        assert again["cached"] is True
        assert again["result"] == first["result"]

    def test_bad_fleet_documents_are_4xx(self, served):
        base = served.address
        _, tenant = self._post(base, "/v1/tenants", {"name": "bad"})
        tid = tenant["tenant_id"]
        status, doc = self._post(base, f"/v1/tenants/{tid}/fleet", {})
        assert status == 400 and "fleet" in doc["error"]
        status, doc = self._post(base, f"/v1/tenants/{tid}/fleet",
                                 {"fleet": {"hosts": -3}})
        assert status == 400 and "bad fleet spec" in doc["error"]

    def test_fleet_report_on_plain_job_is_a_conflict(self, served):
        base = served.address
        _, tenant = self._post(base, "/v1/tenants", {"name": "plain"})
        _, job = self._post(
            base, f"/v1/tenants/{tenant['tenant_id']}/jobs",
            {"spec": {"program": "O", "program_kwargs": {"iterations": 40}}})
        status, doc = self._get(base, f"/v1/jobs/{job['job_id']}/fleet")
        assert status == 409
        assert "not a fleet job" in doc["error"]
