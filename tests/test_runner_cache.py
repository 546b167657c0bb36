"""Result-cache behaviour: hits, invalidation, corruption tolerance."""

import json
from dataclasses import asdict

import pytest

from repro.config import SchedulerConfig, default_config
from repro.runner import (
    BatchRunner,
    ExperimentSpec,
    ResultCache,
    run_spec,
    spec_key,
)
from repro.runner.specs import _canonical, spec_identity


def _spec(**overrides):
    base = dict(program="O", program_kwargs={"iterations": 60})
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeying:
    def test_identical_specs_share_a_key(self):
        assert spec_key(_spec()) == spec_key(_spec())

    def test_label_is_cosmetic(self):
        assert spec_key(_spec(label="a")) == spec_key(_spec(label="b"))

    def test_program_kwargs_change_key(self):
        assert spec_key(_spec()) != spec_key(
            _spec(program_kwargs={"iterations": 61}))

    def test_attack_and_its_parameters_change_key(self):
        plain = _spec()
        attacked = _spec(attack="shell",
                         attack_kwargs={"payload_cycles": 1_000_000})
        retuned = _spec(attack="shell",
                        attack_kwargs={"payload_cycles": 2_000_000})
        assert len({spec_key(plain), spec_key(attacked),
                    spec_key(retuned)}) == 3

    def test_config_changes_key(self):
        assert spec_key(_spec()) != spec_key(
            _spec(cfg=default_config(hz=1000)))
        assert spec_key(_spec()) != spec_key(
            _spec(cfg=default_config(
                scheduler=SchedulerConfig(kind="rr"))))

    def test_seed_changes_key(self):
        assert spec_key(_spec()) != spec_key(
            _spec(cfg=default_config(seed=7)))

    def test_explicit_default_config_matches_none(self):
        # cfg=None resolves to default_config() in the identity document,
        # so the two forms of "the default machine" share cache entries.
        assert spec_key(_spec()) == spec_key(_spec(cfg=default_config()))

    def test_version_salts_key(self, monkeypatch):
        import repro.runner.specs as specs_mod

        before = spec_key(_spec())
        monkeypatch.setattr(specs_mod, "__version__", "999.0.0")
        assert spec_key(_spec()) != before


class TestIdentityTypes:
    """The identity document serializes field values as they are typed, and
    every call builds it afresh."""

    @pytest.mark.parametrize("field,a,b", [
        ("seed", 1, 1.0),
        ("process_aware_irq_accounting", 1, True),
    ])
    def test_equal_configs_of_different_types_keep_distinct_keys(
            self, field, a, b):
        # The two configs compare and hash equal but serialize
        # differently, so their keys have always differed; a cache of
        # identity documents keyed on the config would merge them.
        cfg_a = default_config(**{field: a})
        cfg_b = default_config(**{field: b})
        assert cfg_a == cfg_b and hash(cfg_a) == hash(cfg_b)
        forward = [spec_key(_spec(cfg=cfg_a)), spec_key(_spec(cfg=cfg_b))]
        backward = [spec_key(_spec(cfg=cfg_b)), spec_key(_spec(cfg=cfg_a))]
        assert forward[0] != forward[1]
        assert forward == backward[::-1]
        for cfg in (cfg_a, cfg_b):
            doc = spec_identity(_spec(cfg=cfg))["cfg"]
            assert json.dumps(doc) == json.dumps(
                {k: v for k, v in _canonical(asdict(cfg)).items()
                 if k != "nproc"})

    @pytest.mark.parametrize("cfg", [None, default_config(hz=1000)])
    def test_returned_documents_are_fresh(self, cfg):
        spec = _spec(cfg=cfg)
        before = json.dumps(spec_identity(spec), sort_keys=True)
        key = spec_key(spec)
        doc = spec_identity(spec)
        doc["cfg"]["costs"]["fork_cycles"] = 1
        doc["cfg"]["hz"] = 1
        assert json.dumps(spec_identity(spec), sort_keys=True) == before
        doc["cfg"].clear()
        assert spec_key(spec) == key


class TestHitMiss:
    def test_miss_then_hit_roundtrip(self, cache):
        spec = _spec()
        assert cache.get(spec) is None
        result = run_spec(spec)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.to_dict() == result.to_dict()
        assert cache.hits == 1 and cache.misses == 1

    def test_changed_parameters_miss(self, cache):
        spec = _spec()
        cache.put(spec, run_spec(spec))
        assert cache.get(_spec(program_kwargs={"iterations": 61})) is None
        assert cache.get(_spec(attack="shell")) is None
        assert cache.get(_spec(cfg=default_config(hz=100))) is None

    def test_runner_populates_and_reuses(self, cache):
        spec = _spec()
        cold = BatchRunner(cache=cache)
        cold.run([spec])
        assert cold.telemetry.completed == 1
        assert len(cache) == 1
        warm = BatchRunner(cache=cache)
        outcome, = warm.run([spec])
        assert outcome.cached and outcome.ok
        assert warm.telemetry.cached == 1
        assert warm.telemetry.live_runs == 0


class TestCorruption:
    def _entry_path(self, cache, spec):
        key = spec_key(spec)
        path = cache.cache_dir / key[:2] / f"{key}.json"
        assert path.exists()
        return path

    def test_truncated_entry_falls_back_to_live_run(self, cache):
        spec = _spec()
        cache.put(spec, run_spec(spec))
        path = self._entry_path(cache, spec)
        path.write_text('{"schema": 1, "key":')  # torn write
        assert cache.get(spec) is None
        assert not path.exists(), "corrupt entry should be evicted"
        # The runner transparently re-runs and re-caches the point.
        runner = BatchRunner(cache=cache)
        outcome, = runner.run([spec])
        assert outcome.ok and not outcome.cached
        assert cache.get(spec) is not None

    def test_malformed_result_document_is_a_miss(self, cache):
        spec = _spec()
        cache.put(spec, run_spec(spec))
        path = self._entry_path(cache, spec)
        doc = json.loads(path.read_text())
        del doc["result"]["usage"]
        path.write_text(json.dumps(doc))
        assert cache.get(spec) is None

    def test_schema_or_key_mismatch_is_a_miss(self, cache):
        spec = _spec()
        cache.put(spec, run_spec(spec))
        path = self._entry_path(cache, spec)
        doc = json.loads(path.read_text())
        doc["schema"] = 999
        path.write_text(json.dumps(doc))
        assert cache.get(spec) is None

    @pytest.mark.parametrize("garbage", ["[1, 2, 3]", "null", "42",
                                         '"a string"', "true"])
    def test_valid_json_non_object_is_a_miss(self, cache, garbage):
        # json.loads succeeds but the document is not a dict; before the
        # isinstance guard this escaped the except clause as an uncaught
        # AttributeError on doc.get.
        spec = _spec()
        cache.put(spec, run_spec(spec))
        path = self._entry_path(cache, spec)
        path.write_text(garbage)
        assert cache.get(spec) is None
        assert not path.exists(), "corrupt entry should be evicted"

    def test_binary_garbage_is_a_miss_and_recoverable(self, cache):
        spec = _spec()
        result = run_spec(spec)
        cache.put(spec, result)
        path = self._entry_path(cache, spec)
        path.write_bytes(b"\x00\xff\xfe garbage \x80")
        assert cache.get(spec) is None
        assert not path.exists()
        # The slot is fully usable again after eviction.
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None and hit.to_dict() == result.to_dict()

    def test_clear_empties_cache(self, cache):
        spec = _spec()
        cache.put(spec, run_spec(spec))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get(spec) is None

    def test_clear_sweeps_orphaned_tmp_files(self, cache):
        # A writer killed between mkstemp and os.replace leaves a *.tmp
        # in the shard directory; clear() must remove those too.
        spec = _spec()
        cache.put(spec, run_spec(spec))
        key = spec_key(spec)
        shard = cache.cache_dir / key[:2]
        orphan = shard / "deadbeef.tmp"
        orphan.write_text("{half a docum")
        cache.clear()
        assert not orphan.exists()
        assert list(cache.cache_dir.glob("*/*")) == []
