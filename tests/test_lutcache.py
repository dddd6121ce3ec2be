"""Persistent LUT cache: addressing, round-trips, invalidation, engine use."""

from __future__ import annotations

import pickle

import pytest

from repro.api import ExperimentConfig
from repro.api.engine import Engine
from repro.arch import HH_PIM, HYBRID_PIM
from repro.core import lutcache
from repro.workloads import EFFICIENTNET_B0, MOBILENET_V2

TINY = dict(block_count=16, time_steps=1200)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A private cache directory with fresh counters for every test."""
    path = tmp_path / "lut-cache"
    monkeypatch.setenv("REPRO_LUT_CACHE", str(path))
    lutcache.stats.reset()
    return path


class TestAddressing:
    def test_fingerprint_is_stable(self):
        assert lutcache.fingerprint(HH_PIM, 1.5) == lutcache.fingerprint(
            HH_PIM, 1.5
        )

    def test_fingerprint_covers_dataclass_fields(self):
        assert lutcache.fingerprint(HH_PIM) != lutcache.fingerprint(HYBRID_PIM)

    def test_fingerprint_covers_float_bits(self):
        assert lutcache.fingerprint(0.1) != lutcache.fingerprint(
            0.1 + 2 ** -40
        )

    def test_fingerprint_distinguishes_types(self):
        assert lutcache.fingerprint(1) != lutcache.fingerprint("1")
        assert lutcache.fingerprint(True) != lutcache.fingerprint(1)

    def test_unknown_objects_rejected(self):
        with pytest.raises(TypeError):
            lutcache.fingerprint(object())


class TestStoreLoad:
    def test_round_trip(self, cache_dir):
        digest = lutcache.fingerprint("round", "trip")
        assert lutcache.store(digest, {"value": [1, 2, 3]})
        assert lutcache.load(digest) == {"value": [1, 2, 3]}
        assert lutcache.stats.writes == 1
        assert lutcache.stats.hits == 1

    def test_missing_entry_is_a_miss(self, cache_dir):
        assert lutcache.load(lutcache.fingerprint("absent")) is None
        assert lutcache.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        digest = lutcache.fingerprint("corrupt")
        lutcache.store(digest, "payload")
        path = lutcache._dir().path(digest)
        path.write_bytes(b"\x80not a pickle")
        assert lutcache.load(digest) is None
        assert lutcache.stats.quarantined == 1
        assert not path.exists()
        assert lutcache.info()["quarantined"] == 1

    def test_version_skew_is_a_miss(self, cache_dir):
        digest = lutcache.fingerprint("versioned")
        path = lutcache._dir().path(digest)
        path.parent.mkdir(parents=True)
        payload = {
            "version": lutcache.CACHE_VERSION + 1,
            "key": digest,
            "value": "stale",
        }
        path.write_bytes(pickle.dumps(payload))
        assert lutcache.load(digest) is None

    def test_fingerprint_mismatch_is_a_miss(self, cache_dir):
        digest = lutcache.fingerprint("original")
        lutcache.store(digest, "payload")
        other = lutcache.fingerprint("other")
        lutcache._dir().path(digest).rename(lutcache._dir().path(other))
        assert lutcache.load(other) is None

    def test_concurrent_writers_last_wins(self, cache_dir):
        digest = lutcache.fingerprint("raced")
        assert lutcache.store(digest, "first")
        assert lutcache.store(digest, "second")
        assert lutcache.load(digest) == "second"
        assert not list(cache_dir.glob("**/*.tmp"))

    def test_fetch_or_build_builds_once(self, cache_dir):
        built = []

        def builder():
            built.append(1)
            return "expensive"

        key = ("unit", 1)
        value, source = lutcache.fetch_or_build(key, builder)
        assert (value, source) == ("expensive", "stored")
        value, source = lutcache.fetch_or_build(key, builder)
        assert (value, source) == ("expensive", "disk")
        assert built == [1]


    def test_unpicklable_build_is_served_unpersisted(self, cache_dir):
        value, source = lutcache.fetch_or_build(
            ("unit", "poison"), lambda: (lambda: 1)
        )
        assert source == "built"
        assert value() == 1
        assert lutcache.stats.write_failures == 1
        assert not list(cache_dir.glob("**/*.tmp"))


class TestMaintenance:
    def test_info_and_clear(self, cache_dir):
        for index in range(3):
            lutcache.store(lutcache.fingerprint("entry", index), index)
        state = lutcache.info()
        assert state["entries"] == 3
        assert state["bytes"] > 0
        assert state["path"] == str(cache_dir)
        assert lutcache.clear() == 3
        assert lutcache.info()["entries"] == 0

    def test_disabled_by_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_LUT_CACHE", "off")
        assert not lutcache.enabled()
        monkeypatch.setenv("REPRO_LUT_CACHE", "0")
        assert not lutcache.enabled()
        monkeypatch.delenv("REPRO_LUT_CACHE")
        assert lutcache.enabled()


class TestEngineIntegration:
    def test_runtime_round_trips_through_disk(self, cache_dir):
        config = ExperimentConfig(**TINY)
        built = Engine().runtime(config)
        served = Engine().runtime(config)
        assert served.lut.candidates == built.lut.candidates
        assert served.t_slice_ns == built.t_slice_ns

    def test_second_engine_rebuilds_nothing(self, cache_dir):
        config = ExperimentConfig(**TINY)
        first = Engine()
        first.runtime(config)
        assert first.stats.dp_builds > 0
        second = Engine()
        second.runtime(config)
        assert second.stats.dp_builds == 0
        assert second.stats.lut_disk_hits > 0

    def test_resolution_change_invalidates(self, cache_dir):
        first = Engine()
        first.runtime(ExperimentConfig(**TINY))
        second = Engine()
        second.runtime(ExperimentConfig(block_count=18, time_steps=1200))
        assert second.stats.dp_builds > 0

    def test_model_change_invalidates(self, cache_dir):
        first = Engine()
        first.runtime(ExperimentConfig(model=EFFICIENTNET_B0.name, **TINY))
        second = Engine()
        second.runtime(ExperimentConfig(model=MOBILENET_V2.name, **TINY))
        assert second.stats.dp_builds > 0

    def test_config_knob_disables_cache(self, cache_dir):
        config = ExperimentConfig(lut_cache=False, **TINY)
        engine = Engine()
        engine.runtime(config)
        assert engine.stats.lut_disk_writes == 0
        assert not list(cache_dir.glob("**/*.pkl"))

    def test_engine_flag_disables_cache(self, cache_dir):
        engine = Engine(use_disk_cache=False)
        engine.runtime(ExperimentConfig(**TINY))
        assert engine.stats.lut_disk_writes == 0
        assert not list(cache_dir.glob("**/*.pkl"))

    def test_environment_off_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LUT_CACHE", "off")
        engine = Engine()
        engine.runtime(ExperimentConfig(**TINY))
        assert engine.stats.lut_disk_writes == 0
        assert engine.stats.dp_builds > 0

    def test_unwritable_cache_degrades_gracefully(self, tmp_path, monkeypatch):
        # A regular file where a directory is needed defeats mkdir even
        # for privileged test runners (chmod tricks don't stop root).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_LUT_CACHE", str(blocker / "cache"))
        lutcache.stats.reset()
        engine = Engine()
        runtime = engine.runtime(ExperimentConfig(**TINY))
        assert runtime.lut is not None
        assert lutcache.stats.write_failures > 0
