"""The persistence contract both entry-directory users keep.

The LUT cache (:mod:`repro.core.lutcache`) and the experiment store
(:class:`repro.store.Store`) write through one entry format
(:mod:`repro.entries`), laid out as ``<root>/v{version}/<key>.pkl``.
Each test here runs against both, through their public read/write
calls, so a crash-consistency rule holds for one only if it holds for
the other:

* corrupt bytes are quarantined with the original bytes kept, and a
  ``store_quarantine`` event is emitted;
* an unpicklable value is a failed write that leaves no temp file;
* an orphaned temp file (a writer killed between its write and its
  rename) is never read as an entry and is removed by ``clear()``.
"""

from __future__ import annotations

import uuid

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import Engine, ExperimentConfig, RunRecord
from repro.core import lutcache
from repro.obs import events as obs_events
from repro.store import STORE_VERSION, Store

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS, slices=6)


class LutCacheUser:
    """The LUT cache behind its module functions, at ``root``."""

    def __init__(self, root):
        self.root = root
        self.stats = lutcache.stats
        self.digest = lutcache.fingerprint("contract")
        self.good = {"lut": [1, 2, 3]}
        self.poison = lambda: None

    def put(self, value) -> bool:
        return lutcache.store(self.digest, value)

    def get(self):
        return lutcache.load(self.digest)

    def path(self):
        return self.root / f"v{lutcache.CACHE_VERSION}" / f"{self.digest}.pkl"

    def info(self) -> dict:
        return lutcache.info()

    def clear(self) -> int:
        return lutcache.clear()


class StoreUser:
    """A :class:`Store` at ``root``, holding one run record."""

    def __init__(self, root, record):
        self.store = Store(root)
        self.root = root
        self.stats = self.store.stats
        self.good = record
        self.poison = RunRecord(
            config=record.config,
            result=record.result,
            lut_cached=record.lut_cached,
        )
        object.__setattr__(self.poison, "unpicklable", lambda: None)

    def put(self, value) -> bool:
        return self.store.put(value)

    def get(self):
        return self.store.get(self.good.config)

    def path(self):
        key = self.store.key_for(self.good.config)
        return self.root / f"v{STORE_VERSION}" / f"{key}.pkl"

    def info(self) -> dict:
        return self.store.info()

    def clear(self) -> int:
        return self.store.clear()


@pytest.fixture(scope="module")
def record():
    return Engine(use_disk_cache=False).run_record(ExperimentConfig(**TINY))


@pytest.fixture(params=["lutcache", "store"])
def user(request, tmp_path, monkeypatch):
    if request.param == "lutcache":
        monkeypatch.setenv("REPRO_LUT_CACHE", str(tmp_path / "lut"))
        lutcache.stats.reset()
        return LutCacheUser(tmp_path / "lut")
    return StoreUser(tmp_path / "store", request.getfixturevalue("record"))


@pytest.mark.parametrize("damage", ["garbage", "truncated"])
def test_corrupt_entry_is_quarantined_with_its_bytes(user, damage):
    assert user.put(user.good)
    path = user.path()
    if damage == "garbage":
        path.write_bytes(b"\x80not a pickle")
    else:
        path.write_bytes(path.read_bytes()[:64])
    damaged = path.read_bytes()
    lines = []
    log = obs_events.install(obs_events.EventLog("t", sink=lines.append))
    try:
        assert user.get() is None
    finally:
        obs_events.uninstall(log)
    assert user.stats.quarantined == 1
    assert not path.exists()
    [kept] = (user.root / "quarantine").iterdir()
    assert kept.read_bytes() == damaged
    assert len(lines) == 1
    assert "event=store_quarantine" in lines[0]
    assert str(path) in lines[0]
    assert user.info()["quarantined"] == 1


def test_unpicklable_value_is_a_failed_write(user):
    assert user.put(user.poison) is False
    assert user.stats.write_failures == 1
    assert user.stats.writes == 0
    assert list(user.root.rglob("*.tmp")) == []
    assert user.get() is None


def test_orphaned_temp_file_is_never_read_and_is_cleared(user):
    assert user.put(user.good)
    path = user.path()
    orphan = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    orphan.write_bytes(path.read_bytes()[:64])
    assert user.info()["entries"] == 1
    assert user.get() is not None
    assert user.stats.quarantined == 0
    assert user.clear() == 2
    assert [p for p in user.root.rglob("*") if p.is_file()] == []
