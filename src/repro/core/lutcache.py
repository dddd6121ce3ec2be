"""Persistent, cross-process allocation-LUT cache.

The paper's runtime story builds the allocation LUT once per
application initialization; :class:`~repro.api.engine.Engine` already
memoizes runtimes within one process, but that memory evaporates between
CLI invocations and is never shared with ``run_many``'s process-pool
workers.  This module adds the missing layer: a content-addressed
on-disk store keyed by a stable hash of everything a LUT build depends
on (architecture spec, model, policy, time slice, optimizer resolution,
gating granularity), so any process on the machine reuses any other
process's build.

Design points:

* **Content addressing.**  Keys are canonicalised (dataclasses to field
  dicts, enums to ``(type, value)`` pairs, floats to ``repr`` so every
  bit participates) and SHA-256 hashed; a changed spec, model or knob
  lands on a different entry automatically.
* **Versioning.**  Entries live under a ``v{CACHE_VERSION}`` directory
  and carry the version + fingerprint in their payload; bumping
  :data:`CACHE_VERSION` after an algorithm change orphans stale entries
  without any migration logic.
* **Concurrent writers.**  Writes go to a unique temp file in the cache
  directory followed by :func:`os.replace`, so parallel sweep workers
  racing on the same entry each produce a complete file and the last
  rename wins atomically.
* **Failure tolerance.**  A missing, corrupt, version-skewed or
  unreadable entry is a miss; an unwritable cache directory silently
  degrades to building without persistence.

Controls: the ``REPRO_LUT_CACHE`` environment variable points the cache
somewhere else, or disables it entirely when set to ``0``/``off``;
:class:`~repro.api.config.ExperimentConfig` exposes a per-experiment
``lut_cache`` knob and the CLI a ``--no-cache`` flag plus ``repro cache
{info,clear}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

from ..obs.tracing import span as _span
from ..reference import _env_override

#: Bump when a change alters what cached payloads contain or mean.
CACHE_VERSION = 1

_OFF_VALUES = {"0", "off", "no", "false", "disabled"}


@dataclass
class CacheStats:
    """Observable cache behaviour of this process (tests assert on it)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_failures: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.writes = self.write_failures = 0


#: Process-wide counters, reset via ``stats.reset()`` in tests.
stats = CacheStats()


def enabled() -> bool:
    """Whether the persistent cache is globally enabled."""
    value = os.environ.get("REPRO_LUT_CACHE", "").strip().lower()
    return value not in _OFF_VALUES


def cache_dir() -> Path:
    """The cache root: ``REPRO_LUT_CACHE`` or the XDG cache default."""
    override = os.environ.get("REPRO_LUT_CACHE", "").strip()
    if override and override.lower() not in _OFF_VALUES:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-hhpim" / "lut"


@contextmanager
def temporary_cache_dir(path):
    """Point the cache at ``path`` for the enclosed block.

    Routes through ``REPRO_LUT_CACHE`` (restored on exit) so forked
    process-pool workers inherit the redirection.  Used by benchmarks
    for guaranteed cold/warm pairs and by the test suites for hermetic
    runs.
    """
    with _env_override("REPRO_LUT_CACHE", str(path)):
        yield Path(path)


# -- content addressing ----------------------------------------------------------


def _canonical(obj):
    """Reduce a key object to JSON-serialisable canonical form.

    Dataclasses flatten to ``{type, field: value}`` dicts, enums to
    ``[type, value]`` pairs and floats to ``repr`` strings (so every bit
    of a time slice or latency scale participates in the address).
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        flat = {
            field.name: _canonical(getattr(obj, field.name))
            for field in fields(obj)
        }
        flat["__type__"] = type(obj).__qualname__
        return flat
    if isinstance(obj, Enum):
        return [type(obj).__qualname__, _canonical(obj.value)]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(_canonical(item)) for item in obj)
    if isinstance(obj, dict):
        return {
            json.dumps(_canonical(key)): _canonical(value)
            for key, value in obj.items()
        }
    raise TypeError(
        f"cannot canonicalise {type(obj).__qualname__} for cache addressing"
    )


def fingerprint(*parts) -> str:
    """The stable content address of a key tuple."""
    canonical = json.dumps(
        _canonical(parts), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _entry_path(digest: str) -> Path:
    return cache_dir() / f"v{CACHE_VERSION}" / f"{digest}.pkl"


# -- load / store ----------------------------------------------------------------


def load(digest: str):
    """The cached value for a fingerprint, or ``None`` on any miss."""
    path = _entry_path(digest)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception:
        # Missing, truncated, unpicklable, permission-denied: all misses.
        stats.misses += 1
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CACHE_VERSION
        or payload.get("fingerprint") != digest
    ):
        stats.misses += 1
        return None
    stats.hits += 1
    return payload["value"]


def store(digest: str, value) -> bool:
    """Persist a value under its fingerprint; False if the write failed.

    The payload is written to a unique sibling temp file and atomically
    renamed into place, so concurrent writers (sweep workers racing on
    the same LUT) never expose a partial entry.
    """
    path = _entry_path(digest)
    payload = {
        "version": CACHE_VERSION,
        "fingerprint": digest,
        "value": value,
    }
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, path)
    except OSError:
        stats.write_failures += 1
        try:
            temp.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    stats.writes += 1
    return True


def fetch_or_build(key_parts: tuple, builder):
    """The cached value for a key, building and persisting on a miss.

    Returns ``(value, source)`` with ``source`` one of ``"disk"`` (served
    from the cache), ``"stored"`` (built and persisted) or ``"built"``
    (built; persisting failed or the cache is unwritable).
    """
    with _span("lutcache.fetch_or_build", kind=str(key_parts[0])) as sp:
        digest = fingerprint(*key_parts)
        value = load(digest)
        if value is not None:
            sp.annotate(source="disk")
            return value, "disk"
        value = builder()
        source = "stored" if store(digest, value) else "built"
        sp.annotate(source=source)
        return value, source


# -- maintenance -----------------------------------------------------------------


def _entries():
    root = cache_dir()
    if not root.is_dir():
        return
    for version_dir in sorted(root.glob("v*")):
        if version_dir.is_dir():
            yield from sorted(version_dir.glob("*.pkl"))


def info() -> dict:
    """A serialisable snapshot of the cache for ``repro cache info``."""
    entries = list(_entries())
    total = 0
    for entry in entries:
        try:
            total += entry.stat().st_size
        except OSError:
            pass
    return {
        "path": str(cache_dir()),
        "enabled": enabled(),
        "version": CACHE_VERSION,
        "entries": len(entries),
        "bytes": total,
        "hits": stats.hits,
        "misses": stats.misses,
        "writes": stats.writes,
    }


def clear() -> int:
    """Delete every cache entry (all versions); returns the count."""
    removed = 0
    for entry in list(_entries()):
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass
    root = cache_dir()
    if root.is_dir():
        for version_dir in root.glob("v*"):
            try:
                version_dir.rmdir()
            except OSError:
                pass
    return removed
