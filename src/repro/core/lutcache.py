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
* **One entry format.**  Entries are stored through
  :class:`repro.entries.EntryDir`, the format the experiment store uses
  too: ``v{CACHE_VERSION}/<fingerprint>.pkl`` payloads carrying their
  version and key, atomic temp-file writes, and a ``quarantine/``
  directory for corrupt or mislabelled entries (reported as
  ``store_quarantine`` events).  Bumping :data:`CACHE_VERSION` after an
  algorithm change orphans stale entries without any migration logic.
* **Failure tolerance.**  A missing, corrupt, version-skewed or
  unreadable entry is a miss; a failed write (an unwritable cache
  directory, an unpicklable value) degrades to building without
  persistence.

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
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

from ..entries import EntryDir, EntryStats, default_root
from ..obs.tracing import span as _span
from ..reference import _env_override

#: Bump when a change alters what cached payloads contain or mean.
#: v2: payloads are addressed by the shared ``key`` header.
CACHE_VERSION = 2

_OFF_VALUES = {"0", "off", "no", "false", "disabled"}

#: Process-wide counters, reset via ``stats.reset()`` in tests.
stats = EntryStats()


def enabled() -> bool:
    """Whether the persistent cache is globally enabled."""
    value = os.environ.get("REPRO_LUT_CACHE", "").strip().lower()
    return value not in _OFF_VALUES


def cache_dir() -> Path:
    """The cache root: ``REPRO_LUT_CACHE`` or the XDG cache default."""
    return default_root("REPRO_LUT_CACHE", "lut", ignore=_OFF_VALUES)


def _dir() -> EntryDir:
    # Resolved per call: tests and benchmarks move the cache at run time.
    return EntryDir(cache_dir(), CACHE_VERSION, "value", stats)


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


# -- load / store ----------------------------------------------------------------


def load(digest: str):
    """The cached value for a fingerprint, or ``None`` on any miss."""
    return _dir().get(digest)


def store(digest: str, value) -> bool:
    """Persist a value under its fingerprint; False if the write failed."""
    return _dir().put(digest, value=value)


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


def info() -> dict:
    """A serialisable snapshot of the cache for ``repro cache info``."""
    return {"enabled": enabled(), **_dir().info()}


def clear() -> int:
    """Delete every cache file (all versions, quarantine); the count."""
    return _dir().clear()
