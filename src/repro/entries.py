"""The on-disk entry format shared by the LUT cache and the store.

:mod:`repro.core.lutcache` (built allocation LUTs) and
:class:`repro.store.Store` (finished experiments) both persist values
as one pickle per content-addressed key.  This module owns that format
once, so the two cannot drift apart:

* **Layout.**  ``<root>/v{version}/<key>.pkl`` holds the entries of one
  format version; ``<root>/quarantine/`` holds entries moved aside.
  Bumping the version orphans every older ``v*`` directory with no
  migration logic.
* **Self-addressed payloads.**  Each entry is a dict carrying
  ``version``, ``key`` and the caller's fields.  A read checks the
  version, checks the key against the file name and checks the value
  field is present.
* **Atomic writes.**  A payload is pickled to a unique hidden temp file
  beside its entry and renamed into place with :func:`os.replace`, so
  racing writers never expose a partial entry.  Any exception during a
  write (an unwritable directory, a full disk, an unpicklable value) is
  a failed write: it is counted, the temp file is removed and ``False``
  is returned.
* **Quarantine.**  An entry that fails to unpickle or disagrees with
  its address is moved to ``quarantine/`` (never deleted: the bytes may
  matter for diagnosis), counted, reported as a ``store_quarantine``
  event and treated as a miss.  A missing or unreadable file is a plain
  miss.

This module sits below :mod:`repro.core` and :mod:`repro.store` in the
import graph and imports neither.
"""

from __future__ import annotations

import os
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path

from .obs import events as _events


def default_root(env_var: str, leaf: str, ignore=frozenset()) -> Path:
    """``$env_var`` as a path, else ``$XDG_CACHE_HOME/repro-hhpim/<leaf>``.

    Values in ``ignore`` (compared lower-case) do not name a path; the
    LUT cache uses them to mean "disabled".
    """
    override = os.environ.get(env_var, "").strip()
    if override and override.lower() not in ignore:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-hhpim" / leaf


@dataclass
class EntryStats:
    """Observable behaviour of an entry directory (tests assert on it)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_failures: int = 0
    quarantined: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = self.writes = 0
        self.write_failures = self.quarantined = 0


class EntryDir:
    """One root of versioned, self-addressed pickle entries.

    ``field`` names the payload entry that holds the stored value
    (``value`` for the LUT cache, ``record`` for the store); ``stats``
    may be shared between instances that address the same root.
    """

    def __init__(self, root, version: int, field: str,
                 stats: EntryStats | None = None) -> None:
        self.root = Path(root)
        self.version = version
        self.field = field
        self.stats = EntryStats() if stats is None else stats

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives in the current version."""
        return self.root / f"v{self.version}" / f"{key}.pkl"

    def paths(self) -> list:
        """Every current-version entry file, sorted (temp files excluded)."""
        return sorted((self.root / f"v{self.version}").glob("*.pkl"))

    # -- read -------------------------------------------------------------------

    def load(self, path: Path):
        """The validated payload at ``path``, or ``None``.

        A corrupt or mislabelled entry is quarantined on the way.
        """
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        with handle:
            try:
                payload = pickle.load(handle)
            except Exception:
                payload = None
        if (
            isinstance(payload, dict)
            and payload.get("version") == self.version
            and payload.get("key") == path.name[: -len(".pkl")]
            and self.field in payload
        ):
            return payload
        self._quarantine(path)
        return None

    def get(self, key: str):
        """The stored value for ``key``, or ``None`` on any miss."""
        payload = self.load(self.path(key))
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload[self.field]

    def _quarantine(self, path: Path) -> None:
        target = self.root / "quarantine" / f"{path.name}.{uuid.uuid4().hex}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return
        self.stats.quarantined += 1
        _events.emit("store_quarantine", path=str(path), reason="corrupt_entry")

    # -- write ------------------------------------------------------------------

    def put(self, key: str, **fields) -> bool:
        """Atomically persist ``fields`` under ``key``; ``False`` on failure."""
        path = self.path(key)
        temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        payload = {"version": self.version, "key": key, **fields}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(temp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp, path)
        except Exception:
            self.stats.write_failures += 1
            try:
                temp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self.stats.writes += 1
        return True

    # -- maintenance ------------------------------------------------------------

    def info(self) -> dict:
        """Path, version, entry count and size, quarantine, counters."""
        sizes = []
        for path in self.paths():
            try:
                sizes.append(path.stat().st_size)
            except OSError:
                continue
        quarantine = self.root / "quarantine"
        return {
            "path": str(self.root),
            "version": self.version,
            "entries": len(sizes),
            "bytes": sum(sizes),
            "quarantined": (
                sum(1 for _ in quarantine.iterdir())
                if quarantine.is_dir() else 0
            ),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "writes": self.stats.writes,
        }

    def clear(self) -> int:
        """Delete every file under ``v*/`` and ``quarantine/``; the count.

        That includes orphaned temp files left by a writer killed
        between its write and its rename.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for sub in sorted(self.root.glob("v*")) + [self.root / "quarantine"]:
            if not sub.is_dir():
                continue
            for entry in list(sub.iterdir()):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed
