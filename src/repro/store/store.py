"""Persistent, content-addressed experiment store.

Where :mod:`repro.core.lutcache` persists *LUT builds*, this module
persists *finished experiments*: every completed run — a
:class:`~repro.api.results.RunRecord`, a
:class:`~repro.api.results.FleetRecord` or a
:class:`~repro.qos.slo.QoSResult` — lands on disk addressed by the
SHA-256 of its canonicalised :class:`~repro.api.config.ExperimentConfig`
(:meth:`~repro.api.config.ExperimentConfig.fingerprint`).  A sweep that
dies halfway resumes with zero recomputation; N shard processes fill one
store concurrently and a final pass stitches the complete
:class:`~repro.api.results.ResultSet` back together bit for bit (see
:mod:`repro.store.sharding`).

The store reuses the conventions that made the LUT cache trustworthy:

* **Content addressing.**  Keys come from
  :func:`repro.core.lutcache.fingerprint` over the config's dict form
  (minus ``lut_cache``, which never changes results), prefixed with the
  record kind — ``run``, ``fleet`` or ``qos`` — so the three result
  shapes of one config never collide.
* **Versioning.**  Entries live under ``v{STORE_VERSION}`` and embed the
  version + key in their payload; bumping :data:`STORE_VERSION` after a
  result-affecting change orphans stale entries with no migration.
* **Atomic writes.**  Payloads are pickled to a unique temp file and
  ``os.replace``d into place, so shard workers racing on one store never
  expose a partial entry.
* **Corruption quarantine.**  An entry that fails to unpickle or whose
  payload disagrees with its address is *moved aside* into
  ``quarantine/`` (not deleted — the bytes may matter for diagnosis),
  counted in :attr:`Store.stats`, and treated as a miss.

The default location is ``$REPRO_STORE`` when set, else
``$XDG_CACHE_HOME/repro-hhpim/store``; the CLI exposes it as
``repro store {info,ls,clear}`` and ``repro sweep --store DIR``.
"""

from __future__ import annotations

import os
import pickle
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from ..api.config import ExperimentConfig
from ..api.results import FleetRecord, ResultSet, RunRecord
from ..core import lutcache
from ..errors import ConfigurationError
from ..obs import events as _events
from ..obs.tracing import span as _span
from ..reference import _env_override

#: Bump when a change alters what stored payloads contain or mean.
STORE_VERSION = 1

#: The record kinds the store holds: the three result shapes one config
#: can produce, plus ``fuzz`` regression entries persisted by the
#: invariant harness (see :mod:`repro.fuzz`).
KINDS = ("run", "fleet", "qos", "fuzz")


@dataclass
class StoreStats:
    """Observable behaviour of one :class:`Store` (tests assert on it)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_failures: int = 0
    quarantined: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = self.writes = 0
        self.write_failures = self.quarantined = 0


def default_store_dir() -> Path:
    """The store root: ``$REPRO_STORE`` or the XDG cache default."""
    override = os.environ.get("REPRO_STORE", "").strip()
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-hhpim" / "store"


@contextmanager
def temporary_store_dir(path):
    """Point the default store at ``path`` for the enclosed block.

    Routes through ``REPRO_STORE`` (restored on exit) so subprocesses —
    CLI invocations under test, shard workers — inherit the redirection.
    """
    with _env_override("REPRO_STORE", str(path)):
        yield Path(path)


def record_kind(config: ExperimentConfig) -> str:
    """The batch record kind a config produces: ``run`` or ``fleet``."""
    return "fleet" if config.fleet > 1 else "run"


class Store:
    """An on-disk, content-addressed store of completed experiments.

    One directory is one store; any number of processes may read and
    write it concurrently.  ``get``/``put`` address single results by
    config, ``query`` reloads a filtered :class:`ResultSet` (it and
    :func:`repro.analysis.sweeps.render_store` back ``repro store
    ls``), and ``info``/``clear`` back the other CLI actions.
    """

    def __init__(self, root=None) -> None:
        """Open (lazily creating) the store at ``root``.

        ``None`` selects :func:`default_store_dir`, so ``Store()`` is
        the machine-wide store the CLI uses.
        """
        self.root = Path(root).expanduser() if root is not None else (
            default_store_dir()
        )
        self.stats = StoreStats()

    # -- addressing -------------------------------------------------------------

    def _version_dir(self) -> Path:
        return self.root / f"v{STORE_VERSION}"

    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def key_for(self, config: ExperimentConfig, kind: str | None = None) -> str:
        """The entry key of a config: ``<kind>-<sha256>``."""
        kind = record_kind(config) if kind is None else kind
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown store record kind {kind!r}; known: {', '.join(KINDS)}"
            )
        return f"{kind}-{config.fingerprint()}"

    def _entry_path(self, key: str) -> Path:
        return self._version_dir() / f"{key}.pkl"

    # -- read -------------------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (never deleting evidence)."""
        target = self._quarantine_dir() / f"{path.name}.{uuid.uuid4().hex}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            self.stats.quarantined += 1
        except OSError:
            return
        _events.emit(
            "store_quarantine", path=str(path), reason="corrupt_entry"
        )

    def _load_payload(self, path: Path):
        """The validated payload at ``path``, or ``None`` (quarantining
        anything unreadable or inconsistent with its address)."""
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated, unpicklable, wrong format: quarantine the bytes.
            self._quarantine(path)
            return None
        key = path.name[: -len(".pkl")]
        if (
            not isinstance(payload, dict)
            or payload.get("version") != STORE_VERSION
            or payload.get("key") != key
            or "record" not in payload
        ):
            self._quarantine(path)
            return None
        return payload

    def get(self, config: ExperimentConfig, kind: str | None = None):
        """The stored record for a config, or ``None`` on any miss.

        ``kind`` defaults to the batch kind the config produces
        (``fleet`` when ``config.fleet > 1``, else ``run``); pass
        ``"qos"`` — or use :meth:`get_qos` — for request-level results.
        """
        with _span("store.get") as trace_span:
            payload = self._load_payload(
                self._entry_path(self.key_for(config, kind))
            )
            if payload is None:
                self.stats.misses += 1
                trace_span.annotate(hit=False)
                return None
            self.stats.hits += 1
            trace_span.annotate(hit=True)
            return payload["record"]

    def get_qos(self, config: ExperimentConfig):
        """The stored :class:`~repro.qos.slo.QoSResult`, or ``None``."""
        return self.get(config, kind="qos")

    def __contains__(self, config: ExperimentConfig) -> bool:
        """Whether the config's batch record is stored (no unpickling)."""
        return self._entry_path(self.key_for(config)).is_file()

    # -- write ------------------------------------------------------------------

    def _write(self, key: str, payload: dict) -> bool:
        with _span("store.put", kind=payload.get("kind")) as trace_span:
            ok = self._write_entry(key, payload)
            trace_span.annotate(ok=ok)
        return ok

    def _write_entry(self, key: str, payload: dict) -> bool:
        path = self._entry_path(key)
        temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(temp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp, path)
        except Exception:
            # Unwritable directory, full disk, *or* an unpicklable record
            # (user-registered specs can carry anything): the contract is
            # degrade-to-recomputation, never crash a finished sweep.
            self.stats.write_failures += 1
            try:
                temp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self.stats.writes += 1
        return True

    def put(self, record, engine_stats=None) -> bool:
        """Persist a completed :class:`RunRecord`/:class:`FleetRecord`.

        Besides the record itself, the payload embeds the config's dict
        form, the flat metric row, and an optional snapshot of the
        producing engine's stats — entries stay self-describing to
        external tooling that reads the pickles without this library.
        Returns ``False`` when the write failed (an unwritable store or
        unpicklable record degrades to recomputation, never to an
        error).
        """
        if not isinstance(record, (RunRecord, FleetRecord)):
            raise ConfigurationError(
                f"store holds RunRecord/FleetRecord entries, "
                f"got {type(record).__name__}"
            )
        kind = "fleet" if isinstance(record, FleetRecord) else "run"
        key = self.key_for(record.config, kind)
        return self._write(key, {
            "version": STORE_VERSION,
            "key": key,
            "kind": kind,
            "config": record.config.to_dict(),
            "row": record.to_row(),
            "record": record,
            "engine_stats": (
                asdict(engine_stats) if engine_stats is not None else None
            ),
        })

    def put_qos(self, config: ExperimentConfig, result,
                engine_stats=None) -> bool:
        """Persist a :class:`~repro.qos.slo.QoSResult` under its config."""
        key = self.key_for(config, "qos")
        return self._write(key, {
            "version": STORE_VERSION,
            "key": key,
            "kind": "qos",
            "config": config.to_dict(),
            "row": {
                "arch": config.arch,
                "model": config.model,
                "scenario": config.scenario,
                "devices": config.fleet,
                "qos": config.qos,
                "autoscaler": config.autoscaler,
                "completed": result.completed,
                "slo_attainment": result.slo_attainment,
                "total_energy_nj": result.total_energy_nj,
            },
            "record": result,
            "engine_stats": (
                asdict(engine_stats) if engine_stats is not None else None
            ),
        })

    def put_fuzz(self, entry: dict) -> str | None:
        """Persist a fuzz regression entry; returns its key, or ``None``.

        ``entry`` is the plain dict the invariant harness builds (see
        :func:`repro.fuzz.run_fuzz`): at minimum a ``"case"`` dict (the
        shrunk :class:`~repro.fuzz.FuzzCase` in serialized form) and the
        ``"invariant"`` it violates.  The key is content-addressed over
        the case dict, so re-finding the same minimal case is
        idempotent.  A failed write degrades to ``None`` (same contract
        as :meth:`put`).
        """
        case = entry.get("case")
        if not isinstance(case, dict) or not entry.get("invariant"):
            raise ConfigurationError(
                "fuzz entry needs a 'case' dict and an 'invariant' name"
            )
        key = f"fuzz-{lutcache.fingerprint('fuzz', case)}"
        ok = self._write(key, {
            "version": STORE_VERSION,
            "key": key,
            "kind": "fuzz",
            "config": None,
            "row": {
                "seed": case.get("case_seed"),
                "invariant": entry["invariant"],
                "program": entry.get("program_label", ""),
                "arch": case.get("arch", ""),
                "model": case.get("model", ""),
                "slices": case.get("slices"),
            },
            "record": dict(entry),
            "engine_stats": None,
        })
        return key if ok else None

    # -- enumeration ------------------------------------------------------------

    def _entries(self):
        root = self._version_dir()
        if not root.is_dir():
            return
        yield from sorted(root.glob("*.pkl"))

    def keys(self) -> list:
        """Every stored entry key (current version), sorted."""
        return [path.name[: -len(".pkl")] for path in self._entries()]

    def query(self, predicate=None, kind: str | None = None,
              limit: int | None = None, **axes) -> ResultSet:
        """Reload stored batch records as a :class:`ResultSet`.

        Accepts the same axis keywords and predicate as
        :meth:`ResultSet.filter`; ``qos`` entries are excluded (they are
        not batch records — fetch them with :meth:`get_qos`, or list
        their summary rows with :meth:`qos_rows`).  ``kind`` restricts
        the result to one record kind (``run`` or ``fleet``) and
        ``limit`` keeps only the first ``limit`` records *after*
        sorting and filtering.  Records come back sorted by config
        fingerprint then key — a total order derived from content
        hashes, never from directory listing order — so two processes
        querying one store (on any filesystem) see the same records in
        the same order, and ``--limit N`` truncates to the same N.

        ``kind="fuzz"`` is the one non-batch kind this method serves:
        fuzz regression entries are plain dicts, not records, so the
        call returns a sorted ``list`` of entry dicts (``predicate``
        and ``limit`` still apply; axis keywords are rejected).
        """
        if kind == "fuzz":
            if axes:
                raise ConfigurationError(
                    "fuzz entries are not batch records and accept no "
                    f"axis filters, got {sorted(axes)!r}"
                )
            return self.fuzz_entries(predicate=predicate, limit=limit)
        if kind is not None and kind not in ("run", "fleet"):
            raise ConfigurationError(
                f"query kind must be 'run', 'fleet' or 'fuzz' (qos "
                f"entries are not batch records; see Store.qos_rows), "
                f"got {kind!r}"
            )
        if limit is not None and limit < 0:
            raise ConfigurationError(
                f"query limit must be non-negative, got {limit!r}"
            )
        records = []
        for path in list(self._entries()):
            if path.name.startswith(("qos-", "fuzz-")):
                continue
            if kind is not None and not path.name.startswith(f"{kind}-"):
                continue
            payload = self._load_payload(path)
            if payload is None:
                continue
            # The key is "<kind>-<fingerprint>"; order by fingerprint
            # first so run/fleet records of one config sit together.
            fingerprint = payload["key"].split("-", 1)[1]
            records.append((fingerprint, payload["key"], payload["record"]))
        records.sort(key=lambda item: (item[0], item[1]))
        results = ResultSet(record for _, _, record in records)
        if predicate is not None or axes:
            results = results.filter(predicate, **axes)
        if limit is not None:
            results = ResultSet(tuple(results)[:limit])
        return results

    def qos_rows(self, limit: int | None = None) -> list:
        """The stored QoS entries' flat summary rows, sorted by key.

        Each row is the plain dict :meth:`put_qos` embedded alongside
        the pickled result (arch, model, scenario, devices, discipline,
        autoscaler, completed, SLO attainment, total energy) — enough
        for a listing without unpickling full per-window series into a
        :class:`~repro.qos.slo.QoSResult`.  ``limit`` keeps only the
        first ``limit`` rows of the sorted set.
        """
        if limit is not None and limit < 0:
            raise ConfigurationError(
                f"qos_rows limit must be non-negative, got {limit!r}"
            )
        rows = []
        for path in list(self._entries()):
            if not path.name.startswith("qos-"):
                continue
            payload = self._load_payload(path)
            if payload is None or not isinstance(payload.get("row"), dict):
                continue
            rows.append((payload["key"], payload["row"]))
        rows.sort(key=lambda item: item[0])
        if limit is not None:
            rows = rows[:limit]
        return [row for _, row in rows]

    def fuzz_entries(self, predicate=None, limit: int | None = None) -> list:
        """The stored fuzz regression entries, sorted by key.

        Each element is the full dict :meth:`put_fuzz` persisted (the
        serialized minimal case, the violated invariant, its detail
        string, and the original pre-shrink case), with the store key
        attached under ``"key"``.  ``predicate`` filters entries after
        sorting; ``limit`` keeps the first ``limit`` survivors — the
        same order every process sees, so replay is deterministic.
        """
        if limit is not None and limit < 0:
            raise ConfigurationError(
                f"fuzz_entries limit must be non-negative, got {limit!r}"
            )
        entries = []
        for path in list(self._entries()):
            if not path.name.startswith("fuzz-"):
                continue
            payload = self._load_payload(path)
            if payload is None or not isinstance(payload.get("record"), dict):
                continue
            entry = dict(payload["record"])
            entry["key"] = payload["key"]
            entries.append((payload["key"], entry))
        entries.sort(key=lambda item: item[0])
        results = [entry for _, entry in entries]
        if predicate is not None:
            results = [entry for entry in results if predicate(entry)]
        if limit is not None:
            results = results[:limit]
        return results

    def fuzz_rows(self, limit: int | None = None) -> list:
        """The stored fuzz entries' flat summary rows, sorted by key.

        Each row is the plain dict :meth:`put_fuzz` embedded alongside
        the full entry (case seed, violated invariant, program label,
        arch, model, slices) — enough for ``repro store ls --kind
        fuzz`` without reloading whole entries.  ``limit`` keeps only
        the first ``limit`` rows of the sorted set.
        """
        if limit is not None and limit < 0:
            raise ConfigurationError(
                f"fuzz_rows limit must be non-negative, got {limit!r}"
            )
        rows = []
        for path in list(self._entries()):
            if not path.name.startswith("fuzz-"):
                continue
            payload = self._load_payload(path)
            if payload is None or not isinstance(payload.get("row"), dict):
                continue
            rows.append((payload["key"], payload["row"]))
        rows.sort(key=lambda item: item[0])
        if limit is not None:
            rows = rows[:limit]
        return [row for _, row in rows]

    # -- maintenance ------------------------------------------------------------

    def info(self) -> dict:
        """A serialisable snapshot for ``repro store info``."""
        sizes = []
        kinds = dict.fromkeys(KINDS, 0)
        for path in self._entries():
            try:
                sizes.append(path.stat().st_size)
            except OSError:
                continue
            prefix = path.name.split("-", 1)[0]
            if prefix in kinds:
                kinds[prefix] += 1
            else:
                # A stray file in the version dir is not ours to crash
                # over; the read path will quarantine it on contact.
                kinds["unrecognized"] = kinds.get("unrecognized", 0) + 1
        quarantined = (
            len(list(self._quarantine_dir().glob("*")))
            if self._quarantine_dir().is_dir()
            else 0
        )
        return {
            "path": str(self.root),
            "version": STORE_VERSION,
            "entries": len(sizes),
            "by_kind": kinds,
            "bytes": sum(sizes),
            "quarantined": quarantined,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "writes": self.stats.writes,
        }

    def clear(self) -> int:
        """Delete every entry (all versions + quarantine); the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for sub in list(self.root.glob("v*")) + [self._quarantine_dir()]:
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Store({str(self.root)!r})"
