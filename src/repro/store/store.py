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

Entries use the one on-disk format the LUT cache uses too
(:mod:`repro.entries`), so the two share their failure handling:

* **Content addressing.**  Keys come from
  :func:`repro.core.lutcache.fingerprint` over the config's dict form
  (minus ``lut_cache``, which never changes results), prefixed with the
  record kind — ``run``, ``fleet`` or ``qos`` — so the three result
  shapes of one config never collide.
* **Versioning.**  Entries live under ``v{STORE_VERSION}`` and embed the
  version + key in their payload; bumping :data:`STORE_VERSION` after a
  result-affecting change orphans stale entries with no migration.
* **Atomic writes.**  Payloads are pickled to a unique temp file and
  renamed into place, so shard workers racing on one store never
  expose a partial entry; any failed write degrades to recomputation.
* **Corruption quarantine.**  An entry that fails to unpickle or whose
  payload disagrees with its address is *moved aside* into
  ``quarantine/`` (not deleted — the bytes may matter for diagnosis),
  counted in :attr:`Store.stats`, and treated as a miss.

The default location is ``$REPRO_STORE`` when set, else
``$XDG_CACHE_HOME/repro-hhpim/store``; the CLI exposes it as
``repro store {info,ls,clear}`` and ``repro sweep --store DIR``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from ..api.config import ExperimentConfig
from ..api.results import FleetRecord, ResultSet, RunRecord
from ..core import lutcache
from ..entries import EntryDir, default_root
from ..errors import ConfigurationError
from ..obs.tracing import span as _span
from ..reference import _env_override

#: Bump when a change alters what stored payloads contain or mean.
STORE_VERSION = 1

#: The record kinds the store holds: the three result shapes one config
#: can produce, plus ``fuzz`` regression entries persisted by the
#: invariant harness (see :mod:`repro.fuzz`).
KINDS = ("run", "fleet", "qos", "fuzz")


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

        ``None`` selects ``$REPRO_STORE``, else
        ``$XDG_CACHE_HOME/repro-hhpim/store``, so ``Store()`` is the
        machine-wide store the CLI uses.
        """
        self.root = Path(root).expanduser() if root is not None else (
            default_root("REPRO_STORE", "store")
        )
        self._dir = EntryDir(self.root, STORE_VERSION, "record")
        self.stats = self._dir.stats

    # -- addressing -------------------------------------------------------------

    def key_for(self, config: ExperimentConfig, kind: str | None = None) -> str:
        """The entry key of a config: ``<kind>-<sha256>``."""
        kind = record_kind(config) if kind is None else kind
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown store record kind {kind!r}; known: {', '.join(KINDS)}"
            )
        return f"{kind}-{config.fingerprint()}"

    # -- read -------------------------------------------------------------------

    def get(self, config: ExperimentConfig, kind: str | None = None):
        """The stored record for a config, or ``None`` on any miss.

        ``kind`` defaults to the batch kind the config produces
        (``fleet`` when ``config.fleet > 1``, else ``run``); pass
        ``"qos"`` — or use :meth:`get_qos` — for request-level results.
        """
        with _span("store.get") as trace_span:
            record = self._dir.get(self.key_for(config, kind))
            trace_span.annotate(hit=record is not None)
            return record

    def get_qos(self, config: ExperimentConfig):
        """The stored :class:`~repro.qos.slo.QoSResult`, or ``None``."""
        return self.get(config, kind="qos")

    def __contains__(self, config: ExperimentConfig) -> bool:
        """Whether the config's batch record is stored (no unpickling)."""
        return self._dir.path(self.key_for(config)).is_file()

    # -- write ------------------------------------------------------------------

    def _put(self, key: str, kind: str, config, row: dict, record,
             engine_stats=None) -> bool:
        with _span("store.put", kind=kind) as trace_span:
            ok = self._dir.put(
                key, kind=kind, config=config, row=row, record=record,
                engine_stats=(
                    asdict(engine_stats) if engine_stats is not None else None
                ),
            )
            trace_span.annotate(ok=ok)
        return ok

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
        return self._put(
            self.key_for(record.config, record.kind), record.kind,
            record.config.to_dict(), record.to_row(), record, engine_stats,
        )

    def put_qos(self, config: ExperimentConfig, result,
                engine_stats=None) -> bool:
        """Persist a :class:`~repro.qos.slo.QoSResult` under its config."""
        row = {
            "arch": config.arch,
            "model": config.model,
            "scenario": config.scenario,
            "devices": config.fleet,
            "qos": config.qos,
            "autoscaler": config.autoscaler,
            "completed": result.completed,
            "slo_attainment": result.slo_attainment,
            "total_energy_nj": result.total_energy_nj,
        }
        return self._put(self.key_for(config, "qos"), "qos",
                         config.to_dict(), row, result, engine_stats)

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
        row = {
            "seed": case.get("case_seed"),
            "invariant": entry["invariant"],
            "program": entry.get("program_label", ""),
            "arch": case.get("arch", ""),
            "model": case.get("model", ""),
            "slices": case.get("slices"),
        }
        ok = self._put(key, "fuzz", None, row, dict(entry))
        return key if ok else None

    # -- enumeration ------------------------------------------------------------

    def keys(self) -> list:
        """Every stored entry key (current version), sorted."""
        return [path.name[: -len(".pkl")] for path in self._dir.paths()]

    def _scan(self, caller: str, kinds: tuple, limit: int | None,
              field: str, expect=dict) -> list:
        """``(key, payload[field])`` of every valid entry of ``kinds``.

        Sorted by config fingerprint then key (a total order derived
        from content hashes, never from directory listing order), and
        restricted to values of type ``expect``; ``limit`` is checked
        here and applied by the caller after its own filtering.
        """
        if limit is not None and limit < 0:
            raise ConfigurationError(
                f"{caller} limit must be non-negative, got {limit!r}"
            )
        found = []
        for path in self._dir.paths():
            if path.name.split("-", 1)[0] not in kinds:
                continue
            payload = self._dir.load(path)
            if payload is not None and isinstance(payload.get(field), expect):
                found.append((payload["key"], payload[field]))
        # The key is "<kind>-<fingerprint>"; order by fingerprint
        # first so run/fleet records of one config sit together.
        found.sort(key=lambda item: (item[0].split("-", 1)[1], item[0]))
        return found

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
        kinds = ("run", "fleet") if kind is None else (kind,)
        results = ResultSet(
            record for _, record in self._scan(
                "query", kinds, limit, "record", (RunRecord, FleetRecord)
            )
        )
        if predicate is not None or axes:
            results = results.filter(predicate, **axes)
        return ResultSet(tuple(results)[:limit])

    def qos_rows(self, limit: int | None = None) -> list:
        """The stored QoS entries' flat summary rows, sorted by key.

        Each row is the plain dict :meth:`put_qos` embedded alongside
        the pickled result (arch, model, scenario, devices, discipline,
        autoscaler, completed, SLO attainment, total energy) — enough
        for a listing without unpickling full per-window series into a
        :class:`~repro.qos.slo.QoSResult`.  ``limit`` keeps only the
        first ``limit`` rows of the sorted set.
        """
        rows = self._scan("qos_rows", ("qos",), limit, "row")
        return [row for _, row in rows][:limit]

    def fuzz_entries(self, predicate=None, limit: int | None = None) -> list:
        """The stored fuzz regression entries, sorted by key.

        Each element is the full dict :meth:`put_fuzz` persisted (the
        serialized minimal case, the violated invariant, its detail
        string, and the original pre-shrink case), with the store key
        attached under ``"key"``.  ``predicate`` filters entries after
        sorting; ``limit`` keeps the first ``limit`` survivors — the
        same order every process sees, so replay is deterministic.
        """
        entries = [
            {**record, "key": key}
            for key, record in self._scan(
                "fuzz_entries", ("fuzz",), limit, "record"
            )
        ]
        if predicate is not None:
            entries = [entry for entry in entries if predicate(entry)]
        return entries[:limit]

    def fuzz_rows(self, limit: int | None = None) -> list:
        """The stored fuzz entries' flat summary rows, sorted by key.

        Each row is the plain dict :meth:`put_fuzz` embedded alongside
        the full entry (case seed, violated invariant, program label,
        arch, model, slices) — enough for ``repro store ls --kind
        fuzz`` without reloading whole entries.  ``limit`` keeps only
        the first ``limit`` rows of the sorted set.
        """
        rows = self._scan("fuzz_rows", ("fuzz",), limit, "row")
        return [row for _, row in rows][:limit]

    # -- maintenance ------------------------------------------------------------

    def info(self) -> dict:
        """A serialisable snapshot for ``repro store info``."""
        kinds = dict.fromkeys(KINDS, 0)
        for key in self.keys():
            prefix = key.split("-", 1)[0]
            if prefix in kinds:
                kinds[prefix] += 1
            else:
                # A stray file in the version dir is not ours to crash
                # over; reported here, removed by clear().
                kinds["unrecognized"] = kinds.get("unrecognized", 0) + 1
        return {**self._dir.info(), "by_kind": kinds}

    def clear(self) -> int:
        """Delete every entry (all versions + quarantine); the count."""
        return self._dir.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Store({str(self.root)!r})"
