"""Batched results: records, filtering, aggregation and export.

A *record* is one executed experiment: its config, its outcome and
whether its LUT came from cache.  There are two kinds, and
:func:`record_kind` is the one rule that says which a config produces:
:class:`RunRecord` (a single device; ``result`` is a
:class:`~repro.core.runtime.RunResult`) and :class:`FleetRecord` (a
multi-device fleet; ``result`` is a
:class:`~repro.serving.fleet.FleetResult`).  Both inherit one flat
metric surface from :class:`Record`, computed over the record's
per-device ``RunResult``s, so each kind only says where those come from
and which dispatch policy applies.

:class:`ResultSet` is what :meth:`repro.api.engine.Engine.run_many`
returns — an ordered, immutable collection of records of either kind
that slices like a sequence, filters by any config axis, aggregates
energy/latency/deadline statistics per group, and exports to JSON or CSV
with one row schema, :data:`ROW_FIELDS`.

:class:`StoredResultSet` is the *spill* variant behind
``Engine.run_many(..., spill=True)``: the same interface over records
that live in the experiment store rather than in memory — every
iteration streams them back one at a time, so a sweep over thousands of
configs exports with bounded peak memory and byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

from ..errors import ConfigurationError
from .config import ExperimentConfig


def record_kind(config: ExperimentConfig) -> str:
    """The record kind a config produces: ``fleet`` when it asks for
    more than one device, else ``run``."""
    return "fleet" if config.fleet > 1 else "run"


#: The flat-row schema of :meth:`Record.to_row` — every name is a
#: :class:`Record` property, so the export stays rectangular however a
#: batch mixes record kinds.  Deliberately *results only*: provenance
#: like ``lut_cached`` stays off the row, so identical experiments
#: export identically whether they were computed cold, LUT-cached, or
#: reloaded from the experiment store.
ROW_FIELDS = (
    "arch", "model", "scenario", "policy", "devices", "dispatch",
    "slices", "seed", "block_count", "time_steps", "t_slice_ns",
    "total_energy_nj", "energy_per_inference_nj", "mean_power_mw",
    "deadlines_met", "missed_slices", "total_inferences",
    "mean_slice_busy_ns", "worst_slice_busy_ns", "blocks_moved",
)


@dataclass(frozen=True)
class Record:
    """One executed experiment: the config and its outcome.

    The base of :class:`RunRecord` and :class:`FleetRecord`; a subclass
    supplies only :meth:`_parts`.  Per-slice statistics fold over every
    (device, slice) cell of :attr:`device_results`; whole-run totals
    come from ``result``, whose two types share those aggregates.
    """

    config: ExperimentConfig
    #: The outcome: a RunResult (``run``) or a FleetResult (``fleet``).
    result: object
    #: Whether the engine served the run's allocation LUT from cache.
    #: Pure provenance — it never appears in exports (see
    #: :data:`ROW_FIELDS`), so a record reloaded from the experiment
    #: store exports identically to the freshly computed one.
    lut_cached: bool = False

    #: The record kind, ``run`` or ``fleet`` (see :func:`record_kind`).
    kind: ClassVar[str]

    def _parts(self) -> tuple:
        """``(per-device RunResults, dispatch policy name)``."""
        raise NotImplementedError

    @property
    def device_results(self) -> tuple:
        """The per-device :class:`~repro.core.runtime.RunResult`s."""
        return self._parts()[0]

    def _cells(self):
        """Every executed (device, slice) record, device by device."""
        return chain.from_iterable(
            device.records for device in self.device_results
        )

    # -- flat accessors (used by filtering/aggregation/export) ------------------

    @property
    def arch(self) -> str:
        """The config's architecture key (shared by every device)."""
        return self.config.arch

    @property
    def model(self) -> str:
        """The config's model key (shared by every device)."""
        return self.config.model

    @property
    def scenario(self) -> str:
        """The config's scenario key."""
        return self.config.scenario

    @property
    def policy(self) -> str:
        """The *resolved* placement policy (config may have left it
        defaulted; shared by every device)."""
        return self.device_results[0].policy.value

    @property
    def devices(self) -> int:
        """Devices the experiment occupied."""
        return len(self.device_results)

    @property
    def dispatch(self) -> str:
        """The dispatch policy: the fleet's, or on a single device
        (where it is idle) the config's."""
        return self._parts()[1]

    @property
    def total_energy_nj(self) -> float:
        """Energy of the whole run, in nanojoules."""
        return self.result.total_energy_nj

    @property
    def energy_per_inference_nj(self) -> float:
        """Mean energy per executed inference, in nanojoules."""
        return self.result.energy_per_inference_nj

    @property
    def mean_power_mw(self) -> float:
        """Mean power over the run, in milliwatts (devices add)."""
        return self.result.mean_power_mw

    @property
    def deadlines_met(self) -> bool:
        """Whether every (device, slice) cell met its deadline."""
        return self.result.deadlines_met

    @property
    def missed_slices(self) -> int:
        """(device, slice) cells that blew their deadline."""
        return sum(1 for record in self._cells() if not record.deadline_met)

    @property
    def total_inferences(self) -> int:
        """Inferences executed over the whole run."""
        return self.result.total_inferences

    @property
    def slice_count(self) -> int:
        """(device, slice) cells executed — the aggregation weight."""
        return sum(len(device.records) for device in self.device_results)

    @property
    def total_busy_ns(self) -> float:
        """Busy time summed over every (device, slice) cell."""
        return sum(record.busy_time_ns for record in self._cells())

    @property
    def mean_slice_busy_ns(self) -> float:
        """Mean busy time (compute + core + movement) per cell."""
        cells = self.slice_count
        return self.total_busy_ns / cells if cells else 0.0

    @property
    def worst_slice_busy_ns(self) -> float:
        """The most loaded (device, slice) cell's busy time."""
        return max(
            (record.busy_time_ns for record in self._cells()), default=0.0
        )

    @property
    def blocks_moved(self) -> int:
        """Weight blocks migrated over the whole run."""
        return sum(record.movement.blocks_moved for record in self._cells())

    @property
    def slices(self) -> int:
        """The *realized* per-device slice count: a registered Scenario
        instance ignores the config's slices knob, so the executed
        length is the truthful value to export."""
        return len(self.device_results[0].records)

    @property
    def seed(self) -> int:
        """The config's scenario-materialisation seed."""
        return self.config.seed

    @property
    def block_count(self) -> int:
        """The config's optimizer block resolution."""
        return self.config.block_count

    @property
    def time_steps(self) -> int:
        """The config's optimizer time-step resolution."""
        return self.config.time_steps

    @property
    def t_slice_ns(self) -> float:
        """The realized time-slice length, in nanoseconds."""
        return self.device_results[0].t_slice_ns

    def to_row(self) -> dict:
        """A flat, JSON/CSV-ready summary over :data:`ROW_FIELDS`."""
        return {field: getattr(self, field) for field in ROW_FIELDS}


class RunRecord(Record):
    """A single-device experiment: ``result`` is its
    :class:`~repro.core.runtime.RunResult`."""

    kind = "run"

    def _parts(self) -> tuple:
        return (self.result,), self.config.dispatch


class FleetRecord(Record):
    """A fleet experiment: ``result`` is its
    :class:`~repro.serving.fleet.FleetResult`."""

    kind = "fleet"

    def _parts(self) -> tuple:
        return self.result.device_results, self.result.dispatch


def check_record(record, holder: str) -> None:
    """Raise unless ``record`` is a :class:`Record` (``holder`` names
    the collection refusing it)."""
    if not isinstance(record, Record):
        raise ConfigurationError(
            f"{holder} holds RunRecord/FleetRecord entries, "
            f"got {type(record).__name__}"
        )


@dataclass(frozen=True)
class AggregateStats:
    """Energy/latency/deadline statistics over one group of runs."""

    runs: int
    total_energy_nj: float
    mean_energy_nj: float
    min_energy_nj: float
    max_energy_nj: float
    energy_per_inference_nj: float
    mean_power_mw: float
    total_inferences: int
    deadline_rate: float
    missed_slices: int
    mean_slice_busy_ns: float


#: The config axes `ResultSet.filter` / `.aggregate` understand.
_AXES = ("arch", "model", "scenario", "policy", "dispatch")


class ResultSet:
    """An ordered, immutable batch of experiment outcomes.

    Holds :class:`RunRecord` (single-device) and :class:`FleetRecord`
    (multi-device) entries interchangeably — both expose the same flat
    metric surface.
    """

    def __init__(self, records) -> None:
        self._records = tuple(records)
        for record in self._records:
            check_record(record, "ResultSet")

    # -- sequence protocol ------------------------------------------------------

    @property
    def records(self) -> tuple:
        """The underlying record tuple, in batch order."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        picked = self._records[index]
        if isinstance(index, slice):
            return ResultSet(picked)
        return picked

    def __add__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self._records + other.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({len(self)} runs)"

    # -- filtering --------------------------------------------------------------

    def filter(self, predicate=None, **axes) -> "ResultSet":
        """Select runs by config axis values and/or a predicate.

        Axis keywords (``arch=``, ``model=``, ``scenario=``, ``policy=``,
        ``dispatch=``) accept a single value or an iterable of accepted
        values; ``predicate`` is a callable over the record — a
        :class:`RunRecord` or :class:`FleetRecord` (both expose the
        same flat metric surface).
        """
        unknown = set(axes) - set(_AXES)
        if unknown:
            raise ConfigurationError(
                f"unknown filter axes: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(_AXES)}"
            )
        wanted = {}
        for name, values in axes.items():
            if isinstance(values, str) or not hasattr(values, "__iter__"):
                values = [values]
            wanted[name] = {str(v).lower() for v in values}
        out = []
        for record in self:
            if any(
                getattr(record, name).lower() not in accepted
                for name, accepted in wanted.items()
            ):
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return ResultSet(out)

    def best(self, metric: str = "total_energy_nj",
             minimize: bool = True) -> Record:
        """The single best run under a flat metric."""
        if not len(self):
            raise ConfigurationError("cannot pick best of an empty ResultSet")
        chooser = min if minimize else max
        return chooser(self, key=lambda r: getattr(r, metric))

    # -- aggregate statistics ---------------------------------------------------

    @property
    def total_energy_nj(self) -> float:
        """Energy summed over every record, in nanojoules."""
        return sum(r.total_energy_nj for r in self)

    @property
    def deadlines_met(self) -> bool:
        """Whether every record met all of its deadlines."""
        return all(r.deadlines_met for r in self)

    def aggregate(self, by: str = "arch") -> dict:
        """Group stats by a config axis (or a callable over records).

        Returns ``{group_key: AggregateStats}`` with groups in first-seen
        order.
        """
        if callable(by):
            key_of = by
        elif by in _AXES:
            key_of = lambda record: getattr(record, by)  # noqa: E731
        else:
            raise ConfigurationError(
                f"unknown aggregation axis {by!r}; known: {', '.join(_AXES)}"
            )
        groups: dict = {}
        for record in self:
            groups.setdefault(key_of(record), []).append(record)
        out = {}
        for key, records in groups.items():
            energies = [r.total_energy_nj for r in records]
            inferences = sum(r.total_inferences for r in records)
            slices = sum(r.slice_count for r in records)
            busy = sum(r.total_busy_ns for r in records)
            out[key] = AggregateStats(
                runs=len(records),
                total_energy_nj=sum(energies),
                mean_energy_nj=sum(energies) / len(records),
                min_energy_nj=min(energies),
                max_energy_nj=max(energies),
                energy_per_inference_nj=(
                    sum(energies) / inferences if inferences else 0.0
                ),
                mean_power_mw=(
                    sum(r.mean_power_mw for r in records) / len(records)
                ),
                total_inferences=inferences,
                deadline_rate=(
                    sum(1 for r in records if r.deadlines_met) / len(records)
                ),
                missed_slices=sum(r.missed_slices for r in records),
                mean_slice_busy_ns=busy / slices if slices else 0.0,
            )
        return out

    def savings_vs(self, reference_arch: str) -> dict:
        """Fractional energy savings of the reference arch vs each other.

        For every (model, scenario) pair present, computes
        ``1 - E_ref / E_other`` — the paper's Fig. 5 statistic — and
        averages over pairs.  Returns ``{other_arch: mean_savings}``.
        """
        by_cell: dict = {}
        for record in self:
            by_cell.setdefault((record.model, record.scenario), {})[
                record.arch
            ] = record.total_energy_nj
        sums: dict = {}
        counts: dict = {}
        for cell in by_cell.values():
            matches = [a for a in cell if a.lower() == reference_arch.lower()]
            if not matches:
                continue
            ref_energy = cell[matches[0]]
            for arch, energy in cell.items():
                if arch == matches[0]:
                    continue
                sums[arch] = sums.get(arch, 0.0) + (1.0 - ref_energy / energy)
                counts[arch] = counts.get(arch, 0) + 1
        if not sums:
            raise ConfigurationError(
                f"no (model, scenario) cell contains {reference_arch!r}"
            )
        return {arch: sums[arch] / counts[arch] for arch in sums}

    # -- export -----------------------------------------------------------------

    def to_rows(self) -> list:
        """Flat per-run summary dicts, in run order."""
        return [record.to_row() for record in self]

    def to_json(self, path=None, indent: int = 2) -> str:
        """Serialise the per-run summaries as JSON (optionally to a file)."""
        text = json.dumps(self.to_rows(), indent=indent)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text

    def to_csv(self, path=None) -> str:
        """Serialise the per-run summaries as CSV (optionally to a file)."""
        rows = self.to_rows()
        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(
                buffer, fieldnames=list(rows[0]), lineterminator="\n"
            )
            writer.writeheader()
            writer.writerows(rows)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text


class StoredResultSet(ResultSet):
    """A :class:`ResultSet` whose records live in the experiment store.

    ``Engine.run_many(..., spill=True)`` returns one instead of holding
    every computed record: the set keeps only the config tuple, and each
    record is streamed back from the store (one ``get`` per access) when
    iterated.  The full :class:`ResultSet` surface — filtering,
    aggregation, ``best``, ``to_rows``/``to_json``/``to_csv`` — works
    unchanged and produces byte-identical exports, because the base
    class iterates ``self`` and the store returns the very records an
    in-memory batch would have held.  Peak memory is bounded by one
    record at a time plus the flat rows; only :attr:`records`,
    :meth:`filter` and slicing re-materialise records in memory.
    """

    def __init__(self, store, configs) -> None:
        """Wrap ``store`` (a :class:`repro.store.Store`) and the batch's
        configs, in batch order.  Records are fetched lazily — a config
        whose entry has vanished from the store raises on access."""
        self._store = store
        self._configs = tuple(configs)

    @property
    def store(self):
        """The backing experiment store."""
        return self._store

    @property
    def configs(self) -> tuple:
        """The batch's configs, in batch order."""
        return self._configs

    @property
    def records(self) -> tuple:
        """Every record, materialised in memory (loses the bound)."""
        return tuple(self)

    def _load(self, config) -> Record:
        record = self._store.get(config)
        if record is None:
            raise ConfigurationError(
                f"spilled record missing from the experiment store at "
                f"{self._store.root} for config {config.fingerprint()}; "
                f"was the store cleared mid-sweep?"
            )
        return record

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self):
        for config in self._configs:
            yield self._load(config)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return StoredResultSet(self._store, self._configs[index])
        return self._load(self._configs[index])

    def __add__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(tuple(self) + tuple(other))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StoredResultSet({len(self)} runs @ {self._store.root})"
        )
