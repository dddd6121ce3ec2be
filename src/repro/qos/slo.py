"""SLO accounting: streaming latency percentiles and attainment series.

The simulator feeds one :class:`SloAccountant` as the run unfolds: each
service window reports its completions, and the accountant maintains

* **per-slice** latency percentiles (p50/p95/p99 over the window's
  completions), deadline misses and SLO attainment;
* **cumulative** (streaming) percentiles over every completion so far —
  an exact online computation (one sorted-merge per window), so two
  runs with the same seed produce bit-identical series;
* per-slice fleet/energy/utilization/backlog columns for the autoscaler
  and the reports.

Percentiles use the nearest-rank definition (the smallest value with at
least ``q`` of the mass at or below it): exact, deterministic and free of
interpolation noise.  The run's outcome is packaged as a
:class:`QoSResult` — per-slice :class:`QoSSliceStats`, per-device
:class:`~repro.core.runtime.SliceRecord` streams (bit-comparable to the
fleet runtime's records), and the overall summary — with a
plain-primitive :meth:`QoSResult.to_dict` for JSON export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import QoSError
from ..workloads.scenarios import Scenario

__all__ = [
    "percentile",
    "SloAccountant",
    "QoSSliceStats",
    "QoSResult",
    "PERCENTILES",
]

#: The latency quantiles every report carries.
PERCENTILES = (0.50, 0.95, 0.99)


def percentile(ordered, q: float):
    """Nearest-rank percentile of an ascending sequence (None if empty).

    Accepts any ascending sequence — a list or a NumPy array (arrays are
    ambiguous under ``bool()``, so emptiness is length-based).
    """
    if not 0.0 < q <= 1.0:
        raise QoSError(f"percentile rank must lie in (0, 1], got {q!r}")
    if len(ordered) == 0:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class QoSSliceStats:
    """One service window's QoS outcome."""

    index: int
    #: Scenario requests newly arrived for this window (re-staged
    #: requests from a scale-down are not re-counted, so the series
    #: sums to the run's total requests).
    arrivals: int
    #: Requests completed during this window.
    completed: int
    #: Requests still queued when the window closed.
    backlog: int
    #: Devices provisioned for this window.
    fleet_size: int
    #: Energy booked by the provisioned devices this window (nJ).
    energy_nj: float
    #: Mean busy fraction of the provisioned devices.
    utilization: float
    #: Window latency percentiles (ns); None when nothing completed.
    p50_ns: float | None
    p95_ns: float | None
    p99_ns: float | None
    #: Cumulative (streaming) percentiles over the run so far.
    cumulative_p50_ns: float | None
    cumulative_p95_ns: float | None
    cumulative_p99_ns: float | None
    #: Hard-deadline misses among this window's completions.
    deadline_misses: int
    #: Per-class SLO misses among this window's completions.
    slo_misses: int
    #: Fraction of this window's completions inside their SLO (1.0 when
    #: nothing completed: an empty window violates nothing).
    slo_attainment: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "backlog": self.backlog,
            "fleet_size": self.fleet_size,
            "energy_nj": self.energy_nj,
            "utilization": self.utilization,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "cumulative_p50_ns": self.cumulative_p50_ns,
            "cumulative_p95_ns": self.cumulative_p95_ns,
            "cumulative_p99_ns": self.cumulative_p99_ns,
            "deadline_misses": self.deadline_misses,
            "slo_misses": self.slo_misses,
            "slo_attainment": self.slo_attainment,
        }


class SloAccountant:
    """Streams completions into per-slice and cumulative QoS series.

    ``slo_ns`` is the base SLO latency target; each request's effective
    target is ``slo_ns * request.cls.slo_factor``.  ``tolerance_ns`` is
    the runtime's time-quantisation slack: completions within it of their
    bound still count as met, mirroring the slice runtime's deadline
    accounting.

    ``on_window`` is an optional streaming callback invoked with each
    :class:`QoSSliceStats` the moment its window is folded in, so live
    observers (the serving daemon's metrics exporter) see the series as
    it is produced.  It runs after the stats are final and its return
    value is ignored — observing a run never alters it.
    """

    def __init__(self, slo_ns: float, tolerance_ns: float = 0.0,
                 on_window=None) -> None:
        if slo_ns <= 0:
            raise QoSError(f"SLO target must be positive, got {slo_ns!r}")
        if tolerance_ns < 0:
            raise QoSError(
                f"tolerance must be non-negative, got {tolerance_ns!r}"
            )
        self.slo_ns = slo_ns
        self.tolerance_ns = tolerance_ns
        self.on_window = on_window
        #: Ascending latencies of every completion so far (streaming,
        #: float64 — merged once per window).
        self._latencies = np.empty(0, dtype=np.float64)
        self.slices: list = []
        self.completed = 0
        self.deadline_misses = 0
        self.slo_misses = 0

    def observe_window(
        self,
        index: int,
        arrivals: int,
        completions,
        backlog: int,
        fleet_size: int,
        energy_nj: float,
        utilization: float,
        tolerance_ns: float | None = None,
    ) -> QoSSliceStats:
        """Fold one service window in; returns its :class:`QoSSliceStats`.

        ``completions`` is an iterable of ``(request, completion_ns)``;
        ``tolerance_ns`` overrides the accountant's default slack for
        this window (the simulator passes the runtime's per-window
        quantisation slack).
        """
        if tolerance_ns is None:
            tolerance_ns = self.tolerance_ns
        window_latencies = []
        deadline_misses = 0
        slo_misses = 0
        for request, completion_ns in completions:
            latency = completion_ns - request.arrival_ns
            if latency < 0:
                raise QoSError(
                    f"request {request.rid} completed before it arrived"
                )
            window_latencies.append(latency)
            if completion_ns > request.deadline_ns + tolerance_ns:
                deadline_misses += 1
            target = self.slo_ns * request.cls.slo_factor
            if latency > target + tolerance_ns:
                slo_misses += 1
        window_latencies.sort()
        return self._fold_window(
            index=index,
            arrivals=arrivals,
            window_latencies=np.asarray(window_latencies, dtype=np.float64),
            deadline_misses=deadline_misses,
            slo_misses=slo_misses,
            backlog=backlog,
            fleet_size=fleet_size,
            energy_nj=energy_nj,
            utilization=utilization,
        )

    def observe_window_arrays(
        self,
        index: int,
        arrivals: int,
        *,
        arrival_ns,
        deadline_ns,
        slo_factor,
        completion_ns,
        rid=None,
        backlog: int,
        fleet_size: int,
        energy_nj: float,
        utilization: float,
        tolerance_ns: float | None = None,
    ) -> QoSSliceStats:
        """Array form of :meth:`observe_window` (the vectorized engine's).

        ``arrival_ns``/``deadline_ns``/``slo_factor``/``completion_ns``
        are parallel float64 columns over this window's completions
        (``rid`` optionally carries ids for error reporting).  The
        comparisons run the same float arithmetic as the scalar loop, so
        the two paths fold bit-identical :class:`QoSSliceStats`.
        """
        if tolerance_ns is None:
            tolerance_ns = self.tolerance_ns
        arrival_ns = np.asarray(arrival_ns, dtype=np.float64)
        deadline_ns = np.asarray(deadline_ns, dtype=np.float64)
        slo_factor = np.asarray(slo_factor, dtype=np.float64)
        completion_ns = np.asarray(completion_ns, dtype=np.float64)
        latencies = completion_ns - arrival_ns
        negative = latencies < 0
        if negative.any():
            first = int(np.argmax(negative))
            label = int(rid[first]) if rid is not None else first
            raise QoSError(
                f"request {label} completed before it arrived"
            )
        deadline_misses = int(
            np.count_nonzero(completion_ns > deadline_ns + tolerance_ns)
        )
        slo_misses = int(np.count_nonzero(
            latencies > self.slo_ns * slo_factor + tolerance_ns
        ))
        return self._fold_window(
            index=index,
            arrivals=arrivals,
            window_latencies=np.sort(latencies),
            deadline_misses=deadline_misses,
            slo_misses=slo_misses,
            backlog=backlog,
            fleet_size=fleet_size,
            energy_nj=energy_nj,
            utilization=utilization,
        )

    def _fold_window(
        self,
        index: int,
        arrivals: int,
        window_latencies: np.ndarray,
        deadline_misses: int,
        slo_misses: int,
        backlog: int,
        fleet_size: int,
        energy_nj: float,
        utilization: float,
    ) -> QoSSliceStats:
        """Merge one window's sorted latencies into the streaming series.

        Shared by both observe paths: the cumulative list update is one
        ``searchsorted`` + ``insert`` merge per window (O(n), like the
        old heapq merge), and every stat lands as a plain Python float
        so the stats stay JSON-serialisable whichever path produced
        them.
        """
        if len(self._latencies):
            positions = np.searchsorted(
                self._latencies, window_latencies, side="left"
            )
            self._latencies = np.insert(
                self._latencies, positions, window_latencies
            )
        else:
            self._latencies = np.array(window_latencies, dtype=np.float64)
        count = len(window_latencies)
        self.completed += count
        self.deadline_misses += deadline_misses
        self.slo_misses += slo_misses

        def _float(value):
            return None if value is None else float(value)

        p50, p95, p99 = (
            _float(percentile(window_latencies, q)) for q in PERCENTILES
        )
        c50, c95, c99 = (
            _float(percentile(self._latencies, q)) for q in PERCENTILES
        )
        stats = QoSSliceStats(
            index=index,
            arrivals=arrivals,
            completed=count,
            backlog=backlog,
            fleet_size=fleet_size,
            energy_nj=float(energy_nj),
            utilization=float(utilization),
            p50_ns=p50,
            p95_ns=p95,
            p99_ns=p99,
            cumulative_p50_ns=c50,
            cumulative_p95_ns=c95,
            cumulative_p99_ns=c99,
            deadline_misses=deadline_misses,
            slo_misses=slo_misses,
            slo_attainment=(count - slo_misses) / count if count else 1.0,
        )
        self.slices.append(stats)
        if self.on_window is not None:
            self.on_window(stats)
        return stats

    # -- overall statistics -----------------------------------------------------

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completions past their hard deadline."""
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of completions inside their per-class SLO."""
        if not self.completed:
            return 1.0
        return 1.0 - self.slo_misses / self.completed


@dataclass(frozen=True)
class QoSResult:
    """Outcome of one request-level QoS simulation."""

    scenario: Scenario
    architecture: str
    model: str
    discipline: str
    dispatch: str
    autoscaler: str
    batch: int
    t_slice_ns: float
    slo_ns: float
    total_requests: int
    completed: int
    #: Requests still queued when the drain budget ran out.
    unfinished: int
    #: Per-window QoS series, in window order (includes drain windows).
    slices: tuple
    #: Per-device SliceRecord streams, keyed by device slot; record
    #: ``index`` is the window the device was provisioned for, so the
    #: streams are bit-comparable to ``FleetResult.device_results``.
    device_records: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.completed + self.unfinished != self.total_requests:
            raise QoSError(
                f"request conservation violated: {self.completed} completed "
                f"+ {self.unfinished} unfinished != {self.total_requests}"
            )

    def __len__(self) -> int:
        return len(self.slices)

    # -- aggregates --------------------------------------------------------------

    @property
    def total_energy_nj(self) -> float:
        """Energy over the whole run, idle provisioned devices included."""
        return sum(stats.energy_nj for stats in self.slices)

    @property
    def energy_per_request_nj(self) -> float:
        """Mean energy per completed request."""
        return self.total_energy_nj / self.completed if self.completed else 0.0

    @property
    def deadline_misses(self) -> int:
        return sum(stats.deadline_misses for stats in self.slices)

    @property
    def deadline_miss_rate(self) -> float:
        """Completed requests past their hard deadline, as a fraction."""
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests inside their per-class SLO."""
        if not self.completed:
            return 1.0
        misses = sum(stats.slo_misses for stats in self.slices)
        return 1.0 - misses / self.completed

    @property
    def latency_percentiles_ns(self) -> tuple:
        """Overall (p50, p95, p99): the last window's cumulative values."""
        if not self.slices:
            return (None, None, None)
        last = self.slices[-1]
        return (
            last.cumulative_p50_ns,
            last.cumulative_p95_ns,
            last.cumulative_p99_ns,
        )

    @property
    def mean_fleet_size(self) -> float:
        """Average provisioned devices per window."""
        if not self.slices:
            return 0.0
        return sum(stats.fleet_size for stats in self.slices) / len(self.slices)

    @property
    def peak_backlog(self) -> int:
        """Deepest end-of-window queue over the run."""
        return max((stats.backlog for stats in self.slices), default=0)

    @property
    def mean_utilization(self) -> float:
        """Mean per-window device utilization."""
        if not self.slices:
            return 0.0
        return sum(stats.utilization for stats in self.slices) / len(self.slices)

    # -- export ------------------------------------------------------------------

    def to_dict(self, include_records: bool = False) -> dict:
        """A plain-primitive summary (plus optional device records)."""
        p50, p95, p99 = self.latency_percentiles_ns
        data = {
            "scenario": self.scenario.to_dict(),
            "architecture": self.architecture,
            "model": self.model,
            "discipline": self.discipline,
            "dispatch": self.dispatch,
            "autoscaler": self.autoscaler,
            "batch": self.batch,
            "t_slice_ns": self.t_slice_ns,
            "slo_ns": self.slo_ns,
            "total_requests": self.total_requests,
            "completed": self.completed,
            "unfinished": self.unfinished,
            "total_energy_nj": self.total_energy_nj,
            "energy_per_request_nj": self.energy_per_request_nj,
            "p50_ns": p50,
            "p95_ns": p95,
            "p99_ns": p99,
            "deadline_miss_rate": self.deadline_miss_rate,
            "slo_attainment": self.slo_attainment,
            "mean_fleet_size": self.mean_fleet_size,
            "peak_backlog": self.peak_backlog,
            "mean_utilization": self.mean_utilization,
            "slices": [stats.to_dict() for stats in self.slices],
        }
        if include_records:
            data["device_records"] = {
                str(device): [record.to_dict() for record in records]
                for device, records in sorted(self.device_records.items())
            }
        return data
