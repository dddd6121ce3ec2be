"""Request sampling: per-slice loads become individual timestamped requests.

The slice runtime and the fleet see a scenario as *counts* — ``loads[s]``
inferences arriving somewhere inside slice ``s``.  The QoS layer needs
the individual requests: :func:`sample_requests` expands a materialised
:class:`~repro.workloads.scenarios.Scenario` (and therefore any
registered :class:`~repro.workloads.arrivals.ArrivalProcess`) into a
stream of :class:`Request` records with

* an **arrival timestamp** — each of the slice's ``loads[s]`` arrivals is
  drawn uniformly inside the slice's wall-clock window, then sorted, so
  the per-slice counts are preserved exactly (the zero-queueing
  differential against :class:`~repro.serving.fleet.Fleet` depends on
  this);
* a **deadline** — the paper's ``2T`` latency bound by default (a request
  arriving during slice ``s`` is staged at the next boundary and must
  finish within the following slice);
* a **request class** — the serving mix (interactive vs. batch traffic,
  priorities, per-class SLO factors) for the priority/EDF disciplines.

All randomness comes from one ``random.Random(seed)`` stream, so a
(scenario, seed, classes) triple always reproduces the same request
stream bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from ..errors import QoSError
from ..workloads.scenarios import Scenario

__all__ = [
    "RequestClass",
    "Request",
    "RequestBatch",
    "DEFAULT_CLASSES",
    "INTERACTIVE_MIX",
    "sample_requests",
    "sample_request_batch",
]


@dataclass(frozen=True)
class RequestClass:
    """One traffic class of the serving mix.

    ``priority`` orders the priority discipline (lower is more urgent);
    ``slo_factor`` scales the run's SLO target for this class (a batch
    class may tolerate twice the latency of an interactive one);
    ``weight`` is the class's share of the seeded mix draw.
    """

    name: str
    priority: int = 0
    slo_factor: float = 1.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise QoSError(
                f"request class name must be a non-empty string, "
                f"got {self.name!r}"
            )
        if self.slo_factor <= 0:
            raise QoSError(
                f"request class {self.name!r}: slo_factor must be positive, "
                f"got {self.slo_factor!r}"
            )
        if self.weight <= 0:
            raise QoSError(
                f"request class {self.name!r}: weight must be positive, "
                f"got {self.weight!r}"
            )


#: The single-class default: every request is "standard" traffic.
DEFAULT_CLASSES = (RequestClass("standard"),)

#: A classic serving mix: mostly interactive traffic with a batch tail
#: that tolerates twice the SLO and yields priority.
INTERACTIVE_MIX = (
    RequestClass("interactive", priority=0, slo_factor=1.0, weight=4.0),
    RequestClass("batch", priority=1, slo_factor=2.0, weight=1.0),
)


@dataclass(frozen=True)
class Request:
    """One inference request with its QoS envelope."""

    #: Stable id in arrival order (ties in timestamps break on it).
    rid: int
    #: Scenario slice the request arrived in.
    slice_index: int
    #: Wall-clock arrival (ns from run start).
    arrival_ns: float
    #: Hard completion deadline (ns) — the paper's ``2T`` bound.
    deadline_ns: float
    #: Traffic class (priority / SLO treatment).
    cls: RequestClass


@dataclass(frozen=True)
class RequestBatch:
    """A request stream as parallel NumPy columns (structure of arrays).

    The vectorized QoS engine consumes streams in this shape: one
    ``float64``/``int64`` column per :class:`Request` field plus an
    integer index into the ``classes`` tuple, so queue ordering, batch
    scheduling and SLO accounting become array gathers instead of
    per-object attribute walks.  :func:`sample_request_batch` produces
    batches bit-identical to :func:`sample_requests`;
    :meth:`from_requests`/:meth:`to_requests` convert losslessly in both
    directions (the round trip is exact — timestamps are float64 either
    way).
    """

    #: Stable ids in arrival order (``int64``).
    rid: np.ndarray
    #: Scenario slice each request arrived in (``int64``).
    slice_index: np.ndarray
    #: Wall-clock arrivals in ns (``float64``).
    arrival_ns: np.ndarray
    #: Hard completion deadlines in ns (``float64``).
    deadline_ns: np.ndarray
    #: Index of each request's class in :attr:`classes` (``int64``).
    cls_index: np.ndarray
    #: The distinct :class:`RequestClass` objects, in first-appearance
    #: order for :meth:`from_requests` streams.
    classes: tuple

    def __len__(self) -> int:
        return int(self.rid.shape[0])

    @cached_property
    def priority(self) -> np.ndarray:
        """Per-request class priority column (``int64``)."""
        table = np.array(
            [cls.priority for cls in self.classes], dtype=np.int64
        )
        return table[self.cls_index]

    @cached_property
    def slo_factor(self) -> np.ndarray:
        """Per-request SLO scale factor column (``float64``)."""
        table = np.array(
            [cls.slo_factor for cls in self.classes], dtype=np.float64
        )
        return table[self.cls_index]

    def to_requests(self) -> tuple:
        """Materialise the batch as a tuple of :class:`Request`."""
        classes = self.classes
        return tuple(
            Request(
                rid=int(rid),
                slice_index=int(slice_index),
                arrival_ns=float(arrival),
                deadline_ns=float(deadline),
                cls=classes[cls_index],
            )
            for rid, slice_index, arrival, deadline, cls_index in zip(
                self.rid.tolist(),
                self.slice_index.tolist(),
                self.arrival_ns.tolist(),
                self.deadline_ns.tolist(),
                self.cls_index.tolist(),
            )
        )

    @classmethod
    def from_requests(cls, requests) -> "RequestBatch":
        """Columnarise an iterable of :class:`Request` (order preserved).

        Classes are deduplicated by value in first-appearance order, so
        two streams sharing a mix produce comparable ``cls_index``
        columns.
        """
        requests = tuple(requests)
        class_index: dict = {}
        classes: list = []
        cls_column = np.empty(len(requests), dtype=np.int64)
        for i, request in enumerate(requests):
            if not isinstance(request, Request):
                raise QoSError(
                    f"RequestBatch.from_requests needs Request instances, "
                    f"got {type(request).__name__}"
                )
            index = class_index.get(request.cls)
            if index is None:
                index = len(classes)
                class_index[request.cls] = index
                classes.append(request.cls)
            cls_column[i] = index
        return cls(
            rid=np.array([r.rid for r in requests], dtype=np.int64),
            slice_index=np.array(
                [r.slice_index for r in requests], dtype=np.int64
            ),
            arrival_ns=np.array(
                [r.arrival_ns for r in requests], dtype=np.float64
            ),
            deadline_ns=np.array(
                [r.deadline_ns for r in requests], dtype=np.float64
            ),
            cls_index=cls_column,
            classes=tuple(classes),
        )


def _validated_classes(classes) -> tuple:
    classes = tuple(classes)
    if not classes:
        raise QoSError("request sampling needs at least one request class")
    for cls in classes:
        if not isinstance(cls, RequestClass):
            raise QoSError(
                f"request classes must be RequestClass instances, "
                f"got {type(cls).__name__}"
            )
    return classes


def _validate_sampling(t_slice_ns: float, deadline_slices: float) -> None:
    if t_slice_ns <= 0:
        raise QoSError(f"t_slice_ns must be positive, got {t_slice_ns!r}")
    if deadline_slices <= 0:
        raise QoSError(
            f"deadline_slices must be positive, got {deadline_slices!r}"
        )


def sample_requests(
    scenario: Scenario,
    t_slice_ns: float,
    seed: int = 2025,
    classes=DEFAULT_CLASSES,
    deadline_slices: float = 2.0,
) -> tuple:
    """Expand a scenario's per-slice counts into timestamped requests.

    Slice ``s`` spans ``[s*T, (s+1)*T)``; its ``loads[s]`` arrivals are
    drawn uniformly inside that window and sorted, so request streams are
    monotone in time and the per-slice counts match the scenario exactly.
    ``deadline_slices`` sets the hard deadline in units of the time slice
    (default: the paper's ``2T`` staging bound).  Returns a tuple of
    :class:`Request` in arrival order.

    This is the scalar reference; :func:`sample_request_batch` draws the
    same stream into columnar arrays, bit for bit.
    """
    _validate_sampling(t_slice_ns, deadline_slices)
    classes = _validated_classes(classes)
    weights = [cls.weight for cls in classes]
    rng = random.Random(seed)
    deadline_ns = deadline_slices * t_slice_ns
    requests = []
    rid = 0
    for index, load in enumerate(scenario.loads):
        offsets = sorted(rng.random() for _ in range(load))
        for offset in offsets:
            arrival = (index + offset) * t_slice_ns
            if len(classes) == 1:
                cls = classes[0]
            else:
                cls = rng.choices(classes, weights=weights)[0]
            requests.append(
                Request(
                    rid=rid,
                    slice_index=index,
                    arrival_ns=arrival,
                    deadline_ns=arrival + deadline_ns,
                    cls=cls,
                )
            )
            rid += 1
    return tuple(requests)


def sample_request_batch(
    scenario: Scenario,
    t_slice_ns: float,
    seed: int = 2025,
    classes=DEFAULT_CLASSES,
    deadline_slices: float = 2.0,
) -> RequestBatch:
    """Draw :func:`sample_requests`'s stream directly into a batch.

    Consumes the *same* ``random.Random(seed)`` draws in the same order
    (per slice: the sorted uniform offsets, then one draw per request
    for the class mix — ``random.choices`` is one ``random()`` per
    pick), so ``sample_request_batch(...).to_requests()`` equals
    ``sample_requests(...)`` exactly; only the assembly is columnar.
    The class draw replicates ``Random.choices``'s
    ``bisect_right(cum_weights, u * total, hi=n-1)`` as a clamped
    ``searchsorted``.
    """
    _validate_sampling(t_slice_ns, deadline_slices)
    classes = _validated_classes(classes)
    rng = random.Random(seed)
    deadline_ns = deadline_slices * t_slice_ns
    multi = len(classes) > 1
    if multi:
        cum_weights = np.array(
            list(accumulate(cls.weight for cls in classes)), dtype=np.float64
        )
        total = float(cum_weights[-1]) + 0.0

    slice_columns: list = []
    offset_columns: list = []
    cls_columns: list = []
    for index, load in enumerate(scenario.loads):
        if not load:
            continue
        offsets = sorted(rng.random() for _ in range(load))
        slice_columns.append(np.full(load, index, dtype=np.int64))
        offset_columns.append(np.asarray(offsets, dtype=np.float64))
        if multi:
            draws = np.asarray(
                [rng.random() for _ in range(load)], dtype=np.float64
            )
            cls_columns.append(
                np.minimum(
                    np.searchsorted(cum_weights, draws * total, side="right"),
                    len(classes) - 1,
                ).astype(np.int64)
            )

    if slice_columns:
        slice_index = np.concatenate(slice_columns)
        offsets_arr = np.concatenate(offset_columns)
    else:
        slice_index = np.empty(0, dtype=np.int64)
        offsets_arr = np.empty(0, dtype=np.float64)
    if multi and cls_columns:
        cls_index = np.concatenate(cls_columns)
    else:
        cls_index = np.zeros(len(slice_index), dtype=np.int64)
    arrival = (slice_index + offsets_arr) * t_slice_ns
    return RequestBatch(
        rid=np.arange(len(slice_index), dtype=np.int64),
        slice_index=slice_index,
        arrival_ns=arrival,
        deadline_ns=arrival + deadline_ns,
        cls_index=cls_index,
        classes=classes,
    )
