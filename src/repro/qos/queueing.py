"""The request-level serving simulator: queues, batching, service windows.

:class:`QoSSimulator` runs a scenario's *individual requests* (see
:mod:`repro.qos.requests`) through a fleet of devices, driven by the
deterministic :class:`~repro.sim.events.EventQueue`.  The clock follows
the paper's double-buffered slice discipline: requests arriving during
slice ``s`` are staged at the boundary ``(s+1)T`` and served during the
**service window** ``[(s+1)T, (s+2)T)`` — which is exactly the work the
slice runtime books under record index ``s``, so with zero queueing the
simulator's per-device :class:`~repro.core.runtime.SliceRecord` streams
are bit-identical to :class:`repro.serving.fleet.Fleet`'s (the
differential suite pins this).

Each window, each provisioned device:

1. sorts its queue by the :class:`QueueDiscipline` (FIFO / priority /
   EDF);
2. consults the allocation LUT through the runtime's placement selection
   for ``tasks = queue depth`` — so HP/LP placement decisions directly
   set the window's per-request **service time**
   (``placement.task_time_ns + core_time_ns``), and an overloaded queue
   pushes the device toward its peak (fastest, hungriest) placement;
3. serves batches of up to ``batch`` requests back to back while the
   window (plus the runtime's quantisation slack) has room — a batch's
   requests all complete at the batch's end, as events on the queue;
4. books the window with the *same accounting core* the slice runtime
   uses (idle provisioned devices pay their hold/buffer leakage — the
   autoscaler's energy incentive), and spills the unserved remainder to
   the next window.

Between windows the :class:`~repro.qos.autoscale.Autoscaler` resizes
the fleet; queues of deprovisioned devices are re-staged and
re-dispatched with the next window's arrivals.  After the last arrival
slice, drain windows run until the backlog clears or the drain budget is
exhausted (the remainder is reported as ``unfinished``).
"""

from __future__ import annotations

import numpy as np

from ..core.runtime import SliceRecord, TimeSliceRuntime
from ..errors import QoSError
from ..obs import events as _events
from ..obs.tracing import span as _span
from ..plugins import coerce_spec
from ..reference import reference, use_reference
from ..serving.dispatch import assign_shares, make_policy
from ..serving.fleet import device_info
from ..sim.events import EventQueue
from .autoscale import ScaleObservation, make_autoscaler
from .requests import (
    DEFAULT_CLASSES,
    RequestBatch,
    sample_request_batch,
    sample_requests,
)
from .slo import QoSResult, SloAccountant

__all__ = [
    "QueueDiscipline",
    "Fifo",
    "Priority",
    "EarliestDeadline",
    "BUILTIN_DISCIPLINES",
    "make_discipline",
    "QoSSimulator",
]

#: Compatibility name for :func:`repro.reference.reference`, kept only
#: for the benchmark's scalar-prefix check (``perfbench/qos_overload.py``).
scalar_qos = reference


# -- queue disciplines ----------------------------------------------------------------


class QueueDiscipline:
    """Orders a device's queue; lower keys are served first."""

    #: Registry key / report label.
    name = "base"

    def key(self, request) -> tuple:
        """The sort key of one request (must be deterministic)."""
        raise NotImplementedError

    def vector_keys(self, batch: RequestBatch):
        """Columnar sort keys for the vectorized engine, or ``None``.

        Returns the :meth:`key` tuple's columns over the whole request
        batch, *least-significant first* (``np.lexsort`` order), so the
        engine can order any queue with one gather + lexsort.  The base
        implementation returns ``None``, which routes the run through
        the scalar reference engine — a custom discipline that overrides
        :meth:`key` must either override this consistently or leave it
        returning ``None``; since every request id is unique, both sides
        describe the same total order whenever they agree.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Fifo(QueueDiscipline):
    """First come, first served (ties break on request id)."""

    name = "fifo"

    def key(self, request) -> tuple:
        return (request.arrival_ns, request.rid)

    def vector_keys(self, batch: RequestBatch):
        return (batch.rid, batch.arrival_ns)


class Priority(QueueDiscipline):
    """Strict class priority, FIFO within a class."""

    name = "priority"

    def key(self, request) -> tuple:
        return (request.cls.priority, request.arrival_ns, request.rid)

    def vector_keys(self, batch: RequestBatch):
        return (batch.rid, batch.arrival_ns, batch.priority)


class EarliestDeadline(QueueDiscipline):
    """Deadline-EDF: the most urgent request first."""

    name = "edf"

    def key(self, request) -> tuple:
        return (request.deadline_ns, request.cls.priority, request.rid)

    def vector_keys(self, batch: RequestBatch):
        return (batch.rid, batch.priority, batch.deadline_ns)


#: Built-in disciplines by their registry name.
BUILTIN_DISCIPLINES = {
    Fifo.name: Fifo,
    Priority.name: Priority,
    EarliestDeadline.name: EarliestDeadline,
}


def make_discipline(discipline) -> QueueDiscipline:
    """Coerce a discipline spec — name, class, factory or instance.

    Names resolve against the built-ins first, then against the api
    ``QOS`` registry.
    """
    return coerce_spec(
        discipline,
        base=QueueDiscipline,
        builtins=BUILTIN_DISCIPLINES,
        registry_name="QOS",
        kind="queue discipline",
        error_cls=QoSError,
    )


# -- the simulator --------------------------------------------------------------------


class _Device:
    """One provisioned device: its queue and placement state."""

    __slots__ = ("queue", "prev_counts", "records")

    def __init__(self, boot_counts: dict) -> None:
        self.queue: list = []
        self.prev_counts = dict(boot_counts)
        self.records: list = []


class _VecDevice:
    """Vectorized-engine device: an index queue and memo-keyed state.

    ``queue`` holds batch-column indices in discipline order (ascending
    ``queue_rank``), an invariant dispatch maintains by merging each
    sorted chunk in — so serving never re-sorts a standing queue.
    """

    __slots__ = ("queue", "queue_rank", "prev_counts", "prev_key",
                 "records")

    def __init__(self, boot_counts: dict, boot_key: tuple) -> None:
        self.queue = _EMPTY_QUEUE
        self.queue_rank = _EMPTY_QUEUE
        self.prev_counts = boot_counts
        self.prev_key = boot_key
        self.records: list = []


_EMPTY_QUEUE = np.empty(0, dtype=np.intp)


def _canonical_counts(counts: dict) -> tuple:
    """Hashable canonical form of a placement's bank counts."""
    return tuple(sorted(
        (kind.value, blocks) for kind, blocks in counts.items()
    ))


class QoSSimulator:
    """Serves request streams on an autoscaled fleet of one runtime.

    All devices share one :class:`TimeSliceRuntime` (and therefore one
    LUT) — the homogeneous-fleet shape :meth:`repro.api.Engine.run_qos`
    produces.  ``slo`` is the latency target in units of the time slice
    (default: the paper's ``2T`` staging bound); ``max_devices`` bounds
    the autoscaler (default: the initial size, i.e. no growth).
    ``on_window`` streams each window's stats to an observer as the run
    unfolds (see :class:`SloAccountant`).
    """

    def __init__(
        self,
        runtime: TimeSliceRuntime,
        devices: int = 1,
        *,
        dispatch="round_robin",
        discipline="fifo",
        autoscaler="fixed",
        min_devices: int = 1,
        max_devices: int | None = None,
        batch: int = 1,
        slo: float = 2.0,
        deadline_slices: float = 2.0,
        classes=DEFAULT_CLASSES,
        max_drain: int | None = None,
        on_window=None,
    ) -> None:
        if not isinstance(runtime, TimeSliceRuntime):
            raise QoSError(
                f"QoSSimulator needs a TimeSliceRuntime, "
                f"got {type(runtime).__name__}"
            )
        if not isinstance(devices, int) or devices <= 0:
            raise QoSError(
                f"initial fleet size must be a positive integer, "
                f"got {devices!r}"
            )
        if not isinstance(batch, int) or batch <= 0:
            raise QoSError(
                f"batch size must be a positive integer, got {batch!r}"
            )
        if slo <= 0:
            raise QoSError(f"slo must be positive, got {slo!r}")
        if max_drain is not None and max_drain < 0:
            raise QoSError(
                f"max_drain must be non-negative, got {max_drain!r}"
            )
        self.runtime = runtime
        self.devices = devices
        self.max_devices = max_devices if max_devices is not None else devices
        self.min_devices = min_devices
        self.batch = batch
        self.slo = slo
        self.deadline_slices = deadline_slices
        self.classes = tuple(classes)
        self.max_drain = max_drain
        #: Streaming per-window observer handed to the SloAccountant.
        self.on_window = on_window
        self.policy = make_policy(dispatch)
        self.discipline = make_discipline(discipline)
        self.autoscaler = make_autoscaler(autoscaler)
        if self.max_devices < self.devices:
            raise QoSError(
                f"max_devices {self.max_devices} is below the initial "
                f"fleet size {self.devices}"
            )

    # -- fleet plumbing ----------------------------------------------------------

    def _device_infos(self, size: int) -> tuple:
        return tuple(device_info(i, self.runtime) for i in range(size))

    def _dispatch(self, index: int, staged: list, fleet: list) -> list:
        """Split staged requests across the fleet; returns per-device counts.

        The policy's contract covers only the counts: requests are dealt
        contiguously in time order, and each device re-sorts its queue
        by the discipline anyway.
        """
        shares = assign_shares(
            self.policy, index, len(staged), len(fleet), "window"
        )
        cursor = 0
        for device, share in zip(fleet, shares):
            device.queue.extend(staged[cursor : cursor + share])
            cursor += share
        return shares

    def _serve_device(self, device: _Device, index: int, share: int) -> tuple:
        """Serve one device's window relative to its start.

        Returns ``(record, batch_ends)`` where ``batch_ends`` maps each
        served request to its completion offset from the window start.
        The placement is selected for the *whole* queue depth (the
        device intends to clear its backlog, so a deep queue demands the
        peak placement), batches run back to back after the movement
        settles, and a batch fits while the window plus the runtime's
        quantisation slack has room — mirroring the slice runtime's
        deadline tolerance, which is what keeps the zero-queueing
        differential exact.
        """
        runtime = self.runtime
        t_slice = runtime.t_slice_ns
        slack = runtime.optimizer.time_step_ns
        device.queue.sort(key=self.discipline.key)
        tasks_target = len(device.queue)

        placement, movement, t_constraint = runtime._select_placement(
            tasks_target, device.prev_counts
        )
        service_ns = placement.task_time_ns + runtime.core_time_ns

        served = 0
        batch_ends: list = []
        while served < tasks_target:
            size = min(self.batch, tasks_target - served)
            start_ns = movement.time_ns + served * service_ns
            busy_after = movement.time_ns + (served + size) * service_ns
            if start_ns >= t_slice - 1e-9:
                break
            if busy_after > t_slice + (served + size) * slack + 1e-6:
                break
            for request in device.queue[served : served + size]:
                batch_ends.append((request, busy_after))
            served += size
        del device.queue[:served]

        row = runtime._account_slice(placement, movement, served, t_constraint)
        (
            busy_total, idle, dynamic, hold, access, buffer_static,
            pe_static, deadline_met,
        ) = row
        record = SliceRecord(
            index=index,
            arrivals=share,
            tasks_processed=served,
            t_constraint_ns=t_constraint,
            placement_counts=dict(placement.counts),
            movement=movement,
            busy_time_ns=busy_total,
            idle_time_ns=idle,
            dynamic_energy_nj=dynamic,
            hold_static_energy_nj=hold,
            access_static_energy_nj=access,
            buffer_static_energy_nj=buffer_static,
            pe_static_energy_nj=pe_static,
            movement_energy_nj=movement.energy_nj,
            deadline_met=deadline_met,
        )
        device.prev_counts = dict(placement.counts)
        return record, batch_ends

    # -- the run -----------------------------------------------------------------

    def run(self, scenario, requests=None, seed: int = 2025) -> QoSResult:
        """Simulate the scenario's request stream; returns a QoSResult.

        Dispatches to the vectorized batch engine unless the scalar
        reference event loop is forced (``REPRO_REFERENCE=1`` /
        :func:`repro.reference.reference`) or the discipline provides no
        :meth:`QueueDiscipline.vector_keys`.  Both engines produce
        bit-identical results (the differential suite pins it).
        ``requests`` accepts a tuple of :class:`Request`, a
        :class:`RequestBatch`, or ``None`` to sample the scenario.
        """
        if use_reference():
            return self.run_scalar(scenario, requests=requests, seed=seed)
        return self.run_vectorized(scenario, requests=requests, seed=seed)

    def run_scalar(self, scenario, requests=None, seed: int = 2025) -> QoSResult:
        """The event-driven reference engine (one event per completion)."""
        t_slice = self.runtime.t_slice_ns
        if requests is None:
            requests = sample_requests(
                scenario, t_slice, seed=seed, classes=self.classes,
                deadline_slices=self.deadline_slices,
            )
        elif isinstance(requests, RequestBatch):
            requests = requests.to_requests()
        by_slice: dict = {}
        for request in requests:
            if not 0 <= request.slice_index < len(scenario):
                raise QoSError(
                    f"request {request.rid} arrives in slice "
                    f"{request.slice_index}, outside the scenario's "
                    f"{len(scenario)} slices"
                )
            by_slice.setdefault(request.slice_index, []).append(request)

        slack = self.runtime.optimizer.time_step_ns
        capacity = device_info(0, self.runtime).capacity
        accountant = SloAccountant(
            slo_ns=self.slo * t_slice, on_window=self.on_window
        )
        boot_counts = self.runtime._boot_counts()

        size = self.devices
        self.autoscaler.start(size, self.min_devices, self.max_devices)
        fleet = [_Device(boot_counts) for _ in range(size)]
        self.policy.start(self._device_infos(size))
        device_records: dict = {i: fleet[i].records for i in range(size)}
        next_slot = size

        arrival_windows = len(scenario)
        max_drain = self.max_drain
        if max_drain is None:
            max_drain = max(64, arrival_windows)
        state = {"utilization": 0.0}
        events = EventQueue()

        def run_window(index: int) -> None:
            with _span("qos.window", index=index):
                _run_window(index)

        def _run_window(index: int) -> None:
            nonlocal size, next_slot
            window_start = events.now_ns
            arriving = by_slice.get(index, ())
            arrived = len(arriving)
            staged = sorted(arriving, key=lambda r: (r.arrival_ns, r.rid))
            backlog = sum(len(device.queue) for device in fleet)

            # 1. autoscale (boundary-clocked, before dispatch)
            new_size = self.autoscaler.resize(
                ScaleObservation(
                    slice_index=index,
                    fleet_size=size,
                    staged=backlog + len(staged),
                    utilization=state["utilization"],
                    capacity_per_device=capacity,
                )
            )
            if new_size != size:
                if new_size > size:
                    for _ in range(new_size - size):
                        device = _Device(boot_counts)
                        fleet.append(device)
                        device_records[next_slot] = device.records
                        next_slot += 1
                else:
                    for device in fleet[new_size:]:
                        staged.extend(device.queue)
                    staged.sort(key=lambda r: (r.arrival_ns, r.rid))
                    del fleet[new_size:]
                size = new_size
                # resize, not start: stateful policies (JSQ counts, the
                # round-robin pointer) keep steering by what the
                # surviving devices already hold.
                self.policy.resize(self._device_infos(size))

            # 2. dispatch the staged requests
            shares = self._dispatch(index, staged, fleet)

            # 3. serve every device's window; completions become events
            window_energy = 0.0
            busy_total_ns = 0.0
            completions: list = []
            worst_device_served = 0
            last_end = t_slice
            for device, share in zip(fleet, shares):
                record, batch_ends = self._serve_device(device, index, share)
                device.records.append(record)
                window_energy += record.total_energy_nj
                busy_total_ns += record.busy_time_ns
                worst_device_served = max(
                    worst_device_served, len(batch_ends)
                )
                for request, end_offset in batch_ends:
                    end_ns = window_start + end_offset
                    last_end = max(last_end, end_offset)
                    events.schedule_at(
                        end_ns,
                        lambda r=request, t=end_ns: completions.append((r, t)),
                        label=f"complete:{request.rid}",
                    )

            backlog_after = sum(len(device.queue) for device in fleet)
            utilization = busy_total_ns / (size * t_slice) if size else 0.0
            state["utilization"] = utilization
            # Quantisation slack mirrors the runtime's deadline
            # tolerance: a completion's error accumulates only from work
            # serialized before it on its own device, so the busiest
            # device bounds the window.
            tolerance = worst_device_served * slack + 1e-6
            fleet_size = size

            # 4. close the window once its completion events have fired
            def close() -> None:
                accountant.observe_window(
                    index=index,
                    arrivals=arrived,
                    completions=completions,
                    backlog=backlog_after,
                    fleet_size=fleet_size,
                    energy_nj=window_energy,
                    utilization=utilization,
                    tolerance_ns=tolerance,
                )

            events.schedule_at(
                window_start + last_end + 1e-9, close, label=f"close:{index}"
            )

            # 5. schedule the next boundary: every arrival slice gets a
            #    window; drain windows continue while work remains.
            next_index = index + 1
            if next_index < arrival_windows or (
                backlog_after
                and next_index < arrival_windows + max_drain
            ):
                events.schedule_at(
                    window_start + t_slice,
                    lambda: run_window(next_index),
                    label=f"boundary:{next_index}",
                )

        if arrival_windows:
            events.schedule_at(
                t_slice, lambda: run_window(0), label="boundary:0"
            )
            events.run(
                max_events=(
                    2 * len(requests) + 4 * (arrival_windows + max_drain) + 16
                )
            )

        unfinished = sum(len(device.queue) for device in fleet)
        return QoSResult(
            scenario=scenario,
            architecture=self.runtime.spec.name,
            model=self.runtime.model.name,
            discipline=self.discipline.name,
            dispatch=self.policy.name,
            autoscaler=self.autoscaler.name,
            batch=self.batch,
            t_slice_ns=t_slice,
            slo_ns=self.slo * t_slice,
            total_requests=len(requests),
            completed=accountant.completed,
            unfinished=unfinished,
            slices=tuple(accountant.slices),
            device_records=device_records,
        )

    # -- the vectorized batch engine ---------------------------------------------

    def _price_window(self, tasks_target: int, prev_counts: dict,
                      prev_key: tuple, memo: dict) -> tuple:
        """Price one device window, memoized on ``(tasks, prev placement)``.

        A window's outcome — placement, movement cost, served count, the
        per-request completion offsets and the accounting row — depends
        on nothing but the queue depth and the previous placement, so
        devices in the same state share one LUT lookup + accounting pass
        per run (the same memoization :meth:`TimeSliceRuntime.run_vectorized`
        applies to slices).  The batching arithmetic repeats the scalar
        loop's float operations term for term, so the offsets are
        bit-identical to the event engine's.

        Returns ``(served, ends, movement, t_constraint, row,
        next_counts, next_key)`` where ``ends`` holds each served
        request's completion offset from the window start.
        """
        key = (tasks_target, prev_key)
        hit = memo.get(key)
        if hit is not None:
            return hit
        runtime = self.runtime
        t_slice = runtime.t_slice_ns
        slack = runtime.optimizer.time_step_ns
        placement, movement, t_constraint = runtime._select_placement(
            tasks_target, prev_counts
        )
        service_ns = placement.task_time_ns + runtime.core_time_ns

        if tasks_target:
            batch = self.batch
            n_batches = -(-tasks_target // batch)
            counts_end = np.minimum(
                np.arange(1, n_batches + 1, dtype=np.int64) * batch,
                tasks_target,
            )
            counts_start = np.arange(n_batches, dtype=np.int64) * batch
            starts = movement.time_ns + counts_start * service_ns
            busy_after = movement.time_ns + counts_end * service_ns
            ok = (starts < t_slice - 1e-9) & (
                busy_after <= t_slice + counts_end * slack + 1e-6
            )
            served_batches = n_batches if ok.all() else int(np.argmin(ok))
            if served_batches:
                served = int(counts_end[served_batches - 1])
                sizes = np.diff(
                    np.concatenate(([0], counts_end[:served_batches]))
                )
                ends = np.repeat(busy_after[:served_batches], sizes)
            else:
                served = 0
                ends = np.empty(0, dtype=np.float64)
        else:
            served = 0
            ends = np.empty(0, dtype=np.float64)

        row = runtime._account_slice(placement, movement, served, t_constraint)
        next_counts = dict(placement.counts)
        hit = (
            served, ends, movement, t_constraint, row,
            next_counts, _canonical_counts(next_counts),
        )
        memo[key] = hit
        return hit

    def run_vectorized(self, scenario, requests=None,
                       seed: int = 2025) -> QoSResult:
        """The columnar batch engine: one sequential pass over windows.

        Replaces the event queue with a window loop over NumPy index
        arrays: staging is one global lexsort, queue ordering one gather
        + lexsort per device, serving an analytic prefix over batch
        boundaries, and SLO accounting an array fold
        (:meth:`SloAccountant.observe_window_arrays`).  Placement prices
        are memoized across devices and windows via
        :meth:`_price_window`.  The event engine's completion and close
        events are replayed in window order, which the quantisation
        bounds make equivalent — records and QoS series are
        bit-identical to :meth:`run_scalar` (the differential suite
        pins it).  Falls back to the scalar engine when the discipline
        provides no vector keys.
        """
        t_slice = self.runtime.t_slice_ns
        if requests is None:
            batch_cols = sample_request_batch(
                scenario, t_slice, seed=seed, classes=self.classes,
                deadline_slices=self.deadline_slices,
            )
        elif isinstance(requests, RequestBatch):
            batch_cols = requests
        else:
            batch_cols = RequestBatch.from_requests(requests)
        keys = self.discipline.vector_keys(batch_cols)
        if keys is None:
            _events.emit(
                "qos_scalar_fallback",
                discipline=type(self.discipline).__name__,
                reason="no_vector_keys",
            )
            return self.run_scalar(scenario, requests=batch_cols, seed=seed)

        arrival_windows = len(scenario)
        rid = batch_cols.rid
        slice_index = batch_cols.slice_index
        arrival = batch_cols.arrival_ns
        deadline = batch_cols.deadline_ns
        slo_factor = batch_cols.slo_factor
        outside = (slice_index < 0) | (slice_index >= arrival_windows)
        if outside.any():
            first = int(np.argmax(outside))
            raise QoSError(
                f"request {int(rid[first])} arrives in slice "
                f"{int(slice_index[first])}, outside the scenario's "
                f"{arrival_windows} slices"
            )

        # Staging order is global: one lexsort by (slice, arrival, rid)
        # turns every window's arrivals into a contiguous index segment.
        order_all = np.lexsort((rid, arrival, slice_index)).astype(np.intp)
        bounds = np.searchsorted(
            slice_index[order_all], np.arange(arrival_windows + 1)
        )
        # One global discipline sort; ``rank[i]`` is request ``i``'s
        # position in that total order (rid tie-breaks make it total),
        # so per-device queue ordering reduces to integer merges.
        disc_order = np.lexsort(keys)
        rank = np.empty(len(batch_cols), dtype=np.intp)
        rank[disc_order] = np.arange(len(batch_cols), dtype=np.intp)

        slack = self.runtime.optimizer.time_step_ns
        capacity = device_info(0, self.runtime).capacity
        accountant = SloAccountant(
            slo_ns=self.slo * t_slice, on_window=self.on_window
        )
        boot_counts = self.runtime._boot_counts()
        boot_key = _canonical_counts(boot_counts)

        size = self.devices
        self.autoscaler.start(size, self.min_devices, self.max_devices)
        fleet = [_VecDevice(boot_counts, boot_key) for _ in range(size)]
        self.policy.start(self._device_infos(size))
        device_records: dict = {i: fleet[i].records for i in range(size)}
        next_slot = size

        max_drain = self.max_drain
        if max_drain is None:
            max_drain = max(64, arrival_windows)
        utilization = 0.0
        memo: dict = {}

        index = 0
        window_start = t_slice
        while arrival_windows:
            with _span("qos.window", index=index):
                if index < arrival_windows:
                    staged = order_all[bounds[index] : bounds[index + 1]]
                else:
                    staged = _EMPTY_QUEUE
                arrived = len(staged)
                backlog = sum(len(device.queue) for device in fleet)

                # 1. autoscale (boundary-clocked, before dispatch)
                new_size = self.autoscaler.resize(
                    ScaleObservation(
                        slice_index=index,
                        fleet_size=size,
                        staged=backlog + arrived,
                        utilization=utilization,
                        capacity_per_device=capacity,
                    )
                )
                if new_size != size:
                    if new_size > size:
                        for _ in range(new_size - size):
                            device = _VecDevice(boot_counts, boot_key)
                            fleet.append(device)
                            device_records[next_slot] = device.records
                            next_slot += 1
                    else:
                        spilled = [
                            device.queue
                            for device in fleet[new_size:]
                            if len(device.queue)
                        ]
                        del fleet[new_size:]
                        if spilled:
                            staged = np.concatenate([staged, *spilled])
                            staged = staged[
                                np.lexsort((rid[staged], arrival[staged]))
                            ]
                    size = new_size
                    # resize, not start: stateful policies (JSQ counts, the
                    # round-robin pointer) keep steering by what the
                    # surviving devices already hold.
                    self.policy.resize(self._device_infos(size))

                # 2. dispatch the staged requests: sort each chunk by global
                #    discipline rank, then merge it into the device's
                #    standing (already-ordered) queue.
                shares = assign_shares(
                    self.policy, index, len(staged), len(fleet), "window"
                )
                cursor = 0
                for device, share in zip(fleet, shares):
                    if share:
                        chunk = staged[cursor : cursor + share]
                        chunk_rank = rank[chunk]
                        chunk_order = np.argsort(chunk_rank)
                        chunk = chunk[chunk_order]
                        chunk_rank = chunk_rank[chunk_order]
                        if len(device.queue):
                            positions = np.searchsorted(
                                device.queue_rank, chunk_rank
                            )
                            device.queue = np.insert(
                                device.queue, positions, chunk
                            )
                            device.queue_rank = np.insert(
                                device.queue_rank, positions, chunk_rank
                            )
                        else:
                            device.queue = chunk
                            device.queue_rank = chunk_rank
                    cursor += share

                # 3. serve every device's window as arrays
                window_energy = 0.0
                busy_total_ns = 0.0
                completed_parts: list = []
                completed_ends: list = []
                worst_device_served = 0
                for device, share in zip(fleet, shares):
                    queue = device.queue
                    (
                        served, ends, movement, t_constraint, row,
                        next_counts, next_key,
                    ) = self._price_window(
                        len(queue), device.prev_counts, device.prev_key, memo
                    )
                    (
                        busy_total, idle, dynamic, hold, access, buffer_static,
                        pe_static, deadline_met,
                    ) = row
                    record = SliceRecord(
                        index=index,
                        arrivals=share,
                        tasks_processed=served,
                        t_constraint_ns=t_constraint,
                        placement_counts=dict(next_counts),
                        movement=movement,
                        busy_time_ns=busy_total,
                        idle_time_ns=idle,
                        dynamic_energy_nj=dynamic,
                        hold_static_energy_nj=hold,
                        access_static_energy_nj=access,
                        buffer_static_energy_nj=buffer_static,
                        pe_static_energy_nj=pe_static,
                        movement_energy_nj=movement.energy_nj,
                        deadline_met=deadline_met,
                    )
                    device.records.append(record)
                    window_energy += record.total_energy_nj
                    busy_total_ns += record.busy_time_ns
                    worst_device_served = max(worst_device_served, served)
                    if served:
                        completed_parts.append(queue[:served])
                        completed_ends.append(window_start + ends)
                        device.queue = queue[served:]
                        device.queue_rank = device.queue_rank[served:]
                    device.prev_counts = next_counts
                    device.prev_key = next_key

                backlog_after = sum(len(device.queue) for device in fleet)
                utilization = busy_total_ns / (size * t_slice) if size else 0.0
                # Quantisation slack mirrors the runtime's deadline
                # tolerance: a completion's error accumulates only from work
                # serialized before it on its own device, so the busiest
                # device bounds the window.
                tolerance = worst_device_served * slack + 1e-6

                # 4. close the window: fold its completions into the series
                if completed_parts:
                    completed = np.concatenate(completed_parts)
                    completion_ns = np.concatenate(completed_ends)
                else:
                    completed = _EMPTY_QUEUE
                    completion_ns = np.empty(0, dtype=np.float64)
                accountant.observe_window_arrays(
                    index=index,
                    arrivals=arrived,
                    arrival_ns=arrival[completed],
                    deadline_ns=deadline[completed],
                    slo_factor=slo_factor[completed],
                    completion_ns=completion_ns,
                    rid=rid[completed],
                    backlog=backlog_after,
                    fleet_size=size,
                    energy_nj=window_energy,
                    utilization=utilization,
                    tolerance_ns=tolerance,
                )

                # 5. the next boundary: every arrival slice gets a window;
                #    drain windows continue while work remains.
                next_index = index + 1
                if next_index < arrival_windows or (
                    backlog_after
                    and next_index < arrival_windows + max_drain
                ):
                    index = next_index
                    window_start = window_start + t_slice
                    continue
                break

        unfinished = sum(len(device.queue) for device in fleet)
        return QoSResult(
            scenario=scenario,
            architecture=self.runtime.spec.name,
            model=self.runtime.model.name,
            discipline=self.discipline.name,
            dispatch=self.policy.name,
            autoscaler=self.autoscaler.name,
            batch=self.batch,
            t_slice_ns=t_slice,
            slo_ns=self.slo * t_slice,
            total_requests=len(batch_cols),
            completed=accountant.completed,
            unfinished=unfinished,
            slices=tuple(accountant.slices),
            device_records=device_records,
        )
