"""Time-slice runtime: dynamic reallocation over a workload scenario.

Implements the paper's runtime discipline (Section III-A):

* inference requests arriving during slice ``s`` are buffered and
  processed during slice ``s + 1`` (latency bound ``2T``);
* at each slice boundary the runtime derives ``t_constraint`` from the
  task count, *including the data-movement overhead* of switching from
  the previous placement, and consults the allocation LUT;
* unused memories are power-gated: non-volatile MRAM retains its weights
  while gated, volatile SRAM must stay powered (at sub-array granularity)
  wherever it holds weights;
* the comparison architectures run the same loop with their fixed
  policies (Table I), which is how Fig. 5 / Table VI compare energies.

Two drivers share the accounting core.  The *scalar* reference path
(:meth:`TimeSliceRuntime.run_scalar`) is the paper-faithful slice-by-
slice loop; the *vectorized* production path
(:meth:`TimeSliceRuntime.run_vectorized`) resolves the whole scenario
against the LUT at once — placement selection and movement collapse to a
memoized walk over the scenario's distinct ``(tasks, previous
placement)`` transitions, and the per-slice busy/idle/energy columns are
assembled as NumPy gathers over the resulting state table.  Both paths
produce bit-identical :class:`SliceRecord` streams (the accounting
arithmetic is executed exactly once per distinct state, by the same
code); the scalar path is selected by the one reference switch
(``REPRO_REFERENCE=1`` or :func:`repro.reference.reference`), which
also selects the scalar DP of :mod:`repro.core.knapsack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.specs import ArchitectureSpec, HH_PIM
from ..errors import ConfigurationError, InfeasibleError
from ..memory.hybrid import BankKind
from ..reference import use_reference
from ..workloads.models import ModelSpec
from ..workloads.scenarios import Scenario
from ..workloads.tasks import TaskBuffer
from .lut import Placement
from .placement import (
    DEFAULT_BLOCK_COUNT,
    DEFAULT_TIME_STEPS,
    DataPlacementOptimizer,
    MovementEstimate,
    PlacementPolicy,
)
from .spaces import CORE_MAC_TIME_NS, SpaceKind

#: Default power-gating granularity (sub-array level), applied uniformly
#: to every architecture so that comparisons isolate the placement
#: algorithm rather than the gating hardware.  Pass ``granule_bytes`` to
#: :class:`TimeSliceRuntime` to study coarser gating (see the ablation
#: benchmarks).
FINE_GRANULE_BYTES = 16 * 1024

#: Macro-level gating (whole 64 kB banks), for gating-granularity
#: ablations.
MACRO_GRANULE_BYTES = 64 * 1024

@dataclass(frozen=True)
class SliceRecord:
    """Accounting of one time slice."""

    index: int
    arrivals: int
    tasks_processed: int
    t_constraint_ns: float
    placement_counts: dict
    movement: MovementEstimate
    busy_time_ns: float
    idle_time_ns: float
    dynamic_energy_nj: float
    hold_static_energy_nj: float
    access_static_energy_nj: float
    buffer_static_energy_nj: float
    pe_static_energy_nj: float
    movement_energy_nj: float
    deadline_met: bool

    @property
    def total_energy_nj(self) -> float:
        """All energy components of the slice."""
        return (
            self.dynamic_energy_nj
            + self.hold_static_energy_nj
            + self.access_static_energy_nj
            + self.buffer_static_energy_nj
            + self.pe_static_energy_nj
            + self.movement_energy_nj
        )

    def to_dict(self) -> dict:
        """A plain-primitive record for JSON export.

        Placement counts are keyed by the space's string value
        (``hp_sram`` etc.) and the movement estimate is flattened, so
        downstream tools never touch library dataclasses.
        """
        return {
            "index": self.index,
            "arrivals": self.arrivals,
            "tasks_processed": self.tasks_processed,
            "t_constraint_ns": self.t_constraint_ns,
            "placement_counts": {
                kind.value: blocks
                for kind, blocks in self.placement_counts.items()
            },
            "blocks_moved": self.movement.blocks_moved,
            "movement_time_ns": self.movement.time_ns,
            "movement_energy_nj": self.movement_energy_nj,
            "busy_time_ns": self.busy_time_ns,
            "idle_time_ns": self.idle_time_ns,
            "dynamic_energy_nj": self.dynamic_energy_nj,
            "hold_static_energy_nj": self.hold_static_energy_nj,
            "access_static_energy_nj": self.access_static_energy_nj,
            "buffer_static_energy_nj": self.buffer_static_energy_nj,
            "pe_static_energy_nj": self.pe_static_energy_nj,
            "total_energy_nj": self.total_energy_nj,
            "deadline_met": self.deadline_met,
        }


@dataclass
class RunResult:
    """Outcome of one scenario run on one architecture."""

    architecture: str
    model: str
    scenario: Scenario
    t_slice_ns: float
    policy: PlacementPolicy
    records: list = field(default_factory=list)

    @property
    def total_energy_nj(self) -> float:
        """Energy over the whole run."""
        return sum(record.total_energy_nj for record in self.records)

    @property
    def total_inferences(self) -> int:
        """Inferences processed."""
        return sum(record.tasks_processed for record in self.records)

    @property
    def energy_per_inference_nj(self) -> float:
        """Mean energy per processed inference."""
        inferences = self.total_inferences
        return self.total_energy_nj / inferences if inferences else 0.0

    @property
    def mean_power_mw(self) -> float:
        """Average power over the run."""
        duration = self.t_slice_ns * len(self.records)
        return self.total_energy_nj / duration * 1000.0 if duration else 0.0

    @property
    def deadlines_met(self) -> bool:
        """Whether every slice finished its tasks within the slice."""
        return all(record.deadline_met for record in self.records)

    def to_dict(self, include_records: bool = True) -> dict:
        """A plain-primitive summary (plus per-slice records) for export.

        This is the supported machine-readable surface of a run —
        ``repro run --json --records`` emits it verbatim — so downstream
        tools never reach into dataclass internals.
        """
        data = {
            "architecture": self.architecture,
            "model": self.model,
            "scenario": self.scenario.to_dict(),
            "t_slice_ns": self.t_slice_ns,
            "policy": self.policy.value,
            "slices": len(self.records),
            "total_energy_nj": self.total_energy_nj,
            "total_inferences": self.total_inferences,
            "energy_per_inference_nj": self.energy_per_inference_nj,
            "mean_power_mw": self.mean_power_mw,
            "deadlines_met": self.deadlines_met,
        }
        if include_records:
            data["records"] = [record.to_dict() for record in self.records]
        return data


def default_time_slice_ns(
    model: ModelSpec,
    peak_inferences: int = 10,
    block_count: int = DEFAULT_BLOCK_COUNT,
    time_steps: int = DEFAULT_TIME_STEPS,
    headroom: float = 1.05,
) -> float:
    """The paper's time-slice sizing: 10 peak-rate inferences on HH-PIM.

    "The time slice ... was set to allow up to 10 inferences per time
    slice, representing the scenario in which HH-PIM operates at maximum
    performance" — one full inference is the PIM task plus the non-PIM
    share on the core, at HH-PIM's peak placement.  ``headroom`` keeps a
    small scheduling margin above the exact peak rate so that placement
    switches (data movement) and time quantisation cannot push a full-load
    slice over its deadline.
    """
    if peak_inferences <= 0:
        raise ConfigurationError("peak inference count must be positive")
    if headroom < 1.0:
        raise ConfigurationError("headroom must be >= 1")
    # Bootstrap: the optimizer needs a T for pricing hold leakage, but the
    # peak task time is leakage-independent, so any positive T works here.
    bootstrap = DataPlacementOptimizer(
        HH_PIM, model, t_slice_ns=1e9, block_count=block_count,
        time_steps=time_steps,
    )
    peak = bootstrap.build_lut().peak_placement
    core_ns = model.core_macs * CORE_MAC_TIME_NS
    return peak_inferences * (peak.task_time_ns + core_ns) * headroom


class TimeSliceRuntime:
    """Runs workload scenarios on one architecture with its policy."""

    def __init__(
        self,
        spec: ArchitectureSpec,
        model: ModelSpec,
        t_slice_ns: float | None = None,
        policy: PlacementPolicy | None = None,
        block_count: int = DEFAULT_BLOCK_COUNT,
        time_steps: int = DEFAULT_TIME_STEPS,
        peak_inferences: int = 10,
        granule_bytes: int = FINE_GRANULE_BYTES,
    ) -> None:
        self.spec = spec
        self.model = model
        self.policy = policy if policy is not None else PlacementPolicy.default_for(spec)
        if t_slice_ns is None:
            t_slice_ns = default_time_slice_ns(
                model, peak_inferences, block_count, time_steps
            )
        self.t_slice_ns = t_slice_ns
        self.optimizer = DataPlacementOptimizer(
            spec, model, t_slice_ns=t_slice_ns,
            block_count=block_count, time_steps=time_steps,
            granule_bytes=granule_bytes,
        )
        if self.policy is PlacementPolicy.DYNAMIC_LUT:
            # The paper builds the LUT once, at application initialization.
            self.lut = self.optimizer.build_lut()
            self._fixed = None
        else:
            self.lut = None
            self._fixed = self.optimizer.fixed_placement(self.policy)

    @property
    def reference_placement(self) -> Placement:
        """The runtime's anchor placement without recomputation.

        For the dynamic policy this is the LUT's peak (latency-optimal)
        placement; for fixed policies it is the installed placement
        itself.  Exposed so callers (sweeps, the experiment engine) never
        need to rebuild a LUT just to inspect the placement.
        """
        if self.lut is not None:
            return self.lut.peak_placement
        return self._fixed

    # -- per-slice placement selection ------------------------------------------

    @property
    def core_time_ns(self) -> float:
        """Per-inference time of the non-PIM share on the RISC-V core."""
        return self.model.core_macs * CORE_MAC_TIME_NS

    def _select_placement(self, tasks: int, prev_counts: dict):
        """Pick the slice's placement and price the transition.

        ``t_constraint`` bounds the *whole* task — the PIM portion plus
        the non-PIM share that runs on the core — so the LUT is consulted
        with ``t_constraint - core_time``.  For the dynamic policy this
        also implements the paper's movement-overhead correction: the
        cost of switching placements shrinks the per-task budget, so the
        lookup is repeated once with the corrected budget.
        """
        if self._fixed is not None:
            movement = self.optimizer.movement(prev_counts, self._fixed.counts)
            t_constraint = self.t_slice_ns / max(tasks, 1)
            return self._fixed, movement, t_constraint

        t_constraint = self.t_slice_ns / max(tasks, 1)
        placement = self._lookup_clamped(t_constraint - self.core_time_ns)
        movement = self.optimizer.movement(prev_counts, placement.counts)
        corrected = (self.t_slice_ns - movement.time_ns) / max(tasks, 1)
        if corrected <= 0:
            raise InfeasibleError(
                "movement overhead exceeds the time slice"
            )
        if corrected < t_constraint:
            refined = self._lookup_clamped(corrected - self.core_time_ns)
            if refined.counts != placement.counts:
                placement = refined
                movement = self.optimizer.movement(prev_counts, placement.counts)
        return placement, movement, corrected

    def _lookup_clamped(self, t_constraint_ns: float) -> Placement:
        try:
            return self.lut.lookup(max(0.0, t_constraint_ns))
        except InfeasibleError:
            # Below the peak-performance point: run flat out (the paper's
            # grey region cannot be satisfied; best effort is the peak).
            return self.lut.peak_placement

    # -- energy helpers ---------------------------------------------------------------

    def _cluster_busy_ns(self, counts: dict, tasks: int) -> dict:
        busy = {cluster_id: 0.0 for cluster_id in self.optimizer.clusters}
        for kind, blocks in counts.items():
            busy[kind.cluster] += (
                blocks * self.optimizer.space(kind).time_per_block_ns * tasks
            )
        return busy

    def _pe_static_energy_nj(self, busy_by_cluster: dict) -> float:
        total = 0.0
        for cluster_id, busy_ns in busy_by_cluster.items():
            cluster = self.optimizer.clusters[cluster_id]
            pe_static = cluster.modules[0].pe.static_power_mw
            total += pe_static * len(cluster) * busy_ns / 1000.0
        return total

    def _buffer_static_energy_nj(self, counts: dict, busy_by_cluster: dict) -> float:
        """Leakage of SRAM used purely as the activation I/O buffer.

        Clusters whose SRAM holds no weights still power one sub-array per
        module while computing (activations stream through it); clusters
        whose SRAM already holds weights pay nothing extra (the hold
        leakage covers the powered arrays).
        """
        total = 0.0
        for cluster_id, busy_ns in busy_by_cluster.items():
            if busy_ns <= 0:
                continue
            sram_kind = SpaceKind.of(cluster_id, BankKind.SRAM)
            try:
                space = self.optimizer.space(sram_kind)
            except Exception:
                continue
            if counts.get(sram_kind, 0) > 0:
                continue
            granule_fraction = min(
                1.0, self.optimizer.granule_bytes / space.bank_capacity_bytes
            )
            total += space.full_static_power_mw * granule_fraction * busy_ns / 1000.0
        return total

    # -- the pure accounting core -----------------------------------------------------

    def _account_slice(self, placement: Placement, movement: MovementEstimate,
                       tasks: int, t_constraint: float) -> tuple:
        """Account one slice: the numeric fields of its :class:`SliceRecord`.

        Pure in (placement, movement, tasks, t_constraint) — no slice
        index, no buffer state — which is what lets the vectorized
        driver execute it exactly once per distinct state and share the
        result across every slice in that state, bit for bit.

        Returns ``(busy_total, idle, dynamic, hold, access,
        buffer_static, pe_static, deadline_met)``.
        """
        counts = placement.counts
        busy_by_cluster = self._cluster_busy_ns(counts, tasks)
        busy = max(busy_by_cluster.values()) if busy_by_cluster else 0.0
        busy_total = busy + tasks * self.core_time_ns + movement.time_ns
        idle = max(0.0, self.t_slice_ns - busy_total)
        task_latency = placement.task_time_ns + self.core_time_ns
        slack = self.optimizer.time_step_ns
        deadline_met = (
            busy_total <= self.t_slice_ns + tasks * slack + 1e-6
            and task_latency <= t_constraint + slack
        )

        dynamic = tasks * placement.dynamic_energy_nj
        hold = placement.hold_static_power_mw * self.t_slice_ns / 1000.0
        access = tasks * self.optimizer.mram_access_static_energy_nj(counts)
        buffer_static = self._buffer_static_energy_nj(counts, busy_by_cluster)
        pe_static = self._pe_static_energy_nj(busy_by_cluster)
        return (
            busy_total, idle, dynamic, hold, access, buffer_static,
            pe_static, deadline_met,
        )

    def _boot_counts(self) -> dict:
        """Boot placement: fixed policies install theirs; the dynamic
        policy starts in the most energy-efficient state (nothing to do
        yet)."""
        if self._fixed is not None:
            return dict(self._fixed.counts)
        return dict(self.lut.most_relaxed_placement.counts)

    def _empty_result(self, scenario: Scenario) -> RunResult:
        return RunResult(
            architecture=self.spec.name,
            model=self.model.name,
            scenario=scenario,
            t_slice_ns=self.t_slice_ns,
            policy=self.policy,
        )

    # -- drivers ------------------------------------------------------------------------

    def run(self, scenario: Scenario) -> RunResult:
        """Execute a scenario; returns per-slice records and totals.

        Dispatches to the vectorized driver unless the scalar reference
        loop is forced (``REPRO_REFERENCE=1`` / :func:`repro.reference.reference`).
        Both drivers produce bit-identical records.
        """
        if use_reference():
            return self.run_scalar(scenario)
        return self.run_vectorized(scenario)

    def run_scalar(self, scenario: Scenario) -> RunResult:
        """The paper-faithful slice-by-slice reference loop."""
        result = self._empty_result(scenario)
        buffer = TaskBuffer(model=self.model)
        prev_counts = self._boot_counts()

        for index, load in enumerate(scenario.loads):
            buffer.arrive(load)
            tasks = len(buffer.advance_slice())
            placement, movement, t_constraint = self._select_placement(
                tasks, prev_counts
            )
            (
                busy_total, idle, dynamic, hold, access, buffer_static,
                pe_static, deadline_met,
            ) = self._account_slice(placement, movement, tasks, t_constraint)

            result.records.append(
                SliceRecord(
                    index=index,
                    arrivals=load,
                    tasks_processed=tasks,
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
            )
            prev_counts = dict(placement.counts)
        return result

    def run_vectorized(self, scenario: Scenario) -> RunResult:
        """Resolve the whole scenario against the LUT as arrays.

        The slice loop's state is ``(tasks, previous placement)``: the
        selected placement, its movement cost, the corrected
        ``t_constraint`` and every energy term depend on nothing else.
        A scenario therefore visits only a handful of distinct states
        (at most ``peak + 1`` task counts times the number of LUT
        placements), however many slices it has.  The driver walks the
        scenario once to resolve each *distinct* transition exactly once
        — placement lookup, movement pricing and the accounting core all
        run per state, not per slice — then broadcasts the per-state
        numeric columns over the slice axis with NumPy gathers.

        Record equality with :meth:`run_scalar` is structural: the same
        arithmetic runs once per state here and once per slice there,
        so the floats are bit-identical (asserted by the differential
        suite).
        """
        result = self._empty_result(scenario)
        loads = scenario.loads
        if not loads:
            return result

        # The task buffer's steady-state identity: arrivals registered in
        # slice s are returned by that slice's advance (the double-buffer
        # hand-off happens inside the slice), so tasks[i] == loads[i].
        # The differential suite pins this equivalence against the scalar
        # loop's real TaskBuffer.
        boot_counts = self._boot_counts()
        boot_key = tuple(sorted(
            (kind.value, blocks) for kind, blocks in boot_counts.items()
        ))

        # -- phase 1: memoized transition walk ------------------------------
        # states[sid] = (placement, movement, t_constraint, accounting row)
        transitions: dict = {}
        states: list = []
        state_keys: list = []
        state_ids = np.empty(len(loads), dtype=np.intp)
        prev_key, prev_counts = boot_key, boot_counts
        for index, load in enumerate(loads):
            memo_key = (load, prev_key)
            sid = transitions.get(memo_key)
            if sid is None:
                placement, movement, t_constraint = self._select_placement(
                    load, prev_counts
                )
                row = self._account_slice(
                    placement, movement, load, t_constraint
                )
                sid = len(states)
                states.append((placement, movement, t_constraint, row))
                state_keys.append(tuple(sorted(
                    (kind.value, blocks)
                    for kind, blocks in placement.counts.items()
                )))
                transitions[memo_key] = sid
            state_ids[index] = sid
            prev_key = state_keys[sid]
            prev_counts = states[sid][0].counts

        # -- phase 2: broadcast the state table over the slice axis ---------
        # One gather expands the per-state numeric rows to per-slice rows;
        # ``tolist`` converts back to Python floats in bulk (float64 ->
        # float is exact, so the columns stay bit-identical to the scalar
        # path's values).
        numeric = np.array(
            [
                (t_constraint, movement.energy_nj) + row[:7]
                for placement, movement, t_constraint, row in states
            ],
            dtype=np.float64,
        )[state_ids].tolist()
        deadlines = [states[sid][3][7] for sid in state_ids]

        records = result.records
        for index, load in enumerate(loads):
            placement, movement, _, _ = states[state_ids[index]]
            (
                t_constraint, movement_energy, busy_total, idle, dynamic,
                hold, access, buffer_static, pe_static,
            ) = numeric[index]
            records.append(
                SliceRecord(
                    index=index,
                    arrivals=load,
                    tasks_processed=load,
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
                    movement_energy_nj=movement_energy,
                    deadline_met=deadlines[index],
                )
            )
        return result
