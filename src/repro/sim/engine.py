"""Cycle engine: execute placements mechanistically on PIM modules.

Where the analytic runtime prices a placement in closed form, the engine
walks the actual machinery: it stripes each space's blocks over the
cluster's modules, charges every weight/activation read and PE operation
on the real :class:`~repro.pim.module.PIMModule` objects (through their
fast accounting paths), serialises the MRAM and SRAM phases within each
module, and overlaps the two clusters — emitting a trace along the way.

The measured dynamic energy and completion time must agree with the
analytic model; the integration tests assert this to a tight tolerance,
which pins the two implementations against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..memory.hybrid import BankKind
from .events import EventQueue
from .trace import TraceRecorder


@dataclass(frozen=True)
class TaskExecution:
    """Result of executing one task (one inference's PIM work)."""

    task_time_ns: float
    per_cluster_time_ns: dict
    dynamic_energy_nj: float


class CycleEngine:
    """Executes placements on real clusters, with tracing."""

    def __init__(self, clusters: dict, latency_scale: float = 1.0) -> None:
        if not clusters:
            raise SimulationError("engine needs at least one cluster")
        self.clusters = clusters
        self.latency_scale = latency_scale
        self.queue = EventQueue()
        self.trace = TraceRecorder()

    def execute_task(self, counts: dict, macs_per_block: float) -> TaskExecution:
        """Run one task under a placement; returns timing and energy.

        ``counts`` maps :class:`~repro.core.spaces.SpaceKind` to block
        counts; each block contributes ``macs_per_block`` MACs.  Within a
        cluster the MRAM-weight and SRAM-weight phases of one module
        serialise; modules and clusters run in parallel.
        """
        energy_before = {
            cid: cluster.total_energy_nj()
            for cid, cluster in self.clusters.items()
        }
        per_cluster_macs = {
            cid: {BankKind.MRAM: 0, BankKind.SRAM: 0} for cid in self.clusters
        }
        for kind, blocks in counts.items():
            if blocks < 0:
                raise SimulationError(f"negative block count for {kind}")
            macs = round(blocks * macs_per_block)
            per_cluster_macs[kind.cluster][kind.bank] += macs

        start_ns = self.queue.now_ns
        per_cluster_time = {}
        for cid, macs_by_bank in per_cluster_macs.items():
            cluster = self.clusters[cid]
            elapsed = cluster.run_mixed_macs(
                macs_by_bank[BankKind.MRAM], macs_by_bank[BankKind.SRAM]
            ) * self.latency_scale
            per_cluster_time[cid] = elapsed
            self.trace.emit(
                start_ns, "cluster_phase", cid.name,
                mram_macs=macs_by_bank[BankKind.MRAM],
                sram_macs=macs_by_bank[BankKind.SRAM],
                elapsed_ns=elapsed,
            )
        task_time = max(per_cluster_time.values()) if per_cluster_time else 0.0
        # Advance simulated time to the joint completion (cluster barrier).
        self.queue.schedule(task_time, lambda: None, label="task_complete")
        self.queue.run()
        dynamic = sum(
            self.clusters[cid].total_energy_nj() - energy_before[cid]
            for cid in self.clusters
        )
        self.trace.emit(
            self.queue.now_ns, "task_done", "engine",
            task_time_ns=task_time, dynamic_energy_nj=dynamic,
        )
        return TaskExecution(
            task_time_ns=task_time,
            per_cluster_time_ns=per_cluster_time,
            dynamic_energy_nj=dynamic,
        )

    def run_slice(self, counts: dict, macs_per_block: float, tasks: int):
        """Execute ``tasks`` back-to-back tasks; returns the executions."""
        if tasks < 0:
            raise SimulationError("task count must be non-negative")
        return [
            self.execute_task(counts, macs_per_block) for _ in range(tasks)
        ]
