"""The paper's primary contribution: dynamic weight-placement optimization.

Pipeline (paper, Section III):

1. :mod:`repro.core.spaces` prices each of the four storage spaces
   (HP-MRAM / HP-SRAM / LP-MRAM / LP-SRAM): per-block time ``t_i`` and
   energy ``e_i`` for a given model and time slice;
2. :mod:`repro.core.knapsack` runs Algorithm 1 — the bottom-up DP — once
   per cluster;
3. :mod:`repro.core.combine` runs Algorithm 2 — the optimal
   ``(k_hp, k_lp)`` split per time constraint;
4. :mod:`repro.core.lut` compiles the result into the allocation-state
   LUT consulted at runtime (:mod:`repro.core.lutcache` persists built
   LUTs across processes);
5. :mod:`repro.core.placement` wraps 1-4 into
   :class:`~repro.core.placement.DataPlacementOptimizer`;
6. :mod:`repro.core.runtime` executes 50-time-slice scenarios with
   per-slice reallocation, movement-overhead accounting and power gating.
"""

from .spaces import (
    CORE_MAC_TIME_NS,
    PIM_LATENCY_SCALE,
    SpaceKind,
    StorageSpace,
    build_spaces,
)
from .knapsack import (
    ClusterDpResult,
    dp_build_count,
    knapsack_min_energy,
    reconstruct_counts,
)
from .combine import CombinedRow, set_allocation_state, unique_allocation_rows
from .lut import AllocationLUT, Placement
from .placement import DataPlacementOptimizer, PlacementPolicy
from .runtime import RunResult, SliceRecord, TimeSliceRuntime

__all__ = [
    "CORE_MAC_TIME_NS",
    "PIM_LATENCY_SCALE",
    "SpaceKind",
    "StorageSpace",
    "build_spaces",
    "ClusterDpResult",
    "dp_build_count",
    "knapsack_min_energy",
    "reconstruct_counts",
    "CombinedRow",
    "set_allocation_state",
    "unique_allocation_rows",
    "AllocationLUT",
    "Placement",
    "DataPlacementOptimizer",
    "PlacementPolicy",
    "RunResult",
    "SliceRecord",
    "TimeSliceRuntime",
]
