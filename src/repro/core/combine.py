"""Algorithm 2: optimal cross-cluster split of the weight blocks.

The HP and LP clusters compute in parallel, so a placement is feasible at
time budget ``t`` when *each* cluster finishes within ``t``.  For every
``t`` Algorithm 2 scans the candidate splits ``(k_hp, k_lp = K - k_hp)``
and keeps the split minimising ``dp_hp[n/2][t][k_hp] +
dp_lp[n/2][t][k_lp]``, producing the ``allocation_state`` rows that the
LUT compiles (paper, Section III-B).

The scan is vectorised over the time axis: it walks the splits ``k_hp``
in ascending order, adds the HP energy row of ``k_hp`` to the LP energy
row of ``K - k_hp`` (both contiguous over ``t``) and keeps a running
strict-``<`` minimum, which selects the same first-minimum split as an
argmin along ``k_hp``; path reconstruction then walks the count traces
of every feasible budget at once.  Both DP tables saturate (see
:mod:`repro.core.knapsack`), so every budget past the later of the two
saturation points repeats that budget's split: the scan covers only
``W = max(t_saturated) + 1`` budgets, reading the narrower table past
its own saturation point as its saturated column.

Unlike the paper's pseudo-code we include the degenerate splits
``k_hp = 0`` and ``k_lp = 0`` — Fig. 6's "LP-MRAM only" region *is* the
``k_hp = 0`` split, so the pseudo-code's 1-based loop is read as an
off-by-one simplification.

A per-``t`` scalar reference (selected with ``REPRO_REFERENCE=1``, like
the knapsack DP's) is kept for differential testing;
:func:`unique_allocation_rows` is the LUT builder's fast path, which
deduplicates identical placements *before* the expensive per-row
evaluation instead of after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PlacementError
from ..obs.tracing import span as _span
from ..reference import use_reference
from .knapsack import ClusterDpResult, _pad_time, reconstruct_counts


@dataclass(frozen=True)
class CombinedRow:
    """``allocation_state[t]``: the optimal placement at time budget ``t``."""

    t_step: int
    k_hp: int
    k_lp: int
    energy_nj: float
    #: Per-space block counts (SpaceKind -> blocks).
    counts: dict

    @property
    def total_blocks(self) -> int:
        """Total blocks placed (always ``K`` for feasible rows)."""
        return self.k_hp + self.k_lp


def _validate_tables(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
) -> None:
    if total_blocks <= 0:
        raise PlacementError("total block count must be positive")
    if total_blocks > hp.max_blocks:
        raise PlacementError(
            f"HP table only covers {hp.max_blocks} blocks, need {total_blocks}"
        )
    if lp is not None and total_blocks > lp.max_blocks:
        raise PlacementError(
            f"LP table only covers {lp.max_blocks} blocks, need {total_blocks}"
        )
    if lp is not None and lp.t_steps != hp.t_steps:
        raise PlacementError("HP and LP tables must share the time axis")


def set_allocation_state(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
):
    """Build the allocation-state rows for every time budget.

    Returns a list of length ``t_steps + 1`` whose entries are
    :class:`CombinedRow` or ``None`` where no feasible placement exists
    (the grey region of Fig. 6).  ``lp`` may be ``None`` for single-cluster
    architectures (Baseline-/Hybrid-PIM), in which case all blocks go to
    the HP cluster.
    """
    _validate_tables(hp, lp, total_blocks)
    if use_reference():
        with _combine_span(hp, lp, total_blocks):
            return _set_allocation_state_scalar(hp, lp, total_blocks)
    t_idx, k_hp, energies, counts_columns = _solve_splits(hp, lp, total_blocks)
    rows: list = [None] * (hp.t_steps + 1)
    for position, t in enumerate(t_idx):
        rows[t] = _build_row(
            position, t, k_hp, total_blocks, energies, counts_columns
        )
    # Budgets past the scanned width repeat its last (saturated) row.
    width = _scan_width(hp, lp)
    if len(t_idx) and t_idx[-1] == width - 1:
        for t in range(width, hp.t_steps + 1):
            rows[t] = _build_row(
                len(t_idx) - 1, t, k_hp, total_blocks, energies,
                counts_columns,
            )
    return rows


def unique_allocation_rows(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
):
    """The distinct placements of the allocation state, in budget order.

    Consecutive budgets overwhelmingly select the same placement, so the
    full ``t_steps + 1`` row list collapses to a handful of distinct
    placements.  This returns only the *first* row of each distinct
    per-space count vector (every first occurrence lies within the
    scanned, saturated width) — exactly the rows
    :class:`~repro.core.lut.AllocationLUT` would keep after its own
    dedupe — so the LUT builder evaluates dozens of rows instead of tens
    of thousands.
    """
    _validate_tables(hp, lp, total_blocks)
    t_idx, k_hp, energies, counts_columns = _solve_splits(hp, lp, total_blocks)
    if len(t_idx) == 0:
        return []
    matrix = np.stack([column for _, column in counts_columns], axis=1)
    _, first = np.unique(matrix, axis=0, return_index=True)
    return [
        _build_row(
            int(position), int(t_idx[position]), k_hp, total_blocks,
            energies, counts_columns,
        )
        for position in np.sort(first)
    ]


def _build_row(
    position, t, k_hp, total_blocks, energies, counts_columns
) -> CombinedRow:
    """Materialise one feasible budget's :class:`CombinedRow`."""
    split = int(k_hp[position])
    return CombinedRow(
        t_step=int(t),
        k_hp=split,
        k_lp=total_blocks - split,
        energy_nj=float(energies[position]),
        counts={
            kind: int(column[position]) for kind, column in counts_columns
        },
    )


def _combine_span(hp, lp, total_blocks):
    """The ``core.combine`` trace span of one Algorithm 2 scan."""
    return _span(
        "core.combine", t_steps=hp.t_steps, blocks=total_blocks,
        clusters=1 if lp is None else 2,
    )


def _scan_width(hp: ClusterDpResult, lp: ClusterDpResult | None) -> int:
    """How many budgets Algorithm 2 must scan: later ones repeat the last."""
    if lp is None:
        return hp.t_saturated + 1
    return max(hp.t_saturated, lp.t_saturated) + 1


def _solve_splits(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
):
    """Optimal split and per-space counts for every feasible budget.

    Returns ``(t_idx, k_hp, energies, counts_columns)`` where ``t_idx``
    holds the feasible budgets (ascending), ``k_hp``/``energies`` the
    chosen split and its energy per feasible budget, and
    ``counts_columns`` is a list of ``(SpaceKind, per-budget counts)``
    pairs covering every space of both clusters.  Only the first
    :func:`_scan_width` budgets are solved; later ones repeat the last.
    """
    with _combine_span(hp, lp, total_blocks):
        if lp is None:
            energy = hp.energy_kt[total_blocks]
            t_idx = np.nonzero(np.isfinite(energy))[0]
            k_hp = np.full(len(t_idx), total_blocks, dtype=np.int64)
            counts_columns = _reconstruct_many(hp, t_idx, k_hp)
            return t_idx, k_hp, energy[t_idx], counts_columns

        # rows[k] is the contiguous budget row of k blocks; the narrower
        # table reads as its saturated column past its own saturation.
        width = _scan_width(hp, lp)
        hp_rows = _pad_time(hp.energy_kt, width - 1)
        lp_rows = _pad_time(lp.energy_kt, width - 1)
        # best[t] = min over k_hp of hp[t, k_hp] + lp[t, K - k_hp]; the
        # strict < keeps the first (smallest) minimising split.
        best = hp_rows[0] + lp_rows[total_blocks]
        best_k = np.zeros(len(best), dtype=np.int64)
        candidate = np.empty_like(best)
        better = np.empty(len(best), dtype=bool)
        for split in range(1, total_blocks + 1):
            np.add(hp_rows[split], lp_rows[total_blocks - split], out=candidate)
            np.less(candidate, best, out=better)
            np.copyto(best, candidate, where=better)
            np.copyto(best_k, split, where=better)
        t_idx = np.nonzero(np.isfinite(best))[0]
        k_hp = best_k[t_idx]
        counts_columns = _reconstruct_many(hp, t_idx, k_hp)
        counts_columns += _reconstruct_many(lp, t_idx, total_blocks - k_hp)
        return t_idx, k_hp, best[t_idx], counts_columns


def _reconstruct_many(table: ClusterDpResult, t_idx, k_idx):
    """Vectorised path tracing: per-space counts for many budgets at once.

    The same walk as :func:`~repro.core.knapsack.reconstruct_counts`,
    with every budget's ``(t, k)`` cursor advanced in lockstep (and each
    budget clamped once to the table's saturation point).
    """
    t = np.minimum(np.asarray(t_idx, dtype=np.int64), table.t_saturated)
    k = np.asarray(k_idx, dtype=np.int64).copy()
    columns = []
    for i in range(len(table.spaces), 0, -1):
        taken = table.count_ikt[i][k, t].astype(np.int64)
        columns.append((table.spaces[i - 1].kind, taken))
        t -= taken * table.step_counts[i - 1]
        k -= taken
    if np.any(k != 0):
        raise PlacementError(
            "reconstruction lost blocks (inconsistent count trace)"
        )
    return columns


def _set_allocation_state_scalar(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
):
    """Per-``t`` reference implementation of Algorithm 2."""
    rows = []
    for t in range(hp.t_steps + 1):
        if lp is None:
            energy = hp.energy_row(t)[total_blocks]
            if not np.isfinite(energy):
                rows.append(None)
                continue
            counts = reconstruct_counts(hp, t, total_blocks)
            rows.append(
                CombinedRow(
                    t_step=t,
                    k_hp=total_blocks,
                    k_lp=0,
                    energy_nj=float(energy),
                    counts=counts,
                )
            )
            continue

        hp_row = hp.energy_row(t)[: total_blocks + 1]
        lp_row = lp.energy_row(t)[: total_blocks + 1]
        # combined[k_hp] = hp[k_hp] + lp[K - k_hp]
        combined = hp_row + lp_row[::-1]
        best = int(np.argmin(combined))
        min_energy = combined[best]
        if not np.isfinite(min_energy):
            rows.append(None)
            continue
        k_hp = best
        k_lp = total_blocks - best
        counts = reconstruct_counts(hp, t, k_hp)
        counts.update(reconstruct_counts(lp, t, k_lp))
        rows.append(
            CombinedRow(
                t_step=t,
                k_hp=k_hp,
                k_lp=k_lp,
                energy_nj=float(min_energy),
                counts=counts,
            )
        )
    return rows
