"""Differential suite: vectorized DP/combine ≡ the scalar reference.

The vectorized production path must be *bit-identical* to the scalar
per-element translation of the paper's recurrences — same final
``energy`` plane and ``count`` traces, same allocation-state rows, same
chosen :class:`~repro.core.lut.Placement` rows — across randomized
spaces, budgets and capacities.  ``REPRO_REFERENCE=1`` (or the
:func:`repro.reference.reference` context manager) selects the reference.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.arch import HH_PIM, HYBRID_PIM
from repro.core.combine import set_allocation_state, unique_allocation_rows
from repro.core.knapsack import (
    dp_build_count,
    knapsack_min_energy,
    reconstruct_counts,
)
from repro.core.placement import DataPlacementOptimizer
from repro.core.spaces import SpaceKind, StorageSpace
from repro.reference import reference
from repro.workloads import EFFICIENTNET_B0


def make_space(kind, t, e, capacity):
    return StorageSpace(
        kind=kind,
        time_per_block_ns=t,
        dynamic_energy_per_block_nj=e,
        hold_static_energy_per_block_nj=0.0,
        access_static_energy_per_block_nj=0.0,
        capacity_blocks=capacity,
        full_static_power_mw=1.0,
        volatile=False,
    )


def random_instance(rng, kinds):
    """A randomized cluster: spaces with mixed bounded/unbounded caps."""
    spaces = [
        make_space(
            kind,
            t=rng.uniform(0.4, 9.0),
            e=rng.uniform(0.1, 25.0),
            capacity=rng.choice([1, 2, 3, 5, 8, 1000]),
        )
        for kind in kinds[: rng.randint(1, len(kinds))]
    ]
    t_steps = rng.randint(4, 70)
    max_blocks = rng.randint(2, 14)
    return spaces, t_steps, max_blocks


class TestKnapsackDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_tables_bit_identical(self, seed):
        rng = random.Random(1000 + seed)
        kinds = [SpaceKind.HP_MRAM, SpaceKind.HP_SRAM, SpaceKind.LP_MRAM,
                 SpaceKind.LP_SRAM]
        spaces, t_steps, max_blocks = random_instance(rng, kinds)
        fast = knapsack_min_energy(
            spaces, t_steps=t_steps, max_blocks=max_blocks, time_step_ns=1.0
        )
        with reference():
            ref = knapsack_min_energy(
                spaces, t_steps=t_steps, max_blocks=max_blocks,
                time_step_ns=1.0,
            )
        assert np.array_equal(fast.energy, ref.energy)
        assert np.array_equal(fast.count, ref.count)

    @pytest.mark.parametrize(
        "max_blocks, dtype", [(120, np.uint8), (300, np.uint16)]
    )
    def test_count_trace_uses_smallest_unsigned_type(self, max_blocks, dtype):
        spaces = [make_space(SpaceKind.HP_SRAM, 1.0, 1.0, 1000)]
        result = knapsack_min_energy(
            spaces, t_steps=4, max_blocks=max_blocks, time_step_ns=1.0
        )
        assert result.count.dtype == dtype
        assert result.energy.ndim == 2
        assert result.energy.shape == (5, max_blocks + 1)

    def test_wide_count_trace_bit_identical(self):
        # K = 300 needs uint16 counts; the one-step unbounded space takes
        # more than 255 blocks on the relaxed budgets.
        spaces = [
            make_space(SpaceKind.HP_MRAM, t=1.0, e=2.0, capacity=1000),
            make_space(SpaceKind.HP_SRAM, t=2.0, e=0.5, capacity=5),
        ]
        fast = knapsack_min_energy(
            spaces, t_steps=310, max_blocks=300, time_step_ns=1.0
        )
        with reference():
            ref = knapsack_min_energy(
                spaces, t_steps=310, max_blocks=300, time_step_ns=1.0
            )
        assert np.array_equal(fast.energy, ref.energy)
        assert np.array_equal(fast.count, ref.count)
        assert fast.count.max() > 255
        for t in (300, 305, 310):
            counts = reconstruct_counts(fast, t, 300)
            assert sum(counts.values()) == 300

    def test_build_counter_increments_per_table(self):
        spaces = [make_space(SpaceKind.HP_SRAM, 1.0, 1.0, 1000)]
        before = dp_build_count()
        knapsack_min_energy(spaces, t_steps=5, max_blocks=2, time_step_ns=1.0)
        knapsack_min_energy(spaces, t_steps=5, max_blocks=2, time_step_ns=1.0)
        assert dp_build_count() == before + 2


class TestCombineDifferential:
    def tables(self, seed):
        rng = random.Random(seed)
        hp_spaces, t_steps, max_blocks = random_instance(
            rng, [SpaceKind.HP_MRAM, SpaceKind.HP_SRAM]
        )
        lp_spaces = [
            make_space(
                kind,
                t=rng.uniform(0.4, 9.0),
                e=rng.uniform(0.1, 25.0),
                capacity=rng.choice([2, 4, 1000]),
            )
            for kind in (SpaceKind.LP_MRAM, SpaceKind.LP_SRAM)
        ]
        hp = knapsack_min_energy(
            hp_spaces, t_steps=t_steps, max_blocks=max_blocks,
            time_step_ns=1.0,
        )
        lp = knapsack_min_energy(
            lp_spaces, t_steps=t_steps, max_blocks=max_blocks,
            time_step_ns=1.0,
        )
        return hp, lp, max_blocks

    @pytest.mark.parametrize("seed", range(8))
    def test_two_cluster_rows_identical(self, seed):
        hp, lp, blocks = self.tables(2000 + seed)
        fast = set_allocation_state(hp, lp, blocks)
        with reference():
            ref = set_allocation_state(hp, lp, blocks)
        assert fast == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_single_cluster_rows_identical(self, seed):
        hp, _, blocks = self.tables(3000 + seed)
        fast = set_allocation_state(hp, None, blocks)
        with reference():
            ref = set_allocation_state(hp, None, blocks)
        assert fast == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_unique_rows_are_first_occurrences(self, seed):
        hp, lp, blocks = self.tables(4000 + seed)
        unique = unique_allocation_rows(hp, lp, blocks)
        rows = set_allocation_state(hp, lp, blocks)
        seen = {}
        for row in rows:
            if row is None:
                continue
            key = tuple(sorted((k.value, v) for k, v in row.counts.items()))
            seen.setdefault(key, row)
        assert unique == list(seen.values())

    def test_tied_splits_pick_the_smallest_hp_share(self):
        # Identical HP and LP spaces at integer energies: every feasible
        # split of a budget costs the same, so the scan must keep the
        # first (smallest) k_hp exactly as an argmin would.
        blocks, t_steps = 8, 12
        hp = knapsack_min_energy(
            [make_space(SpaceKind.HP_MRAM, 1.0, 3.0, 1000)],
            t_steps=t_steps, max_blocks=blocks, time_step_ns=1.0,
        )
        lp = knapsack_min_energy(
            [make_space(SpaceKind.LP_MRAM, 1.0, 3.0, 1000)],
            t_steps=t_steps, max_blocks=blocks, time_step_ns=1.0,
        )
        fast = set_allocation_state(hp, lp, blocks)
        with reference():
            ref = set_allocation_state(hp, lp, blocks)
        assert fast == ref
        for t, row in enumerate(fast):
            if t * 2 < blocks:
                assert row is None
                continue
            assert row.k_hp == max(0, blocks - t)
            assert row.energy_nj == 3.0 * blocks


class TestPlacementDifferential:
    @pytest.fixture(scope="class")
    def optimizer(self):
        return DataPlacementOptimizer(
            HH_PIM, EFFICIENTNET_B0, t_slice_ns=3.3e7,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )

    def test_lut_candidates_identical(self, optimizer):
        fast = optimizer.build_lut()
        with reference():
            ref = optimizer.build_lut()
        assert fast.candidates == ref.candidates

    def test_restricted_lut_identical(self, optimizer):
        mram = [SpaceKind.HP_MRAM, SpaceKind.LP_MRAM]
        fast = optimizer.build_lut(restrict_to=mram)
        with reference():
            ref = optimizer.build_lut(restrict_to=mram)
        assert fast.candidates == ref.candidates

    def test_single_cluster_architecture_identical(self):
        optimizer = DataPlacementOptimizer(
            HYBRID_PIM, EFFICIENTNET_B0, t_slice_ns=3.3e7,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )
        fast = optimizer.build_lut()
        with reference():
            ref = optimizer.build_lut()
        assert fast.candidates == ref.candidates
