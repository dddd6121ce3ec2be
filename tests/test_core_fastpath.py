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
from repro.arch import BASELINE_PIM, HH_PIM, HYBRID_PIM
from repro.core.combine import set_allocation_state, unique_allocation_rows
from repro.core.knapsack import (
    dp_build_count,
    knapsack_min_energy,
    reconstruct_counts,
)
from repro.core.placement import (
    DEFAULT_BLOCK_COUNT,
    DEFAULT_TIME_STEPS,
    DataPlacementOptimizer,
)
from repro.core.runtime import default_time_slice_ns
from repro.core.spaces import SpaceKind, StorageSpace
from repro.isa.encoding import ClusterId
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


def saturated_pair(spaces, t_steps, max_blocks):
    """The clamped fast-path table and the dense reference table."""
    with reference(False):
        fast = knapsack_min_energy(
            spaces, t_steps=t_steps, max_blocks=max_blocks, time_step_ns=1.0
        )
    with reference():
        ref = knapsack_min_energy(
            spaces, t_steps=t_steps, max_blocks=max_blocks, time_step_ns=1.0
        )
    return fast, ref


#: Clusters whose step counts saturate far inside a 3x-wider axis.
SATURATING = {
    "unbounded": [
        make_space(SpaceKind.HP_SRAM, t=2.0, e=9.0, capacity=1000),
        make_space(SpaceKind.HP_MRAM, t=3.0, e=4.0, capacity=1000),
    ],
    "bounded": [
        make_space(SpaceKind.HP_SRAM, t=1.0, e=7.0, capacity=3),
        make_space(SpaceKind.HP_MRAM, t=4.0, e=2.0, capacity=4),
    ],
    "mixed": [
        make_space(SpaceKind.HP_SRAM, t=1.0, e=11.0, capacity=1000),
        make_space(SpaceKind.HP_MRAM, t=3.0, e=5.0, capacity=2),
        make_space(SpaceKind.LP_MRAM, t=5.0, e=1.5, capacity=3),
    ],
}


class TestTimeSaturation:
    """The fast path stores budgets only up to ``K * max(t_i)``."""

    BLOCKS = 6

    def saturation(self, spaces):
        return self.BLOCKS * max(round(s.time_per_block_ns) for s in spaces)

    @pytest.mark.parametrize("shape", sorted(SATURATING))
    def test_dense_tables_match_reference_past_saturation(self, shape):
        spaces = SATURATING[shape]
        t_sat = self.saturation(spaces)
        fast, ref = saturated_pair(spaces, 3 * t_sat + 5, self.BLOCKS)
        assert fast.t_saturated == t_sat
        assert ref.t_saturated == ref.t_steps == fast.t_steps
        assert np.array_equal(fast.energy, ref.energy)
        assert np.array_equal(fast.count, ref.count)
        assert fast.count.dtype == ref.count.dtype
        for t in (0, t_sat - 1, t_sat, fast.t_steps):
            assert np.array_equal(fast.energy_row(t), ref.energy_row(t))

    @pytest.mark.parametrize("shape", sorted(SATURATING))
    def test_stored_width_is_flat_in_time_steps(self, shape):
        spaces = SATURATING[shape]
        t_sat = self.saturation(spaces)
        with reference(False):
            tables = [
                knapsack_min_energy(
                    spaces, t_steps=t_steps, max_blocks=self.BLOCKS,
                    time_step_ns=1.0,
                )
                for t_steps in (t_sat, 10 * t_sat)
            ]
        for table in tables:
            assert table.energy_kt.shape == (self.BLOCKS + 1, t_sat + 1)
            assert table.count_ikt.shape == (
                len(spaces) + 1, self.BLOCKS + 1, t_sat + 1
            )
        assert np.array_equal(tables[0].energy_kt, tables[1].energy_kt)
        assert np.array_equal(tables[0].count_ikt, tables[1].count_ikt)

    @pytest.mark.parametrize("shape", sorted(SATURATING))
    def test_reconstruction_past_saturation(self, shape):
        spaces = SATURATING[shape]
        t_sat = self.saturation(spaces)
        fast, ref = saturated_pair(spaces, 4 * t_sat, self.BLOCKS)
        for blocks in range(self.BLOCKS + 1):
            if not np.isfinite(ref.energy[t_sat, blocks]):
                continue
            at_saturation = reconstruct_counts(fast, t_sat, blocks)
            for t in (t_sat + 1, 2 * t_sat, fast.t_steps):
                assert reconstruct_counts(fast, t, blocks) == at_saturation
                assert reconstruct_counts(ref, t, blocks) == at_saturation

    def test_unequal_cluster_saturation_combines_like_reference(self):
        # HP saturates at 6 * 3 = 18 steps, LP at 6 * 5 = 30; the scan
        # must cover 31 budgets, reading HP as saturated past 18.
        hp_spaces = SATURATING["unbounded"]
        lp_spaces = [
            make_space(SpaceKind.LP_SRAM, t=4.0, e=3.0, capacity=1000),
            make_space(SpaceKind.LP_MRAM, t=5.0, e=0.5, capacity=4),
        ]
        t_steps = 100
        hp, hp_ref = saturated_pair(hp_spaces, t_steps, self.BLOCKS)
        lp, lp_ref = saturated_pair(lp_spaces, t_steps, self.BLOCKS)
        assert (hp.t_saturated, lp.t_saturated) == (18, 30)
        width = 31
        with reference(False):
            fast_rows = set_allocation_state(hp, lp, self.BLOCKS)
            unique = unique_allocation_rows(hp, lp, self.BLOCKS)
        with reference():
            ref_rows = set_allocation_state(hp_ref, lp_ref, self.BLOCKS)
        assert len(fast_rows) == t_steps + 1
        assert fast_rows == ref_rows
        assert all(row.t_step == t for t, row in enumerate(fast_rows)
                   if row is not None)
        assert fast_rows[-1] is not None
        assert unique and all(row.t_step < width for row in unique)
        seen = {}
        for row in ref_rows:
            if row is not None:
                seen.setdefault(tuple(sorted(
                    (kind.value, n) for kind, n in row.counts.items()
                )), row)
        assert unique == list(seen.values())

    def test_single_cluster_rows_past_saturation(self):
        spaces = SATURATING["mixed"]
        fast, ref = saturated_pair(spaces, 70, self.BLOCKS)
        with reference(False):
            fast_rows = set_allocation_state(fast, None, self.BLOCKS)
        with reference():
            ref_rows = set_allocation_state(ref, None, self.BLOCKS)
        assert fast_rows == ref_rows


class TestPaperResolutionOracle:
    def test_baseline_table_matches_dense_reference(self):
        # Baseline-PIM's one HP-SRAM space for EfficientNet-B0 at the
        # paper's resolution: a 24000-step axis that saturates at 1200.
        optimizer = DataPlacementOptimizer(
            BASELINE_PIM, EFFICIENTNET_B0,
            t_slice_ns=default_time_slice_ns(EFFICIENTNET_B0),
            block_count=DEFAULT_BLOCK_COUNT, time_steps=DEFAULT_TIME_STEPS,
        )
        spaces = optimizer.cluster_spaces(ClusterId.HP)
        args = dict(
            t_steps=optimizer.time_steps, max_blocks=optimizer.block_count,
            time_step_ns=optimizer.time_step_ns,
        )
        with reference(False):
            fast = knapsack_min_energy(spaces, **args)
        with reference():
            ref = knapsack_min_energy(spaces, **args)
        assert (fast.t_steps, fast.t_saturated) == (24000, 1200)
        assert np.array_equal(fast.energy, ref.energy)
        assert np.array_equal(fast.count, ref.count)
        with reference(False):
            fast_rows = set_allocation_state(fast, None, fast.max_blocks)
        with reference():
            ref_rows = set_allocation_state(ref, None, ref.max_blocks)
        assert fast_rows == ref_rows
