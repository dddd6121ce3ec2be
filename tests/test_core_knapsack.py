"""Unit tests for Algorithm 1 (knapsack DP) and Algorithm 2 (combine)."""

import itertools

import numpy as np
import pytest

from repro.core.combine import set_allocation_state
from repro.core.knapsack import (
    cluster_time_ns,
    knapsack_min_energy,
    reconstruct_counts,
)
from repro.core.spaces import SpaceKind, StorageSpace
from repro.errors import ConfigurationError, PlacementError


def space(kind, t, e, capacity=1000, volatile=False):
    """A hand-priced storage space for DP testing."""
    return StorageSpace(
        kind=kind,
        time_per_block_ns=t,
        dynamic_energy_per_block_nj=e,
        hold_static_energy_per_block_nj=0.0,
        access_static_energy_per_block_nj=0.0,
        capacity_blocks=capacity,
        full_static_power_mw=1.0,
        volatile=volatile,
    )


def brute_force(spaces, t_budget, blocks):
    """Exhaustive optimum for small instances."""
    best = None
    n = len(spaces)
    for counts in itertools.product(range(blocks + 1), repeat=n):
        if sum(counts) != blocks:
            continue
        if any(c > s.capacity_blocks for c, s in zip(counts, spaces)):
            continue
        time = sum(c * s.time_per_block_ns for c, s in zip(counts, spaces))
        if time > t_budget + 1e-9:
            continue
        energy = sum(
            c * s.energy_per_block_nj for c, s in zip(counts, spaces)
        )
        if best is None or energy < best:
            best = energy
    return best


class TestAlgorithm1:
    def test_single_space_exact(self):
        spaces = [space(SpaceKind.HP_SRAM, t=2.0, e=5.0)]
        result = knapsack_min_energy(spaces, t_steps=20, max_blocks=5,
                                     time_step_ns=1.0)
        # 5 blocks at 2 steps each need t >= 10.
        assert np.isinf(result.energy[9, 5])
        assert result.energy[10, 5] == pytest.approx(25.0)

    def test_prefers_cheaper_space_when_feasible(self):
        spaces = [
            space(SpaceKind.HP_SRAM, t=1.0, e=10.0),
            space(SpaceKind.HP_MRAM, t=2.0, e=1.0),
        ]
        result = knapsack_min_energy(spaces, t_steps=20, max_blocks=4,
                                     time_step_ns=1.0)
        # Plenty of time: everything goes to the cheap slow space.
        counts = reconstruct_counts(result, 20, 4)
        assert counts[SpaceKind.HP_MRAM] == 4
        # Tight time: forced into the fast expensive space.
        counts = reconstruct_counts(result, 4, 4)
        assert counts[SpaceKind.HP_SRAM] == 4

    def test_mixed_split_under_medium_budget(self):
        spaces = [
            space(SpaceKind.HP_SRAM, t=1.0, e=10.0),
            space(SpaceKind.HP_MRAM, t=2.0, e=1.0),
        ]
        result = knapsack_min_energy(spaces, t_steps=6, max_blocks=4,
                                     time_step_ns=1.0)
        counts = reconstruct_counts(result, 6, 4)
        # 2 fast + 2 slow = 2*1 + 2*2 = 6 steps exactly.
        assert counts == {SpaceKind.HP_SRAM: 2, SpaceKind.HP_MRAM: 2}

    def test_matches_brute_force_small_grid(self):
        spaces = [
            space(SpaceKind.HP_SRAM, t=1.0, e=7.0),
            space(SpaceKind.HP_MRAM, t=3.0, e=2.0),
        ]
        result = knapsack_min_energy(spaces, t_steps=15, max_blocks=5,
                                     time_step_ns=1.0)
        for t in range(16):
            for k in range(6):
                expected = brute_force(spaces, t, k)
                got = result.energy[t, k]
                if expected is None:
                    assert np.isinf(got), (t, k)
                else:
                    assert got == pytest.approx(expected), (t, k)

    def test_capacity_limit_respected(self):
        spaces = [
            space(SpaceKind.HP_SRAM, t=1.0, e=10.0, capacity=2),
            space(SpaceKind.HP_MRAM, t=1.0, e=1.0, capacity=2),
        ]
        result = knapsack_min_energy(spaces, t_steps=10, max_blocks=4,
                                     time_step_ns=1.0)
        counts = reconstruct_counts(result, 10, 4)
        assert counts[SpaceKind.HP_MRAM] == 2
        assert counts[SpaceKind.HP_SRAM] == 2

    def test_infeasible_when_capacity_exhausted(self):
        spaces = [space(SpaceKind.HP_SRAM, t=1.0, e=1.0, capacity=2)]
        result = knapsack_min_energy(spaces, t_steps=10, max_blocks=4,
                                     time_step_ns=1.0)
        assert np.isinf(result.energy[10, 3])

    def test_dp_monotone_in_time(self):
        spaces = [
            space(SpaceKind.HP_SRAM, t=2.0, e=5.0),
            space(SpaceKind.HP_MRAM, t=3.0, e=1.0),
        ]
        result = knapsack_min_energy(spaces, t_steps=30, max_blocks=6,
                                     time_step_ns=1.0)
        final = result.energy
        for k in range(7):
            column = final[:, k]
            finite = column[np.isfinite(column)]
            assert np.all(np.diff(finite) <= 1e-9)

    def test_zero_blocks_costs_zero(self):
        spaces = [space(SpaceKind.HP_SRAM, t=1.0, e=1.0)]
        result = knapsack_min_energy(spaces, t_steps=5, max_blocks=3,
                                     time_step_ns=1.0)
        # Only the final energies are kept: every budget stores zero
        # blocks for free, and no space's trace takes a block at k = 0.
        assert result.energy.ndim == 2
        assert np.all(result.energy[:, 0] == 0.0)
        assert np.all(result.count[:, :, 0] == 0)

    def test_reconstruction_conserves_blocks(self):
        spaces = [
            space(SpaceKind.LP_SRAM, t=1.5, e=4.0),
            space(SpaceKind.LP_MRAM, t=2.5, e=1.0),
        ]
        result = knapsack_min_energy(spaces, t_steps=40, max_blocks=8,
                                     time_step_ns=1.0)
        for t in (16, 20, 40):
            counts = reconstruct_counts(result, t, 8)
            assert sum(counts.values()) == 8

    def test_reconstruct_infeasible_raises(self):
        spaces = [space(SpaceKind.HP_SRAM, t=5.0, e=1.0)]
        result = knapsack_min_energy(spaces, t_steps=4, max_blocks=2,
                                     time_step_ns=1.0)
        with pytest.raises(PlacementError):
            reconstruct_counts(result, 4, 2)

    def test_cluster_time_matches_counts(self):
        spaces = [
            space(SpaceKind.HP_SRAM, t=1.0, e=2.0),
            space(SpaceKind.HP_MRAM, t=2.0, e=1.0),
        ]
        result = knapsack_min_energy(spaces, t_steps=10, max_blocks=4,
                                     time_step_ns=1.0)
        counts = {SpaceKind.HP_SRAM: 1, SpaceKind.HP_MRAM: 3}
        assert cluster_time_ns(result, counts) == pytest.approx(7.0)

    def test_empty_spaces_rejected(self):
        with pytest.raises(ConfigurationError):
            knapsack_min_energy([], t_steps=5, max_blocks=2, time_step_ns=1.0)

    def test_bad_dimensions_rejected(self):
        spaces = [space(SpaceKind.HP_SRAM, t=1.0, e=1.0)]
        with pytest.raises(ConfigurationError):
            knapsack_min_energy(spaces, t_steps=0, max_blocks=2,
                                time_step_ns=1.0)


class TestAlgorithm2:
    def make_tables(self):
        hp = knapsack_min_energy(
            [space(SpaceKind.HP_SRAM, t=1.0, e=10.0),
             space(SpaceKind.HP_MRAM, t=2.0, e=4.0)],
            t_steps=20, max_blocks=6, time_step_ns=1.0,
        )
        lp = knapsack_min_energy(
            [space(SpaceKind.LP_SRAM, t=2.0, e=3.0),
             space(SpaceKind.LP_MRAM, t=4.0, e=1.0)],
            t_steps=20, max_blocks=6, time_step_ns=1.0,
        )
        return hp, lp

    def test_rows_cover_time_axis(self):
        hp, lp = self.make_tables()
        rows = set_allocation_state(hp, lp, total_blocks=6)
        assert len(rows) == 21

    def test_infeasible_region_marked(self):
        hp, lp = self.make_tables()
        rows = set_allocation_state(hp, lp, total_blocks=6)
        # At t=0 and t=1 nothing fits (6 blocks need at least 3 steps
        # when split 3/3 over the two clusters at 1.0/2.0 per block).
        assert rows[0] is None

    def test_blocks_conserved_in_every_row(self):
        hp, lp = self.make_tables()
        rows = set_allocation_state(hp, lp, total_blocks=6)
        for row in rows:
            if row is None:
                continue
            assert row.k_hp + row.k_lp == 6
            assert sum(row.counts.values()) == 6

    def test_energy_non_increasing_with_budget(self):
        hp, lp = self.make_tables()
        rows = set_allocation_state(hp, lp, total_blocks=6)
        energies = [row.energy_nj for row in rows if row is not None]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_relaxed_budget_prefers_cheap_lp(self):
        hp, lp = self.make_tables()
        rows = set_allocation_state(hp, lp, total_blocks=6)
        last = rows[-1]
        # LP-MRAM (e=1) absorbs as much as the 20-step budget allows
        # (5 blocks at 4 steps); the leftover block goes to the cheapest
        # remaining space, HP-MRAM (e=4), which runs in parallel.
        assert last.counts[SpaceKind.LP_MRAM] == 5
        assert last.counts[SpaceKind.HP_MRAM] == 1
        assert last.k_hp == 1

    def test_combined_optimum_matches_exhaustive(self):
        hp, lp = self.make_tables()
        rows = set_allocation_state(hp, lp, total_blocks=4)
        hp_spaces = list(hp.spaces)
        lp_spaces = list(lp.spaces)
        for t in (4, 8, 12, 20):
            row = rows[t]
            best = None
            for k_hp in range(5):
                hp_best = brute_force(hp_spaces, t, k_hp)
                lp_best = brute_force(lp_spaces, t, 4 - k_hp)
                if hp_best is None or lp_best is None:
                    continue
                total = hp_best + lp_best
                if best is None or total < best:
                    best = total
            if best is None:
                assert row is None
            else:
                assert row.energy_nj == pytest.approx(best)

    def test_single_cluster_mode(self):
        hp, _ = self.make_tables()
        rows = set_allocation_state(hp, None, total_blocks=6)
        last = rows[-1]
        assert last.k_lp == 0
        assert sum(last.counts.values()) == 6

    def test_block_count_exceeding_table_rejected(self):
        hp, lp = self.make_tables()
        with pytest.raises(PlacementError):
            set_allocation_state(hp, lp, total_blocks=7)
