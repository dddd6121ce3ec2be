"""Tests for the fleet serving layer and its api wiring."""

import pytest
from hypothesis import given, settings, strategies as st

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import DISPATCH, Engine, ExperimentConfig
from repro.errors import ConfigurationError, ServingError
from repro.qos import QoSSimulator
from repro.reference import reference
from repro.serving import (
    BUILTIN_POLICIES,
    DispatchPolicy,
    EnergyAware,
    Fleet,
    LeastLoaded,
    RoundRobin,
    make_policy,
)
from repro.workloads import ScenarioCase, arrivals, bursty, scenario

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS)


class Dropper(DispatchPolicy):
    name = "dropper"  # breaks the dispatch contract: assigns nothing

    def assign(self, slice_index, arrivals):
        return [0] * len(self._devices)


@pytest.fixture(scope="module")
def hh_runtime():
    engine = Engine(use_disk_cache=False)
    return engine.runtime(ExperimentConfig(**TINY))


class TestDispatchPolicies:
    def _infos(self, fleet):
        return fleet.devices

    def test_round_robin_deals_evenly(self, hh_runtime):
        fleet = Fleet([hh_runtime] * 4, dispatch="round_robin")
        splits = fleet.split(scenario(ScenarioCase.HIGH_CONSTANT, slices=3))
        totals = [sum(loads) for loads in splits]
        # 30 arrivals over 4 devices: 8/8/7/7 (pointer persists)
        assert sorted(totals, reverse=True) == [8, 8, 7, 7]

    def test_least_loaded_balances(self, hh_runtime):
        fleet = Fleet([hh_runtime] * 3, dispatch="least_loaded")
        workload = bursty().materialize(slices=40, peak=10, seed=4)
        splits = fleet.split(workload)
        totals = [sum(loads) for loads in splits]
        assert max(totals) - min(totals) <= 1
        assert sum(totals) == workload.total_inferences

    def test_energy_aware_fills_cheapest_first(self, hh_runtime):
        fleet = Fleet([hh_runtime] * 2, dispatch="energy_aware")
        light = scenario(ScenarioCase.LOW_CONSTANT, slices=5)
        splits = fleet.split(light)
        # identical devices: everything fits on device 0's capacity
        assert sum(splits[0]) == light.total_inferences
        assert sum(splits[1]) == 0

    def test_conservation_enforced(self, hh_runtime):
        fleet = Fleet([hh_runtime] * 2, dispatch=Dropper())
        with pytest.raises(ServingError, match="dropped or invented"):
            fleet.run(scenario(ScenarioCase.LOW_CONSTANT, slices=2))

    @pytest.mark.parametrize("scalar", (False, True), ids=("vector", "scalar"))
    def test_qos_engines_enforce_conservation(self, hh_runtime, scalar):
        simulator = QoSSimulator(hh_runtime, devices=2, dispatch=Dropper())
        with reference(scalar), pytest.raises(ServingError, match="in window"):
            simulator.run(scenario(ScenarioCase.LOW_CONSTANT, slices=2))

    def test_make_policy_coercions(self):
        assert isinstance(make_policy("round_robin"), RoundRobin)
        assert isinstance(make_policy(LeastLoaded), LeastLoaded)
        aware = EnergyAware()
        assert make_policy(aware) is aware
        with pytest.raises(ServingError, match="unknown dispatch"):
            make_policy("nope")
        with pytest.raises(ServingError, match="must be a name"):
            make_policy(42)

    def test_make_policy_resolves_registered_names(self, hh_runtime):
        class Cheapest(EnergyAware):
            name = "cheapest"

        DISPATCH.register("cheapest", Cheapest)
        try:
            # a registry-only name works in directly-built fleets too
            fleet = Fleet([hh_runtime] * 2, dispatch="cheapest")
            assert fleet.policy.name == "cheapest"
        finally:
            DISPATCH.unregister("cheapest")
        with pytest.raises(ServingError, match="unknown dispatch"):
            Fleet([hh_runtime], dispatch="cheapest")

    def test_builtins_registered_in_api(self):
        for name in BUILTIN_POLICIES:
            assert name in DISPATCH

    def test_least_loaded_resize_keeps_counts(self, hh_runtime):
        """A scale-up steers new work to the fresh (empty) device."""
        from repro.serving.fleet import device_info

        infos = tuple(device_info(i, hh_runtime) for i in range(2))
        policy = LeastLoaded()
        policy.start(infos)
        policy.assign(0, 8)  # 4/4 across the two devices
        grown = tuple(device_info(i, hh_runtime) for i in range(3))
        policy.resize(grown)
        shares = policy.assign(1, 4)
        assert shares == [0, 0, 4]  # the new device catches up first

    def test_round_robin_resize_keeps_pointer(self, hh_runtime):
        from repro.serving.fleet import device_info

        policy = RoundRobin()
        policy.start(tuple(device_info(i, hh_runtime) for i in range(3)))
        policy.assign(0, 2)  # pointer now at device 2
        policy.resize(tuple(device_info(i, hh_runtime) for i in range(2)))
        assert policy.assign(1, 1) == [1, 0]  # pointer wrapped to 0

    def test_default_resize_restarts(self, hh_runtime):
        from repro.serving.fleet import device_info

        policy = EnergyAware()
        policy.start(tuple(device_info(i, hh_runtime) for i in range(1)))
        policy.resize(tuple(device_info(i, hh_runtime) for i in range(2)))
        assert len(policy.assign(0, 3)) == 2


class TestFleet:
    def test_single_device_fleet_equals_runtime(self, hh_runtime):
        """The 1-device fleet property: record-identical to the runtime."""
        workload = bursty().materialize(slices=30, peak=10, seed=8)
        solo = hh_runtime.run(workload)
        for dispatch in BUILTIN_POLICIES:
            fleet = Fleet([hh_runtime], dispatch=dispatch)
            result = fleet.run(workload)
            assert result.device_results[0].records == solo.records
            assert result.total_energy_nj == solo.total_energy_nj

    def test_four_device_run(self, hh_runtime):
        fleet = Fleet([hh_runtime] * 4, dispatch="least_loaded")
        workload = bursty().materialize(slices=25, peak=10, seed=1)
        result = fleet.run(workload)
        assert len(result) == 4
        assert result.total_inferences == workload.total_inferences
        assert result.total_energy_nj == pytest.approx(
            sum(r.total_energy_nj for r in result.device_results)
        )
        assert 0.0 <= result.deadline_rate <= 1.0
        assert len(result.device_utilization) == 4
        assert result.load_imbalance >= 1.0

    def test_fleet_validation(self, hh_runtime):
        with pytest.raises(ServingError, match="at least one device"):
            Fleet([])
        with pytest.raises(ServingError, match="TimeSliceRuntime"):
            Fleet([object()])

    def test_fleet_result_to_dict(self, hh_runtime):
        import json

        fleet = Fleet([hh_runtime] * 2)
        result = fleet.run(scenario(ScenarioCase.PULSING, slices=6))
        data = result.to_dict()
        assert data["devices"] == 2
        assert len(data["device_results"]) == 2
        assert "records" not in data["device_results"][0]
        json.dumps(data)
        detailed = result.to_dict(include_records=True)
        assert len(detailed["device_results"][0]["records"]) == 6


class TestEngineFleet:
    def test_run_fleet_from_config(self):
        engine = Engine(use_disk_cache=False)
        config = ExperimentConfig(
            fleet=4, dispatch="least_loaded", scenario="poisson",
            slices=15, **TINY,
        )
        result = engine.run_fleet(config)
        assert len(result) == 4
        assert result.dispatch == "least_loaded"
        # one shared runtime: the LUT was built exactly once
        assert engine.stats.lut_builds == 1

    def test_run_dispatches_to_fleet(self):
        engine = Engine(use_disk_cache=False)
        config = ExperimentConfig(fleet=2, slices=5, **TINY)
        result = engine.run(config)
        assert len(result.device_results) == 2

    def test_one_device_config_equals_single_run(self):
        engine = Engine(use_disk_cache=False)
        config = ExperimentConfig(scenario="case3", slices=8, **TINY)
        single = engine.run(config)
        fleet = engine.run_fleet(config)
        assert fleet.device_results[0].records == single.records
        assert (
            engine.run_fleet_record(config).to_row()
            == engine.run_record(config).to_row()
        )

    def test_run_record_rejects_fleet_configs(self):
        # run_record stays single-device; batching goes via run_many.
        engine = Engine(use_disk_cache=False)
        with pytest.raises(ConfigurationError, match="run_fleet"):
            engine.run_record(ExperimentConfig(fleet=2, **TINY))

    def test_run_many_batches_fleet_configs(self):
        """run_many mixes fleet and single-device configs in one batch."""
        from repro.api import FleetRecord, RunRecord

        engine = Engine(use_disk_cache=False)
        configs = [
            ExperimentConfig(scenario="case1", slices=6, **TINY),
            ExperimentConfig(
                scenario="case1", slices=6, fleet=3,
                dispatch="least_loaded", **TINY,
            ),
            ExperimentConfig(scenario="case5", slices=6, **TINY),
        ]
        results = engine.run_many(configs)
        assert len(results) == 3
        assert isinstance(results[0], RunRecord)
        assert isinstance(results[1], FleetRecord)
        assert results[1].devices == 3
        assert results[1].dispatch == "least_loaded"
        # the batched fleet run equals a direct run_fleet
        direct = engine.run_fleet(configs[1])
        assert results[1].result.to_dict() == direct.to_dict()
        # one runtime serves all three configs: LUT built exactly once
        assert engine.stats.lut_builds == 1
        # rows share one schema, so CSV/JSON exports stay rectangular
        rows = results.to_rows()
        assert [set(row) for row in rows] == [set(rows[0])] * 3
        assert [row["devices"] for row in rows] == [1, 3, 1]
        csv_lines = results.to_csv().strip().splitlines()
        assert len(csv_lines) == 4
        aggregate = results.aggregate(by="arch")["HH-PIM"]
        assert aggregate.runs == 3

    def test_run_many_batches_fleet_configs_pooled(self):
        """Fleet configs run in-parent even when a pool is requested."""
        from repro.api import FleetRecord

        engine = Engine(use_disk_cache=False)
        configs = [
            ExperimentConfig(scenario="case1", slices=4, **TINY),
            ExperimentConfig(scenario="case1", slices=4, fleet=2, **TINY),
        ]
        results = engine.run_many(configs, max_workers=2)
        assert isinstance(results[1], FleetRecord)
        assert len(results[1].result.device_results) == 2
        serial = Engine(use_disk_cache=False).run_many(configs)
        assert results.to_rows() == serial.to_rows()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="fleet size"):
            ExperimentConfig(fleet=0)
        with pytest.raises(ConfigurationError, match="dispatch"):
            ExperimentConfig(dispatch="")
        config = ExperimentConfig(fleet=2, dispatch="energy_aware")
        assert ExperimentConfig.from_dict(config.to_dict()) == config


def _random_process(kind: str):
    """One seeded random arrival process per hypothesis-drawn kind."""
    return {
        "poisson": lambda: arrivals.poisson(5.0),
        "bursty": lambda: arrivals.bursty(),
        "uniform": lambda: arrivals.uniform(0),
        "overlay": lambda: arrivals.diurnal(trough=0).overlay(
            arrivals.poisson(2.0)
        ),
    }[kind]()


class TestDispatchProperties:
    """Property suite: every policy conserves every random trace."""

    @given(
        seed=st.integers(0, 10_000),
        devices=st.integers(1, 5),
        policy=st.sampled_from(sorted(BUILTIN_POLICIES)),
        kind=st.sampled_from(["poisson", "bursty", "uniform", "overlay"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_splits_conserve_load(
        self, hh_runtime, seed, devices, policy, kind
    ):
        workload = _random_process(kind).materialize(
            slices=30, peak=10, seed=seed
        )
        fleet = Fleet([hh_runtime] * devices, dispatch=policy)
        splits = fleet.split(workload)
        assert len(splits) == devices
        for loads in splits:
            assert len(loads) == len(workload)
            assert all(
                isinstance(share, int) and share >= 0 for share in loads
            )
        for index, load in enumerate(workload.loads):
            assert sum(loads[index] for loads in splits) == load
