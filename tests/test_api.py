"""Tests for the unified experiment API (registries, config, engine,
result sets) — including the bit-for-bit equivalence of engine runs with
hand-constructed ``TimeSliceRuntime`` pipelines and the exactly-once LUT
memoization over a full grid."""

import json

import pytest

from repro.api import (
    ARCHITECTURES,
    Engine,
    ExperimentConfig,
    MODELS,
    POLICIES,
    Registry,
    ResultSet,
    RunRecord,
    SCENARIOS,
)
from repro.arch import HH_PIM
from repro.core import DataPlacementOptimizer, TimeSliceRuntime
from repro.core.runtime import default_time_slice_ns
from repro.errors import ConfigurationError, RegistryError
from repro.workloads import ScenarioCase, scenario
from repro.workloads.scenarios import Scenario

#: Very small resolution so grid tests stay fast.
TINY = dict(block_count=16, time_steps=1500)


# -- registries ---------------------------------------------------------------------


class TestRegistry:
    def test_round_trip(self):
        reg = Registry("thing")
        reg.register("Alpha", 1)
        assert reg.get("Alpha") == 1
        assert reg.get("alpha") == 1  # case-insensitive
        assert reg.canonical("ALPHA") == "Alpha"
        assert "alpha" in reg and "beta" not in reg
        assert reg.keys() == ["Alpha"]

    def test_duplicate_key_rejected(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(RegistryError):
            reg.register("a", 2)
        reg.register("a", 1)  # equal value: idempotent no-op
        reg.register("a", 2, overwrite=True)
        assert reg.get("a") == 2

    def test_unknown_key_lists_available(self):
        reg = Registry("thing")
        reg.register("only", 1)
        with pytest.raises(RegistryError, match="only"):
            reg.get("nope")

    def test_decorator_form(self):
        reg = Registry("factory")

        @reg.register("f")
        def factory():
            return 42

        assert reg.get("f") is factory

    def test_empty_key_rejected(self):
        reg = Registry("thing")
        with pytest.raises(RegistryError):
            reg.register("  ", 1)

    def test_builtins_present(self):
        assert ARCHITECTURES.get("HH-PIM") is HH_PIM
        assert len(MODELS) >= 3
        assert "case1" in SCENARIOS and "low_constant" in SCENARIOS
        assert POLICIES.get("dynamic_lut").value == "dynamic_lut"

    def test_architecture_validator(self):
        with pytest.raises(RegistryError):
            ARCHITECTURES.register("bogus", object())

    def test_unregister(self):
        reg = Registry("thing")
        reg.register("x", 1)
        reg.unregister("x")
        assert "x" not in reg
        with pytest.raises(RegistryError):
            reg.unregister("x")

    def test_alias_tracks_overwrites(self):
        reg = Registry("thing")
        reg.register("Canon", 1)
        reg.alias("nickname", "canon")
        assert reg.get("nickname") == 1
        assert reg.canonical("nickname") == "Canon"
        reg.register("Canon", 2, overwrite=True)
        assert reg.get("nickname") == 2  # alias follows the overwrite
        assert "nickname" in reg
        assert reg.keys() == ["Canon"]  # aliases not listed

    def test_alias_of_unknown_key_rejected(self):
        reg = Registry("thing")
        with pytest.raises(RegistryError):
            reg.alias("nick", "ghost")

    def test_unregister_canonical_drops_dangling_aliases(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.alias("b", "a")
        reg.unregister("a")
        assert "b" not in reg


# -- ExperimentConfig ---------------------------------------------------------------


class TestExperimentConfig:
    def test_defaults_validate(self):
        config = ExperimentConfig()
        assert config.validate() is config

    def test_dict_round_trip(self):
        config = ExperimentConfig(arch="Hybrid-PIM", scenario="case5",
                                  slices=7, t_slice_ns=1e8, **TINY)
        data = config.to_dict()
        assert data["arch"] == "Hybrid-PIM"
        assert ExperimentConfig.from_dict(data) == config
        assert json.loads(json.dumps(data)) == data  # JSON-safe

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="frobnicate"):
            ExperimentConfig.from_dict({"frobnicate": 1})

    @pytest.mark.parametrize("bad", [
        dict(slices=0),
        dict(peak=2, low=5),
        dict(low=0),
        dict(t_slice_ns=-1.0),
        dict(block_count=0),
        dict(time_steps=0),
        dict(granule_bytes=0),
        dict(peak_inferences=0),
        dict(arch=""),
        dict(model=None),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**bad)

    def test_validate_flags_unknown_keys(self):
        with pytest.raises(RegistryError):
            ExperimentConfig(arch="NoSuchFabric").validate()

    def test_sweep_order_and_shape(self):
        base = ExperimentConfig(**TINY)
        configs = base.sweep(arch=["HH-PIM", "Hybrid-PIM"],
                             scenario=["case1", "case2"])
        assert [c.label for c in configs] == [
            "HH-PIM/EfficientNet-B0/case1",
            "HH-PIM/EfficientNet-B0/case2",
            "Hybrid-PIM/EfficientNet-B0/case1",
            "Hybrid-PIM/EfficientNet-B0/case2",
        ]
        # scalar axes are singleton grids; no axes = the template itself
        assert base.sweep(scenario="case4")[0].scenario == "case4"
        assert base.sweep() == (base,)

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig().sweep(banana=[1, 2])

    def test_sweep_rejects_empty_axis(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig().sweep(arch=[])

    def test_config_hashable(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        assert hash(a) == hash(b) and a == b


# -- Engine -------------------------------------------------------------------------


class TestEngine:
    def test_run_matches_hand_built_runtime(self):
        engine = Engine()
        config = ExperimentConfig(scenario="case3", slices=5, **TINY)
        via_engine = engine.run(config)

        t_slice = default_time_slice_ns(
            MODELS.get(config.model), **dict(zip(
                ("block_count", "time_steps"),
                (config.block_count, config.time_steps),
            ))
        )
        runtime = TimeSliceRuntime(
            HH_PIM, MODELS.get(config.model), t_slice_ns=t_slice,
            block_count=config.block_count, time_steps=config.time_steps,
        )
        by_hand = runtime.run(scenario(ScenarioCase.PERIODIC_SPIKE, slices=5))
        assert via_engine.total_energy_nj == by_hand.total_energy_nj
        assert via_engine.records == by_hand.records

    def test_lut_memoized_across_scenarios(self):
        engine = Engine()
        base = ExperimentConfig(slices=3, **TINY)
        for key in ("case1", "case2", "case5"):
            engine.run(base.replace(scenario=key))
        assert engine.stats.lut_builds == 1
        assert engine.stats.lut_hits == 2
        assert engine.stats.runs == 3
        assert engine.cached_runtimes == 1

    def test_second_run_many_performs_zero_dp_builds(self, tmp_path,
                                                     monkeypatch):
        """Regression: the persistent cache spans engines and processes.

        A second ``run_many`` over the same grid — even from a fresh
        engine, which models a fresh process — must be served entirely
        by the on-disk LUT cache: zero DP table constructions, including
        the time-slice sizing bootstrap.
        """
        monkeypatch.setenv("REPRO_LUT_CACHE", str(tmp_path / "cache"))
        grid = ExperimentConfig(slices=3, **TINY).sweep(
            arch=["HH-PIM", "Hybrid-PIM"], scenario=["case1", "case2"],
        )
        cold = Engine()
        first = cold.run_many(grid)
        assert cold.stats.dp_builds > 0

        warm = Engine()
        second = warm.run_many(grid)
        assert warm.stats.dp_builds == 0
        assert warm.stats.lut_disk_hits == 3  # 2 runtimes + 1 t_slice
        for a, b in zip(first, second):
            assert a.result.total_energy_nj == b.result.total_energy_nj
            assert a.result.records == b.result.records

    def test_pooled_workers_consult_disk_cache(self, tmp_path, monkeypatch):
        """Pool workers must load cached LUTs instead of rebuilding."""
        monkeypatch.setenv("REPRO_LUT_CACHE", str(tmp_path / "cache"))
        grid = ExperimentConfig(slices=3, **TINY).sweep(
            arch=["HH-PIM", "Hybrid-PIM"], scenario=["case1", "case2"],
        )
        serial = Engine().run_many(grid)
        pooled_engine = Engine()
        pooled = pooled_engine.run_many(grid, max_workers=2)
        # The workers' DP-build deltas travel back with their results.
        assert pooled_engine.stats.dp_builds == 0
        for a, b in zip(serial, pooled):
            assert a.result.total_energy_nj == b.result.total_energy_nj

    def test_scenario_override(self):
        engine = Engine()
        trace = Scenario(case=ScenarioCase.RANDOM, loads=(1, 5, 2), peak=10)
        result = engine.run(ExperimentConfig(slices=3, **TINY), scenario=trace)
        assert result.scenario is trace

    def test_scenario_instance_registration(self):
        trace = Scenario(case=ScenarioCase.RANDOM, loads=(2, 2), peak=10)
        SCENARIOS.register("test-fixed-trace", trace, overwrite=True)
        try:
            engine = Engine()
            config = ExperimentConfig(scenario="test-fixed-trace", **TINY)
            assert engine.scenario(config) is trace
        finally:
            SCENARIOS.unregister("test-fixed-trace")

    def test_clear_resets_caches_and_stats(self):
        engine = Engine()
        engine.run(ExperimentConfig(slices=2, **TINY))
        engine.clear()
        assert engine.cached_runtimes == 0
        assert engine.stats.lut_builds == 0

    def test_run_many_empty(self):
        assert len(Engine().run_many([])) == 0

    def test_run_many_matches_sequential_and_pool(self):
        base = ExperimentConfig(slices=3, **TINY)
        configs = base.sweep(arch=["Baseline-PIM", "HH-PIM"],
                             scenario=["case1", "case5"])

        serial_engine = Engine()
        sequential = [serial_engine.run(c) for c in configs]

        batch = Engine().run_many(configs)
        pooled = Engine().run_many(configs, max_workers=2)

        for one, two, three in zip(sequential, batch, pooled):
            assert one.total_energy_nj == two.total_energy_nj
            assert one.total_energy_nj == three.total_energy_nj
            assert one.records == two.result.records == three.result.records
        # input order preserved
        assert [r.config for r in batch] == list(configs)
        assert [r.config for r in pooled] == list(configs)

    def test_pool_reuses_parent_cache(self):
        base = ExperimentConfig(slices=2, **TINY)
        engine = Engine()
        engine.run(base.replace(scenario="case1"))
        results = engine.run_many(
            base.sweep(scenario=["case1", "case2"]), max_workers=2
        )
        assert results[0].lut_cached  # served from the warm runtime
        assert engine.stats.lut_builds == 1  # HH-PIM runtime built once

    def test_pool_populates_parent_cache(self):
        """Worker-built runtimes ship back: a second batch rebuilds nothing."""
        base = ExperimentConfig(slices=2, **TINY)
        configs = base.sweep(arch=["Baseline-PIM", "HH-PIM"])
        engine = Engine()
        engine.run_many(configs, max_workers=2)
        assert engine.stats.lut_builds == 2
        assert engine.cached_runtimes == 2
        engine.run_many(configs, max_workers=2)
        assert engine.stats.lut_builds == 2  # nothing rebuilt
        # serial path reuses them too
        engine.run(configs[0])
        assert engine.stats.lut_builds == 2

    def test_pool_lut_cached_flags_match_serial(self):
        configs = ExperimentConfig(slices=2, **TINY).sweep(
            scenario=["case1", "case2", "case5"]
        )
        serial = Engine().run_many(configs)
        pooled = Engine().run_many(configs, max_workers=2)
        assert [r.lut_cached for r in serial] == [False, True, True]
        assert [r.lut_cached for r in pooled] == [False, True, True]


class TestGridAcceptance:
    """The ISSUE's acceptance grid: 3 archs x 3 models x 6 scenarios."""

    ARCHS = ("Baseline-PIM", "Hybrid-PIM", "HH-PIM")
    MODEL_NAMES = ("EfficientNet-B0", "MobileNetV2", "ResNet-18")
    CASES = tuple(f"case{i}" for i in range(1, 7))

    @pytest.fixture(scope="class")
    def grid_run(self):
        # Disk cache off: this fixture counts *actual* optimizer builds,
        # which a cache warmed by earlier tests would legitimately elide.
        engine = Engine(use_disk_cache=False)
        build_calls = []
        original = DataPlacementOptimizer.build_lut

        def counting(self, restrict_to=None):
            build_calls.append((self.spec.name, self.model.name))
            return original(self, restrict_to=restrict_to)

        DataPlacementOptimizer.build_lut = counting
        try:
            configs = ExperimentConfig(slices=4, **TINY).sweep(
                arch=self.ARCHS, model=self.MODEL_NAMES, scenario=self.CASES,
            )
            results = engine.run_many(configs)
        finally:
            DataPlacementOptimizer.build_lut = original
        return engine, configs, results, build_calls

    def test_shape_and_order(self, grid_run):
        _, configs, results, _ = grid_run
        assert len(results) == 54
        assert [r.config for r in results] == list(configs)

    def test_each_runtime_built_exactly_once(self, grid_run):
        engine, _, _, build_calls = grid_run
        assert engine.stats.lut_builds == 9      # 3 archs x 3 models
        assert engine.stats.lut_hits == 45       # the other 45 runs reuse
        assert engine.cached_runtimes == 9
        # Optimizer-level LUT constructions: one per (arch, model) pair
        # plus one bootstrap per model for the paper's time-slice sizing
        # (the bootstrap always runs on HH-PIM, so HH pairs count 2).
        from collections import Counter
        counts = Counter(build_calls)
        for arch in self.ARCHS:
            for model in self.MODEL_NAMES:
                expected = 2 if arch == "HH-PIM" else 1
                assert counts[(arch, model)] == expected, (arch, model)
        assert sum(counts.values()) == 9 + len(self.MODEL_NAMES)

    def test_energies_match_hand_built_runtimes_bit_for_bit(self, grid_run):
        _, configs, results, _ = grid_run
        runtimes = {}
        for record in results:
            config = record.config
            key = (config.arch, config.model)
            if key not in runtimes:
                model = MODELS.get(config.model)
                t_slice = default_time_slice_ns(
                    model, block_count=config.block_count,
                    time_steps=config.time_steps,
                )
                runtimes[key] = TimeSliceRuntime(
                    ARCHITECTURES.get(config.arch), model,
                    t_slice_ns=t_slice,
                    block_count=config.block_count,
                    time_steps=config.time_steps,
                )
            case = ScenarioCase(int(config.scenario.removeprefix("case")))
            by_hand = runtimes[key].run(
                scenario(case, slices=config.slices, seed=config.seed)
            )
            assert record.total_energy_nj == by_hand.total_energy_nj
            assert record.result.records == by_hand.records


# -- ResultSet ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_results():
    engine = Engine()
    configs = ExperimentConfig(slices=3, **TINY).sweep(
        arch=["Baseline-PIM", "HH-PIM"], scenario=["case1", "case2"],
    )
    return engine.run_many(configs)


class TestResultSet:
    def test_sequence_protocol(self, small_results):
        assert len(small_results) == 4
        assert isinstance(small_results[0], RunRecord)
        assert isinstance(small_results[1:3], ResultSet)
        combined = small_results + small_results
        assert len(combined) == 8

    def test_filter_by_axis(self, small_results):
        hh = small_results.filter(arch="HH-PIM")
        assert len(hh) == 2 and all(r.arch == "HH-PIM" for r in hh)
        both = small_results.filter(arch=["HH-PIM", "Baseline-PIM"],
                                    scenario="case1")
        assert len(both) == 2
        assert len(small_results.filter(
            predicate=lambda r: r.deadlines_met
        )) == 4

    def test_filter_unknown_axis(self, small_results):
        with pytest.raises(ConfigurationError):
            small_results.filter(banana="x")

    def test_aggregate_by_arch(self, small_results):
        stats = small_results.aggregate(by="arch")
        assert set(stats) == {"Baseline-PIM", "HH-PIM"}
        for entry in stats.values():
            assert entry.runs == 2
            assert entry.min_energy_nj <= entry.mean_energy_nj
            assert entry.mean_energy_nj <= entry.max_energy_nj
            assert entry.total_inferences > 0
            assert 0.0 <= entry.deadline_rate <= 1.0
            assert entry.mean_slice_busy_ns > 0

    def test_aggregate_unknown_axis(self, small_results):
        with pytest.raises(ConfigurationError):
            small_results.aggregate(by="banana")

    def test_best(self, small_results):
        best = small_results.best("total_energy_nj")
        assert best.total_energy_nj == min(
            r.total_energy_nj for r in small_results
        )

    def test_savings_vs(self, small_results):
        savings = small_results.savings_vs("HH-PIM")
        assert set(savings) == {"Baseline-PIM"}
        assert 0.0 < savings["Baseline-PIM"] < 1.0

    def test_savings_vs_missing_reference(self, small_results):
        with pytest.raises(ConfigurationError):
            small_results.filter(arch="Baseline-PIM").savings_vs("HH-PIM")

    def test_json_export(self, small_results, tmp_path):
        path = tmp_path / "runs.json"
        text = small_results.to_json(path)
        rows = json.loads(text)
        assert len(rows) == 4
        assert rows[0]["arch"] == "Baseline-PIM"
        assert json.loads(path.read_text()) == rows

    def test_csv_export(self, small_results, tmp_path):
        path = tmp_path / "runs.csv"
        text = small_results.to_csv(path)
        lines = text.strip().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert lines[0].startswith("arch,model,scenario,policy")
        assert path.read_text() == text

    def test_empty_exports(self):
        empty = ResultSet(())
        assert json.loads(empty.to_json()) == []
        assert empty.to_csv() == ""
        assert empty.deadlines_met  # vacuous truth
        with pytest.raises(ConfigurationError):
            empty.best()

    def test_rejects_non_records(self):
        with pytest.raises(ConfigurationError):
            ResultSet([object()])


class TestRowGolden:
    """Literal ``to_row()`` values of one TINY record of each kind.

    Both kinds share one metric implementation; these values pin its
    results (summation order included) to the ones the separate
    per-kind implementations produced.
    """

    COMMON = {
        "arch": "HH-PIM",
        "model": "EfficientNet-B0",
        "scenario": "case6",
        "policy": "dynamic_lut",
        "slices": 8,
        "seed": 2025,
        "block_count": 16,
        "time_steps": 1500,
        "t_slice_ns": 339058474.0962891,
        "deadlines_met": True,
        "missed_slices": 0,
        "total_inferences": 53,
    }

    def test_run_record_row(self):
        record = Engine(use_disk_cache=False).run_record(
            ExperimentConfig(scenario="case6", slices=8, **TINY)
        )
        assert record.kind == "run"
        assert record.to_row() == {
            **self.COMMON,
            "devices": 1,
            "dispatch": "round_robin",
            "total_energy_nj": 181641836.61845875,
            "energy_per_inference_nj": 3427204.4644992216,
            "mean_power_mw": 66.96552751800355,
            "mean_slice_busy_ns": 291192622.84861463,
            "worst_slice_busy_ns": 332031891.19491565,
            "blocks_moved": 114,
        }
        # The CSV header follows the row's key order.
        assert ResultSet([record]).to_csv().splitlines()[0] == (
            "arch,model,scenario,policy,devices,dispatch,slices,seed,"
            "block_count,time_steps,t_slice_ns,total_energy_nj,"
            "energy_per_inference_nj,mean_power_mw,deadlines_met,"
            "missed_slices,total_inferences,mean_slice_busy_ns,"
            "worst_slice_busy_ns,blocks_moved"
        )

    def test_fleet_record_row(self):
        record = Engine(use_disk_cache=False).run_fleet_record(
            ExperimentConfig(
                scenario="case6", slices=8, fleet=2,
                dispatch="least_loaded", **TINY,
            )
        )
        assert record.kind == "fleet"
        assert record.to_row() == {
            **self.COMMON,
            "devices": 2,
            "dispatch": "least_loaded",
            "total_energy_nj": 166174669.77464563,
            "energy_per_inference_nj": 3135371.1278235023,
            "mean_power_mw": 61.26327848668285,
            "mean_slice_busy_ns": 237479247.26424024,
            "worst_slice_busy_ns": 324837496.03239375,
            "blocks_moved": 30,
        }
