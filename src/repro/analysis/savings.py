"""Energy-savings grids: the machinery behind Fig. 5 and Table VI.

Runs the full comparison matrix — every Table I architecture, every
Table IV model, every Fig. 4 scenario over 50 time slices — and reports
HH-PIM's savings against each comparison architecture.  Execution goes
through the shared :class:`repro.api.Engine`, which memoizes allocation
LUTs per (architecture, model, resolution), so the whole grid computes
each knapsack table exactly once; computed grids and runs are
additionally cached here so the Fig. 5 and Table VI benchmarks share one
grid computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.config import ExperimentConfig
from ..api.engine import shared_engine
from ..api.registry import ARCHITECTURES, MODELS, ensure_registered
from ..arch.specs import TABLE_I, ArchitectureSpec, HH_PIM
from ..core.placement import DEFAULT_BLOCK_COUNT
from ..errors import ConfigurationError
from ..workloads.models import TABLE_IV, ModelSpec
from ..workloads.scenarios import ALL_CASES, ScenarioCase

#: Comparison architectures, in the paper's column order.
BASELINE_NAMES = ("Baseline-PIM", "Heterogeneous-PIM", "Hybrid-PIM")


@dataclass(frozen=True)
class SavingsCell:
    """HH-PIM's savings for one (model, scenario) against each baseline."""

    model: str
    case: ScenarioCase
    #: Baseline name -> fractional savings (0.6 == 60 %).
    savings: dict
    #: Architecture name -> total energy (nJ), including HH-PIM.
    energies: dict


@dataclass(frozen=True)
class SavingsGrid:
    """The full Fig. 5 grid: cells for every model and scenario."""

    cells: tuple
    slices: int

    def cell(self, model: str, case: ScenarioCase) -> SavingsCell:
        """Look one cell up."""
        for cell in self.cells:
            if cell.model == model and cell.case is case:
                return cell
        raise ConfigurationError(f"no cell for ({model}, {case})")

    def models(self):
        """Distinct model names, in Table IV order."""
        names = []
        for cell in self.cells:
            if cell.model not in names:
                names.append(cell.model)
        return names

    def cases(self):
        """Distinct scenario cases, in Fig. 4 order."""
        cases = []
        for cell in self.cells:
            if cell.case not in cases:
                cases.append(cell.case)
        return cases


_GRID_CACHE: dict = {}
_RUN_CACHE: dict = {}


def _config_for(
    spec: ArchitectureSpec,
    model: ModelSpec,
    case: ScenarioCase,
    slices: int,
    seed: int,
    block_count: int,
) -> ExperimentConfig:
    ensure_registered(ARCHITECTURES, spec.name, spec)
    ensure_registered(MODELS, model.name, model)
    return ExperimentConfig(
        arch=spec.name,
        model=model.name,
        scenario=f"case{case.value}",
        slices=slices,
        seed=seed,
        block_count=block_count,
    )


def compute_savings_grid(
    models=TABLE_IV,
    cases=ALL_CASES,
    slices: int = 50,
    seed: int = 2025,
    block_count: int = DEFAULT_BLOCK_COUNT,
    max_workers: int | None = None,
) -> SavingsGrid:
    """Compute (or fetch) the Fig. 5 savings grid.

    The whole matrix is submitted as one :meth:`Engine.run_many` batch;
    pass ``max_workers`` to spread it over a process pool.
    """
    key = (
        tuple(m.name for m in models), tuple(cases), slices, seed, block_count
    )
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]

    cache_keys = {}
    for model in models:
        for case in cases:
            for spec in TABLE_I:
                config = _config_for(
                    spec, model, case, slices, seed, block_count
                )
                cache_keys[(model.name, case, spec.name)] = (
                    spec, model, config
                )
    missing = [k for k in cache_keys.values() if k not in _RUN_CACHE]
    if missing:
        records = shared_engine().run_many(
            [config for _, _, config in missing], max_workers=max_workers
        )
        for cache_key, record in zip(missing, records):
            _RUN_CACHE[cache_key] = record.result

    cells = []
    for model in models:
        for case in cases:
            energies = {
                spec.name: _RUN_CACHE[
                    cache_keys[(model.name, case, spec.name)]
                ].total_energy_nj
                for spec in TABLE_I
            }
            hh = energies[HH_PIM.name]
            savings = {
                name: 1.0 - hh / energies[name] for name in BASELINE_NAMES
            }
            cells.append(
                SavingsCell(
                    model=model.name, case=case,
                    savings=savings, energies=energies,
                )
            )
    grid = SavingsGrid(cells=tuple(cells), slices=slices)
    _GRID_CACHE[key] = grid
    return grid


def average_savings(grid: SavingsGrid) -> dict:
    """Mean savings per baseline over all models and cases.

    The paper's headline: "up to 60.43 %, 36.3 %, and 48.58 % compared to
    Baseline-PIM, Hetero.-PIM, and H-PIM" on average.
    """
    sums = {name: 0.0 for name in BASELINE_NAMES}
    for cell in grid.cells:
        for name in BASELINE_NAMES:
            sums[name] += cell.savings[name]
    return {name: value / len(grid.cells) for name, value in sums.items()}


def table_vi(grid: SavingsGrid) -> dict:
    """Table VI: per-case savings for Cases 3-6, averaged over models."""
    wanted = (
        ScenarioCase.PERIODIC_SPIKE,
        ScenarioCase.PERIODIC_SPIKE_FREQUENT,
        ScenarioCase.PULSING,
        ScenarioCase.RANDOM,
    )
    rows = {}
    models = grid.models()
    for case in wanted:
        sums = {name: 0.0 for name in BASELINE_NAMES}
        for model in models:
            cell = grid.cell(model, case)
            for name in BASELINE_NAMES:
                sums[name] += cell.savings[name]
        rows[case] = {
            name: value / len(models) for name, value in sums.items()
        }
    return rows


def clear_caches() -> None:
    """Drop all memoised grids/runs and the shared engine's LUT cache.

    Also re-asserts the builtin Table I / Table IV registrations, undoing
    any latest-wins overwrite a spec-object helper performed under a
    builtin name, so subsequent key lookups reproduce the paper again.
    """
    _GRID_CACHE.clear()
    _RUN_CACHE.clear()
    shared_engine().clear()
    for spec in TABLE_I:
        ensure_registered(ARCHITECTURES, spec.name, spec)
    for model in TABLE_IV:
        ensure_registered(MODELS, model.name, model)
