"""The unified experiment API: the library's single front door.

Everything the CLI, benchmarks, examples and analysis layers do funnels
through four pieces:

* **registries** (:data:`ARCHITECTURES`, :data:`MODELS`,
  :data:`SCENARIOS`, :data:`POLICIES`) — string-keyed extension points
  with the paper's Table I / Table IV / Fig. 4 entries pre-registered;
* :class:`ExperimentConfig` — a frozen, serialisable description of one
  experiment, with :meth:`~ExperimentConfig.sweep` to fan out grids;
* :class:`Engine` — executes configs with cross-run LUT memoization and
  optional process-pool batching (:meth:`~Engine.run_many`);
* :class:`ResultSet` — ordered batch results with filtering,
  aggregation and JSON/CSV export.

Quickstart::

    from repro.api import Engine, ExperimentConfig

    engine = Engine()
    configs = ExperimentConfig(slices=50).sweep(
        arch=["Baseline-PIM", "HH-PIM"],
        scenario=["case1", "case3", "case6"],
    )
    results = engine.run_many(configs)
    print(results.aggregate(by="arch"))
    results.to_csv("runs.csv")
"""

from .config import ExperimentConfig
from .engine import Engine, EngineStats, shared_engine
from .registry import (
    ARCHITECTURES,
    AUTOSCALERS,
    DISPATCH,
    MODELS,
    POLICIES,
    QOS,
    Registry,
    SCENARIOS,
    register_architecture,
    register_model,
    register_scenario,
)
from .results import (
    AggregateStats,
    FleetRecord,
    Record,
    ResultSet,
    RunRecord,
    StoredResultSet,
    record_kind,
)

__all__ = [
    "ARCHITECTURES",
    "AUTOSCALERS",
    "DISPATCH",
    "MODELS",
    "POLICIES",
    "QOS",
    "SCENARIOS",
    "Registry",
    "register_architecture",
    "register_model",
    "register_scenario",
    "ExperimentConfig",
    "Engine",
    "EngineStats",
    "shared_engine",
    "AggregateStats",
    "FleetRecord",
    "Record",
    "ResultSet",
    "RunRecord",
    "StoredResultSet",
    "record_kind",
]
