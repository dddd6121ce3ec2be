"""HH-PIM: heterogeneous-hybrid processing-in-memory for edge AI.

A full reproduction of *"HH-PIM: Dynamic Optimization of Power and
Performance with Heterogeneous-Hybrid PIM for Edge AI Devices"*
(DAC 2025): the HH-PIM architecture model (clusters, modules, hybrid
MRAM/SRAM memories, dual controllers, PIM ISA), the dynamic
weight-placement optimizer (knapsack DP + allocation LUT), the
time-slice runtime, every substrate the evaluation needs (NVSim-style
memory estimation, RV32IM core, AXI/µNoC interconnect, FPGA resource
model), and the analysis layer that regenerates the paper's tables and
figures.

The front door is :mod:`repro.api`: string-keyed registries of
architectures, models, scenarios and placement policies; a frozen,
serialisable :class:`~repro.api.ExperimentConfig`; an
:class:`~repro.api.Engine` that memoizes allocation LUTs across runs and
batches grids over a process pool; and a :class:`~repro.api.ResultSet`
with filtering, aggregation and JSON/CSV export.

Quickstart
----------
>>> from repro.api import Engine, ExperimentConfig
>>> engine = Engine()
>>> result = engine.run(ExperimentConfig(scenario="case3"))
>>> result.deadlines_met
True
>>> results = engine.run_many(
...     ExperimentConfig(slices=20).sweep(arch=["Baseline-PIM", "HH-PIM"])
... )
>>> results.savings_vs("HH-PIM")  # doctest: +SKIP
{'Baseline-PIM': 0.62}

The lower-level constructors (:class:`TimeSliceRuntime`,
:class:`DataPlacementOptimizer`, :func:`scenario`, ...) remain public
and unchanged for callers that want to wire the pipeline by hand.
"""

from .arch.specs import (
    ArchitectureSpec,
    BASELINE_PIM,
    ClusterSpec,
    HETEROGENEOUS_PIM,
    HH_PIM,
    HYBRID_PIM,
    TABLE_I,
)
from .arch.processor import PimFabric, Processor
from .core.lut import AllocationLUT, Placement
from .core.placement import DataPlacementOptimizer, PlacementPolicy
from .core.runtime import (
    RunResult,
    SliceRecord,
    TimeSliceRuntime,
    default_time_slice_ns,
)
from .core.spaces import SpaceKind, StorageSpace
from .errors import ReproError
from .qos import Autoscaler, QoSResult, QoSSimulator, QueueDiscipline
from .serving import DispatchPolicy, Fleet, FleetResult
from .workloads.arrivals import ArrivalProcess
from .workloads.models import (
    EFFICIENTNET_B0,
    MOBILENET_V2,
    ModelSpec,
    RESNET_18,
    TABLE_IV,
    model_by_name,
)
from .workloads.scenarios import Scenario, ScenarioCase, scenario
from .api import (
    ARCHITECTURES,
    DISPATCH,
    Engine,
    ExperimentConfig,
    MODELS,
    POLICIES,
    ResultSet,
    RunRecord,
    SCENARIOS,
    register_architecture,
    register_model,
    register_scenario,
)
from .store import Store

__version__ = "1.2.0"

__all__ = [
    "ArchitectureSpec",
    "ClusterSpec",
    "BASELINE_PIM",
    "HETEROGENEOUS_PIM",
    "HYBRID_PIM",
    "HH_PIM",
    "TABLE_I",
    "PimFabric",
    "Processor",
    "AllocationLUT",
    "Placement",
    "DataPlacementOptimizer",
    "PlacementPolicy",
    "RunResult",
    "SliceRecord",
    "TimeSliceRuntime",
    "default_time_slice_ns",
    "SpaceKind",
    "StorageSpace",
    "ReproError",
    "ArrivalProcess",
    "DispatchPolicy",
    "Fleet",
    "FleetResult",
    "Autoscaler",
    "QoSResult",
    "QoSSimulator",
    "QueueDiscipline",
    "EFFICIENTNET_B0",
    "MOBILENET_V2",
    "RESNET_18",
    "ModelSpec",
    "TABLE_IV",
    "model_by_name",
    "Scenario",
    "ScenarioCase",
    "scenario",
    "ARCHITECTURES",
    "MODELS",
    "SCENARIOS",
    "POLICIES",
    "DISPATCH",
    "Engine",
    "ExperimentConfig",
    "ResultSet",
    "RunRecord",
    "Store",
    "register_architecture",
    "register_model",
    "register_scenario",
    "__version__",
]
