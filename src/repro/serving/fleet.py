"""The fleet runtime: N devices behind one arrival stream.

:class:`Fleet` scales the paper's single-device time-slice runtime out
to a multi-device serving deployment: one workload scenario arrives at
the fleet, a :class:`~repro.serving.dispatch.DispatchPolicy` splits each
slice's arrivals across the devices, and every device runs its share
through its own (vectorized) :class:`~repro.core.runtime.TimeSliceRuntime`.
The result is a :class:`FleetResult`: the per-device
:class:`~repro.core.runtime.RunResult`s plus aggregate energy, latency
and deadline statistics.

A 1-device fleet is *exactly* the single-device runtime: every arrival
lands on device 0, whose scenario is then load-for-load the input
scenario (the property suite asserts record-level equality).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.runtime import TimeSliceRuntime
from ..errors import ServingError
from ..workloads.scenarios import Scenario
from .dispatch import DeviceInfo, DispatchPolicy, assign_shares, make_policy

__all__ = ["Fleet", "FleetResult", "device_info"]


def device_info(index: int, runtime: TimeSliceRuntime) -> DeviceInfo:
    """Summarise one device for the dispatch layer.

    Capacity is how many peak-placement inferences fit in a slice;
    the energy signal is the reference placement's per-inference dynamic
    energy.  Both come straight off the runtime's LUT — no extra DP.
    """
    reference = runtime.reference_placement
    per_inference_ns = reference.task_time_ns + runtime.core_time_ns
    capacity = int(runtime.t_slice_ns // per_inference_ns) if per_inference_ns else 0
    return DeviceInfo(
        index=index,
        architecture=runtime.spec.name,
        capacity=max(1, capacity),
        energy_per_inference_nj=reference.dynamic_energy_nj,
    )


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one scenario served by a device fleet."""

    scenario: Scenario
    dispatch: str
    #: Per-device outcomes, in device order.
    device_results: tuple
    #: Per-device load splits (tuple of per-slice tuples), for audits.
    device_loads: tuple

    def __post_init__(self) -> None:
        if not self.device_results:
            raise ServingError("fleet result needs at least one device")

    def __len__(self) -> int:
        return len(self.device_results)

    # -- aggregates --------------------------------------------------------------

    @property
    def total_energy_nj(self) -> float:
        """Fleet energy over the whole run."""
        return sum(r.total_energy_nj for r in self.device_results)

    @property
    def total_inferences(self) -> int:
        """Inferences processed across the fleet."""
        return sum(r.total_inferences for r in self.device_results)

    @property
    def energy_per_inference_nj(self) -> float:
        """Mean fleet energy per processed inference."""
        inferences = self.total_inferences
        return self.total_energy_nj / inferences if inferences else 0.0

    @property
    def mean_power_mw(self) -> float:
        """Average fleet power: the devices run concurrently, so their
        mean powers add."""
        return sum(r.mean_power_mw for r in self.device_results)

    @property
    def deadlines_met(self) -> bool:
        """Whether every device met every slice deadline."""
        return all(r.deadlines_met for r in self.device_results)

    @property
    def deadline_rate(self) -> float:
        """Fraction of (device, slice) cells that met their deadline."""
        total = sum(len(r.records) for r in self.device_results)
        if not total:
            return 1.0
        met = sum(
            1
            for r in self.device_results
            for record in r.records
            if record.deadline_met
        )
        return met / total

    @property
    def device_utilization(self) -> tuple:
        """Per-device busy fraction of the run's wall time."""
        out = []
        for result in self.device_results:
            wall = result.t_slice_ns * len(result.records)
            busy = sum(record.busy_time_ns for record in result.records)
            out.append(busy / wall if wall else 0.0)
        return tuple(out)

    @property
    def load_imbalance(self) -> float:
        """Max/mean ratio of per-device inference shares (1.0 = even)."""
        shares = [r.total_inferences for r in self.device_results]
        mean = sum(shares) / len(shares)
        return max(shares) / mean if mean else 1.0

    # -- export ------------------------------------------------------------------

    def to_dict(self, include_records: bool = False) -> dict:
        """A plain-primitive summary for JSON export."""
        return {
            "scenario": self.scenario.to_dict(),
            "dispatch": self.dispatch,
            "devices": len(self.device_results),
            "total_energy_nj": self.total_energy_nj,
            "total_inferences": self.total_inferences,
            "energy_per_inference_nj": self.energy_per_inference_nj,
            "mean_power_mw": self.mean_power_mw,
            "deadlines_met": self.deadlines_met,
            "deadline_rate": self.deadline_rate,
            "load_imbalance": self.load_imbalance,
            "device_results": [
                result.to_dict(include_records=include_records)
                for result in self.device_results
            ],
        }


class Fleet:
    """N devices consuming one arrival stream through a dispatch policy.

    ``runtimes`` is one :class:`TimeSliceRuntime` per device — repeat an
    instance for a homogeneous fleet (runs are stateless, so sharing is
    safe and keeps the LUT singular), or mix architectures/models for a
    heterogeneous one.  ``dispatch`` is a policy name, instance or
    factory (see :mod:`repro.serving.dispatch`).
    """

    def __init__(self, runtimes, dispatch="round_robin") -> None:
        self.runtimes = tuple(runtimes)
        if not self.runtimes:
            raise ServingError("a fleet needs at least one device")
        for runtime in self.runtimes:
            if not isinstance(runtime, TimeSliceRuntime):
                raise ServingError(
                    f"fleet devices must be TimeSliceRuntime instances, "
                    f"got {type(runtime).__name__}"
                )
        self.policy: DispatchPolicy = make_policy(dispatch)
        self.devices = tuple(
            device_info(index, runtime)
            for index, runtime in enumerate(self.runtimes)
        )

    def __len__(self) -> int:
        return len(self.runtimes)

    def split(self, scenario: Scenario) -> tuple:
        """The per-device load split for a scenario (without running it).

        Returns one per-slice load tuple per device.  Enforces the
        dispatch contract (:func:`assign_shares`) per slice.
        """
        self.policy.start(self.devices)
        n_devices = len(self.runtimes)
        per_device = [[] for _ in range(n_devices)]
        for index, load in enumerate(scenario.loads):
            shares = assign_shares(self.policy, index, load, n_devices, "slice")
            for device, share in enumerate(shares):
                per_device[device].append(share)
        return tuple(tuple(loads) for loads in per_device)

    def run(self, scenario: Scenario) -> FleetResult:
        """Serve a scenario: split the stream, run every device."""
        device_loads = self.split(scenario)
        results = []
        for index, (runtime, loads) in enumerate(
            zip(self.runtimes, device_loads)
        ):
            share = replace(
                scenario,
                loads=loads,
                name=f"{scenario.label}@device{index}",
            )
            results.append(runtime.run(share))
        return FleetResult(
            scenario=scenario,
            dispatch=self.policy.name,
            device_results=tuple(results),
            device_loads=device_loads,
        )
