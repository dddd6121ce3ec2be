"""Dispatch policies: how a fleet splits one arrival stream.

A :class:`DispatchPolicy` decides, slice by slice, how many of the
slice's arrivals each device receives.  Policies are stateful over one
run (:meth:`DispatchPolicy.start` resets them), deterministic, and obey
one contract: the returned assignment has one non-negative entry per
device and sums to the slice's arrivals — :func:`assign_shares` enforces
it for both :class:`repro.serving.fleet.Fleet` and the QoS simulator.

Built-ins (also registered in :data:`repro.api.registry.DISPATCH`):

* :class:`RoundRobin` — arrivals dealt one at a time around the fleet;
* :class:`LeastLoaded` — each arrival goes to the device with the
  smallest cumulative assignment (JSQ over the whole run);
* :class:`EnergyAware` — devices are ranked by their per-inference
  energy at the reference placement and filled cheapest-first up to
  their per-slice capacity; overflow spills to the next-cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ServingError
from ..plugins import coerce_spec

__all__ = [
    "DeviceInfo",
    "DispatchPolicy",
    "RoundRobin",
    "LeastLoaded",
    "EnergyAware",
    "BUILTIN_POLICIES",
    "make_policy",
    "assign_shares",
]


@dataclass(frozen=True)
class DeviceInfo:
    """What a dispatch policy may know about one device."""

    index: int
    architecture: str
    #: Inferences the device can complete within one time slice at its
    #: reference (peak) placement.
    capacity: int
    #: Per-inference dynamic energy at the reference placement (nJ) —
    #: the ranking signal of the energy-aware policy.
    energy_per_inference_nj: float


class DispatchPolicy:
    """Base class: split each slice's arrivals across the fleet."""

    #: Registry key / report label.
    name = "base"

    def start(self, devices: tuple) -> None:
        """Reset per-run state; ``devices`` are :class:`DeviceInfo`."""
        self._devices = devices

    def resize(self, devices: tuple) -> None:
        """Adopt a resized fleet mid-run (an autoscaler scale event).

        The default forgets per-run state (equivalent to a fresh
        :meth:`start`); stateful policies override it to carry their
        knowledge of the surviving devices across the resize.
        """
        self.start(devices)

    def assign(self, slice_index: int, arrivals: int) -> list:
        """Per-device arrival counts for one slice (sums to arrivals)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class RoundRobin(DispatchPolicy):
    """Deal arrivals one at a time around the fleet.

    The pointer survives across slices, so a single-arrival stream still
    spreads over every device instead of hammering device 0.
    """

    name = "round_robin"

    def start(self, devices: tuple) -> None:
        super().start(devices)
        self._next = 0

    def resize(self, devices: tuple) -> None:
        """Keep dealing from where the pointer was (wrapped if needed)."""
        self._devices = devices
        self._next %= len(devices)

    def assign(self, slice_index: int, arrivals: int) -> list:
        shares = [0] * len(self._devices)
        for _ in range(arrivals):
            shares[self._next] += 1
            self._next = (self._next + 1) % len(self._devices)
        return shares


class LeastLoaded(DispatchPolicy):
    """Join-the-shortest-queue on cumulative assigned inferences.

    Each arrival goes to the device with the fewest inferences assigned
    so far in the run (ties break on the lower device index), which
    keeps heterogeneous fleets balanced by realised load rather than by
    turn order.
    """

    name = "least_loaded"

    def start(self, devices: tuple) -> None:
        super().start(devices)
        self._assigned = [0] * len(devices)

    def resize(self, devices: tuple) -> None:
        """Carry the surviving devices' cumulative loads across a resize.

        Removed devices are the highest-indexed ones (the fleet's
        scale-down convention); newly added devices start at zero, so
        the next assignments flow to the fresh capacity first.
        """
        self._devices = devices
        counts = self._assigned[:len(devices)]
        self._assigned = counts + [0] * (len(devices) - len(counts))

    def assign(self, slice_index: int, arrivals: int) -> list:
        shares = [0] * len(self._devices)
        for _ in range(arrivals):
            target = min(
                range(len(self._devices)), key=lambda i: (self._assigned[i], i)
            )
            shares[target] += 1
            self._assigned[target] += 1
        return shares


class EnergyAware(DispatchPolicy):
    """Fill the cheapest devices first, up to their slice capacity.

    Devices are ordered by per-inference energy at their reference
    placement (ties: lower index).  Each slice is filled in that order;
    arrivals beyond the fleet's total capacity land on the cheapest
    device, where the deadline miss they cause is visible in its stats.
    """

    name = "energy_aware"

    def start(self, devices: tuple) -> None:
        super().start(devices)
        self._order = sorted(
            range(len(devices)),
            key=lambda i: (devices[i].energy_per_inference_nj, i),
        )

    def assign(self, slice_index: int, arrivals: int) -> list:
        shares = [0] * len(self._devices)
        remaining = arrivals
        for index in self._order:
            if remaining <= 0:
                break
            take = min(remaining, max(0, self._devices[index].capacity))
            shares[index] = take
            remaining -= take
        if remaining > 0:
            shares[self._order[0]] += remaining
        return shares


#: Built-in policies by their registry name.
BUILTIN_POLICIES = {
    RoundRobin.name: RoundRobin,
    LeastLoaded.name: LeastLoaded,
    EnergyAware.name: EnergyAware,
}


def make_policy(policy) -> DispatchPolicy:
    """Coerce a policy spec — name, class, factory or instance.

    Names resolve against the built-ins first, then against the api
    ``DISPATCH`` registry, so user-registered policies work by name in
    directly-constructed (e.g. heterogeneous) fleets too.
    """
    return coerce_spec(
        policy,
        base=DispatchPolicy,
        builtins=BUILTIN_POLICIES,
        registry_name="DISPATCH",
        kind="dispatch policy",
        error_cls=ServingError,
    )


def assign_shares(
    policy: DispatchPolicy, index: int, arrivals: int, devices: int, unit: str
) -> list:
    """``policy.assign(index, arrivals)``, checked against the contract.

    Raises :class:`~repro.errors.ServingError` naming ``unit`` (a fleet
    slice or a QoS window) unless the assignment holds one non-negative
    ``int`` per device and sums to ``arrivals``.
    """
    shares = list(policy.assign(index, arrivals))
    if len(shares) != devices:
        raise ServingError(
            f"dispatch policy {policy.name!r} returned "
            f"{len(shares)} shares for {devices} devices"
        )
    if any(
        not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in shares
    ):
        raise ServingError(
            f"dispatch policy {policy.name!r} produced an invalid share "
            f"in {unit} {index}: {shares}"
        )
    if sum(shares) != arrivals:
        raise ServingError(
            f"dispatch policy {policy.name!r} dropped or invented arrivals "
            f"in {unit} {index}: {sum(shares)} != {arrivals}"
        )
    return shares
