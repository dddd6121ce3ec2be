"""A PIM cluster: n homogeneous modules dispatched in parallel.

The HP and LP clusters each contain four modules in the paper's prototype
(Table I).  Within a cluster, modules compute independently in parallel;
the cluster's completion time for a batch of work is the maximum over its
modules.  Weight blocks assigned to a cluster are striped round-robin over
the modules, which is how the controller's Data Allocator balances load.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..isa.encoding import ClusterId
from ..memory.hybrid import BankKind
from .module import ModuleKind, PIMModule


class PIMCluster:
    """A set of identical PIM modules plus dispatch helpers."""

    def __init__(
        self,
        cluster_id: ClusterId,
        kind: ModuleKind,
        module_count: int = 4,
        mram_capacity: int = 64 * 1024,
        sram_capacity: int = 64 * 1024,
    ) -> None:
        if module_count <= 0:
            raise ConfigurationError(
                f"cluster needs at least one module, got {module_count}"
            )
        self.cluster_id = cluster_id
        self.kind = kind
        self.modules = [
            PIMModule(
                name=f"{kind.value}{i}",
                kind=kind,
                mram_capacity=mram_capacity,
                sram_capacity=sram_capacity,
            )
            for i in range(module_count)
        ]

    def __len__(self) -> int:
        return len(self.modules)

    def module(self, index: int) -> PIMModule:
        """Return module ``index``; raises on out-of-range."""
        if not 0 <= index < len(self.modules):
            raise ConfigurationError(
                f"cluster {self.kind.value}: module index {index} outside "
                f"[0, {len(self.modules)})"
            )
        return self.modules[index]

    # -- characteristics -------------------------------------------------------

    def mac_time_ns(self, weight_bank: BankKind) -> float:
        """Per-MAC period of one module with weights in ``weight_bank``."""
        return self.modules[0].mac_time_ns(weight_bank)

    def mac_dynamic_energy_nj(self, weight_bank: BankKind) -> float:
        """Per-MAC dynamic energy with weights in ``weight_bank``."""
        return self.modules[0].mac_dynamic_energy_nj(weight_bank)

    def bank_capacity(self, bank: BankKind) -> int:
        """Total bytes of ``bank`` across the cluster's modules."""
        return sum(
            m.memory.bank(bank).capacity_bytes
            for m in self.modules
            if bank in m.memory.banks
        )

    # -- parallel dispatch -----------------------------------------------------------

    def split_macs(self, count: int):
        """Stripe ``count`` MACs over the modules as evenly as possible."""
        if count < 0:
            raise ConfigurationError("MAC count must be non-negative")
        n = len(self.modules)
        base, extra = divmod(count, n)
        return [base + (1 if i < extra else 0) for i in range(n)]

    def run_macs(self, count: int, weight_bank: BankKind) -> float:
        """Run ``count`` MACs striped over the modules; returns elapsed ns.

        Modules execute in parallel, so the elapsed time is the maximum of
        the per-module times (the module with the largest share).
        """
        elapsed = 0.0
        for module, share in zip(self.modules, self.split_macs(count)):
            elapsed = max(elapsed, module.run_macs(share, weight_bank))
        return elapsed

    def run_mixed_macs(self, mram_macs: int, sram_macs: int) -> float:
        """Run a mixed MRAM/SRAM weight workload; returns elapsed ns.

        Within one module, MRAM-weight and SRAM-weight phases serialise
        (the paper: parallelism holds across clusters, not across the two
        banks of one module), so each module's time is the sum of its two
        phases; the cluster completes at the slowest module.
        """
        mram_split = self.split_macs(mram_macs)
        sram_split = self.split_macs(sram_macs)
        elapsed = 0.0
        for module, m_share, s_share in zip(self.modules, mram_split, sram_split):
            module_time = module.run_macs(m_share, BankKind.MRAM)
            module_time += module.run_macs(s_share, BankKind.SRAM)
            elapsed = max(elapsed, module_time)
        return elapsed

    # -- power management --------------------------------------------------------------

    def gate_all(self, target: str) -> None:
        """Power-gate ``target`` on every module."""
        for module in self.modules:
            module.gate(target)

    def account_idle(self, duration_ns: float) -> None:
        """Charge idle time on every module."""
        for module in self.modules:
            module.account_idle(duration_ns)

    # -- reporting ---------------------------------------------------------------------

    def total_energy_nj(self) -> float:
        """Total (dynamic + static) energy of the cluster so far."""
        return sum(m.energy().total_nj for m in self.modules)

    def reset_stats(self) -> None:
        """Zero statistics on every module."""
        for module in self.modules:
            module.reset_stats()
