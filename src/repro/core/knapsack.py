"""Algorithm 1: per-cluster bottom-up dynamic programming.

Solves the paper's hybrid unbounded / multiple-choice knapsack for one
cluster: place exactly ``k`` weight blocks into the cluster's storage
spaces so that the summed computation time stays within the budget ``t``
while energy is minimal.  The recurrence (Eq. 2 of the paper)::

    dp[i][t][k] = dp[i-1][t][k]                            if t_i * 1 > t
    dp[i][t][k] = min(dp[i-1][t][k],
                      dp[i][t - t_i][k - 1] + e_i)         otherwise

``count[i][t][k]`` traces the number of blocks taken from space ``i`` on
the optimal path (the paper's path-tracing variable); it also lets us
enforce per-space capacity limits, which the hardware imposes even though
the paper's formulation leaves them implicit.

Reconstruction only ever reads the final energies ``dp[n]`` and the
per-space ``count[i]`` traces, so the ``dp`` recurrence runs on a single
``(K+1, T+1)`` energy plane updated in place (``dp[i-1]`` is only copied
aside for capacity-bounded spaces), and ``count`` is stored in the
smallest unsigned integer type that holds ``K``.

The time axis saturates.  A placement of ``k`` blocks never needs more
than ``k * max(t_i)`` steps, so by induction over spaces and ``k`` every
``dp[i][t][k]`` and ``count[i][t][k]`` with ``t >= k * max(t_i)`` reads
the same inputs, makes the same strict-``<`` choices and holds the same
value as at ``t = k * max(t_i)`` — bit for bit, bounded spaces included
(``j * t_i <= j * max(t_i)``).  The production path therefore stores
only the budgets up to ``t_saturated = min(T, K * max(t_i))`` (720-3000
of 5420-24000 budgets on the paper's Fig. 5 grid); readers clamp a
budget to ``t_saturated``, and the dense ``(T+1)``-wide
``energy``/``count`` views are built on demand for callers that want
the whole axis.

Time is discretised to ``time_step_ns``; each space's per-block time is
rounded to the *nearest* step, minimum one (:func:`_step_count`), which
keeps the accumulated error of a many-block placement near zero.  The
discretisation is therefore not conservative: a placement the DP
declares feasible can overrun its continuous-time budget by up to half
a step per block.  The runtime's deadline checks
(``TimeSliceRuntime._account_slice``) allow one step of slack per task
to absorb that error.

Two implementations share this module: the *scalar* reference — a
paper-faithful per-element translation of the recurrence — and the
*vectorized* production path, which runs the same update order through
whole-array NumPy operations and produces bit-identical tables.  The
scalar path is selected by the one reference switch
(``REPRO_REFERENCE=1`` or :func:`repro.reference.reference`) and exists
as the oracle the differential tests check the fast path against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError, PlacementError
from ..obs.tracing import span as _span
from ..reference import use_reference

#: Process-wide count of DP table constructions, for cache verification
#: (a warm persistent-cache run must leave this untouched).
_DP_BUILDS = 0


def dp_build_count() -> int:
    """How many DP tables this process has actually computed."""
    return _DP_BUILDS


@dataclass(frozen=True)
class ClusterDpResult:
    """The DP result of one cluster.

    ``energy[t, k]`` is the minimum energy (nJ) of storing exactly ``k``
    blocks in all of the cluster's spaces within time budget ``t`` steps
    (the recurrence's final ``dp[n]``); ``count[i, t, k]`` is how many of
    those blocks the optimal path over the first ``i`` spaces put in
    space ``i``.

    Only budgets ``0 .. t_saturated`` are stored, in ``energy_kt[k, t]``
    and ``count_ikt[i, k, t]`` (each budget row contiguous); every later
    budget equals ``t_saturated`` (see the module docstring).  ``energy``
    and ``count`` present the dense ``0 .. t_steps`` axis, padded with
    the saturated column on first access — reference material for tests
    and external readers, never touched by the production path.
    """

    spaces: tuple
    energy_kt: np.ndarray
    count_ikt: np.ndarray
    time_step_ns: float
    step_counts: tuple
    #: Largest representable time budget, in steps (the configured axis).
    t_steps: int

    @property
    def t_saturated(self) -> int:
        """Largest stored budget; later budgets repeat its column."""
        return self.energy_kt.shape[1] - 1

    @property
    def max_blocks(self) -> int:
        """``K``: the block-count dimension of the table."""
        return self.energy_kt.shape[0] - 1

    @cached_property
    def energy(self) -> np.ndarray:
        """The dense ``(t_steps + 1, K + 1)`` energy table."""
        return _pad_time(self.energy_kt, self.t_steps).T

    @cached_property
    def count(self) -> np.ndarray:
        """The dense ``(n + 1, t_steps + 1, K + 1)`` count traces."""
        return _pad_time(self.count_ikt, self.t_steps).transpose(0, 2, 1)

    def energy_row(self, t_step: int) -> np.ndarray:
        """``dp[n][t][:]`` — energies over all block counts at budget ``t``."""
        return self.energy_kt[:, min(t_step, self.t_saturated)]


def _pad_time(stored: np.ndarray, t_steps: int) -> np.ndarray:
    """Extend the trailing time axis to ``t_steps + 1`` budgets by
    repeating the saturated (last stored) column."""
    missing = t_steps + 1 - stored.shape[-1]
    if missing == 0:
        return stored
    edge = stored[..., -1:]
    return np.concatenate(
        [stored, np.broadcast_to(edge, edge.shape[:-1] + (missing,))],
        axis=-1,
    )


def _step_count(time_ns: float, time_step_ns: float) -> int:
    """Quantise a block time to steps (round-to-nearest, minimum 1).

    Rounding to nearest keeps the *accumulated* quantisation error of a
    many-block placement near zero; rounding up would inflate task times
    by up to ``K`` steps.  Runtime deadline checks allow one step of
    slack to absorb the residual error.
    """
    steps = round(time_ns / time_step_ns)
    return max(1, steps)


def knapsack_min_energy(
    spaces,
    t_steps: int,
    max_blocks: int,
    time_step_ns: float,
) -> ClusterDpResult:
    """Run Algorithm 1 over one cluster's storage spaces.

    Parameters
    ----------
    spaces:
        The cluster's :class:`~repro.core.spaces.StorageSpace` list (the
        paper's ``i = 1 .. n/2`` iteration space).
    t_steps:
        Number of discrete time steps spanning the time-slice range ``T``.
    max_blocks:
        ``K`` for this cluster (every block could land here).
    time_step_ns:
        Duration of one step.
    """
    if not spaces:
        raise ConfigurationError("knapsack needs at least one storage space")
    if t_steps <= 0 or max_blocks <= 0 or time_step_ns <= 0:
        raise ConfigurationError("t_steps, max_blocks and step must be positive")

    global _DP_BUILDS
    _DP_BUILDS += 1

    n = len(spaces)
    step_counts = tuple(
        _step_count(space.time_per_block_ns, time_step_ns) for space in spaces
    )
    scalar = use_reference()
    # The scalar reference keeps the whole axis, so it stays an
    # independent, unclamped oracle for the saturated fast path.
    t_saturated = (
        t_steps if scalar else min(t_steps, max_blocks * max(step_counts))
    )
    with _span(
        "core.dp_build", spaces=n, t_steps=t_steps, t_saturated=t_saturated,
        blocks=max_blocks, scalar=scalar,
    ):
        # Stored (k, t) so each budget row energy[k, :] is contiguous.
        energy = np.full((max_blocks + 1, t_saturated + 1), np.inf)
        # Base condition (Algorithm 1, line 3): zero blocks cost zero energy.
        energy[0, :] = 0.0
        count = np.zeros(
            (n + 1, max_blocks + 1, t_saturated + 1),
            dtype=np.min_scalar_type(max_blocks),
        )
        fill = _dp_scalar if scalar else _dp_vectorized
        fill(spaces, t_saturated, max_blocks, step_counts, energy, count)
    return ClusterDpResult(
        spaces=tuple(spaces),
        energy_kt=energy,
        count_ikt=count,
        time_step_ns=time_step_ns,
        step_counts=step_counts,
        t_steps=t_steps,
    )


def _dp_vectorized(spaces, t_steps, max_blocks, step_counts, energy, count):
    """Whole-row NumPy form of the recurrence (the production path).

    Every update compares a shifted budget row against the running
    minimum with the same strict ``<`` and the same ascending take-count
    order as the scalar reference, so the tables come out bit-identical.
    ``t_steps`` is the last *stored* budget (``t_saturated``).
    """
    for i, space in enumerate(spaces, start=1):
        ti = step_counts[i - 1]
        ei = space.energy_per_block_nj
        cap = space.capacity_blocks
        # energy holds dp[i-1]; it becomes dp[i] in place (Algorithm 1,
        # lines 12-13 carry the previous space's solutions).
        cnt = count[i]
        if cap >= max_blocks:
            # Paper-faithful unbounded recurrence: the capacity can never
            # bind, so dp[i][t-ti][k-1] + e_i extends any optimal prefix.
            # The k-1 dependency is within space i, so k stays a loop while
            # the whole time axis moves per iteration.
            if ti > t_steps:
                continue
            width = t_steps + 1 - ti
            candidate = np.empty(width)
            taken = np.empty(width, dtype=cnt.dtype)
            take = np.empty(width, dtype=bool)
            for k in range(1, max_blocks + 1):
                np.add(energy[k - 1, :width], ei, out=candidate)
                dst = energy[k, ti:]
                np.less(candidate, dst, out=take)
                if take.any():
                    np.copyto(dst, candidate, where=take)
                    np.add(cnt[k - 1, :width], 1, out=taken)
                    np.copyto(cnt[k, ti:], taken, where=take)
        else:
            # Bounded variant: extending the *minimum-energy* path would
            # lose capacity-feasible but energy-dominated prefixes, so
            # take-j choices extend dp[i-1] directly.  Each j updates the
            # whole (k, t) plane at once — k >= j and t >= j * t_i.
            prev = energy.copy()
            for j in range(1, cap + 1):
                shift = j * ti
                if shift > t_steps:
                    break
                candidate = (
                    prev[: max_blocks + 1 - j, : t_steps + 1 - shift] + j * ei
                )
                dst = energy[j:, shift:]
                take = candidate < dst
                np.copyto(dst, candidate, where=take)
                np.copyto(cnt[j:, shift:], j, where=take)


def _dp_scalar(spaces, t_steps, max_blocks, step_counts, energy, count):
    """Per-element reference translation of the recurrence (Eq. 2)."""
    for i, space in enumerate(spaces, start=1):
        ti = step_counts[i - 1]
        ei = space.energy_per_block_nj
        cap = space.capacity_blocks
        cnt = count[i]
        if cap >= max_blocks:
            if ti > t_steps:
                continue
            for k in range(1, max_blocks + 1):
                for t in range(ti, t_steps + 1):
                    candidate = energy[k - 1, t - ti] + ei
                    if candidate < energy[k, t]:
                        energy[k, t] = candidate
                        cnt[k, t] = cnt[k - 1, t - ti] + 1
        else:
            prev = energy.copy()
            for k in range(1, max_blocks + 1):
                for j in range(1, min(cap, k) + 1):
                    shift = j * ti
                    if shift > t_steps:
                        break
                    extend = j * ei
                    for t in range(shift, t_steps + 1):
                        candidate = prev[k - j, t - shift] + extend
                        if candidate < energy[k, t]:
                            energy[k, t] = candidate
                            cnt[k, t] = j


def reconstruct_counts(result: ClusterDpResult, t_step: int, blocks: int):
    """Per-space block counts of the optimal path at ``(t_step, blocks)``.

    Walks the ``count`` trace from the last space backwards: at each space
    the trace says how many blocks the optimal path placed there; the
    remaining blocks and time budget move to the previous space.
    """
    if not 0 <= t_step <= result.t_steps:
        raise PlacementError(f"t_step {t_step} outside table")
    if not 0 <= blocks <= result.max_blocks:
        raise PlacementError(f"block count {blocks} outside table")
    # Every later budget repeats t_saturated, and the walk only lowers
    # t, so one clamp keeps it inside the stored region.
    t, k = min(t_step, result.t_saturated), blocks
    if not np.isfinite(result.energy_kt[k, t]):
        raise PlacementError(
            f"state (t={t_step}, k={blocks}) is infeasible"
        )
    counts = {}
    for i in range(len(result.spaces), 0, -1):
        taken = int(result.count_ikt[i, k, t])
        counts[result.spaces[i - 1].kind] = taken
        t -= taken * result.step_counts[i - 1]
        k -= taken
    if k != 0:
        raise PlacementError(
            f"reconstruction lost {k} blocks (inconsistent count trace)"
        )
    return counts


def cluster_time_ns(result: ClusterDpResult, counts: dict) -> float:
    """Continuous-time completion time of a per-space placement."""
    total = 0.0
    for space in result.spaces:
        total += counts.get(space.kind, 0) * space.time_per_block_ns
    return total

