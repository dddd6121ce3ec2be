"""Outside-in layer timing for the traced run.

The program's source is not touched: :class:`LayerTimer` replaces a
layer's entry point, as the caller looks it up, with a wrapper that
records a span on a private :class:`repro.obs.tracing.Tracer` (never the
process-wide active one, so the program's own spans stay off unless a
``--trace`` flag turns them on).  :func:`summarize` folds the spans with
:func:`repro.obs.profile.fold` into per-layer call counts, wall and self
time, plus the share of the benchmark's root spans that no layer covers.
"""

from __future__ import annotations

import functools

#: Every per-layer metric: ``(name, unit, better)``.  Each traced run
#: reports all of them.  Layer times are shares of the measured wall
#: (``trace.pass_ms`` per pass or job is the base), so a layer off a
#: workload's in-process path reads a share of 0, not a time of 0 ms
#: (see README.md for which workload moves which metric).
PER_LAYER = (
    ("trace.pass_ms", "ms", "lower"),
    ("core.knapsack.share", "ratio", "lower"),
    ("core.knapsack.calls", "count", "lower"),
    ("core.combine.share", "ratio", "lower"),
    ("core.combine.calls", "count", "lower"),
    ("core.lutcache.store_share", "ratio", "lower"),
    ("core.lutcache.load_share", "ratio", "lower"),
    ("core.lutcache.hit_ratio", "ratio", "higher"),
    ("core.runtime.run_share", "ratio", "lower"),
    ("core.lut.lookup_share", "ratio", "lower"),
    ("core.lut.lookups", "count", "lower"),
    ("core.dp_tables", "count", "lower"),
    ("api.engine.self_share", "ratio", "lower"),
    ("qos.requests.sample_share", "ratio", "lower"),
    ("qos.pricing.share", "ratio", "lower"),
    ("qos.slo.fold_share", "ratio", "lower"),
    ("qos.autoscale.share", "ratio", "lower"),
    ("qos.queueing.self_share", "ratio", "lower"),
    ("qos.peak_backlog", "count", "lower"),
    ("qos.unfinished", "count", "lower"),
    ("service.client.submit_share", "ratio", "lower"),
    ("service.client.result_share", "ratio", "lower"),
    ("service.daemon.job_share", "ratio", "lower"),
    ("service.overhead_share", "ratio", "lower"),
    ("store.get_share", "ratio", "lower"),
    ("store.put_share", "ratio", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.bytes", "bytes", "lower"),
    ("serving.fleet.share", "ratio", "lower"),
    ("dist.chunks", "count", "lower"),
    ("dist.chunks_stolen", "count", "lower"),
    ("dist.worker_busy_share", "ratio", "higher"),
    ("api.results.export_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

#: Metrics read straight off the fold: ``metric -> (span name, field)``.
#: ``calls`` are per pass; ``total_ms``/``self_ms`` become shares of the
#: root spans' wall time.
FROM_PHASES = {
    "core.knapsack.share": ("core.knapsack", "total_ms"),
    "core.knapsack.calls": ("core.knapsack", "calls"),
    "core.combine.share": ("core.combine", "total_ms"),
    "core.combine.calls": ("core.combine", "calls"),
    "core.lutcache.store_share": ("core.lutcache.store", "total_ms"),
    "core.lutcache.load_share": ("core.lutcache.load", "total_ms"),
    "core.runtime.run_share": ("core.runtime.run", "total_ms"),
    "core.lut.lookup_share": ("core.lut.lookup", "total_ms"),
    "core.lut.lookups": ("core.lut.lookup", "calls"),
    "api.engine.self_share": ("api.engine", "self_ms"),
    "qos.requests.sample_share": ("qos.requests.sample", "total_ms"),
    "qos.pricing.share": ("qos.pricing", "total_ms"),
    "qos.slo.fold_share": ("qos.slo.fold", "total_ms"),
    "qos.autoscale.share": ("qos.autoscale", "total_ms"),
    "qos.queueing.self_share": ("qos.queueing", "self_ms"),
    "service.client.submit_share": ("service.client.submit", "total_ms"),
    "service.client.result_share": ("service.client.result", "total_ms"),
    "store.get_share": ("store.get", "total_ms"),
    "api.results.export_share": ("api.results.export", "total_ms"),
}

#: The benchmark's own root span around each measured pass or job.
ROOT = "bench.pass"


def summarize(spans, roots=(ROOT,)) -> dict:
    """Fold spans into ``{"phases": {name: stats}, "wall_ms": w,
    "unattributed_share": x}``.

    ``stats`` holds ``calls``, ``total_ms`` (summed wall) and ``self_ms``
    (wall minus direct children).  ``wall_ms`` is the summed wall time
    of the ``roots`` spans, and the unattributed share is their self
    time over it: the part of each measured pass that no wrapped layer
    accounts for.
    """
    from repro.obs.profile import fold
    from repro.obs.tracing import Trace

    phases = {
        stats.name: {
            "calls": stats.count,
            "total_ms": stats.total_ns / 1e6,
            "self_ms": stats.self_ns / 1e6,
        }
        for stats in fold(Trace(list(spans)))
    }
    root_total = sum(phases[r]["total_ms"] for r in roots if r in phases)
    root_self = sum(phases[r]["self_ms"] for r in roots if r in phases)
    return {
        "phases": phases,
        "wall_ms": root_total,
        "unattributed_share": root_self / root_total if root_total else 0.0,
    }


def layer_values(summary: dict, per: float, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric: call counts divided by ``per``
    (passes or jobs), layer times as shares of the measured wall, then
    ``extra`` on top."""
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, (phase, field) in FROM_PHASES.items():
        stats = summary["phases"].get(phase)
        if stats is None:
            continue
        if field == "calls":
            values[metric] = stats["calls"] / per
        else:
            values[metric] = ratio(stats[field], summary["wall_ms"])
    values["trace.unattributed_share"] = summary["unattributed_share"]
    unknown = set(extra) - set(values)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    values.update(extra)
    return values


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when ``whole`` is 0."""
    return part / whole if whole else 0.0


class LayerTimer:
    """Installs timing wrappers on layer entry points; restores on exit.

    Use as a context manager: wrappers exist only inside the ``with``
    block.  ``hits`` counts, per span name, the calls whose result
    passed the wrapper's ``hit`` test (cache and store hit ratios).
    """

    def __init__(self) -> None:
        from repro.obs.tracing import Tracer

        self.tracer = Tracer(proc="bench")
        self.hits: dict = {}
        self._patches: list = []

    def span(self, name: str):
        """A span on the private tracer (the benchmark's root spans)."""
        return self.tracer.span(name)

    def wrap(self, owner, attr: str, name: str, hit=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer, hits = self.tracer, self.hits

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if hit is not None and hit(result):
                hits[name] = hits.get(name, 0) + 1
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original, own))

    def spans(self) -> list:
        """The spans recorded so far."""
        return list(self.tracer.spans)

    def __enter__(self) -> "LayerTimer":
        from repro.api.engine import Engine
        from repro.api.results import ResultSet
        from repro.core import lutcache, placement
        from repro.core.lut import AllocationLUT
        from repro.core.runtime import TimeSliceRuntime
        from repro.dist import executor
        from repro.qos import queueing
        from repro.qos.autoscale import Autoscaler
        from repro.qos.slo import SloAccountant
        from repro.service.client import ServeClient
        from repro.store.store import Store

        def found(value) -> bool:
            return value is not None

        # Module globals are patched where the caller looks them up:
        # placement imported the DP and combine entry points by name.
        self.wrap(placement, "knapsack_min_energy", "core.knapsack")
        self.wrap(placement, "unique_allocation_rows", "core.combine")
        self.wrap(placement, "set_allocation_state", "core.combine")
        self.wrap(lutcache, "load", "core.lutcache.load", hit=found)
        self.wrap(lutcache, "store", "core.lutcache.store")
        self.wrap(TimeSliceRuntime, "run", "core.runtime.run")
        self.wrap(AllocationLUT, "lookup", "core.lut.lookup")
        self.wrap(Engine, "run_many", "api.engine")
        self.wrap(queueing, "sample_request_batch", "qos.requests.sample")
        self.wrap(queueing.QoSSimulator, "_price_window", "qos.pricing")
        self.wrap(queueing.QoSSimulator, "run", "qos.queueing")
        self.wrap(SloAccountant, "observe_window_arrays", "qos.slo.fold")
        self.wrap(Autoscaler, "resize", "qos.autoscale")
        self.wrap(ServeClient, "submit", "service.client.submit")
        self.wrap(ServeClient, "result", "service.client.result")
        self.wrap(Store, "get", "store.get", hit=found)
        self.wrap(ResultSet, "to_json", "api.results.export")
        self.wrap(executor, "distributed_sweep", "dist.sweep")
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
