"""sweep_store: a distributed sweep into the run-record store, then a resume.

4 architectures x 6 Fig. 4 cases x 60 scenario seeds = 1440 configs at
24 blocks / 1500 steps.  Set-up warms the LUT disk cache, so neither
pass builds a DP table.  The cold pass is ``distributed_sweep`` over 2
worker processes into an empty store; the resume pass is a fresh
``Engine.run_many(grid, store, spill=True)`` followed by ``to_json()``,
reading the same store and executing no run.  The seed picks the 60
scenario seeds.

One operation is one config of the cold pass; one latency sample is one
resume pass (``resume_configs_per_s`` is 1440 over its median).
"""

from __future__ import annotations

import os
import random
import time

from . import harness, stats
from .layers import ratio

NAME = "sweep_store"

SIZES = {
    "full": {"seeds": 60, "block_count": 24, "time_steps": 1500},
    "tiny": {"seeds": 2, "block_count": 8, "time_steps": 200},
}

ARCHS = ("Baseline-PIM", "Heterogeneous-PIM", "Hybrid-PIM", "HH-PIM")
WORKERS = 2

#: Nominal seconds per full-size pass (cold sweep plus resume) on a
#: 2-vCPU x86 host; with ``--seconds`` it fixes how many passes a run
#: makes.
PASS_S = 6.5


def grid(seed: int, size: str) -> tuple:
    """The sweep's configs; the benchmark seed draws the scenario seeds."""
    from repro.api import ExperimentConfig

    shape = SIZES[size]
    seeds = random.Random(seed).sample(range(1_000_000), shape["seeds"])
    return ExperimentConfig(
        block_count=shape["block_count"], time_steps=shape["time_steps"]
    ).sweep(
        arch=list(ARCHS),
        scenario=[f"case{n}" for n in range(1, 7)],
        seed=seeds,
    )


def setup(ctx: harness.Context, size: str) -> tuple:
    """Expand the grid and warm the LUT disk cache for every arch."""
    from repro.api import Engine

    configs = grid(ctx.seed, size)
    engine = Engine()
    for config in {c.arch: c for c in configs}.values():
        engine.runtime(config)
    return configs


def run(ctx: harness.Context, size: str) -> dict:
    from repro.api import Engine
    from repro.dist import executor
    from repro.store import Store

    if ctx.trace:
        setup(ctx, size)
    else:
        setup_s, warmed = harness.time_child_setup(ctx, NAME, size)
        # Workers inherit the environment, so they load the warm cache.
        os.environ["REPRO_LUT_CACHE"] = str(warmed / "lut")
    configs = grid(ctx.seed, size)

    def one_pass(timer):
        store = Store(ctx.dir("store"))
        status: dict = {}
        trace_file = ctx.dir("trace") / "sweep.json" if timer else None
        begin = time.perf_counter()
        cold = executor.distributed_sweep(
            configs, store, workers=WORKERS, log=lambda line: None,
            status_sink=status.update, trace=trace_file, timeout=150,
        )
        middle = time.perf_counter()
        engine = Engine()
        resumed = engine.run_many(configs, store=store, spill=True)
        export = resumed.to_json()
        end = time.perf_counter()
        return {
            "cold_s": middle - begin, "resume_s": end - middle,
            "cold": cold, "export": export, "runs": engine.stats.runs,
            "store": store, "status": status, "trace": trace_file,
        }

    if ctx.trace:
        plain, traced, timer, overhead = ctx.traced(one_pass, PASS_S)
        walls = [t for t, _ in traced]
        passes = [p for _, p in plain + traced]
    else:
        count = ctx.count(PASS_S, least=2)
        passes = [p for _, p in ctx.passes(one_pass, count)]

    first = passes[0]
    ctx.check(first["cold"].to_json() == first["export"], len(configs),
              "resume export differs from the cold export")
    for p in passes:
        ctx.attempted += len(configs)
        ctx.check(p["runs"] == 0, len(configs),
                  f"resume executed {p['runs']} runs")
        ctx.check(p["export"] == first["export"], len(configs),
                  "sweep passes disagree")

    if ctx.trace:
        return _layers(timer, [p for _, p in traced], walls, overhead)
    cold_s = [p["cold_s"] for p in passes]
    ops_per_s = len(configs) / stats.median(cold_s)
    ctx.info(
        f"{len(configs)} configs; cold sweep {ops_per_s:.1f} configs/s "
        f"(median of {len(cold_s)})"
    )
    return harness.end_to_end(
        ctx, setup_s, ops_per_s, [p["resume_s"] for p in passes],
        "resume passes",
    )


def _layers(timer, traced: list, walls: list, overhead: float) -> dict:
    """Per-pass layer metrics: in-process wrappers plus the merged
    coordinator/worker trace the sweep wrote.  Worker time is summed
    over both workers."""
    from repro.obs.profile import fold
    from repro.obs.tracing import Trace

    put_ns = busy_ns = chunks = stolen = store_bytes = 0
    for p in traced:
        phases = {s.name: s for s in fold(Trace.from_file(p["trace"]))}
        if "store.put" in phases:
            put_ns += phases["store.put"].total_ns
        if "worker.chunk" in phases:
            busy_ns += phases["worker.chunk"].total_ns
        counts = p["status"].get("chunks", {})
        chunks += counts.get("completed", 0)
        stolen += counts.get("stolen", 0)
        store_bytes += p["store"].info()["bytes"]
    n = len(traced)
    cold_ns = sum(p["cold_s"] for p in traced) * 1e9
    return harness.per_layer(timer, n, overhead, stats.median(walls) * 1e3, {
        "store.put_share": ratio(put_ns, sum(walls) * 1e9),
        "store.bytes": store_bytes / n,
        "dist.chunks": chunks / n,
        "dist.chunks_stolen": stolen / n,
        "dist.worker_busy_share": ratio(busy_ns, WORKERS * cold_ns),
    })
