"""qos_overload: a long, overloaded request-level QoS trace.

HH-PIM / EfficientNet-B0 at 24 blocks / 1500 steps, a bursty arrival
process (calm 40, burst 160, peak 200) over 2000 slices, EDF queueing,
batch 8, and 2 devices that the ``queue_depth`` autoscaler grows to 4.
About 160k requests; the backlog peaks near 95k, so the queue merge,
placement pricing and SLO fold do the work while the DP does none.
Request sampling runs inside each timed pass.  The seed draws both the
arrival process and the requests.

One operation is one request; one latency sample is one trace pass.
"""

from __future__ import annotations

import json

from . import harness, stats

NAME = "qos_overload"

SIZES = {
    "full": {"slices": 2000, "prefix": 60},
    "tiny": {"slices": 40, "prefix": 10},
}

#: Nominal seconds per full-size trace pass on a 2-vCPU x86 host; with
#: ``--seconds`` it fixes how many passes a run makes.
PASS_S = 2.6

SIMULATOR = {
    "devices": 2,
    "max_devices": 4,
    "autoscaler": "queue_depth",
    "discipline": "edf",
    "batch": 8,
}


def setup(ctx: harness.Context, size: str) -> tuple:
    """Build the LUT and materialise the arrival process."""
    from repro.api import Engine, ExperimentConfig
    from repro.workloads.arrivals import bursty

    runtime = Engine(use_disk_cache=False).runtime(
        ExperimentConfig(
            arch="HH-PIM", model="EfficientNet-B0",
            block_count=24, time_steps=1500,
        )
    )
    workload = bursty(calm_rate=40.0, burst_rate=160.0).materialize(
        slices=SIZES[size]["slices"], peak=200, seed=ctx.seed
    )
    return runtime, workload


def summary(result) -> dict:
    """What a pass keeps of its result (the result itself is large)."""
    windows = result.slices
    return {
        "requests": result.total_requests,
        "completed": result.completed,
        "unfinished": result.unfinished,
        "window_completed": sum(w.completed for w in windows),
        "window_arrivals": sum(w.arrivals for w in windows),
        "peak_backlog": result.peak_backlog,
        "json": json.dumps(result.to_dict(), sort_keys=True),
    }


def run(ctx: harness.Context, size: str) -> dict:
    from repro.qos.queueing import QoSSimulator, scalar_qos

    runtime, workload = setup(ctx, size)

    def simulate(scenario):
        simulator = QoSSimulator(runtime, **SIMULATOR)
        return simulator.run(scenario, seed=ctx.seed)

    def one_pass(timer):
        return simulate(workload)

    if ctx.trace:
        plain, traced, timer, overhead = ctx.traced(
            one_pass, PASS_S, keep=summary
        )
        passes = plain + traced
    else:
        passes = ctx.passes(
            one_pass, ctx.count(PASS_S, least=3), keep=summary
        )

    for _, kept in passes:
        requests = kept["requests"]
        ctx.attempted += requests
        ctx.check(
            kept["completed"] + kept["unfinished"] == requests, requests,
            f"{kept['completed']} completed + {kept['unfinished']} "
            f"unfinished != {requests} requests sent",
        )
        ctx.check(
            kept["window_completed"] == kept["completed"], requests,
            "per-window completions do not sum to the total",
        )
        ctx.check(
            kept["window_arrivals"] == requests, requests,
            "per-window arrivals do not sum to the requests sent",
        )
        ctx.check(
            kept["json"] == passes[0][1]["json"], requests,
            "trace passes disagree",
        )
    prefix = workload.with_length(SIZES[size]["prefix"])
    vector = simulate(prefix)
    with scalar_qos():
        scalar = simulate(prefix)
    ctx.check(
        vector.to_dict(include_records=True)
        == scalar.to_dict(include_records=True),
        vector.total_requests,
        "vectorized prefix differs from the scalar reference",
    )

    first = passes[0][1]
    if ctx.trace:
        pass_ms = stats.median([t for t, _ in traced]) * 1e3
        return harness.per_layer(timer, len(traced), overhead, pass_ms, {
            "qos.peak_backlog": first["peak_backlog"],
            "qos.unfinished": first["unfinished"],
        })
    setup_s, _ = harness.time_child_setup(ctx, NAME, size)
    ctx.info(
        f"{first['requests']} requests per pass, peak backlog "
        f"{first['peak_backlog']}, unfinished {first['unfinished']}"
    )
    walls = [t for t, _ in passes]
    return harness.end_to_end(
        ctx, setup_s, first["requests"] / stats.median(walls), walls,
        "trace passes",
    )
