"""fig5_cold: the paper's Fig. 5 grid, cold, at full resolution.

4 Table I architectures x 3 Table IV models x 6 Fig. 4 cases = 72
configs of 50 slices at 120 blocks / 24000 steps, through one serial
``Engine.run_many``.  Every pass uses a fresh ``Engine`` and an empty
LUT cache directory, so each pass builds all 12 allocation LUTs (plus
the 3 time-slice sizings) the way a first run does.  The seed is the
configs' scenario seed (it draws Case 6's random load).

One operation is one config; one latency sample is one grid pass.
"""

from __future__ import annotations

import hashlib
import json

from . import harness, stats

NAME = "fig5_cold"

SIZES = {
    "full": {"slices": 50, "block_count": 120, "time_steps": 24000},
    "tiny": {"slices": 4, "block_count": 8, "time_steps": 200},
}

#: Nominal seconds per full-size grid pass on a 2-vCPU x86 host; with
#: ``--seconds`` it fixes how many passes a run makes.
PASS_S = 2.7

#: Seed and full-size digest of :func:`energy_rows` as JSON.
GOLDEN_SEED = 2025
GOLDEN_DIGEST = (
    "113fe242aaefc26b7c608067aae480a750b8536ca7ce40b70609ee56f17db9ea"
)

#: The paper's mean HH-PIM savings against each comparison architecture.
PAPER_SAVINGS = {
    "Baseline-PIM": 60.43,
    "Heterogeneous-PIM": 36.3,
    "Hybrid-PIM": 48.58,
}


def grid(seed: int, size: str) -> tuple:
    """The 72 Fig. 5 configs in (arch, model, case) order."""
    from repro.api import ExperimentConfig
    from repro.arch.specs import TABLE_I
    from repro.workloads.models import TABLE_IV

    return ExperimentConfig(seed=seed, **SIZES[size]).sweep(
        arch=[spec.name for spec in TABLE_I],
        model=[model.name for model in TABLE_IV],
        scenario=[f"case{n}" for n in range(1, 7)],
    )


def setup(ctx: harness.Context, size: str) -> tuple:
    """Expand the grid and materialise every config's scenario."""
    from repro.api import Engine

    configs = grid(ctx.seed, size)
    engine = Engine()
    for config in configs:
        engine.scenario(config)
    return configs


def energy_rows(records) -> list:
    """``[arch, model, case, repr(total energy)]`` per config, in order."""
    return [
        [r.config.arch, r.config.model, r.config.scenario,
         repr(r.result.total_energy_nj)]
        for r in records
    ]


def summary(result) -> tuple:
    """What a pass keeps: each config's full result (slice records
    included) as JSON text, the energy rows and the DP tables built."""
    records, dp_tables = result
    results = [
        json.dumps(r.result.to_dict(), sort_keys=True) for r in records
    ]
    return results, energy_rows(records), dp_tables


def run(ctx: harness.Context, size: str) -> dict:
    from repro.api import Engine
    from repro.core import lutcache
    from repro.core.knapsack import dp_build_count

    configs = setup(ctx, size)
    caches: list = []

    def one_pass(timer):
        cache = ctx.dir("lut")
        caches.append(cache)
        with lutcache.temporary_cache_dir(cache):
            before = dp_build_count()
            records = Engine().run_many(configs)
            return records, dp_build_count() - before

    if ctx.trace:
        plain, traced, timer, overhead = ctx.traced(
            one_pass, PASS_S, keep=summary
        )
        passes = plain + traced
    else:
        passes = ctx.passes(
            one_pass, ctx.count(PASS_S, least=3), keep=summary
        )
    ctx.attempted += len(configs) * len(passes)

    first, rows, _ = passes[0][1]
    for _, (results, _, _) in passes[1:]:
        ctx.check(results == first, len(configs), "grid passes disagree")
    with lutcache.temporary_cache_dir(caches[-1]):
        warm = Engine()
        rerun, _, _ = summary((warm.run_many(configs), 0))
    mismatched = sum(a != b for a, b in zip(first, rerun))
    ctx.check(mismatched == 0, mismatched,
              f"{mismatched} configs differ on the disk-warm rerun")
    ctx.check(warm.stats.dp_builds == 0, len(configs),
              f"disk-warm rerun built {warm.stats.dp_builds} DP tables")
    _check_savings(ctx, rows)
    if size == "full" and ctx.seed == GOLDEN_SEED:
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        ctx.check(digest == GOLDEN_DIGEST, len(configs),
                  f"energy digest {digest} is not the golden one")

    if ctx.trace:
        dp_tables = sum(dp for _, (_, _, dp) in traced) / len(traced)
        pass_ms = stats.median([t for t, _ in traced]) * 1e3
        return harness.per_layer(
            timer, len(traced), overhead, pass_ms,
            {"core.dp_tables": dp_tables},
        )
    setup_s, _ = harness.time_child_setup(ctx, NAME, size)
    walls = [t for t, _ in passes]
    return harness.end_to_end(
        ctx, setup_s, len(configs) / stats.median(walls), walls,
        "grid passes",
    )


def _check_savings(ctx: harness.Context, rows: list) -> None:
    """HH-PIM never above Baseline-PIM; print the mean savings."""
    energy = {
        (arch, model, case): float(total) for arch, model, case, total in rows
    }
    cells = sorted({(m, s) for _, m, s in energy})
    worse = [
        cell for cell in cells
        if energy[("HH-PIM", *cell)] > energy[("Baseline-PIM", *cell)]
    ]
    ctx.check(not worse, 4 * len(worse),
              f"HH-PIM uses more energy than Baseline-PIM in {worse}")
    parts = []
    for arch, paper in PAPER_SAVINGS.items():
        mean = sum(
            1.0 - energy[("HH-PIM", *cell)] / energy[(arch, *cell)]
            for cell in cells
        ) / len(cells)
        parts.append(f"{arch} {mean * 100:.2f}% (paper {paper}%)")
    ctx.info("mean HH-PIM savings vs " + ", ".join(parts))
