"""Shared plumbing: hermetic run directories, timing loops, metrics.

Every run works in a fresh directory under ``.bench_tmp/`` in the
checkout; the LUT cache, experiment store, XDG cache and temp files of
this process and of every process it starts point there, and the
directory is removed when the run ends.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import stats
from .layers import (
    PER_LAYER, ROOT, LayerTimer, layer_values, ratio, summarize,
)

#: Every end-to-end metric: ``(name, unit, better, bound)``.  What an
#: "operation" and a "latency sample" are differs per workload; the
#: table in README.md spells it out.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

RUN_PY = Path(__file__).resolve().parent / "run.py"


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


def bootstrap(root: Path, scratch: Path | None = None) -> Path:
    """Make ``root/src`` importable and point every cache inside the run.

    Returns the run's scratch directory (created when not given).
    Raises :class:`BenchError` when the checkout holds no program.
    """
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src}/repro")
    if scratch is None:
        scratch = root / ".bench_tmp" / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True, exist_ok=True)
    (scratch / "tmp").mkdir(exist_ok=True)
    paths = [str(src)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ.update(
        PYTHONPATH=os.pathsep.join(paths),
        REPRO_LUT_CACHE=str(scratch / "lut"),
        REPRO_STORE=str(scratch / "store"),
        XDG_CACHE_HOME=str(scratch / "xdg"),
        TMPDIR=str(scratch / "tmp"),
    )
    tempfile.tempdir = None
    sys.path.insert(0, str(src))
    return scratch


class Context:
    """One run's arguments, scratch space and operation counters."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self._dirs = 0

    def dir(self, name: str) -> Path:
        """A fresh, empty directory in the run's scratch space."""
        self._dirs += 1
        path = self.scratch / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def check(self, ok: bool, ops: int, message: str) -> bool:
        """Count ``ops`` operations as failed unless ``ok``."""
        if not ok:
            self.failed += ops
            self.info(f"CHECK FAILED: {message}")
        return ok

    def info(self, line: str) -> None:
        """A human-readable line ahead of the final JSON line."""
        print(line, flush=True)

    def count(self, unit_s: float, share: float = 1.0,
              least: int = 1) -> int:
        """How many units of nominally ``unit_s`` seconds each fill
        ``share`` of the run's ``--seconds``.  The count depends on the
        arguments only, never on how fast the code runs, so every run
        of one ``--seconds`` does the same work."""
        return max(least, round(self.seconds * share / unit_s))

    def passes(self, one_pass, count: int, timer: LayerTimer | None = None,
               keep=None) -> list:
        """Run ``one_pass(timer)`` ``count`` times.

        Returns ``[(wall_s, kept), ...]`` where ``kept`` is ``keep``
        applied to the pass result outside the timed region (default:
        the result itself).  With a ``timer`` each pass runs inside the
        benchmark's root span.
        """
        out: list = []
        for _ in range(count):
            begin = time.perf_counter()
            if timer is None:
                result = one_pass(None)
            else:
                with timer.span(ROOT):
                    result = one_pass(timer)
            wall_s = time.perf_counter() - begin
            out.append((wall_s, result if keep is None else keep(result)))
        return out

    def traced(self, one_pass, unit_s: float, keep=None) -> tuple:
        """Half the budget untraced, half under the layer wrappers.

        Returns ``(plain, traced, timer, overhead)`` where ``overhead``
        is the traced median pass over the untraced one, minus one.
        """
        count = self.count(unit_s, share=0.5)
        plain = self.passes(one_pass, count, keep=keep)
        with LayerTimer() as timer:
            traced = self.passes(one_pass, count, timer=timer, keep=keep)
        overhead = (
            stats.median([t for t, _ in traced])
            / stats.median([t for t, _ in plain]) - 1.0
        )
        return plain, traced, timer, overhead


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it reaped, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def time_child_setup(ctx: Context, workload: str, size: str) -> tuple:
    """Time :data:`SETUP_REPEATS` fresh interpreters running the
    workload's set-up; returns ``(median_s, last_scratch_dir)``."""
    samples = []
    scratch = None
    for _ in range(SETUP_REPEATS):
        scratch = ctx.dir("setup")
        command = [
            sys.executable, str(RUN_PY), "--setup-only",
            "--workload", workload, "--seed", str(ctx.seed),
            "--size", size, "--scratch", str(scratch),
        ]
        begin = time.perf_counter()
        done = subprocess.run(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        samples.append(time.perf_counter() - begin)
        if done.returncode != 0:
            raise RuntimeError(
                f"{workload} set-up exited {done.returncode}: "
                f"{done.stderr.strip()[-500:]}"
            )
    return stats.median(samples), scratch


def end_to_end(ctx: Context, setup_s: float, ops_per_s: float,
               samples_s: list, what: str) -> dict:
    """The :data:`END_TO_END` metrics from one run's measurements;
    ``samples_s`` are the latency samples in seconds."""
    share, tail_s, n = stats.tail(samples_s)
    p50_s = stats.median(samples_s)
    ctx.info(
        f"latency samples: {n} {what}; p50 {p50_s * 1e3:.3f} ms, "
        f"tail p{share * 100:g} {tail_s * 1e3:.3f} ms"
    )
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50_s * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _, _ in END_TO_END
    }


def per_layer(timer: LayerTimer, per: float, overhead: float,
              pass_ms: float, extra: dict | None = None) -> dict:
    """The per-layer metrics of a traced run: counts per ``per`` passes
    or jobs, times as shares of the traced wall, whose median per pass
    or job is ``pass_ms``."""
    summary = summarize(timer.spans())
    phases = summary["phases"]

    def calls(name: str) -> int:
        return phases.get(name, {}).get("calls", 0)

    values = {
        "core.lutcache.hit_ratio": ratio(
            timer.hits.get("core.lutcache.load", 0), calls("core.lutcache.load")
        ),
        "store.hit_ratio": ratio(
            timer.hits.get("store.get", 0), calls("store.get")
        ),
        "trace.overhead": overhead,
        "trace.pass_ms": pass_ms,
    }
    values.update(extra or {})
    metrics = layer_values(summary, per, values)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()
    }
