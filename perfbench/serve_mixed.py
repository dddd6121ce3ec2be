"""serve_mixed: a closed-loop client against a ``repro serve`` process.

The daemon runs as its own process with an empty store and LUT cache.
One client sends one job at a time and waits for its result before the
next (a closed loop with one client connection at a time): 60% ``qos``
jobs, half of which repeat an earlier qos config (served from the
store), 20% ``run`` and 20% ``fleet`` (2 devices), all 20 slices at 24
blocks / 1500 steps over the 4 architectures and the 6 Fig. 4 cases.
The seed draws the job sequence.  A run sends a fixed number of jobs
(4000 for ``--seconds 20``, never under 1000, so the tail is a true
p99).

One operation is one job; one latency sample is one job, from submit
to result, as the client sees it.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time

from . import harness, stats
from .layers import ratio

NAME = "serve_mixed"

SIZES = {
    "full": {"slices": 20, "block_count": 24, "time_steps": 1500,
             "least_jobs": 1000},
    "tiny": {"slices": 4, "block_count": 8, "time_steps": 200,
             "least_jobs": 20},
}

#: Nominal seconds per full-size job on a 2-vCPU x86 host; with
#: ``--seconds`` it fixes how many jobs a run sends.
JOB_S = 0.005

ARCHS = ("Baseline-PIM", "Heterogeneous-PIM", "Hybrid-PIM", "HH-PIM")
MODEL = "EfficientNet-B0"

#: Jobs re-run in-process after the loop and compared with the daemon.
SAMPLE_CHECKS = 8

def job_sequence(seed: int, size: str, count: int) -> list:
    """``[(kind, config), ...]``: the first ``count`` jobs of the
    seeded job mix."""
    from repro.api import ExperimentConfig

    shape = SIZES[size]
    rng = random.Random(seed)
    jobs: list = []
    qos_configs: list = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.6 and qos_configs and rng.random() < 0.5:
            jobs.append(("qos", rng.choice(qos_configs)))
            continue
        kind = "qos" if draw < 0.6 else "run" if draw < 0.8 else "fleet"
        config = ExperimentConfig(
            arch=rng.choice(ARCHS),
            model=MODEL,
            scenario=f"case{rng.randint(1, 6)}",
            slices=shape["slices"],
            seed=rng.randrange(1_000_000),
            block_count=shape["block_count"],
            time_steps=shape["time_steps"],
            fleet=2 if kind == "fleet" else 1,
        )
        if kind == "qos":
            qos_configs.append(config)
        jobs.append((kind, config))
    return jobs


class Daemon:
    """One ``repro serve`` process on an ephemeral port.

    Its store and LUT cache are fresh directories; stderr goes to a
    file (an undrained pipe would stall it).  :meth:`stop` shuts it
    down over the wire and reaps it, killing it if it does not exit.
    """

    def __init__(self, ctx: harness.Context, trace_file=None) -> None:
        from repro.service.client import ServeClient

        home = ctx.dir("daemon")
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--store", str(home / "store"),
        ]
        if trace_file is not None:
            command += ["--trace", str(trace_file)]
        env = dict(os.environ, REPRO_LUT_CACHE=str(home / "lut"))
        self.log = home / "serve.log"
        with open(self.log, "w") as err, open(home / "serve.out", "w") as out:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, env=env,
            )
        try:
            self.client = ServeClient(port=self._port(), timeout=60.0)
            while not self.client.ping():
                self._alive()
                time.sleep(0.002)
        except BaseException:
            self.kill()
            raise

    def _alive(self) -> None:
        code = self.process.poll()
        if code is not None:
            raise RuntimeError(
                f"repro serve exited {code}: {self.log.read_text()[-500:]}"
            )

    def _port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            found = re.search(r"\bport=(\d+)", self.log.read_text())
            if found:
                return int(found.group(1))
            self._alive()
            time.sleep(0.002)
        raise RuntimeError("repro serve printed no port within 60 s")

    def stop(self) -> None:
        from repro.errors import ServiceError

        try:
            self.client.shutdown(timeout=60)
            self.process.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def setup(ctx: harness.Context, size: str) -> None:
    """Nothing to prepare in a fresh interpreter: the daemon is the set-up."""


def drive(client, jobs: list, keep: set, timer=None) -> dict:
    """Send the jobs one at a time, each after the previous one's
    result; ``keep`` names job indices whose payloads are returned
    for checking."""
    from repro.service.client import RemoteError

    latencies: list = []
    kept: dict = {}
    seen: dict = {}
    failed = repeats = mismatched = 0
    start = time.perf_counter()
    for index, (kind, config) in enumerate(jobs):
        begin = time.perf_counter()
        try:
            if timer is None:
                payload = client.result(client.submit(config, kind=kind))
            else:
                with timer.span(harness.ROOT):
                    payload = client.result(client.submit(config, kind=kind))
        except RemoteError:
            failed += 1
            latencies.append(time.perf_counter() - begin)
            continue
        latencies.append(time.perf_counter() - begin)
        payload.pop("job_id", None)
        if index in keep:
            kept[index] = payload
        if kind == "qos":
            text = json.dumps(payload, sort_keys=True)
            key = config.fingerprint()
            if key in seen:
                repeats += 1
                mismatched += seen[key] != text
            else:
                seen[key] = text
    return {
        "wall_s": time.perf_counter() - start,
        "latencies": latencies,
        "failed": failed,
        "repeats": repeats,
        "mismatched": mismatched,
        "kept": kept,
    }


def local_payload(engine, kind: str, config) -> dict:
    """What the daemon answers for a job, computed in-process."""
    kind, outcome = engine.run_job(config, kind=kind)
    if kind == "qos":
        payload = {"kind": kind, "result": outcome.to_dict()}
    else:
        payload = {
            "kind": kind, "row": outcome.to_row(),
            "result": outcome.result.to_dict(),
        }
    return json.loads(json.dumps(payload))


def run(ctx: harness.Context, size: str) -> dict:
    from repro.api import Engine

    share = 0.5 if ctx.trace else 1.0
    count = ctx.count(JOB_S, share, least=SIZES[size]["least_jobs"])
    jobs = job_sequence(ctx.seed, size, count)
    keep = set(random.Random(ctx.seed + 1).sample(
        range(count), SAMPLE_CHECKS
    ))
    # One CPU for the client and the daemon it starts: the closed loop
    # has no parallelism to lose, and it keeps the scheduler from
    # splitting the ping-pong across CPUs in some runs and not others.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups = []
    daemon = traced_daemon = None
    try:
        for _ in range(1 if ctx.trace else harness.SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            begin = time.perf_counter()
            daemon = Daemon(ctx)
            setups.append(time.perf_counter() - begin)
        plain = drive(daemon.client, jobs, keep)
        daemon.stop()
        if ctx.trace:
            trace_file = ctx.dir("trace") / "daemon.jsonl"
            traced_daemon = Daemon(ctx, trace_file=trace_file)
            with harness.LayerTimer() as timer:
                traced = drive(traced_daemon.client, jobs, set(), timer)
            traced_daemon.stop()
    finally:
        for process in (daemon, traced_daemon):
            if process is not None:
                process.kill()

    runs = [plain] + ([traced] if ctx.trace else [])
    for result in runs:
        done = len(result["latencies"])
        ctx.attempted += done
        ctx.check(result["failed"] == 0, result["failed"],
                  f"{result['failed']} of {done} jobs answered job_failed")
        ctx.check(result["mismatched"] == 0, result["mismatched"],
                  f"{result['mismatched']} of {result['repeats']} repeated "
                  f"qos configs returned a different payload")
    engine = Engine(use_disk_cache=False)
    for index, payload in sorted(plain["kept"].items()):
        kind, config = jobs[index]
        ctx.check(payload == local_payload(engine, kind, config), 1,
                  f"job {index} ({kind}) differs from an in-process run")

    if ctx.trace:
        return _layers(timer, traced, trace_file, plain)
    done = len(plain["latencies"])
    ctx.info(
        f"{done} jobs ({plain['repeats']} repeated qos configs), "
        f"{done / plain['wall_s']:.1f} jobs/s closed loop"
    )
    return harness.end_to_end(
        ctx, stats.median(setups), done / plain["wall_s"],
        plain["latencies"], "jobs",
    )


def _layers(timer, traced: dict, trace_file, plain: dict) -> dict:
    """Per-job layer metrics: client wrappers plus the daemon's trace."""
    from repro.obs.profile import fold
    from repro.obs.tracing import Trace

    trace = Trace.from_file(trace_file)
    phases = {s.name: s for s in fold(trace)}
    latencies = traced["latencies"]
    client_ns = sum(latencies) * 1e9

    def share(name: str) -> float:
        span = phases.get(name)
        return ratio(span.total_ns, client_ns) if span is not None else 0.0

    gets = [s for s in trace.spans if s.name == "store.get"]
    hits = sum(1 for s in gets if s.args.get("hit"))
    overhead = traced["wall_s"] / plain["wall_s"] - 1.0
    pass_ms = stats.median(latencies) * 1e3
    return harness.per_layer(timer, len(latencies), overhead, pass_ms, {
        "service.daemon.job_share": share("daemon.job"),
        "service.overhead_share": 1.0 - share("daemon.job"),
        "store.get_share": share("store.get"),
        "store.put_share": share("store.put"),
        "store.hit_ratio": ratio(hits, len(gets)),
        "serving.fleet.share": share("engine.fleet"),
    })
