"""The resident serving daemon: one warm Engine behind a TCP socket.

``repro serve`` keeps what every batch invocation throws away — a
:class:`~repro.api.engine.Engine` with its memoized runtimes (warm
LUTs), an open experiment :class:`~repro.store.Store`, and a metrics
registry — resident in one long-lived process.  Clients (see
:mod:`repro.service.client`) submit experiment configs over a
localhost socket speaking :mod:`repro.service.protocol`; a worker pool
executes them through the *same* ``Engine.run*`` paths the in-process
API uses, so a daemon-returned result is bit-identical to a local run
(pinned by differential tests) while the second and every later
submission reuses the first one's LUTs — zero DP rebuilds, observable
through the STATUS-reported :class:`~repro.api.engine.EngineStats`.

Lifecycle and failure semantics:

* a job that raises returns a typed ``job_failed`` error to its
  ``RESULT`` request and leaves the daemon serving;
* ``DRAIN`` rejects new submissions but finishes every queued and
  in-flight job before replying;
* ``SHUTDOWN``, SIGTERM and SIGINT all trigger the same clean drain
  and exit;
* startup writes a pidfile and a structured ``event=listening`` log
  line (host, port, pid), shutdown logs ``event=stopped`` and removes
  the pidfile;
* a second daemon on an occupied port fails fast with a
  :class:`~repro.errors.ServiceError` (the CLI turns it into a clean
  exit 2).

Every completed job persists into the daemon's store, and per-window
QoS series stream into the metrics registry (and the optional
append-only ``metrics.lp`` file) *as they are produced*, via the
:class:`~repro.qos.slo.SloAccountant` window callback.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field

from ..api.config import ExperimentConfig
from ..api.engine import Engine
from ..api.results import record_kind
from ..errors import ProtocolError, ReproError, ServiceError
from ..obs import events as obs_events
from ..obs import tracing as obs_tracing
from ..obs.tracing import span as _span
from . import protocol
from .telemetry import LineFileWriter, MetricsRegistry, format_line

__all__ = ["Job", "ServeDaemon", "DEFAULT_HOST", "DEFAULT_PORT"]

#: The daemon binds localhost only: the protocol is unauthenticated.
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``repro serve`` (0 picks an ephemeral port).
DEFAULT_PORT = 7787

#: Job states, in lifecycle order.
JOB_STATES = ("pending", "running", "done", "failed")


@dataclass
class Job:
    """One submitted experiment travelling through the daemon."""

    job_id: str
    kind: str
    config: ExperimentConfig
    #: Include per-device records in the result payload.
    records: bool = False
    #: Attach the job's span subtree to its RESULT reply.
    trace: bool = False
    #: The collected span records once the job finished under tracing.
    trace_spans: list | None = None
    state: str = "pending"
    #: The JSON-ready result payload once ``state == "done"``.
    payload: dict | None = None
    #: The error message once ``state == "failed"``.
    error: str | None = None
    submitted_s: float = field(default_factory=time.monotonic)
    started_s: float | None = None
    finished_s: float | None = None

    @property
    def wall_s(self) -> float | None:
        """Execution wall time, once the job has finished."""
        if self.started_s is None or self.finished_s is None:
            return None
        return self.finished_s - self.started_s

    def summary(self) -> dict:
        """The JSON-ready state STATUS replies carry."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "label": self.config.label,
            "state": self.state,
            "error": self.error,
            "wall_s": self.wall_s,
        }


class _Server(socketserver.ThreadingTCPServer):
    """Per-connection handler threads over one listening socket."""

    allow_reuse_address = False
    daemon_threads = True


class _Handler(socketserver.BaseRequestHandler):
    """Reads frames off one connection until the peer hangs up."""

    def handle(self):  # noqa: D102 - socketserver plumbing
        daemon = self.server.serve_daemon
        while True:
            try:
                message = protocol.recv_message(self.request)
            except protocol.ConnectionClosed:
                return
            except ProtocolError as error:
                # A torn frame leaves the stream unparseable: reply
                # typed, then drop the connection.
                self._reply(protocol.error_reply(error.code, str(error)))
                return
            except OSError:
                return
            try:
                reply = daemon.dispatch(message)
            except ProtocolError as error:
                reply = protocol.error_reply(error.code, str(error))
            if not self._reply(reply):
                return

    def _reply(self, message: dict) -> bool:
        try:
            protocol.send_message(self.request, message)
            return True
        except OSError:
            return False


class ServeDaemon:
    """A long-lived serving process: Engine + store + metrics + socket.

    ``engine`` defaults to a fresh :class:`Engine` attached to
    ``store`` (a :class:`~repro.store.Store`, a directory path, or
    ``None`` for the default store).  ``workers`` sizes the executor
    pool; engine access is serialized by a lock, so extra workers
    bound queue-handoff latency rather than adding compute
    parallelism.  ``metrics_file`` appends one line-protocol line per
    completed job and QoS window; ``pidfile`` records the daemon pid
    for process supervisors.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        engine: Engine | None = None,
        store=None,
        workers: int = 1,
        metrics_file=None,
        pidfile=None,
        log=None,
        trace=None,
    ) -> None:
        """See the class docstring; ``log`` overrides the stderr logger
        and ``trace`` names a file the daemon writes its span trace to
        on :meth:`stop` (activating process-wide tracing on start)."""
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        self.host = host
        self.requested_port = port
        self.workers = workers
        self.pidfile = pidfile
        self._log_sink = log
        self.trace_path = trace
        self._own_tracer = False
        self.events = obs_events.EventLog("repro-serve", sink=log)
        if engine is None:
            from ..store.store import Store

            engine = Engine(
                store=store if store is not None else Store()
            )
        self.engine = engine
        self.metrics = MetricsRegistry()
        self._metrics_writer = (
            LineFileWriter(metrics_file, on_error=self._metrics_error)
            if metrics_file is not None
            else None
        )
        self._engine_lock = threading.Lock()
        self._jobs_lock = threading.Lock()
        self._job_done = threading.Condition(self._jobs_lock)
        self._jobs: dict = {}
        self._order: list = []
        self._queue: queue.Queue = queue.Queue()
        self._inflight = 0
        self._next_id = 0
        self._draining = threading.Event()
        self._started_s: float | None = None
        self._server: _Server | None = None
        self._threads: list = []
        self._shutdown_thread: threading.Thread | None = None
        # Counters exist from the first scrape, not the first event.
        jobs = "repro_serve_jobs"
        self._submitted = self.metrics.counter(jobs, "jobs_submitted")
        self._completed = self.metrics.counter(jobs, "jobs_completed")
        self._failed = self.metrics.counter(jobs, "jobs_failed")
        self._requests_done = self.metrics.counter(
            "repro_qos", "requests_completed"
        )
        self._job_wall = self.metrics.histogram("repro_serve_jobs", "wall_s")

    # -- logging / files ---------------------------------------------------------

    def _metrics_error(self, path, error) -> None:
        self.events.emit(
            "metrics_file_error", path=str(path), error=repr(error)
        )

    def _write_pidfile(self) -> None:
        if self.pidfile is None:
            return
        try:
            with open(self.pidfile, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
        except OSError as error:
            raise ServiceError(
                f"cannot write pidfile {self.pidfile}: {error}"
            ) from error

    def _remove_pidfile(self) -> None:
        if self.pidfile is None:
            return
        try:
            os.unlink(self.pidfile)
        except OSError:
            pass

    # -- lifecycle ---------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    @property
    def uptime_s(self) -> float:
        """Seconds since the daemon started listening."""
        if self._started_s is None:
            return 0.0
        return time.monotonic() - self._started_s

    def start(self) -> None:
        """Bind the socket and start worker + acceptor threads.

        Returns once the daemon is accepting connections — tests run
        the daemon in-process this way; the CLI uses the blocking
        :meth:`run` instead.
        """
        if self._server is not None:
            raise ServiceError("daemon already started")
        try:
            self._server = _Server((self.host, self.requested_port), _Handler)
        except OSError as error:
            raise ServiceError(
                f"cannot listen on {self.host}:{self.requested_port}: "
                f"{error.strerror or error} "
                f"(is another repro serve already running?)"
            ) from error
        self._server.serve_daemon = self
        self._write_pidfile()
        if self.trace_path is not None and obs_tracing.active_tracer() is None:
            obs_tracing.activate(proc="daemon")
            self._own_tracer = True
        obs_events.install(self.events)
        self._started_s = time.monotonic()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(
            target=self._server.serve_forever,
            name="serve-acceptor",
            daemon=True,
        )
        acceptor.start()
        self._threads.append(acceptor)
        self.events.emit(
            "listening", host=self.host, port=self.port, pid=os.getpid(),
            workers=self.workers,
            store=str(getattr(self.engine.store, "root", None)),
        )

    def run(self) -> dict:
        """Start, serve until SHUTDOWN/SIGTERM/SIGINT, and clean up.

        Blocks the calling (main) thread; returns the final STATUS
        snapshot so the CLI can print a one-line summary.  Signal
        handlers are installed only here — in-process users drive
        :meth:`start`/:meth:`stop` directly.
        """
        self.start()

        def handle(signum, _frame):
            self.events.emit(
                "signal", signal=signal.Signals(signum).name
            )
            self.initiate_shutdown()

        previous = {
            signum: signal.signal(signum, handle)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            while self._server is not None:
                time.sleep(0.1)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            # stop() clears _server first and removes the pidfile last;
            # wait for the whole sequence so the process never exits
            # with the pidfile still on disk.
            if self._shutdown_thread is not None:
                self._shutdown_thread.join(timeout=30)
        return self.status()

    def drain(self) -> int:
        """Refuse new submissions, finish everything queued/in-flight.

        Returns the number of jobs completed or failed over the
        daemon's lifetime.  Idempotent — a second DRAIN just waits for
        the same quiescence.
        """
        self._draining.set()
        with self._jobs_lock:
            while self._queue.unfinished_tasks or self._inflight:
                self._job_done.wait(timeout=0.1)
            done = self._completed.value + self._failed.value
        return done

    def initiate_shutdown(self) -> None:
        """Drain and stop, from any thread, without blocking the caller."""
        if self._shutdown_thread is not None:
            return
        thread = threading.Thread(
            target=self._drain_and_stop, name="serve-shutdown", daemon=True
        )
        self._shutdown_thread = thread
        thread.start()

    def _drain_and_stop(self) -> None:
        self.drain()
        self.stop()

    def stop(self) -> None:
        """Stop the acceptor, close the socket, remove the pidfile."""
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        if self._metrics_writer is not None:
            self._metrics_writer.close()
        self._remove_pidfile()
        tracer = obs_tracing.active_tracer()
        if self.trace_path is not None and tracer is not None:
            tracer.trace().write(self.trace_path)
        if self._own_tracer:
            obs_tracing.deactivate()
            self._own_tracer = False
        self.events.emit(
            "stopped", pid=os.getpid(),
            jobs_completed=self._completed.value,
            jobs_failed=self._failed.value,
            uptime_s=self.uptime_s,
        )
        obs_events.uninstall(self.events)
        self.events.close()

    # -- job execution -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # pragma: no cover - legacy poison pill
                return
            try:
                self._execute(job)
            finally:
                self._queue.task_done()

    def _execute(self, job: Job) -> None:
        with self._jobs_lock:
            job.state = "running"
            job.started_s = time.monotonic()
            self._inflight += 1
        job_span = _span("daemon.job", job=job.job_id, kind=job.kind)
        payload = error = None
        try:
            with job_span:
                payload = self._run_job(job)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            error = f"unexpected {type(exc).__name__}: {exc}"
        # Collect before _finish: a RESULT waiter wakes on _finish, so
        # the subtree must already be attached when it reads the job.
        self._collect_job_trace(job, job_span)
        if error is not None:
            self._finish(job, error=error)
        else:
            self._finish(job, payload=payload)

    def _collect_job_trace(self, job: Job, job_span) -> None:
        """Attach the job's span subtree when the submitter asked for it."""
        tracer = obs_tracing.active_tracer()
        span_id = getattr(job_span, "id", None)
        if not job.trace or tracer is None or not span_id:
            job.trace_spans = [] if job.trace else None
            return
        with tracer._lock:
            spans = list(tracer.spans)
        job.trace_spans = [
            span.to_dict() for span in obs_tracing.subtree(spans, span_id)
        ]

    def _run_job(self, job: Job) -> dict:
        """Execute one job through the warm engine; returns its payload."""

        def on_window(stats) -> None:
            self._observe_window(job, stats)

        with self._engine_lock:
            kind, outcome = self.engine.run_job(
                job.config, kind=job.kind, on_window=on_window
            )
        if kind == "qos":
            return {
                "kind": kind,
                "result": outcome.to_dict(include_records=job.records),
            }
        return {
            "kind": kind,
            "row": outcome.to_row(),
            "result": outcome.result.to_dict(
                include_records=job.records
            ) if kind == "fleet" else outcome.result.to_dict(),
        }

    def _finish(self, job: Job, payload: dict | None = None,
                error: str | None = None) -> None:
        with self._jobs_lock:
            job.finished_s = time.monotonic()
            job.payload = payload
            job.error = error
            job.state = "failed" if error is not None else "done"
            self._inflight -= 1
            if error is None:
                self._completed.inc()
            else:
                self._failed.inc()
            self._job_wall.observe(job.wall_s)
            self._job_done.notify_all()
        self._append_metrics([
            format_line(
                "repro_serve_job",
                {"job": job.job_id, "kind": job.kind},
                {
                    "label": job.config.label,
                    "state": job.state,
                    "wall_s": job.wall_s,
                },
                time.time_ns(),
            )
        ])
        fields = dict(
            job=job.job_id, kind=job.kind, label=job.config.label,
            wall_s=job.wall_s,
        )
        if error:
            fields["error"] = repr(error)
        self.events.emit(f"job_{job.state}", **fields)

    def _observe_window(self, job: Job, stats) -> None:
        """Stream one QoS service window into the metrics surfaces."""
        window = stats.to_dict()
        self._requests_done.inc(stats.completed)
        gauges = {
            key: window[key]
            for key in (
                "index", "arrivals", "completed", "backlog", "fleet_size",
                "utilization", "slo_attainment", "energy_nj",
                "p50_ns", "p95_ns", "p99_ns",
            )
            if window[key] is not None
        }
        for key, value in gauges.items():
            self.metrics.gauge("repro_qos_window", key).set(value)
        self._append_metrics([
            format_line(
                "repro_qos_window",
                {"job": job.job_id},
                gauges,
                time.time_ns(),
            )
        ])

    def _append_metrics(self, lines) -> None:
        if self._metrics_writer is not None:
            self._metrics_writer.write(lines)

    # -- request dispatch --------------------------------------------------------

    def dispatch(self, message: dict) -> dict:
        """Answer one inbound request message with a reply message."""
        rtype = protocol.validate_request(message)
        if rtype == "PING":
            return protocol.request("PING") | {"type": "PONG"}
        if rtype == "SUBMIT":
            return self._handle_submit(message)
        if rtype == "STATUS":
            return self._handle_status(message)
        if rtype == "RESULT":
            return self._handle_result(message)
        if rtype == "METRICS":
            return {
                "v": protocol.PROTOCOL_VERSION,
                "type": "METRICS",
                "body": self.metrics_text(),
            }
        if rtype == "DRAIN":
            done = self.drain()
            return {
                "v": protocol.PROTOCOL_VERSION,
                "type": "DRAINED",
                "jobs_done": done,
            }
        if rtype == "SHUTDOWN":
            # Reply first, then stop from another thread so this
            # handler can still flush the reply over the dying socket.
            self._draining.set()
            self.initiate_shutdown()
            return {"v": protocol.PROTOCOL_VERSION, "type": "STOPPING"}
        # The distributed-sweep verbs are valid protocol but belong to
        # the sweep coordinator, not the serve daemon.
        raise ProtocolError(
            f"{rtype} is not served by this daemon "
            f"(send it to a sweep coordinator)",
            code="unsupported",
        )

    def _handle_submit(self, message: dict) -> dict:
        if self._draining.is_set():
            raise ProtocolError(
                "daemon is draining and no longer accepts submissions",
                code="draining",
            )
        kind = message.get("kind", "qos")
        try:
            config = ExperimentConfig.from_dict(message["config"]).validate()
        except ReproError as error:
            raise ProtocolError(str(error), code="bad_config") from error
        if kind == "run" and record_kind(config) != "run":
            raise ProtocolError(
                f"config asks for a {config.fleet}-device fleet; submit "
                f"it as kind 'fleet' or 'qos'",
                code="bad_config",
            )
        with self._jobs_lock:
            self._next_id += 1
            job = Job(
                job_id=f"job-{self._next_id:06d}",
                kind=kind,
                config=config,
                records=message.get("records", False),
                trace=message.get("trace", False),
            )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._submitted.inc()
        self._queue.put(job)
        self.events.emit(
            "job_submitted", job=job.job_id, kind=kind, label=config.label
        )
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "SUBMITTED",
            "job_id": job.job_id,
        }

    def _job(self, job_id) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(
                f"unknown job id {job_id!r}", code="unknown_job"
            )
        return job

    def _handle_status(self, message: dict) -> dict:
        if "job_id" in message:
            return {
                "v": protocol.PROTOCOL_VERSION,
                "type": "STATUS",
                "job": self._job(message["job_id"]).summary(),
            }
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "STATUS",
            **self.status(),
        }

    def _handle_result(self, message: dict) -> dict:
        job = self._job(message["job_id"])
        if message.get("wait", True):
            deadline = time.monotonic() + float(
                message.get("timeout") or 300.0
            )
            with self._jobs_lock:
                while job.state in ("pending", "running"):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._job_done.wait(timeout=min(remaining, 0.5))
        if job.state == "failed":
            raise ProtocolError(
                f"{job.job_id} failed: {job.error}", code="job_failed"
            )
        if job.state != "done":
            raise ProtocolError(
                f"{job.job_id} is still {job.state}", code="job_pending"
            )
        reply = {
            "v": protocol.PROTOCOL_VERSION,
            "type": "RESULT",
            "job_id": job.job_id,
            **job.payload,
        }
        if job.trace:
            reply["trace"] = job.trace_spans or []
        return reply

    # -- observability -----------------------------------------------------------

    def status(self) -> dict:
        """The daemon-wide STATUS body (JSON-ready)."""
        with self._jobs_lock:
            states = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                states[job.state] += 1
            jobs = [self._jobs[jid].summary() for jid in self._order[-20:]]
        return {
            "pid": os.getpid(),
            "host": self.host,
            "port": self.port,
            "uptime_s": self.uptime_s,
            "draining": self._draining.is_set(),
            "queue_depth": states["pending"],
            "inflight": states["running"],
            "jobs": states,
            "recent": jobs,
            "engine": self.engine.stats_snapshot(),
            "spans_recorded": self.spans_recorded,
            "events_logged": self.events.events_logged,
        }

    @property
    def spans_recorded(self) -> int:
        """Spans the active tracer has recorded (0 when tracing is off)."""
        tracer = obs_tracing.active_tracer()
        return tracer.spans_recorded if tracer is not None else 0

    def metrics_text(self, timestamp_ns: int | None = None) -> str:
        """The registry as line protocol, engine/uptime gauges refreshed."""
        snapshot = self.engine.stats_snapshot()
        for key, value in snapshot.items():
            self.metrics.gauge("repro_engine", key).set(value)
        state = self.status()
        serve = "repro_serve"
        self.metrics.gauge(serve, "uptime_s").set(state["uptime_s"])
        self.metrics.gauge(serve, "queue_depth").set(state["queue_depth"])
        self.metrics.gauge(serve, "inflight").set(state["inflight"])
        self.metrics.gauge(serve, "draining").set(state["draining"])
        obs = "repro_obs"
        self.metrics.gauge(obs, "spans_recorded").set(
            state["spans_recorded"]
        )
        self.metrics.gauge(obs, "events_logged").set(state["events_logged"])
        return self.metrics.render(timestamp_ns)
