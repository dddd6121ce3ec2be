"""The wire endpoint shell both TCP processes share, and its client.

``repro serve`` (:class:`~repro.service.daemon.ServeDaemon`) and the
sweep coordinator (:class:`~repro.dist.coordinator.SweepCoordinator`)
speak one protocol (:mod:`repro.service.protocol`).  Everything that
is the same between them lives here, once:

* :class:`Endpoint` binds the socket (a second process on an occupied
  port fails fast with "already running"), runs the acceptor thread,
  logs ``event=listening``/``event=stopped``, installs its event log
  for the process, and answers the shared verbs — ``PING``,
  ``STATUS``, ``METRICS`` and ``SHUTDOWN`` — refusing every verb the
  subclass does not serve with a typed ``unsupported`` error.
* One connection handler reads frames until the peer hangs up; a torn
  or oversized frame gets a typed ``bad_message`` reply, then the
  connection is dropped (the stream is no longer parseable).
* :class:`EndpointClient` performs one request/reply exchange per call
  and turns typed ``ERROR`` replies into :class:`RemoteError`.

A subclass serves a verb by defining ``_on_<verb>(message)`` (for
example ``_on_claim``), which returns the reply message or raises
:class:`~repro.errors.ProtocolError` with the reply's error code.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time

from ..errors import ProtocolError, ServiceError
from ..obs import events as obs_events
from ..obs import tracing as obs_tracing
from . import protocol
from .telemetry import MetricsRegistry

__all__ = ["DEFAULT_HOST", "Endpoint", "EndpointClient", "RemoteError"]

#: Endpoints bind localhost only: the protocol is unauthenticated.
DEFAULT_HOST = "127.0.0.1"


class RemoteError(ServiceError):
    """The peer answered with a typed ERROR reply.

    ``code`` carries the reply's machine-readable error code (one of
    :data:`repro.service.protocol.ERROR_CODES`), so callers can branch
    on ``job_failed`` vs ``draining`` without parsing the message.
    """

    def __init__(self, message: str, code: str = "bad_message") -> None:
        super().__init__(message)
        self.code = code


class _Server(socketserver.ThreadingTCPServer):
    """Per-connection handler threads over one listening socket."""

    allow_reuse_address = False
    daemon_threads = True

    def __init__(self, address, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        super().__init__(address, _Handler)


class _Handler(socketserver.BaseRequestHandler):
    """Reads frames off one connection until the peer hangs up."""

    def handle(self):  # noqa: D102 - socketserver plumbing
        endpoint = self.server.endpoint
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
                reply = endpoint.dispatch(message)
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


class Endpoint:
    """One TCP process serving the wire protocol.

    Subclasses name themselves through the class attributes below,
    serve their own verbs through ``_on_<verb>`` methods, and hook the
    lifecycle through :meth:`_open`/:meth:`_close` and the STATUS and
    METRICS bodies through :meth:`_status_fields`/:meth:`_refresh_gauges`.
    """

    #: How errors name this kind of process ("is another ... running?").
    process = "repro endpoint"
    #: Who the ``unsupported`` refusal says does not serve a verb ...
    served_by = "this endpoint"
    #: ... and where it says to send the verb instead.
    refer_to = "another endpoint"

    def __init__(self, host: str, port: int, component: str, log) -> None:
        """Bind nothing yet; ``component`` prefixes every event line."""
        self.host = host
        self.requested_port = port
        self.events = obs_events.EventLog(component, sink=log)
        self.metrics = MetricsRegistry()
        self._server: _Server | None = None
        self._started_s: float | None = None
        self._shutdown_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    @property
    def uptime_s(self) -> float:
        """Seconds since the endpoint started listening."""
        if self._started_s is None:
            return 0.0
        return time.monotonic() - self._started_s

    def start(self) -> None:
        """Bind the socket and start serving; returns once accepting."""
        if self._server is not None:
            raise ServiceError(f"{self.process} already started")
        try:
            self._server = _Server((self.host, self.requested_port), self)
        except OSError as error:
            raise ServiceError(
                f"cannot listen on {self.host}:{self.requested_port}: "
                f"{error.strerror or error} "
                f"(is another {self.process} already running?)"
            ) from error
        try:
            fields = self._open()
        except BaseException:
            # Release the port: a failed start must not hold it.
            server, self._server = self._server, None
            server.server_close()
            raise
        obs_events.install(self.events)
        self._started_s = time.monotonic()
        threading.Thread(
            target=self._server.serve_forever,
            name=f"{self.process} acceptor",
            daemon=True,
        ).start()
        self.events.emit(
            "listening", host=self.host, port=self.port, pid=os.getpid(),
            **fields,
        )

    def stop(self) -> None:
        """Stop the acceptor, close the socket, release, log ``stopped``."""
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        self.events.emit("stopped", **self._close())
        obs_events.uninstall(self.events)
        self.events.close()

    def initiate_shutdown(self) -> None:
        """Shut down from any thread, without blocking the caller."""
        if self._shutdown_thread is not None:
            return
        thread = threading.Thread(
            target=self._shut_down, name=f"{self.process} shutdown",
            daemon=True,
        )
        self._shutdown_thread = thread
        thread.start()

    def _shut_down(self) -> None:
        self.stop()

    def _open(self) -> dict:
        """Acquire what serving needs; returns extra ``listening`` fields."""
        return {}

    def _close(self) -> dict:
        """Release what :meth:`_open` acquired; returns ``stopped`` fields."""
        return {}

    # -- request dispatch --------------------------------------------------------

    def dispatch(self, message: dict) -> dict:
        """Answer one inbound request message with a reply message."""
        rtype = protocol.validate_request(message)
        handler = getattr(self, f"_on_{rtype.lower()}", None)
        if handler is None:
            raise ProtocolError(
                f"{rtype} is not served by {self.served_by} "
                f"(send it to {self.refer_to})",
                code="unsupported",
            )
        return handler(message)

    def _on_ping(self, message: dict) -> dict:
        return protocol.reply("PONG")

    def _on_status(self, message: dict) -> dict:
        return protocol.reply("STATUS", **self.status())

    def _on_metrics(self, message: dict) -> dict:
        return protocol.reply("METRICS", body=self.metrics_text())

    def _on_shutdown(self, message: dict) -> dict:
        # Reply first, stop from another thread: this handler must
        # still flush the reply over the dying socket.
        self.initiate_shutdown()
        return protocol.reply("STOPPING")

    # -- observability -----------------------------------------------------------

    def status(self) -> dict:
        """The process-wide STATUS body (JSON-ready)."""
        return {
            "pid": os.getpid(),
            "host": self.host,
            "port": self.port,
            **self._status_fields(),
            "spans_recorded": self.spans_recorded,
            "events_logged": self.events.events_logged,
        }

    def _status_fields(self) -> dict:
        return {}

    @property
    def spans_recorded(self) -> int:
        """Spans the active tracer has recorded (0 when tracing is off)."""
        tracer = obs_tracing.active_tracer()
        return tracer.spans_recorded if tracer is not None else 0

    def metrics_text(self, timestamp_ns: int | None = None) -> str:
        """The metrics registry as line protocol, gauges refreshed."""
        self._refresh_gauges()
        obs = "repro_obs"
        self.metrics.gauge(obs, "spans_recorded").set(self.spans_recorded)
        self.metrics.gauge(obs, "events_logged").set(
            self.events.events_logged
        )
        return self.metrics.render(timestamp_ns)

    def _refresh_gauges(self) -> None:
        pass


class EndpointClient:
    """One request/reply exchange per call against an :class:`Endpoint`.

    Every call opens one connection, exchanges one frame each way and
    closes: the endpoint is the stateful side, so clients stay
    trivially restartable.  Typed ``ERROR`` replies raise
    :class:`RemoteError`; socket-level failures raise
    :class:`~repro.errors.ServiceError`.  ``timeout`` bounds each
    socket operation unless a call passes its own.
    """

    #: How error messages name the peer ...
    peer = "endpoint"
    #: ... and what they suggest when it cannot be reached.
    unreachable_hint = "is it running?"

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        """See the class docstring."""
        self.host = host
        self.port = port
        self.timeout = timeout

    def _exchange(self, message: dict,
                  timeout: float | None = None) -> dict:
        try:
            with socket.create_connection(
                (self.host, self.port),
                timeout=timeout if timeout is not None else self.timeout,
            ) as sock:
                protocol.send_message(sock, message)
                reply = protocol.recv_message(sock)
        except protocol.ConnectionClosed as error:
            raise ServiceError(
                f"{self.peer} at {self.host}:{self.port} closed the "
                f"connection without replying"
            ) from error
        except OSError as error:
            raise ServiceError(
                f"cannot reach {self.peer} at {self.host}:{self.port}: "
                f"{error.strerror or error} ({self.unreachable_hint})"
            ) from error
        if reply.get("type") == "ERROR":
            raise RemoteError(
                reply.get("error", f"unspecified {self.peer} error"),
                code=reply.get("code", "bad_message"),
            )
        return reply

    @staticmethod
    def _body(reply: dict) -> dict:
        """A reply without its ``v``/``type`` envelope."""
        return {
            key: value for key, value in reply.items()
            if key not in ("v", "type")
        }

    def status(self) -> dict:
        """The endpoint's STATUS body."""
        return self._body(self._exchange(protocol.request("STATUS")))

    def ping(self) -> bool:
        """True when an endpoint answers at ``(host, port)``."""
        try:
            return self._exchange(protocol.request("PING"))["type"] == "PONG"
        except ServiceError:
            return False
