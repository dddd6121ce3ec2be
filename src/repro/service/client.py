"""A blocking client for the serve daemon, and the CLI verbs over it.

:class:`ServeClient` speaks :mod:`repro.service.protocol` to a running
``repro serve`` daemon.  Every call opens one connection, performs one
request/reply exchange and closes (the exchange is
:class:`~repro.service.endpoint.EndpointClient`, shared with the sweep
worker's client) — the daemon is the stateful side; clients stay
trivially restartable and safe to use from any process (``repro
submit`` in a second shell is exactly this class).

Typed ``ERROR`` replies and socket-level failures both surface as
:class:`~repro.errors.ServiceError` — the error reply's machine code is
kept on the exception as ``code`` — so the CLI's one-line exit-2
handling covers every failure mode.
"""

from __future__ import annotations

from ..api.config import ExperimentConfig
from . import protocol
from .daemon import DEFAULT_HOST, DEFAULT_PORT
from .endpoint import EndpointClient, RemoteError

__all__ = ["ServeClient", "RemoteError"]


class ServeClient(EndpointClient):
    """One request/reply exchange per call against a serve daemon.

    ``timeout`` bounds each socket operation; RESULT waits size their
    timeout to the requested job wait plus slack, so a long-running job
    does not trip the transport timeout.
    """

    peer = "daemon"
    unreachable_hint = "is repro serve running?"

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 timeout: float = 30.0) -> None:
        """See the class docstring."""
        super().__init__(host, port, timeout)

    # -- the protocol verbs ------------------------------------------------------

    def submit(self, config, kind: str = "qos",
               records: bool = False, trace: bool = False) -> str:
        """Enqueue one experiment; returns its job id.

        ``config`` is an :class:`~repro.api.config.ExperimentConfig` or
        its dict form; ``kind`` picks the execution path (``run``,
        ``fleet`` or ``qos``); ``records`` asks the eventual RESULT to
        include per-device records; ``trace`` asks a tracing daemon to
        attach the job's span subtree to the RESULT payload under
        ``trace`` (an empty list when the daemon is not tracing).
        """
        if isinstance(config, ExperimentConfig):
            config = config.to_dict()
        fields = {"kind": kind, "config": config, "records": records}
        if trace:
            fields["trace"] = True
        reply = self._exchange(protocol.request("SUBMIT", **fields))
        return reply["job_id"]

    def status(self, job_id: str | None = None) -> dict:
        """Daemon-wide state, or one job's state when ``job_id`` is given."""
        if job_id is None:
            return super().status()
        reply = self._exchange(protocol.request("STATUS", job_id=job_id))
        return self._body(reply)

    def result(self, job_id: str, wait: bool = True,
               timeout: float = 300.0) -> dict:
        """Fetch a job's result payload, blocking until done by default.

        Returns the payload dict (``kind`` plus ``result``/``row``);
        raises :class:`RemoteError` with code ``job_failed`` if the job
        raised inside the daemon and ``job_pending`` if it has not
        finished within ``timeout`` (or at all, with ``wait=False``).
        """
        reply = self._exchange(
            protocol.request(
                "RESULT", job_id=job_id, wait=wait, timeout=timeout
            ),
            timeout=(timeout + self.timeout) if wait else None,
        )
        return self._body(reply)

    def metrics(self) -> str:
        """The daemon's metrics registry as InfluxDB line protocol."""
        return self._exchange(protocol.request("METRICS"))["body"]

    def drain(self, timeout: float = 300.0) -> int:
        """Stop new submissions, wait for quiescence; returns jobs done."""
        reply = self._exchange(
            protocol.request("DRAIN"), timeout=timeout + self.timeout
        )
        return reply["jobs_done"]

    def shutdown(self, timeout: float = 300.0) -> None:
        """Ask the daemon to drain and stop."""
        self._exchange(
            protocol.request("SHUTDOWN"), timeout=timeout + self.timeout
        )
