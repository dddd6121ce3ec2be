"""The wire contract both TCP processes keep, over real sockets.

``repro serve`` (:class:`ServeDaemon`) and the sweep coordinator
(:class:`SweepCoordinator`) share one endpoint shell, so each check
here runs against both, started in-process on an ephemeral port.  A
malformed or misdirected request must get a typed ``ERROR`` reply with
the right ``code`` — never a silent drop — and the process must keep
serving afterwards.  A stream-level fault (a torn, oversized or
non-object frame) leaves the connection unparseable, so the endpoint
replies and then hangs up; a request-level fault (bad version, unknown
or foreign verb) keeps the connection open.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.api import Engine
from repro.dist import SweepCoordinator
from repro.errors import ServiceError
from repro.service import ServeDaemon, protocol
from repro.service.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION


def quiet(line: str) -> None:
    pass


def serve_daemon(tmp_path, port: int = 0) -> ServeDaemon:
    return ServeDaemon(
        port=port, engine=Engine(use_disk_cache=False), log=quiet
    )


def sweep_coordinator(tmp_path, port: int = 0) -> SweepCoordinator:
    return SweepCoordinator((), tmp_path / "store", port=port, log=quiet)


#: Valid v2 requests each process leaves to the other one.
FOREIGN_VERBS = {
    ServeDaemon: [
        protocol.request("CLAIM", worker="w0"),
        protocol.request("HEARTBEAT", worker="w0", chunk=0),
        protocol.request("PROGRESS", worker="w0", chunk=0, completed=1),
        protocol.request("COMPLETE", worker="w0", chunk=0),
    ],
    SweepCoordinator: [
        protocol.request("SUBMIT", config={}),
        protocol.request("RESULT", job_id="job-000001"),
        protocol.request("DRAIN"),
    ],
}


@pytest.fixture(params=[serve_daemon, sweep_coordinator],
                ids=lambda factory: factory.__name__)
def factory(request):
    return request.param


@pytest.fixture
def endpoint(factory, tmp_path):
    serving = factory(tmp_path)
    serving.start()
    yield serving
    serving.stop()


def connect(endpoint) -> socket.socket:
    return socket.create_connection(("127.0.0.1", endpoint.port), timeout=10)


def exchange(endpoint, message: dict) -> dict:
    with connect(endpoint) as sock:
        protocol.send_message(sock, message)
        return protocol.recv_message(sock)


def assert_error(reply: dict, code: str) -> None:
    assert (reply["type"], reply["code"]) == ("ERROR", code), reply
    assert reply["v"] == PROTOCOL_VERSION
    assert isinstance(reply["error"], str) and reply["error"]


def stream_fault(endpoint, payload: bytes, close_write: bool = False):
    """Send raw bytes; returns the reply and what follows it."""
    with connect(endpoint) as sock:
        sock.sendall(payload)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        reply = protocol.recv_message(sock)
        return reply, sock.recv(1)


def assert_still_serving(endpoint) -> None:
    assert exchange(endpoint, protocol.request("PING"))["type"] == "PONG"
    status = exchange(endpoint, protocol.request("STATUS"))
    assert status["type"] == "STATUS"
    assert status["port"] == endpoint.port


class TestRequestFaults:
    def test_version_mismatch_is_typed(self, endpoint):
        reply = exchange(endpoint, {"v": 99, "type": "PING"})
        assert_error(reply, "version_mismatch")
        assert_still_serving(endpoint)

    def test_unknown_type_is_typed(self, endpoint):
        reply = exchange(endpoint, {"v": PROTOCOL_VERSION, "type": "NOPE"})
        assert_error(reply, "unknown_type")
        assert_still_serving(endpoint)

    def test_foreign_verbs_are_unsupported(self, endpoint):
        for message in FOREIGN_VERBS[type(endpoint)]:
            assert_error(exchange(endpoint, message), "unsupported")
        assert_still_serving(endpoint)

    def test_request_faults_keep_the_connection(self, endpoint):
        with connect(endpoint) as sock:
            protocol.send_message(sock, {"v": 99, "type": "PING"})
            assert_error(protocol.recv_message(sock), "version_mismatch")
            protocol.send_message(sock, protocol.request("PING"))
            assert protocol.recv_message(sock)["type"] == "PONG"


class TestStreamFaults:
    def test_unparseable_body_is_typed_then_dropped(self, endpoint):
        reply, after = stream_fault(endpoint, struct.pack(">I", 5) + b"{{{{{")
        assert_error(reply, "bad_message")
        assert after == b""
        assert_still_serving(endpoint)

    def test_torn_frame_is_typed_then_dropped(self, endpoint):
        # The prefix promises 100 bytes; the peer sends 10 and stops.
        payload = struct.pack(">I", 100) + b'{"v": 2, "'
        reply, after = stream_fault(endpoint, payload, close_write=True)
        assert_error(reply, "bad_message")
        assert "truncated" in reply["error"]
        assert after == b""
        assert_still_serving(endpoint)

    def test_oversized_length_prefix_is_typed_then_dropped(self, endpoint):
        payload = struct.pack(">I", MAX_FRAME_BYTES + 1)
        reply, after = stream_fault(endpoint, payload)
        assert_error(reply, "bad_message")
        assert str(MAX_FRAME_BYTES) in reply["error"]
        assert after == b""
        assert_still_serving(endpoint)

    def test_json_array_body_is_typed_then_dropped(self, endpoint):
        body = b'[{"v": 2, "type": "PING"}]'
        reply, after = stream_fault(
            endpoint, struct.pack(">I", len(body)) + body
        )
        assert_error(reply, "bad_message")
        assert "JSON object" in reply["error"]
        assert after == b""
        assert_still_serving(endpoint)


class TestSharedVerbs:
    def test_every_fault_then_still_serving(self, endpoint):
        """All the faults above in one run; the endpoint outlives them."""
        exchange(endpoint, {"v": 99, "type": "PING"})
        exchange(endpoint, {"v": PROTOCOL_VERSION, "type": "NOPE"})
        for message in FOREIGN_VERBS[type(endpoint)]:
            exchange(endpoint, message)
        for payload in (
            struct.pack(">I", 5) + b"{{{{{",
            struct.pack(">I", MAX_FRAME_BYTES + 1),
            struct.pack(">I", 2) + b"[]",
        ):
            stream_fault(endpoint, payload)
        stream_fault(
            endpoint, struct.pack(">I", 100) + b"{", close_write=True
        )
        assert_still_serving(endpoint)

    def test_status_body_frames_the_process_fields(self, endpoint):
        status = exchange(endpoint, protocol.request("STATUS"))
        keys = list(status)
        # The shared keys bracket each process's own, in wire order.
        assert keys[:5] == ["v", "type", "pid", "host", "port"]
        assert keys[-2:] == ["spans_recorded", "events_logged"]
        assert status["events_logged"] >= 1  # event=listening

    def test_metrics_carry_the_obs_gauges(self, endpoint):
        reply = exchange(endpoint, protocol.request("METRICS"))
        assert reply["type"] == "METRICS"
        lines = reply["body"].splitlines()
        assert any(line.startswith("repro_obs ") for line in lines)

    def test_shutdown_replies_then_stops(self, endpoint):
        port = endpoint.port
        reply = exchange(endpoint, protocol.request("SHUTDOWN"))
        assert reply == {"v": PROTOCOL_VERSION, "type": "STOPPING"}
        endpoint._shutdown_thread.join(timeout=30)
        assert endpoint._server is None
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=10)

    def test_second_endpoint_on_same_port_fails_fast(
        self, endpoint, factory, tmp_path
    ):
        rival = factory(tmp_path / "rival", port=endpoint.port)
        with pytest.raises(ServiceError, match="already running"):
            rival.start()
        assert_still_serving(endpoint)


class TestFailedStart:
    def test_failed_start_releases_the_port(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        broken = ServeDaemon(
            port=port, engine=Engine(use_disk_cache=False), log=quiet,
            pidfile=tmp_path / "missing" / "serve.pid",
        )
        with pytest.raises(ServiceError, match="pidfile"):
            broken.start()
        assert broken._server is None
        retry = serve_daemon(tmp_path, port=port)
        retry.start()
        try:
            assert exchange(retry, protocol.request("PING"))["type"] == "PONG"
        finally:
            retry.stop()
