"""One framing contract at every TCP endpoint, pinned byte for byte.

The compile service (``warpcc serve``), the fabric hub and the network
cache server all speak JSON lines.  This replays the same hostile and
edge-case inputs at each of them over a raw socket and checks the exact
reply bytes and whether the connection survives:

- framing violations (oversized line, EOF mid-line, bytes that are not
  JSON, JSON that is not an object) get one machine-readable reply and
  the connection is dropped;
- a blank line is skipped;
- an unknown op and an application error are answered in each
  endpoint's own dialect: the service and the cache server reply, the
  hub stays silent, and only the cache server treats an unknown (keyless)
  request as a protocol violation.
"""

import socket
import threading

import pytest

from repro.fabric import CacheServiceServer, FabricHub
from repro.fabric.wire import DEFAULT_MAX_FRAME_BYTES, encode_frame
from repro.parallel.local import SerialBackend
from repro.service import CompileService, ServiceSocketServer

#: The service's request bound, shrunk so its oversized case stays small.
SERVICE_BOUND = 256

OPEN = "open"
CLOSED = "closed"


class Endpoint:
    """A live endpoint plus how to greet it and prove a connection open."""

    def __init__(self, name, address, bound, hello=None, probe=None, alive=None):
        self.name = name
        self.host, _, port = address.rpartition(":")
        self.port = int(port)
        self.bound = bound
        self.hello = hello
        self.probe = probe
        self.alive = alive

    def exchange(self, data, *, half_close=False, expect_replies=1):
        """Send ``data``; return (reply lines, OPEN or CLOSED)."""
        with socket.create_connection((self.host, self.port), timeout=10.0) as sock:
            rfile = sock.makefile("rb")
            if self.hello is not None:
                sock.sendall(encode_frame(self.hello))
                assert b'"ok": true' in rfile.readline()
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            replies = [rfile.readline() for _ in range(expect_replies)]
            if self.probe is not None:
                # A live connection answers the probe; a dropped one
                # reads EOF (the probe never arrives).
                try:
                    sock.sendall(encode_frame(self.probe))
                except OSError:
                    return replies, CLOSED
                following = rfile.readline()
                if following == b"":
                    return replies, CLOSED
                assert b'"ok": true' in following, following
                return replies, OPEN
            # The hub answers nothing once a node is registered: silence
            # with the node's lease still held means open, EOF dropped.
            sock.settimeout(0.5)
            try:
                following = rfile.readline()
            except socket.timeout:
                assert self.alive()
                return replies, OPEN
            assert following == b"", following
            return replies, CLOSED


@pytest.fixture
def service(monkeypatch):
    import repro.service.server as server_mod

    monkeypatch.setattr(server_mod, "MAX_REQUEST_BYTES", SERVICE_BOUND)
    compile_service = CompileService(SerialBackend(), max_running=1)
    server = ServiceSocketServer(compile_service)
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    try:
        yield Endpoint(
            "service", server.address, SERVICE_BOUND, probe={"op": "ping"}
        )
    finally:
        server.request_shutdown(drain=False)
        thread.join(timeout=30.0)


@pytest.fixture
def hub():
    with FabricHub(lease_ttl=30.0, heartbeat_interval=10.0) as fabric_hub:
        endpoint = Endpoint(
            "hub",
            fabric_hub.address,
            DEFAULT_MAX_FRAME_BYTES,
            hello={"op": "register", "node": "replay", "workers": 1},
            alive=lambda: fabric_hub.live_node_count() == 1,
        )
        endpoint.fabric_hub = fabric_hub
        yield endpoint


@pytest.fixture
def cache(tmp_path):
    with CacheServiceServer(tmp_path / "cache") as server:
        yield Endpoint(
            "cache", server.address, DEFAULT_MAX_FRAME_BYTES, probe={"op": "ping"}
        )


@pytest.fixture(params=["service", "hub", "cache"])
def endpoint(request):
    return request.getfixturevalue(request.param)


def _error(endpoint, reason, message):
    frame = {"ok": False, "reason": reason, "error": message}
    if endpoint.name == "hub":
        frame["op"] = "error"
    return encode_frame(frame)


class TestFramingViolationsDrop:
    def test_oversized_line(self, endpoint):
        # Exactly one byte past the bound and no newline: the reader
        # refuses before it ever sees the end of the line.
        replies, state = endpoint.exchange(b"x" * (endpoint.bound + 1))
        assert replies == [
            _error(
                endpoint,
                "oversized-frame",
                f"frame exceeds {endpoint.bound} bytes",
            )
        ]
        assert state == CLOSED

    def test_eof_mid_line(self, endpoint):
        replies, state = endpoint.exchange(b'{"op": "pi', half_close=True)
        assert replies == [
            _error(endpoint, "truncated-frame", "connection closed mid-frame")
        ]
        assert state == CLOSED

    def test_bytes_that_are_not_json(self, endpoint):
        replies, state = endpoint.exchange(b"this is not json\n")
        assert replies == [
            _error(
                endpoint,
                "bad-json",
                "malformed JSON frame: Expecting value: line 1 column 1 (char 0)",
            )
        ]
        assert state == CLOSED

    def test_json_that_is_not_an_object(self, endpoint):
        replies, state = endpoint.exchange(b"[1, 2, 3]\n")
        assert replies == [
            _error(
                endpoint, "bad-request", "frame must be a JSON object, got list"
            )
        ]
        assert state == CLOSED


class TestBlankLine:
    def test_blank_line_is_skipped(self, endpoint):
        replies, state = endpoint.exchange(b"\n", expect_replies=0)
        assert replies == []
        assert state == OPEN


class TestUnknownOp:
    @pytest.mark.parametrize("op", ["frobnicate", ["frobnicate"]])
    def test_unknown_op(self, endpoint, op):
        data = encode_frame({"op": op})
        if endpoint.name == "service":
            replies, state = endpoint.exchange(data)
            assert replies == [
                _error(endpoint, "bad-request", f"unknown op {op!r}")
            ]
            assert state == OPEN
        elif endpoint.name == "hub":
            # Forward compatibility: a registered node's unknown ops are
            # ignored, silently.
            replies, state = endpoint.exchange(data, expect_replies=0)
            assert state == OPEN
        else:
            # Every cache op is keyed; the key check comes first, and a
            # malformed cache request is a protocol violation.
            replies, state = endpoint.exchange(data)
            assert replies == [
                _error(endpoint, "bad-request", "cache request without a key")
            ]
            assert state == CLOSED


class TestApplicationError:
    def test_service_maps_exceptions_to_bad_request(self, service):
        replies, state = service.exchange(b'{"op": "submit"}\n')
        assert replies == [_error(service, "bad-request", "KeyError: 'source'")]
        assert state == OPEN

    def test_cache_maps_exceptions_to_error_with_repr(self, cache):
        replies, state = cache.exchange(
            b'{"op": "cache-get", "key": "a\\u0000b"}\n'
        )
        assert replies == [
            _error(cache, "error", "ValueError('embedded null byte')")
        ]
        assert state == OPEN

    def test_hub_counts_a_corrupt_result_and_keeps_the_node(self, hub):
        replies, state = hub.exchange(
            b'{"blob": "!!", "id": "w9.0", "op": "result", "sha256": "0"}\n',
            expect_replies=0,
        )
        assert state == OPEN
        assert hub.fabric_hub.stats.corrupt_frames == 1
