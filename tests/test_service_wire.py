"""The compile service over the shared wire core.

A streaming ``wait`` ends with its client rather than with the job, and
``ServiceClient`` reads replies through the bounded frame reader, so a
hostile or broken server surfaces as :class:`ServiceError`.
"""

import json
import socket
import threading

import pytest

from repro.parallel.backend import stream_task_results
from repro.parallel.local import SerialBackend
from repro.service import (
    CompileService,
    ServiceClient,
    ServiceError,
    ServiceSocketServer,
)
from repro.workloads.synthetic import synthetic_program

FUNCTIONS = 8


class StepBackend:
    """Serial backend that compiles one function per :meth:`step`."""

    worker_count = 1

    def __init__(self):
        self.inner = SerialBackend()
        self.steps = threading.Semaphore(0)

    def step(self, n=1):
        for _ in range(n):
            self.steps.release()

    def run_tasks(self, tasks):
        return list(self.run_tasks_streaming(tasks))

    def run_tasks_streaming(self, tasks):
        for task in tasks:
            assert self.steps.acquire(timeout=30.0), "test never stepped"
            yield from stream_task_results(self.inner, [task])


class TestStreamingWaitEndsWithItsClient:
    def test_handler_exits_at_the_first_event_it_cannot_send(self):
        backend = StepBackend()
        service = CompileService(backend, max_running=1)
        server = ServiceSocketServer(service)
        serving = threading.Thread(target=server.serve_until_shutdown, daemon=True)
        serving.start()

        streamers = []
        events_since = service.events_since

        def spy(*args, **kwargs):
            if threading.current_thread() not in streamers:
                streamers.append(threading.current_thread())
            return events_since(*args, **kwargs)

        service.events_since = spy
        try:
            client = ServiceClient(server.address)
            job_id = client.submit(synthetic_program("tiny", FUNCTIONS))
            host, _, port = server.address.rpartition(":")
            sock = socket.create_connection((host, int(port)), timeout=10.0)
            sock.sendall(
                json.dumps({"op": "wait", "job": job_id, "stream": True}).encode()
                + b"\n"
            )
            rfile = sock.makefile("rb")
            backend.step()
            while json.loads(rfile.readline())["event"]["event"] != "function_done":
                pass
            rfile.close()
            sock.close()
            (handler,) = streamers

            # Release the job one function at a time: the handler must
            # give up at a failed send, not poll on until the job ends.
            for _ in range(FUNCTIONS - 2):
                backend.step()
                handler.join(timeout=1.0)
                if not handler.is_alive():
                    break
            assert not handler.is_alive(), "stream outlived its client"
            assert not service.job(job_id).terminal
        finally:
            backend.step(FUNCTIONS)
            server.request_shutdown(drain=False)
            serving.join(timeout=30.0)


def _fake_server(reply: bytes) -> str:
    """A one-shot server that reads one request line and sends ``reply``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, listener:
            conn.makefile("rb").readline()
            conn.sendall(reply)

    threading.Thread(target=serve, daemon=True).start()
    return "127.0.0.1:%d" % listener.getsockname()[1]


class TestClientReadsRepliesBounded:
    @pytest.mark.parametrize(
        "reply, reason",
        [
            (b'{"ok": true, "pad": "' + b"x" * 4096 + b'"}\n', "oversized-frame"),
            (b"this is not json\n", "bad-json"),
            (b'{"ok": tr', "truncated-frame"),
        ],
        ids=["oversized", "not-json", "truncated"],
    )
    def test_bad_reply_raises_service_error(self, monkeypatch, reply, reason):
        import repro.service.server as server_mod

        monkeypatch.setattr(server_mod, "MAX_REQUEST_BYTES", 256)
        client = ServiceClient(_fake_server(reply), timeout=10.0)
        with pytest.raises(ServiceError) as excinfo:
            client.ping()
        assert excinfo.value.reason == reason
