"""The shared asyncio front end: lifecycle edges every server inherits."""

from __future__ import annotations

import logging
import socket

from repro.serving.frontend import AsyncHTTPServer, Route, RouteTable
from repro.serving.metrics import MetricsRegistry


class _OkServer(AsyncHTTPServer):
    """Answers every request with an empty JSON object."""

    def __init__(self) -> None:
        super().__init__("127.0.0.1", 0, io_threads=1, name="test-frontend")
        self.table = RouteTable(
            MetricsRegistry(), {}, fallback=Route(lambda request: {})
        )


def _read_response(sock: socket.socket) -> bytes:
    reply = b""
    while not reply.endswith(b"{}"):
        chunk = sock.recv(4096)
        assert chunk, "server closed before answering"
        reply += chunk
    return reply


class TestShutdown:
    def test_idle_keep_alive_connection_closes_without_traceback(
        self, caplog
    ):
        # A keep-alive client parked between requests (as the router's
        # pooled sockets to its workers are) is cancelled in
        # ``readuntil`` at shutdown; that is a normal close, not an
        # "Exception in callback" on the asyncio logger.
        server = _OkServer().start()
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            with socket.create_connection((server.host, server.port),
                                          10.0) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: test\r\n\r\n")
                assert _read_response(sock).startswith(b"HTTP/1.1 200 ")
                server.shutdown()
                assert sock.recv(4096) == b""  # the server closed it
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "asyncio"]
        assert not any("Exception in callback" in m for m in logged), logged
