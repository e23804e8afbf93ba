"""AsyncConversationServer: streaming, parity, admission, saturation.

Exercises the asyncio front end over a real socket: ``/chat`` bodies
byte-identical to a golden fixture, SSE event ordering
on ``/chat/stream`` (``rows`` before the terminating ``done``),
clarification events, mid-stream disconnect cleanup, admission (the
one in-flight bound and the per-session token bucket),
and a miniature version of the ROADMAP saturation gate: under
over-admission load the p99 of *admitted* turns stays bounded and the
excess is shed as 503s that show up in ``/metrics``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.serving import AsyncConversationServer, TokenBucket
from tests.conftest import TOY_DRUGS
from tests.serving.conftest import FakeClock, build_toy_agent, http_json, http_text


#: ``/chat`` response bodies of ``TestChatParity.SCRIPT``, one per line.
GOLDEN_CHAT_BODIES = Path(__file__).parent / "golden" / "chat_bodies.jsonl"


def dosage_of(drug: str) -> str:
    return f"{10 * (TOY_DRUGS.index(drug) + 1)}mg daily"


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class RawClient:
    """A hand-rolled HTTP/1.1 client: raw bytes, keep-alive, chunked."""

    def __init__(self, host: str, port: int, timeout: float = 15.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.file = self.sock.makefile("rb")

    def send(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        close: bool = False,
    ) -> None:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            "Host: test",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if close:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.sock.sendall(head.encode("latin-1") + body)

    def read_response(self) -> tuple[int, dict[str, str], bytes]:
        """Read one full response; de-chunks streamed bodies."""
        status_line = self.file.readline().decode("latin-1")
        status = int(status_line.split(" ", 2)[1])
        headers: dict[str, str] = {}
        while True:
            line = self.file.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body = b""
            while True:
                size = int(self.file.readline().strip(), 16)
                chunk = self.file.read(size)
                self.file.read(2)  # trailing CRLF
                if size == 0:
                    break
                body += chunk
            return status, headers, body
        length = int(headers.get("content-length", "0") or "0")
        return status, headers, self.file.read(length)

    def read_head_and_first_chunk(self) -> bytes:
        """For disconnect tests: stop reading after one streamed chunk."""
        while self.file.readline().strip():
            pass  # status line + headers
        size = int(self.file.readline().strip(), 16)
        chunk = self.file.read(size)
        self.file.read(2)
        return chunk

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def parse_events(body: bytes) -> list[tuple[str, dict]]:
    """Split an SSE body into ordered (event, data) pairs."""
    events = []
    for frame in body.decode("utf-8").split("\n\n"):
        if not frame.strip():
            continue
        event, data = None, None
        for line in frame.split("\n"):
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        events.append((event, data))
    return events


def one_shot(
    host: str, port: int, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict[str, str], bytes]:
    client = RawClient(host, port)
    try:
        client.send(method, path, payload, close=True)
        return client.read_response()
    finally:
        client.close()


def stream_events(
    host: str, port: int, payload: dict
) -> tuple[int, list[tuple[str, dict]]]:
    status, headers, body = one_shot(host, port, "POST", "/chat/stream", payload)
    if headers.get("content-type", "").startswith("text/event-stream"):
        return status, parse_events(body)
    return status, [("__json__", json.loads(body))]


@pytest.fixture(scope="module")
def aserved():
    """A running async server over a fresh toy agent (contract tests)."""
    agent = build_toy_agent()
    server = AsyncConversationServer(
        agent, port=0, max_workers=8, max_pending=64, request_timeout=30.0
    )
    with server:
        yield server


class TestHTTPContract:
    def test_chat_answers_and_reuses_session(self, aserved):
        status, first = http_json(
            aserved.address + "/chat", {"utterance": "dosage for Aspirin"}
        )
        assert status == 200
        assert first["kind"] == "answer"
        assert dosage_of("Aspirin") in first["text"]
        status, second = http_json(
            aserved.address + "/chat",
            {"utterance": "how about for Ibuprofen?",
             "session_id": first["session_id"]},
        )
        assert status == 200
        assert second["turn"] == 2
        assert dosage_of("Ibuprofen") in second["text"]

    def test_healthz_metrics_and_errors(self, aserved):
        status, health = http_json(aserved.address + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        status, text = http_text(aserved.address + "/metrics")
        assert status == 200
        assert "repro_turns_total" in text
        status, body = http_json(aserved.address + "/chat", {"utterance": "  "})
        assert status == 400
        status, body = http_json(
            aserved.address + "/chat",
            {"utterance": "hi", "session_id": "999999"},
        )
        assert status == 404
        assert body["error"] == "unknown_session"
        status, _headers, raw = one_shot(
            aserved.host, aserved.port, "GET", "/nope"
        )
        assert status == 404

    def test_bad_json_body_is_400(self, aserved):
        client = RawClient(aserved.host, aserved.port)
        try:
            raw = b"not json"
            head = (
                f"POST /chat HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(raw)}\r\nConnection: close\r\n\r\n"
            )
            client.sock.sendall(head.encode("latin-1") + raw)
            status, _headers, body = client.read_response()
            assert status == 400
            assert json.loads(body)["error"] == "bad_json"
        finally:
            client.close()

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_invalid_content_length_is_400(self, aserved, length):
        client = RawClient(aserved.host, aserved.port)
        try:
            client.sock.sendall(
                f"POST /chat HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("latin-1")
            )
            status, _headers, body = client.read_response()
            assert status == 400
            assert json.loads(body)["error"] == "bad_request"
        finally:
            client.close()

    def test_transfer_encoding_body_is_501_and_closes(self, aserved):
        # A chunked body is refused whole: one 501, then the connection
        # closes, so the chunk bytes are never read as a request.
        body = json.dumps({"utterance": "dosage for Aspirin"}).encode()
        client = RawClient(aserved.host, aserved.port)
        try:
            client.sock.sendall(
                b"POST /chat HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + f"{len(body):x}\r\n".encode("latin-1") + body
                + b"\r\n0\r\n\r\n"
            )
            status, headers, raw = client.read_response()
            assert status == 501
            assert json.loads(raw)["error"] == "transfer_encoding_unsupported"
            assert headers["connection"] == "close"
            assert client.file.read() == b""  # no second response
        finally:
            client.close()

    def test_keep_alive_serves_multiple_requests_per_connection(self, aserved):
        client = RawClient(aserved.host, aserved.port)
        try:
            client.send("POST", "/chat", {"utterance": "dosage for Aspirin"})
            status, _headers, body = client.read_response()
            assert status == 200
            sid = json.loads(body)["session_id"]
            client.send(
                "POST", "/chat",
                {"utterance": "precaution for Ibuprofen", "session_id": sid},
            )
            status, _headers, body = client.read_response()
            assert status == 200
            assert json.loads(body)["turn"] == 2
        finally:
            client.close()


class TestChatParity:
    #: A conversation exercising answers, slot filling, context carry-over.
    SCRIPT = (
        "dosage for Aspirin",
        "show me the precaution",
        "Aspirin",
        "what about Ibuprofen?",
    )

    def _transcript(self, server) -> list[bytes]:
        bodies, sid = [], None
        for utterance in self.SCRIPT:
            payload = {"utterance": utterance}
            if sid is not None:
                payload["session_id"] = sid
            status, _headers, body = one_shot(
                server.host, server.port, "POST", "/chat", payload
            )
            assert status == 200
            bodies.append(body)
            sid = json.loads(body)["session_id"]
        return bodies

    def test_chat_bodies_byte_identical_to_golden_fixture(self):
        """The fixture holds the ``/chat`` bodies of ``SCRIPT`` as the
        ``ThreadingHTTPServer`` front end returned them before it was
        retired; the one front end left must reproduce them byte for
        byte."""
        with AsyncConversationServer(
            build_toy_agent(), port=0, max_workers=4
        ) as server:
            bodies = self._transcript(server)
        assert bodies == GOLDEN_CHAT_BODIES.read_bytes().splitlines()


class TestStreaming:
    def test_rows_stream_before_done(self, aserved):
        before = aserved.app.metrics.counter("stream_chunks_total").value
        status, events = stream_events(
            aserved.host, aserved.port, {"utterance": "dosage for Aspirin"}
        )
        assert status == 200
        kinds = [kind for kind, _data in events]
        assert kinds[-1] == "done"
        assert "rows" in kinds
        assert kinds.index("rows") < kinds.index("done")
        rows = events[kinds.index("rows")][1]
        assert rows["batch"] == 0
        assert rows["rows"]
        assert dosage_of("Aspirin") in str(rows["rows"])
        done = events[-1][1]
        assert done["kind"] == "answer"
        assert dosage_of("Aspirin") in done["text"]
        after = aserved.app.metrics.counter("stream_chunks_total").value
        assert after > before

    def test_done_event_equals_chat_response(self):
        with AsyncConversationServer(
            build_toy_agent(), port=0, max_workers=4
        ) as plain:
            _status, _headers, body = one_shot(
                plain.host, plain.port, "POST", "/chat",
                {"utterance": "dosage for Aspirin"},
            )
            chat_body = json.loads(body)
        with AsyncConversationServer(
            build_toy_agent(), port=0, max_workers=4
        ) as streaming:
            status, events = stream_events(
                streaming.host, streaming.port,
                {"utterance": "dosage for Aspirin"},
            )
        assert status == 200
        assert events[-1][0] == "done"
        assert events[-1][1] == chat_body

    def test_elicitation_event_then_follow_up(self, aserved):
        status, events = stream_events(
            aserved.host, aserved.port, {"utterance": "show me the precaution"}
        )
        assert status == 200
        kinds = [kind for kind, _data in events]
        assert "elicitation" in kinds
        elicitation = events[kinds.index("elicitation")][1]
        assert elicitation["concept"] == "Drug"
        assert elicitation["text"]
        done = events[-1][1]
        assert done["kind"] == "elicit"
        # The streamed clarification turn left a usable session behind.
        status, answer = http_json(
            aserved.address + "/chat",
            {"utterance": "Aspirin", "session_id": done["session_id"]},
        )
        assert status == 200
        assert answer["kind"] == "answer"

    def test_disambiguation_event_carries_choices(self, aserved):
        status, events = stream_events(
            aserved.host, aserved.port, {"utterance": "precaution for Calcium"}
        )
        assert status == 200
        kinds = [kind for kind, _data in events]
        assert "disambiguation" in kinds
        data = events[kinds.index("disambiguation")][1]
        assert "Calcium Carbonate" in data["choices"]
        assert "Calcium Citrate" in data["choices"]
        assert events[-1][0] == "done"
        assert events[-1][1]["kind"] == "disambiguate"

    def test_mid_stream_disconnect_still_commits_the_turn(self):
        agent = build_toy_agent()
        server = AsyncConversationServer(
            agent, port=0, max_workers=2, max_pending=4, request_timeout=30.0
        )
        with server:
            app = server.app
            status, opened = http_json(
                server.address + "/chat", {"utterance": "dosage for Aspirin"}
            )
            assert status == 200
            sid = opened["session_id"]

            original = agent.respond
            closed = threading.Event()
            disconnects = app.metrics.counter("stream_disconnects_total")

            def chunky(utterance, context, chunk_sink=None):
                # First chunk flushes the stream head to the client.
                chunk_sink("rows", {"batch": 0, "rows": [["first"]]})
                closed.wait(timeout=10.0)
                # Keep emitting until the loop notices the dead socket.
                for batch in range(1, 500):
                    chunk_sink("rows", {"batch": batch, "rows": [["more"]]})
                    if disconnects.value:
                        break
                    time.sleep(0.005)
                return original(utterance, context, None)

            agent.respond = chunky
            try:
                client = RawClient(server.host, server.port)
                client.send(
                    "POST", "/chat/stream",
                    {"utterance": "precaution for Ibuprofen",
                     "session_id": sid},
                )
                first = client.read_head_and_first_chunk()
                assert b"event: rows" in first
                client.close()  # hang up mid-stream
                closed.set()
                # The server must notice, count the disconnect, and let
                # the turn finish: the slot drains back to zero ...
                assert _wait_until(lambda: disconnects.value >= 1)
                assert _wait_until(lambda: app.in_flight == 0)
                # ... and the interrupted turn still committed.
                status, detail = http_json(
                    server.address + f"/session?session_id={sid}"
                )
                assert status == 200
                assert detail["turn_count"] == 2
            finally:
                closed.set()
                agent.respond = original


class TestAdmission:
    def test_in_flight_bound_sheds_every_route_with_503(self):
        # One bound for every route: with max_pending requests in
        # flight, a further chat turn and a further inspection request
        # are both shed as 503 overloaded.
        agent = build_toy_agent()
        original = agent.respond
        release = threading.Event()

        def blocked(utterance, context, chunk_sink=None):
            release.wait(timeout=10.0)
            return original(utterance, context, chunk_sink)

        agent.respond = blocked
        server = AsyncConversationServer(
            agent, port=0, max_workers=2, max_pending=1,
            request_timeout=10.0,
        )
        with server:
            try:
                outcome = {}

                def go():
                    outcome["result"] = http_json(
                        server.address + "/chat",
                        {"utterance": "dosage for Aspirin"},
                    )

                thread = threading.Thread(target=go)
                thread.start()
                assert _wait_until(lambda: server.app.in_flight == 1)
                status, body = http_json(
                    server.address + "/chat", {"utterance": "help"}
                )
                assert (status, body["error"]) == (503, "overloaded")
                status, body = http_json(
                    server.address + "/session?session_id=1"
                )
                assert (status, body["error"]) == (503, "overloaded")
                release.set()
                thread.join(timeout=10.0)
                assert outcome["result"][0] == 200
                assert (
                    server.app.metrics.counter(
                        "admission_rejected_total", ("reason", "overloaded")
                    ).value
                    == 2
                )
                assert _wait_until(lambda: server.app.in_flight == 0)
                status, _body = http_json(
                    server.address + "/session?session_id=1"
                )
                assert status == 200
            finally:
                release.set()

    def test_per_session_rate_limit_sheds_with_429(self):
        server = AsyncConversationServer(
            build_toy_agent(), port=0, rate_limit=0.001, rate_burst=1.0,
            max_workers=2,
        )
        with server:
            status, first = http_json(
                server.address + "/chat", {"utterance": "dosage for Aspirin"}
            )
            assert status == 200  # opening turn has no session key yet
            sid = first["session_id"]
            status, second = http_json(
                server.address + "/chat",
                {"utterance": "precaution for Aspirin", "session_id": sid},
            )
            assert status == 200  # burst token
            status, third = http_json(
                server.address + "/chat",
                {"utterance": "dosage for Ibuprofen", "session_id": sid},
            )
            assert status == 429
            assert third["error"] == "rate_limited"
            assert (
                server.app.metrics.counter(
                    "admission_rejected_total", ("reason", "rate_limited")
                ).value
                == 1
            )


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.allow("s1")
        assert bucket.allow("s1")
        assert not bucket.allow("s1")  # burst exhausted
        clock.advance(1.0)
        assert bucket.allow("s1")  # one token refilled
        assert not bucket.allow("s1")

    def test_keys_are_isolated(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        assert bucket.allow("a")
        assert not bucket.allow("a")
        assert bucket.allow("b")

    def test_refilled_keys_are_pruned(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock, max_keys=3)
        for key in ("a", "b", "c", "d"):
            assert bucket.allow(key)
        # Over max_keys, but nothing has refilled yet: all retained.
        assert len(bucket) == 4
        clock.advance(10.0)
        assert bucket.allow("e")  # triggers a prune of refilled buckets
        assert len(bucket) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestSaturation:
    def test_overload_keeps_p99_bounded_and_sheds_honestly(self):
        """The ROADMAP saturation gate in miniature.

        Capacity is 2 paced (~30 ms) turn slots with no turn queueing
        (``max_pending == max_workers``); 10 clients hammer it.  The
        excess must be shed as 503s (matching the /metrics counter, not
        silently queued), every admitted turn must complete, and the
        p99 of admitted turns must stay bounded because admitted work
        never waits behind shed work.
        """
        agent = build_toy_agent()
        original = agent.respond

        def paced(utterance, context, chunk_sink=None):
            time.sleep(0.03)
            return original(utterance, context, chunk_sink)

        agent.respond = paced
        server = AsyncConversationServer(
            agent, port=0, max_workers=2, max_pending=2,
            request_timeout=10.0,
        )
        with server:
            codes: list[int] = []
            latencies: list[float] = []
            lock = threading.Lock()

            def client():
                for _ in range(6):
                    start = time.perf_counter()
                    status, _body = http_json(
                        server.address + "/chat",
                        {"utterance": "dosage for Aspirin"},
                    )
                    elapsed = time.perf_counter() - start
                    with lock:
                        codes.append(status)
                        if status == 200:
                            latencies.append(elapsed)

            threads = [threading.Thread(target=client) for _ in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)

            assert len(codes) == 60
            assert set(codes) <= {200, 503}
            shed = codes.count(503)
            admitted = codes.count(200)
            assert admitted > 0
            assert shed > 0
            # Honest shedding: every 503 is visible in /metrics.
            assert (
                server.app.metrics.counter(
                    "admission_rejected_total", ("reason", "overloaded")
                ).value
                == shed
            )
            latencies.sort()
            p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
            assert p99 < 1.0  # paced turn is 30 ms; no queueing behind shed load
