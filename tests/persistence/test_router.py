"""Multi-worker router: affinity, supervision, kill -9 crash recovery.

These tests spawn real worker subprocesses (``python -m repro serve
--worker-index i``) over the exported toy artifacts, so they cover the
full production path: CLI worker boot, ready-file handshake, affinity
routing, SIGKILL, monitor restart, journal replay, byte-identical
resume.
"""

from __future__ import annotations

import json
import signal
import socket
import time
from pathlib import Path

import pytest

import repro
from repro.persistence.router import SessionRouter, affinity, worker_dir
from repro.serving.frontend import MAX_BODY_BYTES, MAX_HEAD_BYTES
from tests.persistence.conftest import GOLDEN_SCRIPT, run_script
from tests.serving.conftest import build_toy_agent, http_json, http_text

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def router(tmp_path, toy_artifacts, monkeypatch):
    # Workers are fresh interpreters: they find the package through
    # PYTHONPATH, which must therefore be absolute.
    monkeypatch.setenv("PYTHONPATH", SRC_DIR)
    router = SessionRouter(
        2,
        tmp_path,
        port=0,
        spawn_timeout=120.0,
        health_interval=0.25,
        worker_args=[
            "--space", str(toy_artifacts / "space.json"),
            "--data", str(toy_artifacts / "kb"),
            "--name", "ToyServe",
            "--domain", "toy drug reference",
            "--fsync", "never",
            "--turn-threads", "4",
            "--cache-size", "16",
        ],
    )
    with router:
        yield router


def _chat(router, payload, retries: int = 0):
    """POST /chat, optionally retrying 503s (a worker mid-restart)."""
    deadline = time.monotonic() + 120.0
    while True:
        status, body = http_json(router.address + "/chat", payload)
        if status != 503 or retries == 0 or time.monotonic() > deadline:
            return status, body
        time.sleep(0.25)


class TestAffinityRouting:
    def test_new_sessions_round_robin_across_workers(self, router):
        owners = set()
        for _ in range(2):
            status, body = _chat(router, {"utterance": "dosage for Aspirin"})
            assert status == 200
            owners.add(affinity(body["session_id"], 2))
        # Round-robin landed one new conversation on each worker, and
        # each worker allocated an id in its own residue class.
        assert owners == {0, 1}

    def test_follow_up_keeps_context_on_owner(self, router):
        status, first = _chat(router, {"utterance": "dosage for Aspirin"})
        assert status == 200
        sid = first["session_id"]
        status, follow = _chat(router, {
            "utterance": "how about for Ibuprofen?", "session_id": sid,
        })
        assert status == 200
        assert follow["session_id"] == sid and follow["turn"] == 2
        # Control: the same two turns in process, byte for byte.
        control = build_toy_agent().session()
        assert first["text"] == control.ask("dosage for Aspirin").text
        assert follow["text"] == control.ask("how about for Ibuprofen?").text

    def test_unknown_session_404s_from_owner(self, router):
        status, body = _chat(
            router, {"utterance": "help", "session_id": "999998"}
        )
        assert status == 404
        assert body["error"] == "unknown_session"

    def test_health_aggregates_workers(self, router):
        status, body = http_json(router.address + "/healthz")
        assert status == 200
        assert body["status"] == "ok" and body["role"] == "router"
        assert [w["up"] for w in body["workers"]] == [True, True]

    def test_router_metrics_rendered(self, router):
        _chat(router, {"utterance": "dosage for Aspirin"})
        status, text = http_text(router.address + "/metrics")
        assert status == 200
        assert "router_requests_total" in text
        assert "router_workers_alive 2" in text


class TestRefreshBroadcast:
    def test_refresh_reaches_every_worker(self, router):
        # Each worker owns an independent KB replica; a refresh routed by
        # affinity would leave N-1 replicas on the old snapshot.  The
        # router must fan /refresh out to all of them.
        status, body = http_json(router.address + "/refresh", {})
        assert status == 200, body
        assert body["status"] == "ok"
        assert [w["worker"] for w in body["workers"]] == [0, 1]
        for worker in body["workers"]:
            assert worker["status"] == 200
            assert worker["body"]["status"] == "ok"
            assert worker["body"]["epoch"] == 1

        # Both replicas keep answering, and metrics record the fan-out.
        status, answer = _chat(router, {"utterance": "dosage for Aspirin"})
        assert status == 200
        assert "10mg daily" in answer["text"]
        status, text = http_text(router.address + "/metrics")
        assert status == 200
        assert 'router_broadcasts_total{worker="0"} 1' in text
        assert 'router_broadcasts_total{worker="1"} 1' in text


class TestKillRecovery:
    def test_sigkill_mid_conversation_resumes_byte_identical(self, router):
        crash_after = 2
        status, first = _chat(router, {
            "utterance": GOLDEN_SCRIPT[0], "client_turn_id": "t-1",
        })
        assert status == 200
        sid = first["session_id"]
        texts = [first["text"]]
        for i in range(1, crash_after):
            status, body = _chat(router, {
                "utterance": GOLDEN_SCRIPT[i], "session_id": sid,
                "client_turn_id": f"t-{i + 1}",
            })
            assert status == 200
            texts.append(body["text"])

        owner = affinity(sid, 2)
        old_pid = router.kill_worker(owner, signal.SIGKILL)

        # The committed turns are journal bytes on disk; the replacement
        # worker replays them on boot.  Clients just retry through the
        # 503 window.
        for i in range(crash_after, len(GOLDEN_SCRIPT)):
            status, body = _chat(router, {
                "utterance": GOLDEN_SCRIPT[i], "session_id": sid,
                "client_turn_id": f"t-{i + 1}",
            }, retries=1)
            assert status == 200, body
            texts.append(body["text"])

        control = run_script(build_toy_agent().session())
        assert texts == control  # zero lost turns, byte-identical resume

        handle = router.workers[owner]
        assert handle.restarts >= 1
        assert handle.process.pid != old_pid
        status, detail = http_json(
            router.address + f"/session?session_id={sid}"
        )
        assert status == 200
        assert [t["agent"] for t in detail["turns"]] == control
        assert [t["user"] for t in detail["turns"]] == GOLDEN_SCRIPT

    def test_worker_dir_layout(self, router, tmp_path):
        _chat(router, {"utterance": "dosage for Aspirin"})
        for index in range(2):
            directory = worker_dir(tmp_path, index)
            assert (directory / "worker.json").exists()
            assert (directory / "worker.log").exists()


class TestAffinityFunction:
    def test_numeric_ids_map_by_residue(self):
        assert affinity("7", 4) == 3
        assert affinity(" 12 ", 4) == 0

    def test_non_numeric_ids_hash_stably(self):
        assert affinity("abc", 4) == affinity("abc", 4)
        assert 0 <= affinity("abc", 4) < 4


@pytest.fixture
def bare_router(tmp_path, monkeypatch):
    """A serving router with no workers behind it: the input checks run
    before any forwarding, and a request that passes them gets the
    fast 503 of an unreachable worker."""
    monkeypatch.setattr(SessionRouter, "spawn_worker", lambda self, h: None)
    with SessionRouter(1, tmp_path, port=0, health_interval=60.0) as router:
        yield router


def _raw_exchange(router, head: str) -> bytes:
    """Send a raw request head; return everything the router answers
    before it closes the connection."""
    with socket.create_connection((router.host, router.port), 10.0) as sock:
        sock.sendall(head.encode("latin-1"))
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _status_and_body(reply: bytes) -> tuple[int, dict]:
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class TestRouterInputLimits:
    def test_valid_request_is_forwarded(self, bare_router):
        status, body = _status_and_body(_raw_exchange(
            bare_router,
            "POST /chat HTTP/1.1\r\nContent-Length: 2\r\n"
            "Connection: close\r\n\r\n{}",
        ))
        assert status == 503
        assert body["error"] == "worker_unavailable"

    def test_oversized_body_is_413_without_reading_it(self, bare_router):
        status, body = _status_and_body(_raw_exchange(
            bare_router,
            "POST /chat HTTP/1.1\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n",
        ))
        assert status == 413
        assert body["error"] == "too_large"

    @pytest.mark.parametrize("length", ["-5", "12abc"])
    def test_bad_content_length_is_400(self, bare_router, length):
        status, body = _status_and_body(_raw_exchange(
            bare_router,
            f"POST /chat HTTP/1.1\r\nContent-Length: {length}\r\n\r\n",
        ))
        assert status == 400
        assert body["error"] == "bad_request"

    def test_head_over_cap_is_dropped_unanswered(self, bare_router):
        filler = "x" * MAX_HEAD_BYTES
        reply = _raw_exchange(
            bare_router, f"GET /healthz HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n"
        )
        assert reply == b""
