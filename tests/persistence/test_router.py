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
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import RouterError
from repro.persistence.router import SessionRouter, affinity, worker_dir
from repro.serving.frontend import MAX_BODY_BYTES, MAX_HEAD_BYTES
from tests.persistence.conftest import GOLDEN_SCRIPT, run_script
from tests.serving.conftest import build_toy_agent, http_json, http_text
from tests.serving.test_aio import stream_events

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
            "--artifacts", str(toy_artifacts),
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
            # Each worker's split of its refresh time is passed through.
            assert {"build_seconds", "validate_seconds"} <= set(worker["body"])

        # Both replicas keep answering, and metrics record the fan-out.
        status, answer = _chat(router, {"utterance": "dosage for Aspirin"})
        assert status == 200
        assert "10mg daily" in answer["text"]
        status, text = http_text(router.address + "/metrics")
        assert status == 200
        assert 'router_broadcasts_total{worker="0"} 1' in text
        assert 'router_broadcasts_total{worker="1"} 1' in text


class TestStreamThroughRouter:
    def test_chat_stream_events_match_the_worker(self, router):
        # The router relays /chat/stream buffered: the same SSE events
        # in the same order as asking a worker directly, over two turns
        # of one conversation.
        def strip(events):
            return [
                (event, {k: v for k, v in data.items() if k != "session_id"})
                for event, data in events
            ]

        def converse(host, port):
            status, first = stream_events(
                host, port, {"utterance": GOLDEN_SCRIPT[0]}
            )
            assert status == 200, first
            sid = first[-1][1]["session_id"]
            status, second = stream_events(host, port, {
                "utterance": GOLDEN_SCRIPT[1], "session_id": sid,
            })
            assert status == 200, second
            return strip(first) + strip(second)

        through_router = converse(router.host, router.port)
        direct = converse("127.0.0.1", router.workers[0].port)
        assert [event for event, _data in through_router][-1] == "done"
        assert "rows" in [event for event, _data in through_router]
        assert through_router == direct


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
        # A committed thumbs mark on the last turn before the crash.
        status, body = http_json(router.address + "/feedback", {
            "session_id": sid, "feedback": "down",
        })
        assert status == 200, body

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
        marks = [t.get("feedback") for t in detail["turns"]]
        assert marks[crash_after - 1] == "down"
        assert marks.count(None) == len(GOLDEN_SCRIPT) - 1

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
    monkeypatch.setattr(SessionRouter, "_launch", lambda self, handle: 0.0)
    monkeypatch.setattr(
        SessionRouter, "_await_ready", lambda self, launched: []
    )
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

    def test_transfer_encoding_body_is_501_not_forwarded(self, bare_router):
        reply = _raw_exchange(
            bare_router,
            "POST /chat HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            "2\r\n{}\r\n0\r\n\r\n",
        )
        # One answer: the chunk bytes are not parsed as a next request.
        assert reply.count(b"HTTP/1.1 ") == 1
        status, body = _status_and_body(reply)
        assert status == 501
        assert body["error"] == "transfer_encoding_unsupported"

    def test_head_over_cap_is_dropped_unanswered(self, bare_router):
        filler = "x" * MAX_HEAD_BYTES
        reply = _raw_exchange(
            bare_router, f"GET /healthz HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n"
        )
        assert reply == b""


#: A stand-in worker: it marks itself started in a shared gate directory,
#: waits until every worker of the deployment has started, then listens,
#: writes its ready file and answers ``/healthz``.  Launched one at a
#: time, the first stub can never become ready; launched together, all
#: do — whatever the machine's speed.  ``exit`` as the mode makes the
#: stub fail at once instead.
_GATED_STUB = """
import http.server, json, os, pathlib, sys, time
directory, gate = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
index, workers, mode = sys.argv[3], int(sys.argv[4]), sys.argv[5]
if mode == "exit":
    sys.exit(3)
gate.mkdir(parents=True, exist_ok=True)
(gate / f"started-{index}").touch()
while len(list(gate.glob("started-*"))) < workers:
    time.sleep(0.02)

class Health(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        body = b'{"status": "ok"}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

server = http.server.HTTPServer(("127.0.0.1", 0), Health)
ready = {"port": server.server_address[1], "pid": os.getpid()}
(directory / "worker.json").write_text(json.dumps(ready))
server.serve_forever()
"""


def _stub_router(tmp_path, monkeypatch, modes=("run", "run")):
    gate = tmp_path / "gate"

    def command(self, index):
        return [
            sys.executable, "-c", _GATED_STUB,
            str(worker_dir(self.data_dir, index)), str(gate), str(index),
            str(len(self.workers)), modes[index],
        ]

    monkeypatch.setattr(SessionRouter, "_command", command)
    # The monitor never sweeps on its own: tests call ``_sweep``.
    return SessionRouter(
        len(modes), tmp_path / "data", port=0,
        spawn_timeout=60.0, health_interval=3600.0,
    )


class TestParallelLaunch:
    def test_gated_stub_never_starts_alone(self, tmp_path, monkeypatch):
        # The control: awaiting one worker before launching its sibling
        # (the old sequential start) times out.
        router = _stub_router(tmp_path, monkeypatch)
        router.spawn_timeout = 1.0
        try:
            handle = router.workers[0]
            [(settled, error)] = list(
                router._await_ready([(handle, router._launch(handle))])
            )
            assert settled is handle
            assert "did not become ready" in str(error)
            assert handle.port is None
        finally:
            router.shutdown()

    def test_start_launches_every_worker_before_awaiting(
        self, tmp_path, monkeypatch
    ):
        router = _stub_router(tmp_path, monkeypatch)
        with router:
            for handle in router.workers:
                assert handle.alive
                assert handle.port is not None
            status, body = http_json(router.address + "/healthz")
            assert status == 200
            assert [w["up"] for w in body["workers"]] == [True, True]

    def test_start_fails_fast_and_tears_down(self, tmp_path, monkeypatch):
        # Worker 0 waits for a sibling that has already exited: start()
        # reports worker 1's exit at once, not worker 0's timeout, and
        # stops worker 0.
        router = _stub_router(tmp_path, monkeypatch, ("run", "exit"))
        launched = []
        real_launch = SessionRouter._launch

        def launch(self, handle):
            deadline = real_launch(self, handle)
            launched.append(handle.process)
            return deadline

        monkeypatch.setattr(SessionRouter, "_launch", launch)
        with pytest.raises(RouterError, match="worker 1 exited with code 3"):
            router.start()
        assert len(launched) == 2
        assert all(process.poll() is not None for process in launched)
        assert all(handle.process is None for handle in router.workers)


class TestMonitorSweep:
    def test_one_sweep_restarts_every_dead_worker(self, tmp_path,
                                                  monkeypatch):
        router = _stub_router(tmp_path, monkeypatch)
        with router:
            killed = [handle.process for handle in router.workers]
            for index in range(2):
                router.kill_worker(index, signal.SIGKILL)
            for process in killed:
                process.wait(timeout=10.0)
            # Each replacement again waits for its sibling's replacement.
            for marker in (tmp_path / "gate").iterdir():
                marker.unlink()
            router._sweep()
            for handle, old in zip(router.workers, killed):
                assert handle.restarts == 1
                assert handle.alive and handle.process is not old
                assert handle.port is not None
                assert router._healthy(handle.port)

    def test_worker_past_its_deadline_is_killed_then_relaunched(
        self, tmp_path, monkeypatch
    ):
        router = _stub_router(tmp_path, monkeypatch)
        with router:
            victim = router.workers[0]
            killed = victim.process
            router.kill_worker(0, signal.SIGKILL)
            killed.wait(timeout=10.0)
            # The replacement waits for a sibling marker that never comes
            # (worker 1 is still up), so it misses its deadline.
            gate = tmp_path / "gate"
            for marker in gate.iterdir():
                marker.unlink()
            router.spawn_timeout = 1.0
            router._sweep()
            stuck = victim.process
            assert stuck is not killed
            assert stuck.poll() is not None
            assert not victim.alive and victim.port is None
            (gate / "started-1").touch()
            router._sweep()
            assert victim.restarts == 2
            assert victim.alive and victim.process is not stuck
            assert victim.port is not None
            assert router._healthy(victim.port)
