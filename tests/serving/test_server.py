"""The served app over HTTP: contract, concurrency isolation, shutdown."""

from __future__ import annotations

import threading
import time

import pytest

from repro.artifacts import write_artifacts
from repro.cli import build_parser, cmd_serve
from repro.serving import AsyncConversationServer
from tests.conftest import TOY_DRUGS
from tests.serving.conftest import build_toy_agent, http_json, http_text


@pytest.fixture(scope="module")
def served():
    """A running server over a fresh toy agent, shared by contract tests."""
    agent = build_toy_agent()
    server = AsyncConversationServer(
        agent, port=0, max_workers=64, max_pending=256, request_timeout=30.0
    )
    with server:
        yield server


def dosage_of(drug: str) -> str:
    return f"{10 * (TOY_DRUGS.index(drug) + 1)}mg daily"


class TestHTTPContract:
    def test_chat_opens_session_and_answers(self, served):
        status, body = http_json(
            served.address + "/chat", {"utterance": "dosage for Aspirin"}
        )
        assert status == 200
        assert body["kind"] == "answer"
        assert dosage_of("Aspirin") in body["text"]
        assert body["session_id"]
        assert body["turn"] == 1

    def test_chat_reuses_session(self, served):
        _, first = http_json(
            served.address + "/chat", {"utterance": "dosage for Aspirin"}
        )
        status, second = http_json(
            served.address + "/chat",
            {"utterance": "how about for Ibuprofen?",
             "session_id": first["session_id"]},
        )
        assert status == 200
        assert second["session_id"] == first["session_id"]
        assert second["turn"] == 2
        assert dosage_of("Ibuprofen") in second["text"]

    def test_unknown_session_is_404(self, served):
        status, body = http_json(
            served.address + "/chat",
            {"utterance": "help", "session_id": "999999"},
        )
        assert status == 404
        assert body["error"] == "unknown_session"

    def test_empty_utterance_is_400(self, served):
        status, body = http_json(served.address + "/chat", {"utterance": "  "})
        assert status == 400
        assert body["error"] == "bad_request"

    def test_unknown_route_is_404(self, served):
        status, body = http_json(served.address + "/nope", {})
        assert status == 404
        assert body["error"] == "not_found"

    def test_healthz(self, served):
        status, body = http_json(served.address + "/healthz", {})
        assert status == 404  # POST /healthz is not a route
        status, text = http_text(served.address + "/healthz")
        assert status == 200
        assert '"status": "ok"' in text

    def test_feedback_marks_own_session_not_global_tail(self, served):
        _, mine = http_json(
            served.address + "/chat", {"utterance": "dosage for Aspirin"}
        )
        _, other = http_json(
            served.address + "/chat", {"utterance": "dosage for Ibuprofen"}
        )
        status, body = http_json(
            served.address + "/feedback",
            {"session_id": mine["session_id"], "feedback": "down"},
        )
        assert status == 200 and body["feedback"] == "down"
        by_session = {}
        for sid in (mine["session_id"], other["session_id"]):
            status, detail = http_json(
                served.address + f"/session?session_id={sid}"
            )
            assert status == 200
            by_session[sid] = [turn.get("feedback") for turn in detail["turns"]]
        assert by_session[mine["session_id"]] == ["down"]
        assert by_session[other["session_id"]] == [None]

    def test_feedback_validation(self, served):
        status, body = http_json(
            served.address + "/feedback", {"session_id": "1", "feedback": "meh"}
        )
        assert status == 400

    def test_metrics_exposition(self, served):
        # Repeat one lookup so the query cache records hits.
        for _ in range(3):
            http_json(served.address + "/chat",
                      {"utterance": "dosage for Tazarotene"})
        status, text = http_text(served.address + "/metrics")
        assert status == 200
        assert "repro_turns_total" in text
        assert 'repro_turn_latency_seconds{intent=' in text
        assert 'quantile="0.95"' in text
        assert "repro_classifier_latency_seconds_count" in text
        assert "repro_sessions_active" in text
        hit_rate = next(
            float(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("repro_query_cache_hit_rate")
        )
        assert hit_rate > 0

    def test_metrics_expose_pipeline_stages(self, served):
        http_json(served.address + "/chat", {"utterance": "dosage for Aspirin"})
        status, text = http_text(served.address + "/metrics")
        assert status == 200
        # Per-stage latency histograms for stages every turn runs...
        assert 'repro_turn_stage_latency_seconds' in text
        assert 'stage="classify"' in text
        assert 'stage="tree"' in text
        # ...and deciding-stage counters for at least the answer stage.
        assert 'repro_turn_stage_decisions_total{stage="answer"}' in text

    def test_chat_debug_flag_returns_trace(self, served):
        status, plain = http_json(
            served.address + "/chat", {"utterance": "dosage for Aspirin"}
        )
        assert status == 200 and "debug" not in plain
        status, body = http_json(
            served.address + "/chat",
            {"utterance": "dosage for Aspirin", "debug": True},
        )
        assert status == 200
        trace = body["debug"]
        assert trace["deciding_stage"] == "answer"
        assert trace["kind"] == "answer"
        stage_names = [s["stage"] for s in trace["stages"]]
        assert stage_names[0] == "classify"
        assert stage_names[-1] == "answer"
        assert all(s["duration"] >= 0 for s in trace["stages"])


class TestConcurrentIsolation:
    CONCURRENCY = 50

    def test_fifty_concurrent_sessions_stay_isolated(self, served):
        """§acceptance: ≥50 concurrent in-flight /chat requests, zero
        cross-session context leakage."""
        drugs = [TOY_DRUGS[i % 5] for i in range(self.CONCURRENCY)]
        follow_ups = [TOY_DRUGS[(i + 2) % 5] for i in range(self.CONCURRENCY)]
        barrier = threading.Barrier(self.CONCURRENCY)
        results: list[dict | None] = [None] * self.CONCURRENCY
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                status, first = http_json(
                    served.address + "/chat",
                    {"utterance": f"dosage for {drugs[index]}"},
                )
                assert status == 200, first
                barrier.wait(timeout=30)  # all follow-ups in flight together
                status, second = http_json(
                    served.address + "/chat",
                    {"utterance": f"how about for {follow_ups[index]}?",
                     "session_id": first["session_id"]},
                )
                assert status == 200, second
                results[index] = {"first": first, "second": second}
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.CONCURRENCY)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(r is not None for r in results)

        session_ids = {r["first"]["session_id"] for r in results}
        assert len(session_ids) == self.CONCURRENCY  # no shared sessions
        for index, r in enumerate(results):
            # Each session's follow-up answered from *its own* context.
            assert dosage_of(drugs[index]) in r["first"]["text"]
            assert dosage_of(follow_ups[index]) in r["second"]["text"]
            assert r["second"]["entities"].get("Drug") == follow_ups[index]
        # And the server-side contexts agree: the remembered Drug of each
        # session is the one that session asked about last.
        for index, r in enumerate(results):
            entry = served.app.store.get(r["first"]["session_id"])
            assert entry is not None
            assert entry.session.context.entities.get("Drug") == follow_ups[index]
            assert entry.turn_count == 2

    def test_same_session_concurrent_turns_serialize(self, served):
        """Two threads firing into the *same* session must serialize on
        the per-session lock: no lost turns, no interleaved context."""
        _, first = http_json(
            served.address + "/chat", {"utterance": "dosage for Aspirin"}
        )
        sid = first["session_id"]
        barrier = threading.Barrier(2)
        outcomes: list[dict | None] = [None, None]
        errors: list[Exception] = []

        def worker(index: int, drug: str) -> None:
            try:
                barrier.wait(timeout=30)
                status, body = http_json(
                    served.address + "/chat",
                    {"utterance": f"how about for {drug}?", "session_id": sid},
                )
                assert status == 200, body
                outcomes[index] = body
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(0, "Ibuprofen")),
            threading.Thread(target=worker, args=(1, "Fluocinonide")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(o is not None for o in outcomes)
        # The lock serialized the turns: distinct, consecutive turn
        # numbers, and each response answered its own utterance.
        assert sorted(o["turn"] for o in outcomes) == [2, 3]
        assert dosage_of("Ibuprofen") in outcomes[0]["text"]
        assert dosage_of("Fluocinonide") in outcomes[1]["text"]
        entry = served.app.store.get(sid)
        assert entry is not None and entry.turn_count == 3
        assert len(entry.session.context.history) == 3
        # The remembered Drug slot is whichever turn the lock let in last.
        last_drug = entry.session.context.history[-1].entities.get("Drug")
        assert entry.session.context.entities.get("Drug") == last_drug


class TestBackpressureAndTimeout:
    def test_overload_sheds_and_slow_turn_times_out(self):
        agent = build_toy_agent()
        original = agent.respond

        def slow_respond(utterance, context, chunk_sink=None):
            time.sleep(0.6)
            return original(utterance, context, chunk_sink)

        agent.respond = slow_respond
        server = AsyncConversationServer(
            agent, port=0, max_workers=2, max_pending=1, request_timeout=0.2
        )
        with server:
            outcome = {}

            def go():
                outcome["result"] = http_json(
                    server.address + "/chat", {"utterance": "dosage for Aspirin"}
                )

            thread = threading.Thread(target=go)
            thread.start()
            deadline = time.monotonic() + 2.0
            while server.app.in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.app.in_flight == 1
            status, body = http_json(server.address + "/chat",
                                     {"utterance": "help"})
            assert status == 503
            assert body["error"] == "overloaded"
            thread.join(timeout=10)
            status, body = outcome["result"]
            assert status == 504
            assert body["error"] == "timeout"


class TestGracefulShutdown:
    def test_drain_finishes_in_flight(self):
        agent = build_toy_agent()
        original = agent.respond

        def slow_respond(utterance, context, chunk_sink=None):
            time.sleep(0.4)
            return original(utterance, context, chunk_sink)

        agent.respond = slow_respond
        server = AsyncConversationServer(agent, port=0).start()
        outcome = {}

        def go():
            outcome["result"] = http_json(
                server.address + "/chat", {"utterance": "dosage for Aspirin"}
            )

        thread = threading.Thread(target=go)
        thread.start()
        deadline = time.monotonic() + 2.0
        while server.app.in_flight < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.app.in_flight == 1

        server.app.begin_drain()
        status, body = http_json(server.address + "/chat", {"utterance": "help"})
        assert status == 503
        assert body["error"] == "draining"

        assert server.shutdown(drain_timeout=5.0) is True
        thread.join(timeout=10)
        status, body = outcome["result"]
        assert status == 200  # the in-flight turn completed during drain
        assert dosage_of("Aspirin") in body["text"]

        # Instrumentation hooks were uninstalled on close.
        assert agent.database is server.app._original_database
        assert agent.classifier is server.app._original_classifier

    def test_session_ttl_evicts_between_requests(self):
        agent = build_toy_agent()
        with AsyncConversationServer(agent, port=0, session_ttl=0.2) as server:
            _, body = http_json(server.address + "/chat",
                                {"utterance": "dosage for Aspirin"})
            time.sleep(0.35)
            status, body = http_json(
                server.address + "/chat",
                {"utterance": "help", "session_id": body["session_id"]},
            )
            assert status == 404
            assert body["error"] == "unknown_session"
            assert server.app.store.stats()["evicted_ttl"] == 1


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0
        assert args.session_ttl == 1800.0
        assert args.max_sessions == 1024
        assert args.cache_size == 512
        assert args.workers == 1
        assert args.turn_threads == 16
        assert args.data_dir is None
        assert args.fsync == "always"

    def test_serve_smoke(self, monkeypatch):
        monkeypatch.setattr(
            "repro.cli._build_agent", lambda args: (build_toy_agent(), None)
        )
        args = build_parser().parse_args([
            "serve", "--port", "0", "--session-ttl", "60",
            "--max-sessions", "10", "--cache-size", "32",
        ])
        lines: list[str] = []
        assert cmd_serve(args, output_fn=lines.append, run_forever=False) == 0
        assert any("Serving on http://127.0.0.1:" in line for line in lines)

    def test_async_flag_is_accepted_and_ignored(self, monkeypatch):
        # The asyncio front end is the only one; --async stays valid on
        # existing command lines and selects nothing.
        monkeypatch.setattr(
            "repro.cli._build_agent", lambda args: (build_toy_agent(), None)
        )
        servers = []
        original = AsyncConversationServer.start

        def start(server):
            servers.append(server)
            return original(server)

        monkeypatch.setattr(AsyncConversationServer, "start", start)
        for argv in (["serve", "--port", "0"],
                     ["serve", "--port", "0", "--async"]):
            args = build_parser().parse_args(argv)
            assert cmd_serve(args, output_fn=lambda line: None,
                             run_forever=False) == 0
        assert [type(server) for server in servers] == [
            AsyncConversationServer, AsyncConversationServer
        ]


class StubRouter:
    """Records what ``serve --workers N`` hands the session router."""

    instances: list["StubRouter"] = []
    address = "http://127.0.0.1:0"

    def __init__(self, workers, data_dir, **kwargs):
        self.workers = workers
        self.data_dir = data_dir
        self.kwargs = kwargs
        StubRouter.instances.append(self)

    def start(self):
        pass

    def shutdown(self):
        pass


@pytest.fixture
def stub_router(monkeypatch):
    StubRouter.instances = []
    monkeypatch.setattr("repro.persistence.router.SessionRouter", StubRouter)
    return StubRouter


class TestServeRouterCommand:
    FORWARDED = (
        "artifacts", "session_ttl", "max_sessions",
        "cache_size", "turn_threads", "request_timeout", "fsync",
        "snapshot_every", "rate_limit", "rate_burst",
    )

    def test_worker_args_round_trip_through_the_parser(
        self, stub_router, tmp_path
    ):
        artifacts = write_artifacts(tmp_path / "artifacts", build_toy_agent())
        args = build_parser().parse_args([
            "serve", "--workers", "2", "--data-dir", str(tmp_path),
            "--artifacts", str(artifacts),
            "--session-ttl", "60", "--max-sessions", "10",
            "--cache-size", "32", "--turn-threads", "4",
            "--request-timeout", "5", "--fsync", "never",
            "--snapshot-every", "8", "--rate-limit", "2.5",
            "--rate-burst", "3",
        ])
        assert cmd_serve(args, output_fn=lambda line: None,
                         run_forever=False) == 0
        (router,) = stub_router.instances
        assert router.workers == 2
        # A flag the worker's parser no longer knows exits every worker
        # at startup; parsing here catches it first.
        worker = build_parser().parse_args(
            ["serve", *router.kwargs["worker_args"]]
        )
        for name in self.FORWARDED:
            assert getattr(worker, name) == getattr(args, name), name
