"""Regression tests for the conversation app's concurrency bugs.

Each test here pins one of the fixed defects in place:

* the check-then-act admission race (``in_flight`` read in one lock
  acquisition, incremented in another) that let racing requests all
  pass the ``max_pending`` gate at once;
* the 504 path freeing a turn slot while the turn kept running on the
  executor — admission control under-counted real load, and the
  abandoned future's exception was never retrieved;
* unmatched request paths minted one ``http_requests_total`` label per
  raw URL, so a scanner could grow registry memory without bound, and
  a non-chat request with a bad JSON body was never counted at all;
* a route table that captured its handlers at import would bypass
  methods patched on the class afterwards;
* ``classify_batch`` falling through ``_TimingClassifier.__getattr__``
  untimed, silently blanking ``classifier_latency_seconds`` for
  batching callers.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time

import pytest

from repro.persistence.router import SessionRouter
from repro.serving import AsyncConversationServer, MetricsRegistry, ServingError
from repro.serving.server import ConversationApp, _TimingClassifier
from tests.serving.conftest import build_toy_agent, http_json


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _blocked_agent(release: threading.Event):
    """A toy agent whose turns park until ``release`` is set."""
    agent = build_toy_agent()
    original = agent.respond

    def blocked(utterance, context, chunk_sink=None):
        release.wait(timeout=10.0)
        return original(utterance, context, chunk_sink)

    agent.respond = blocked
    return agent


class TestAtomicAdmissionGate:
    def test_racing_requests_admit_exactly_max_pending(self):
        """max_pending + k simultaneous requests: exactly k get 503.

        All threads pass a barrier and hit the admission gate together
        while every admitted turn stays parked, so no slot is released
        until the count is asserted.  Under the old split check/increment
        the gate could admit more than ``max_pending`` turns.
        """
        release = threading.Event()
        app = ConversationApp(
            _blocked_agent(release),
            max_workers=4,
            max_pending=4,
            request_timeout=30.0,
        )
        try:
            extra = 3
            total = app.max_pending + extra
            barrier = threading.Barrier(total)
            results: list[tuple] = []
            results_lock = threading.Lock()

            def go():
                barrier.wait(timeout=10.0)
                try:
                    out = app.chat({"utterance": "dosage for Aspirin"})
                except ServingError as exc:
                    with results_lock:
                        results.append(("rejected", exc.status, exc.code))
                else:
                    with results_lock:
                        results.append(("ok", out["kind"]))

            threads = [threading.Thread(target=go) for _ in range(total)]
            for thread in threads:
                thread.start()
            # The k rejections return immediately; the admitted turns
            # are still parked, holding their slots.
            assert _wait_until(lambda: len(results) >= extra)
            assert app.in_flight == app.max_pending
            rejected = [r for r in results if r[0] == "rejected"]
            assert len(rejected) == extra
            assert all(r[1:] == (503, "overloaded") for r in rejected)

            release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            ok = [r for r in results if r[0] == "ok"]
            assert len(ok) == app.max_pending
            assert (
                app.metrics.counter(
                    "admission_rejected_total", ("reason", "overloaded")
                ).value
                == extra
            )
            assert _wait_until(lambda: app.in_flight == 0)
        finally:
            release.set()
            app.close(drain_timeout=10.0)


class TestTimedOutTurnSlot:
    def test_504_keeps_slot_reserved_until_turn_finishes(self):
        """A timed-out turn is abandoned, not forgotten by admission.

        The old code decremented ``in_flight`` on the 504 path even
        though the turn kept occupying an executor thread — admission
        control then over-admitted against phantom capacity.
        """
        release = threading.Event()
        app = ConversationApp(
            _blocked_agent(release),
            max_workers=1,
            max_pending=1,
            request_timeout=0.15,
        )
        try:
            with pytest.raises(ServingError) as info:
                app.chat({"utterance": "dosage for Aspirin"})
            assert info.value.status == 504
            # The turn is still running: its slot must stay reserved.
            assert app.in_flight == 1
            assert app.metrics.counter("turns_abandoned_total").value == 1
            assert app.metrics.counter("turn_timeouts_total").value == 1
            # Admission control still sees the abandoned turn as load.
            with pytest.raises(ServingError) as second:
                app.chat({"utterance": "help"})
            assert second.value.status == 503
            assert second.value.code == "overloaded"
            release.set()
            assert _wait_until(lambda: app.in_flight == 0)
        finally:
            release.set()
            app.close(drain_timeout=10.0)

    def test_abandoned_turn_exception_is_retrieved_and_logged(self, caplog):
        release = threading.Event()
        agent = build_toy_agent()

        def exploding(utterance, context, chunk_sink=None):
            release.wait(timeout=10.0)
            raise RuntimeError("post-abandonment boom")

        agent.respond = exploding
        app = ConversationApp(
            agent, max_workers=1, max_pending=1, request_timeout=0.1
        )
        try:
            with pytest.raises(ServingError) as info:
                app.chat({"utterance": "dosage for Aspirin"})
            assert info.value.status == 504
            with caplog.at_level(logging.WARNING, logger="repro.serving"):
                release.set()
                assert _wait_until(lambda: app.in_flight == 0)
            assert "turn abandoned" in caplog.text
            assert "post-abandonment boom" in caplog.text
        finally:
            release.set()
            app.close(drain_timeout=10.0)


class TestMetricLabelCardinality:
    def test_unmatched_routes_collapse_to_one_label(self):
        app = ConversationApp(build_toy_agent(), max_workers=2)
        try:
            for path in ("/scan/admin.php", "/scan/wp-login", "/.env"):
                status, _body = app.handle("GET", path, {})
                assert status == 404
            text = app.metrics.render()
            assert 'http_requests_total{route="<unmatched>"} 3' in text
            assert "scan" not in text
            assert ".env" not in text
            # Known routes keep their own label.
            app.handle("GET", "/healthz", {})
            assert (
                'http_requests_total{route="GET /healthz"} 1'
                in app.metrics.render()
            )
        finally:
            app.close(drain_timeout=10.0)


    def test_bad_json_bodies_count_as_requests(self):
        # Every request is counted once, before its body is decoded: a
        # bad body on a chat route and on a non-chat route alike.
        with AsyncConversationServer(
            build_toy_agent(), port=0, max_workers=2
        ) as server:
            for path in ("/chat", "/feedback"):
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=15.0
                )
                try:
                    connection.request("POST", path, body=b"not json")
                    response = connection.getresponse()
                    assert response.status == 400
                    assert json.loads(response.read())["error"] == "bad_json"
                finally:
                    connection.close()
            text = server.app.metrics.render()
        assert 'http_requests_total{route="POST /chat"} 1' in text
        assert 'http_requests_total{route="POST /feedback"} 1' in text
        assert 'http_errors_total{code="bad_json"} 2' in text


class TestRouteTablesSeeClassPatches:
    """Tables are built per instance from bound methods, so a method
    patched on the class after import (as the benchmark's tracer does)
    is the one a routed request calls."""

    def test_app_turn_patch_is_called(self, monkeypatch):
        calls = []
        original = ConversationApp._turn

        def traced(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ConversationApp, "_turn", traced)
        with AsyncConversationServer(
            build_toy_agent(), port=0, max_workers=2
        ) as server:
            status, body = http_json(
                server.address + "/chat", {"utterance": "dosage for Aspirin"}
            )
        assert status == 200
        assert calls == [body["session_id"]]

    def test_router_forward_patch_is_called(self, monkeypatch, tmp_path):
        calls = []

        def traced(self, request):
            calls.append((request.method, request.path))
            return 200, b'{"patched": true}', "application/json"

        monkeypatch.setattr(SessionRouter, "_launch", lambda self, h: 0.0)
        monkeypatch.setattr(SessionRouter, "_await_ready", lambda self, l: [])
        monkeypatch.setattr(SessionRouter, "forward", traced)
        with SessionRouter(1, tmp_path, port=0, health_interval=60.0) as router:
            status, body = http_json(
                router.address + "/chat", {"utterance": "hi"}
            )
        assert (status, body) == (200, {"patched": True})
        assert calls == [("POST", "/chat")]


class TestTimingClassifierBatch:
    class _Stub:
        marker = "stub"

        def classify(self, utterance):
            return "intent"

        def classify_batch(self, utterances):
            return ["intent"] * len(utterances)

    def test_classify_batch_observes_latency_per_utterance(self):
        registry = MetricsRegistry()
        proxy = _TimingClassifier(self._Stub(), registry)
        assert proxy.classify_batch(["a", "b", "c"]) == ["intent"] * 3
        histogram = registry.histogram("classifier_latency_seconds")
        assert histogram.count == 3  # fell through __getattr__ before: 0
        proxy.classify("x")
        assert histogram.count == 4
        proxy.classify_batch([])
        assert histogram.count == 4
        # Non-entry-point attributes still pass through.
        assert proxy.marker == "stub"


class TestOneClassifierObservationPerTurn:
    def test_ranked_turns_are_timed_once(self, monkeypatch):
        # Turns that rank the classifier's top candidates (entity rescue,
        # slot arbitration) read the distribution classify stored; they
        # must not add a second scoring, timed or untimed.
        from repro.nlp.classifier import IntentClassifier

        ranked = []
        top_k = IntentClassifier.top_k
        monkeypatch.setattr(
            IntentClassifier, "top_k",
            lambda self, *args, **kw: ranked.append(1) or top_k(self, *args, **kw),
        )
        app = ConversationApp(build_toy_agent())
        scored = []
        transform = app.agent.classifier.vectorizer.transform
        monkeypatch.setattr(
            app.agent.classifier.vectorizer, "transform",
            lambda docs: scored.append(1) or transform(docs),
        )
        utterances = [
            "dosage for Aspirin", "aspirin fever", "drug for fever aspirin",
            "dosage", "precautions aspirin",
        ]
        for utterance in utterances:
            status, _ = app.handle("POST", "/chat", {"utterance": utterance})
            assert status == 200
        assert ranked  # the rank path ran
        assert len(scored) == len(utterances)
        histogram = app.metrics.histogram("classifier_latency_seconds")
        assert histogram.count == len(utterances)
        assert "repro_classifier_latency_seconds_count 5" in app.metrics.render()
