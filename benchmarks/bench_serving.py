#!/usr/bin/env python
"""Serving benchmark: load, tail latency, and the crash-recovery drill.

Not a paper artifact — the paper's §7 deployment served real clinician
traffic from an always-on cloud deployment; this bench establishes the
reproduction's serving trajectory and *proves the durability contract
under fire*:

* **Load phase** — a closed-loop generator drives concurrent client
  sessions against a single in-process server and reports throughput,
  p50/p95/p99 turn latency, and the query-cache hit rate.
* **Refresh drill** — the server takes repeated zero-downtime KB swaps
  (``POST /refresh``) while closed-loop clients stay in flight; passes
  only with zero failed requests, zero wrong answers, and zero stale
  cache hits served across the swaps.
* **Recovery drill** (``--workers >= 2``) — spawns the session-affine
  router over real worker subprocesses, spreads sessions across them
  (every turn committed to the journal with ``fsync=always``), then
  SIGKILLs one worker mid-load.  Clients retry through the outage with
  idempotent ``client_turn_id``s; afterwards every session's durable
  transcript is compared against every turn a client saw acknowledged.
  The acceptance criterion is **zero lost committed turns**.  The
  drill also reports the router's start-up time (every worker launched
  and healthy) and the victim's outage, from the SIGKILL until the
  restarted worker answers ``/healthz``.

* **Overload gate** (the ROADMAP saturation gate) — a baseline wave at
  capacity, then a deliberate 2x-overload wave against a server with a
  tight admission gate.  Passes when the p99 of *admitted* requests
  stays within 2x the baseline p99, admitted throughput holds, and the
  excess demand surfaces as 503s in ``admission_rejected_total`` — no
  silent queue growth.
* **Async session drill** — an asyncio load generator (coroutine per
  session over a bounded keep-alive connection pool, replacing
  thread-per-request clients) opens every session against the durable
  multi-worker router, then revisits all of them wave by wave, so all
  N sessions are concurrently live; durable transcripts are verified
  afterwards (``--workers >= 2``).  Full mode drives >= 10k sessions.

Every serving process runs the one asyncio front end
(``repro.serving.frontend``).

Two modes:

* **Full** (default) — 50 load clients; drill over 1000 sessions
  across the workers; async drill over 10000 sessions.
* **Smoke** (``--smoke``, run in CI) — small agent, 12 load clients,
  60 drill sessions, 300 async-drill sessions; asserts correctness and
  shedding behaviour, not absolute latency numbers (which would flake
  on shared CI runners; the strict 2x p99 gate runs in full mode).

Either mode can emit a JSON report via ``--json PATH`` for the CI
artifact upload.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --json out.json
    PYTHONPATH=src python benchmarks/bench_serving.py --workers 3 --sessions 1500
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

import repro
from repro.artifacts import write_artifacts
from repro.engine import ConversationAgent
from repro.medical import (
    GeneratorConfig,
    build_mdx_database,
    build_mdx_ontology,
    build_mdx_space,
)
from repro.persistence.router import SessionRouter, affinity
from repro.serving import AsyncConversationServer

#: Load-phase concurrent client sessions (full / smoke).
CLIENTS, SMOKE_CLIENTS = 50, 12
#: Turns each load client performs after the session-opening turn.
TURNS_PER_CLIENT = 3
#: Drill sessions spread across the workers (full / smoke).
DRILL_SESSIONS, SMOKE_DRILL_SESSIONS = 1000, 60
#: Committed turns per drill session.
DRILL_TURNS = 2
#: Client threads driving the drill sessions.
DRILL_THREADS = 16
#: Async session drill: concurrently live sessions (full / smoke).
ASYNC_SESSIONS, SMOKE_ASYNC_SESSIONS = 10_000, 300
#: Committed turns per async-drill session.
ASYNC_DRILL_TURNS = 2
#: Keep-alive connections the async load generator multiplexes over.
ASYNC_POOL = 64
#: Overload gate: turn-executor threads == admission slots (a tight
#: gate, so overload sheds instead of queueing) and closed-loop turns
#: per client in each wave.
OVERLOAD_CAPACITY, OVERLOAD_TURNS = 8, 25


def http_json(
    url: str, payload: dict | None = None, timeout: float = 60.0
) -> tuple[int, dict]:
    """POST (payload given) or GET ``url``; returns (status, body).

    Connection-level failures (a worker dying mid-request) surface as a
    synthetic 599 so drill clients can treat them like a 503 and retry.
    """
    data = None
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read())
        except (ValueError, UnicodeDecodeError):
            return exc.code, {"error": "unparseable"}
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return 599, {"error": "connection", "message": str(exc)}


def percentiles(samples: list[float]) -> tuple[float, float, float]:
    ordered = sorted(samples)

    def pct(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return pct(0.5), pct(0.95), pct(0.99)


class AsyncHTTPClient:
    """Keep-alive JSON client over a bounded asyncio connection pool.

    ``pool_size`` sockets are multiplexed across any number of session
    coroutines, so 10k concurrent sessions need 10k coroutines, not 10k
    file descriptors (or threads).  A parked connection the server
    closed while idle is detected at request time and retried once on a
    fresh socket.
    """

    def __init__(self, host: str, port: int, pool_size: int) -> None:
        self._host, self._port = host, port
        self._pool: asyncio.Queue = asyncio.Queue()
        for _ in range(pool_size):
            self._pool.put_nowait(None)  # placeholder: open lazily

    async def request_json(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float = 60.0,
    ) -> tuple[int, dict]:
        """One request; connection failures surface as a synthetic 599."""
        conn = await self._pool.get()
        try:
            for attempt in (0, 1):
                reused = conn is not None
                if conn is None:
                    try:
                        conn = await asyncio.open_connection(
                            self._host, self._port
                        )
                    except OSError as exc:
                        return 599, {"error": "connection", "message": str(exc)}
                body = b""
                if payload is not None:
                    body = json.dumps(payload).encode("utf-8")
                head = (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {self._host}:{self._port}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                )
                reader, writer = conn
                try:
                    writer.write(head.encode("latin-1") + body)
                    await writer.drain()
                    status, parsed, closing = await asyncio.wait_for(
                        self._read_response(reader), timeout
                    )
                except (
                    OSError,
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionResetError,
                ) as exc:
                    writer.close()
                    conn = None
                    if reused and attempt == 0:
                        continue  # stale keep-alive: one fresh retry
                    return 599, {"error": "connection", "message": str(exc)}
                if closing:
                    writer.close()
                    conn = None
                return status, parsed
            return 599, {"error": "connection", "message": "retries spent"}
        finally:
            self._pool.put_nowait(conn)

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, dict, bool]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.decode("latin-1").split(" ", 2)[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        raw = await reader.readexactly(length) if length else b""
        closing = headers.get("connection", "").lower() == "close"
        try:
            parsed = json.loads(raw) if raw else {}
        except ValueError:
            parsed = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(parsed, dict):
            parsed = {"value": parsed}
        return status, parsed, closing

    async def close(self) -> None:
        while not self._pool.empty():
            conn = self._pool.get_nowait()
            if conn is not None:
                conn[1].close()


def build_agent() -> ConversationAgent:
    """A self-contained small MDX agent (fast to build, full behaviour)."""
    db = build_mdx_database(GeneratorConfig(max_drugs=40, max_conditions=20))
    space = build_mdx_space(db, build_mdx_ontology(db))
    return ConversationAgent.build(
        space, db, agent_name="Micromedex", domain="drug reference"
    )


# -- load phase ---------------------------------------------------------------


def run_load_phase(agent: ConversationAgent, clients: int) -> dict[str, Any]:
    drugs = [
        row[0] for row in agent.database.query("SELECT name FROM drug").rows
    ][:8]
    server = AsyncConversationServer(
        agent, port=0, max_workers=64, max_pending=512, request_timeout=60.0
    )
    with server:
        barrier = threading.Barrier(clients)
        latencies: list[list[float]] = [[] for _ in range(clients)]
        failures: list[tuple[int, dict]] = []

        def client(index: int) -> None:
            barrier.wait(timeout=60)
            session_id = None
            for turn in range(1 + TURNS_PER_CLIENT):
                drug = drugs[(index + turn) % len(drugs)]
                payload: dict[str, Any] = {
                    "utterance": f"adverse effects of {drug}"
                }
                if session_id is not None:
                    payload["session_id"] = session_id
                start = time.perf_counter()
                status, body = http_json(server.address + "/chat", payload)
                latencies[index].append(time.perf_counter() - start)
                if status != 200 or drug not in body.get("text", ""):
                    failures.append((status, body))
                    return
                session_id = body["session_id"]

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        wall_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        wall = time.perf_counter() - wall_start

        flat = [sample for per_client in latencies for sample in per_client]
        p50, p95, p99 = percentiles(flat) if flat else (0.0, 0.0, 0.0)

        # Hot-lookup pass: one repeated query, the cache carries it.
        hot = {"utterance": f"adverse effects of {drugs[0]}"}
        for _ in range(20):
            status, _body = http_json(server.address + "/chat", dict(hot))
            if status != 200:
                failures.append((status, _body))
        hit_rate = server.app.cache.hit_rate()
        cache_stats = server.app.cache.stats()

    return {
        "clients": clients,
        "turns": len(flat),
        "wall_s": round(wall, 3),
        "requests_per_second": round(len(flat) / wall, 1) if wall else 0.0,
        "p50_ms": round(p50 * 1000, 2),
        "p95_ms": round(p95 * 1000, 2),
        "p99_ms": round(p99 * 1000, 2),
        "cache_hit_rate": round(hit_rate, 4),
        "cache_hits": cache_stats["hits"],
        "cache_misses": cache_stats["misses"],
        "failures": failures[:5],
        "ok": not failures and len(flat) == clients * (1 + TURNS_PER_CLIENT),
    }


# -- refresh drill ------------------------------------------------------------


def run_refresh_drill(
    agent_factory, refreshes: int = 2, clients: int = 8
) -> dict[str, Any]:
    """Swap the KB under live traffic; prove zero failed and zero stale.

    Closed-loop clients hammer ``/chat`` while the main thread triggers
    ``refreshes`` zero-downtime KB swaps (each rebuilds the small MDX
    snapshot from scratch, validates it, and flips the handle).  The
    acceptance criteria come straight from the refresh contract: every
    request during the swaps answers 200 with the correct text, the
    epoch advances once per refresh, and
    ``query_cache_stale_served_total`` stays 0 — a cached answer from
    the old epoch is dropped on its next lookup, never served.
    """
    agent = agent_factory()

    def kb_builder():
        from repro.kb.backend import wrap_database

        db = build_mdx_database(
            GeneratorConfig(max_drugs=40, max_conditions=20)
        )
        return wrap_database(db)

    drugs = [
        row[0] for row in agent.database.query("SELECT name FROM drug").rows
    ][:8]
    server = AsyncConversationServer(
        agent, port=0, max_workers=32, max_pending=256,
        request_timeout=60.0, kb_builder=kb_builder,
    )
    stop = threading.Event()
    failures: list[tuple[int, dict]] = []
    completed = [0]
    lock = threading.Lock()

    def client(index: int) -> None:
        session_id = None
        turn = 0
        while not stop.is_set():
            drug = drugs[(index + turn) % len(drugs)]
            payload: dict[str, Any] = {
                "utterance": f"adverse effects of {drug}"
            }
            if session_id is not None:
                payload["session_id"] = session_id
            status, body = http_json(server.address + "/chat", payload)
            ok = status == 200 and drug in body.get("text", "")
            with lock:
                completed[0] += 1
                if not ok:
                    failures.append((status, body))
            if status == 200:
                session_id = body["session_id"]
            turn += 1

    wall_start = time.perf_counter()
    with server:
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        refresh_bodies = []
        refresh_failures: list[tuple[int, dict]] = []
        try:
            for _ in range(refreshes):
                status, body = http_json(
                    server.address + "/refresh", {}, timeout=300.0
                )
                if status != 200:
                    refresh_failures.append((status, body))
                else:
                    refresh_bodies.append(body)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
        wall = time.perf_counter() - wall_start
        status, metrics_text = 0, ""
        try:
            with urllib.request.urlopen(
                server.address + "/metrics"
            ) as response:
                metrics_text = response.read().decode("utf-8")
        except OSError:
            pass
        epoch = server.app.agent.database.epoch
        stale_served = int(_metric_value(
            metrics_text, "query_cache_stale_served_total"
        ))
        stale_drops = int(_metric_value(
            metrics_text, "query_cache_stale_drops_total"
        ))
        refresh_total = int(_metric_value(metrics_text, "kb_refresh_total"))

    return {
        "clients": clients,
        "refreshes_requested": refreshes,
        "refreshes_completed": len(refresh_bodies),
        "epoch": epoch,
        "requests": completed[0],
        "wall_s": round(wall, 3),
        "refresh_seconds": [
            body.get("duration_seconds") for body in refresh_bodies
        ],
        "stale_drops": stale_drops,
        "stale_served": stale_served,
        "failed_requests": len(failures),
        "failures": failures[:5],
        "refresh_failures": refresh_failures[:5],
        "ok": (
            not failures
            and not refresh_failures
            and completed[0] > 0
            and epoch == refreshes
            and refresh_total == refreshes
            and stale_served == 0
        ),
    }


# -- overload gate ------------------------------------------------------------


def _metric_value(metrics_text: str, needle: str) -> float:
    for line in metrics_text.splitlines():
        if needle in line:
            try:
                return float(line.rsplit(" ", 1)[1])
            except (IndexError, ValueError):
                continue
    return 0.0


def run_overload_phase(agent: ConversationAgent, smoke: bool) -> dict[str, Any]:
    """Baseline at capacity, then 2x overload: p99 of admitted bounded.

    The server gets a deliberately tight gate (``max_pending`` ==
    executor threads), so an admitted turn never queues behind more
    demand than the executor can run; everything past the gate sheds as
    503 ``overloaded``.  The ROADMAP gate: under 2x overload the p99 of
    *admitted* requests stays within 2x the baseline p99 (enforced
    strictly in full mode; smoke adds an absolute floor so shared CI
    runners cannot flake it) while throughput holds and every rejection
    is visible in ``/metrics``.
    """
    drugs = [
        row[0] for row in agent.database.query("SELECT name FROM drug").rows
    ][:8]
    server = AsyncConversationServer(
        agent,
        port=0,
        max_workers=OVERLOAD_CAPACITY,
        max_pending=OVERLOAD_CAPACITY,
        request_timeout=60.0,
    )

    async def wave(clients: int) -> dict[str, Any]:
        client = AsyncHTTPClient(server.host, server.port, pool_size=clients)
        latencies: list[float] = []
        rejected = [0]
        failures: list[tuple[int, dict]] = []

        async def drive(index: int) -> None:
            sid = None
            for turn in range(OVERLOAD_TURNS):
                payload: dict[str, Any] = {
                    "utterance":
                        f"adverse effects of {drugs[(index + turn) % len(drugs)]}"
                }
                if sid is not None:
                    payload["session_id"] = sid
                start = time.perf_counter()
                status, body = await client.request_json(
                    "POST", "/chat", payload
                )
                elapsed = time.perf_counter() - start
                if status == 200:
                    latencies.append(elapsed)
                    sid = body["session_id"]
                elif status in (503, 429):
                    rejected[0] += 1
                else:
                    failures.append((status, body))

        start = time.perf_counter()
        await asyncio.gather(*(drive(i) for i in range(clients)))
        wall = time.perf_counter() - start
        await client.close()
        p50, p95, p99 = (
            percentiles(latencies) if latencies else (0.0, 0.0, 0.0)
        )
        return {
            "clients": clients,
            "admitted": len(latencies),
            "rejected": rejected[0],
            "failures": failures[:5],
            "wall_s": round(wall, 3),
            "admitted_per_second":
                round(len(latencies) / wall, 1) if wall else 0.0,
            "p50_ms": round(p50 * 1000, 2),
            "p95_ms": round(p95 * 1000, 2),
            "p99_ms": round(p99 * 1000, 2),
        }

    with server:
        baseline = asyncio.run(wave(OVERLOAD_CAPACITY))
        overload = asyncio.run(wave(OVERLOAD_CAPACITY * 2))
        with urllib.request.urlopen(server.address + "/metrics") as response:
            metrics_text = response.read().decode("utf-8")
    shed = _metric_value(
        metrics_text, 'admission_rejected_total{reason="overloaded"}'
    )
    p99_bound_ms = 2 * baseline["p99_ms"]
    if smoke:
        # Shared CI runners jitter small absolute latencies; the strict
        # relative gate is a full-mode assertion.
        p99_bound_ms = max(p99_bound_ms, 250.0)
    throughput_floor = 0.5 * baseline["admitted_per_second"]
    return {
        "capacity": OVERLOAD_CAPACITY,
        "baseline": baseline,
        "overload": overload,
        "admission_rejected_overloaded": int(shed),
        "p99_bound_ms": round(p99_bound_ms, 2),
        "ok": (
            not baseline["failures"]
            and not overload["failures"]
            and overload["rejected"] > 0
            and shed > 0
            and overload["p99_ms"] <= p99_bound_ms
            and overload["admitted_per_second"] >= throughput_floor
        ),
    }


# -- async session drill (durable multi-worker router) -------------------------


def run_async_drill(
    artifacts: Path,
    data_dir: Path,
    workers: int,
    sessions: int,
    drugs: list[str],
) -> dict[str, Any]:
    """N concurrently live sessions against durable workers, verified.

    Wave scheduling: every session commits turn *t* before any session
    starts turn *t + 1*, so after the first wave all N sessions are
    simultaneously live on the durable workers and stay live to the
    end.  The generator is a coroutine per session over a bounded
    keep-alive pool — the thread-per-request client this replaces
    topped out around a thousand sessions.
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get(
        "PYTHONPATH", ""
    )
    router = SessionRouter(
        workers,
        data_dir,
        port=0,
        health_interval=0.5,
        worker_args=[
            "--artifacts", str(artifacts),
            # Durable, group-fsync'd journals: the drill proves scale,
            # the SIGKILL drill (fsync=always) proves crash safety.
            "--fsync", "interval",
            "--turn-threads", "8",
            "--max-sessions", str(sessions + 64),
            "--cache-size", "256",
        ],
    )
    utterances = ["adverse effects of {d}", "dosage for {d}"]

    async def drive() -> dict[str, Any]:
        client = AsyncHTTPClient(router.host, router.port, ASYNC_POOL)
        sids: list[str | None] = [None] * sessions
        texts: list[list[str]] = [[] for _ in range(sessions)]
        errors: list[str] = []
        retries = [0]

        async def one_turn(index: int, turn: int) -> None:
            drug = drugs[(index + turn) % len(drugs)]
            payload: dict[str, Any] = {
                "utterance": utterances[turn % len(utterances)].format(d=drug),
                "client_turn_id": f"a{index}-t{turn}",
            }
            if sids[index] is not None:
                payload["session_id"] = sids[index]
            deadline = time.monotonic() + 120.0
            while True:
                status, body = await client.request_json(
                    "POST", "/chat", payload
                )
                if status == 200:
                    break
                if status not in (429, 503, 599) or (
                    time.monotonic() > deadline
                ):
                    errors.append(
                        f"session {index} turn {turn}: {status} {body}"
                    )
                    return
                retries[0] += 1
                await asyncio.sleep(0.05)
            sids[index] = body["session_id"]
            texts[index].append(body["text"])

        start = time.perf_counter()
        for turn in range(ASYNC_DRILL_TURNS):
            await asyncio.gather(
                *(one_turn(i, turn) for i in range(sessions))
            )
        wall = time.perf_counter() - start

        # All N sessions should be live at once across the workers.
        live: set[str] = set()
        for _ in range(workers * 3):
            status, listing = await client.request_json("GET", "/sessions")
            if status == 200:
                live.update(listing.get("live", []))

        # Durable transcripts must match what clients saw acknowledged.
        lost: list[str] = []
        step = max(1, sessions // 200)
        for index in range(0, sessions, step):
            sid = sids[index]
            if sid is None:
                continue
            status, detail = await client.request_json(
                "GET", f"/session?session_id={sid}"
            )
            if status != 200:
                lost.append(f"session {sid}: transcript unavailable "
                            f"({status})")
                continue
            transcript = [t["agent"] for t in detail["turns"]]
            if transcript[:len(texts[index])] != texts[index]:
                lost.append(f"session {sid}: committed {texts[index]!r} "
                            f"but recovered {transcript!r}")
        await client.close()
        turns_committed = sum(len(t) for t in texts)
        return {
            "workers": workers,
            "sessions": sessions,
            "concurrent_live_sessions": len(live),
            "turns_committed": turns_committed,
            "wall_s": round(wall, 3),
            "turns_per_second":
                round(turns_committed / wall, 1) if wall else 0.0,
            "retries": retries[0],
            "transcripts_verified": len(range(0, sessions, step)),
            "lost_committed_turns": len(lost),
            "lost_detail": lost[:5],
            "errors": errors[:5],
            "ok": (
                not errors
                and not lost
                and turns_committed == sessions * ASYNC_DRILL_TURNS
                and len(live) >= int(sessions * 0.99)
            ),
        }

    with router:
        return asyncio.run(drive())


# -- recovery drill -----------------------------------------------------------


def _victim_outage_s(
    router: SessionRouter, victim: int, killed_pid: int, killed_at: float,
    timeout: float = 300.0,
) -> float | None:
    """Seconds from the SIGKILL until the restarted worker answers
    ``/healthz`` at the port the router routes to (None on timeout)."""
    handle = router.workers[victim]
    while time.perf_counter() - killed_at < timeout:
        process, url = handle.process, handle.base_url
        if process is not None and process.pid != killed_pid and url:
            status, _body = http_json(url + "/healthz", timeout=5.0)
            if status == 200:
                return round(time.perf_counter() - killed_at, 3)
        time.sleep(0.01)
    return None


def run_recovery_drill(
    artifacts: Path,
    data_dir: Path,
    workers: int,
    sessions: int,
    drugs: list[str],
) -> dict[str, Any]:
    """Kill a worker under load; prove no committed turn was lost."""
    # Workers are fresh interpreters; they need an absolute import path.
    src = str(Path(repro.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get(
        "PYTHONPATH", ""
    )
    worker_args = [
        "--artifacts", str(artifacts),
        "--fsync", "always",
        "--turn-threads", "8",
        "--max-sessions", str(max(sessions + 16, 64)),
        "--cache-size", "64",
    ]
    router = SessionRouter(
        workers,
        data_dir,
        port=0,
        health_interval=0.25,
        worker_args=worker_args,
    )
    utterances = ["adverse effects of {d}", "dosage for {d}"]

    committed: dict[str, list[str]] = {}  # sid -> texts acknowledged
    committed_lock = threading.Lock()
    errors: list[str] = []
    retries_used = [0]
    kill_at = max(1, sessions // 3)  # sessions completed before the kill
    completed = [0]
    kill_event = threading.Event()

    def drive_session(index: int) -> None:
        sid: str | None = None
        texts: list[str] = []
        for turn in range(DRILL_TURNS):
            drug = drugs[(index + turn) % len(drugs)]
            payload: dict[str, Any] = {
                "utterance": utterances[turn % len(utterances)].format(d=drug),
                "client_turn_id": f"s{index}-t{turn}",
            }
            if sid is not None:
                payload["session_id"] = sid
            deadline = time.monotonic() + 120.0
            while True:
                status, body = http_json(router.address + "/chat", payload)
                if status == 200:
                    break
                if status not in (503, 599) or time.monotonic() > deadline:
                    errors.append(f"session {sid} turn {turn}: "
                                  f"{status} {body}")
                    return
                with committed_lock:
                    retries_used[0] += 1
                time.sleep(0.2)
            sid = body["session_id"]
            texts.append(body["text"])
        with committed_lock:
            committed[sid] = texts
            completed[0] += 1
            if completed[0] >= kill_at:
                kill_event.set()

    wall_start = time.perf_counter()
    killed_pid = None
    victim_outage_s = None
    with router:
        router_start_s = round(time.perf_counter() - wall_start, 3)
        pool: list[threading.Thread] = []
        indices = list(range(sessions))
        cursor_lock = threading.Lock()

        def worker_loop() -> None:
            while True:
                with cursor_lock:
                    if not indices:
                        return
                    index = indices.pop()
                drive_session(index)

        for _ in range(min(DRILL_THREADS, sessions)):
            thread = threading.Thread(target=worker_loop)
            thread.start()
            pool.append(thread)

        # Once a third of the sessions committed, kill a worker cold.
        kill_event.wait(timeout=300)
        victim = 0
        try:
            killed_at = time.perf_counter()
            killed_pid = router.kill_worker(victim, signal.SIGKILL)
        except Exception as exc:
            errors.append(f"kill failed: {exc}")
        else:
            victim_outage_s = _victim_outage_s(
                router, victim, killed_pid, killed_at
            )
            if victim_outage_s is None:
                errors.append(f"worker {victim} was not restarted")
        for thread in pool:
            thread.join(timeout=600)
        wall = time.perf_counter() - wall_start

        # Every acknowledged turn must be in the durable transcript.
        lost: list[str] = []
        for sid, texts in committed.items():
            status, detail = http_json(
                router.address + f"/session?session_id={sid}"
            )
            if status != 200:
                lost.append(f"session {sid}: transcript unavailable "
                            f"({status})")
                continue
            transcript = [t["agent"] for t in detail["turns"]]
            if transcript[:len(texts)] != texts:
                lost.append(f"session {sid}: committed {texts!r} "
                            f"but recovered {transcript!r}")
        restarts = router.workers[victim].restarts
        per_worker = [0] * workers
        for sid in committed:
            per_worker[affinity(sid, workers)] += 1

    return {
        "workers": workers,
        "sessions": sessions,
        "sessions_completed": len(committed),
        "turns_committed": sum(len(t) for t in committed.values()),
        "sessions_per_worker": per_worker,
        "killed_worker": 0,
        "killed_pid": killed_pid,
        "worker_restarts": restarts,
        "router_start_s": router_start_s,
        "victim_outage_s": victim_outage_s,
        "retries_during_outage": retries_used[0],
        "lost_committed_turns": len(lost),
        "lost_detail": lost[:5],
        "wall_s": round(wall, 3),
        "errors": errors[:5],
        "ok": (
            not errors
            and not lost
            and len(committed) == sessions
            and restarts >= 1
        ),
    }


# -- entry point --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small agent and workload; asserts correctness, not latency",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the report as JSON to PATH"
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="drill worker processes (0 or 1 skips the drill)",
    )
    parser.add_argument(
        "--sessions", type=int, default=None,
        help="drill sessions (default: 1000, or 60 with --smoke)",
    )
    parser.add_argument(
        "--async-sessions", type=int, default=None,
        help="async-drill concurrently live sessions "
             "(default: 10000, or 300 with --smoke)",
    )
    args = parser.parse_args(argv)

    clients = SMOKE_CLIENTS if args.smoke else CLIENTS
    sessions = args.sessions or (
        SMOKE_DRILL_SESSIONS if args.smoke else DRILL_SESSIONS
    )
    async_sessions = args.async_sessions or (
        SMOKE_ASYNC_SESSIONS if args.smoke else ASYNC_SESSIONS
    )

    print("building the serving agent...")
    agent = build_agent()
    print(f"load phase: {clients} concurrent "
          f"sessions x {1 + TURNS_PER_CLIENT} turns")
    load = run_load_phase(agent, clients)
    print(f"  throughput        {load['requests_per_second']:8.1f} req/s  "
          f"(wall {load['wall_s']}s, {load['turns']} requests)")
    print(f"  latency p50/p95/p99  {load['p50_ms']}/{load['p95_ms']}/"
          f"{load['p99_ms']} ms")
    print(f"  cache hit rate    {load['cache_hit_rate']:8.1%}")

    report: dict[str, Any] = {
        "benchmark": "serving",
        "mode": "smoke" if args.smoke else "full",
        "load": load,
    }
    ok = load["ok"] and load["cache_hit_rate"] > 0

    print("refresh drill: zero-downtime KB swaps under live traffic")
    refresh = run_refresh_drill(build_agent)
    report["refresh"] = refresh
    print(f"  requests in flight{refresh['requests']:8d}  "
          f"(failed: {refresh['failed_requests']})")
    print(f"  swaps completed   {refresh['refreshes_completed']:8d}  "
          f"(epoch {refresh['epoch']}, "
          f"{refresh['refresh_seconds']} s each)")
    print(f"  stale cache       {refresh['stale_drops']:8d} dropped, "
          f"{refresh['stale_served']} served")
    for line in refresh["failures"] + refresh["refresh_failures"]:
        print(f"  PROBLEM: {line}")
    ok = ok and refresh["ok"]

    print(f"overload gate: capacity {OVERLOAD_CAPACITY}, baseline at "
          f"capacity then 2x overload")
    overload = run_overload_phase(agent, args.smoke)
    report["overload"] = overload
    base, over = overload["baseline"], overload["overload"]
    print(f"  baseline p99      {base['p99_ms']:8.2f} ms  "
          f"({base['admitted_per_second']} adm/s)")
    print(f"  overload p99      {over['p99_ms']:8.2f} ms  "
          f"({over['admitted_per_second']} adm/s; bound "
          f"{overload['p99_bound_ms']} ms)")
    print(f"  shed as 503       {over['rejected']:8d}  (metrics: "
          f"{overload['admission_rejected_overloaded']})")
    ok = ok and overload["ok"]

    if args.workers >= 2:
        with tempfile.TemporaryDirectory(prefix="repro-drill-") as tmp:
            tmp_path = Path(tmp)
            # Drill workers serve this agent's artifact directory
            # (loading the model, not training).
            artifacts = write_artifacts(tmp_path / "artifacts", agent)
            drugs = [
                row[0] for row in
                agent.database.query("SELECT name FROM drug").rows
            ][:8]
            print(f"recovery drill: {sessions} sessions across "
                  f"{args.workers} workers, SIGKILL under load")
            drill = run_recovery_drill(
                artifacts, tmp_path / "data", args.workers, sessions, drugs,
            )
            report["drill"] = drill
            print(f"  sessions          {drill['sessions_completed']:8d}  "
                  f"(per worker: {drill['sessions_per_worker']})")
            print(f"  turns committed   {drill['turns_committed']:8d}")
            print(f"  worker restarts   {drill['worker_restarts']:8d}  "
                  f"(killed pid {drill['killed_pid']})")
            print(f"  router start      {drill['router_start_s']:8.2f} s")
            outage = drill["victim_outage_s"]
            print("  victim outage     "
                  + ("   never" if outage is None else f"{outage:8.2f} s")
                  + "  (SIGKILL until the restart answers /healthz)")
            print(f"  retries in outage {drill['retries_during_outage']:8d}")
            print(f"  lost committed    {drill['lost_committed_turns']:8d}")
            for line in drill["lost_detail"] + drill["errors"]:
                print(f"  PROBLEM: {line}")
            ok = ok and drill["ok"]

            print(f"async session drill: {async_sessions} concurrently "
                  f"live sessions across {args.workers} workers")
            async_drill = run_async_drill(
                artifacts, tmp_path / "async-data", args.workers,
                async_sessions, drugs,
            )
            report["async_drill"] = async_drill
            print(f"  live at once      "
                  f"{async_drill['concurrent_live_sessions']:8d}")
            print(f"  turns committed   "
                  f"{async_drill['turns_committed']:8d}  "
                  f"({async_drill['turns_per_second']} turns/s)")
            print(f"  transcripts ok    "
                  f"{async_drill['transcripts_verified']:8d} sampled, "
                  f"{async_drill['lost_committed_turns']} lost")
            for line in (async_drill["lost_detail"]
                         + async_drill["errors"]):
                print(f"  PROBLEM: {line}")
            ok = ok and async_drill["ok"]

    report["ok"] = ok
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
