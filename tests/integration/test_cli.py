"""Tests for the command-line interface."""

import json
import os
import stat

import pytest

from repro.cli import build_parser, cmd_chat, cmd_export, cmd_sessions, main
from repro.engine import load_log
from repro.persistence.router import worker_dir
from repro.serving.server import ConversationApp
from tests.serving.conftest import build_toy_agent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chat_defaults(self):
        args = build_parser().parse_args(["chat"])
        assert args.artifacts is None
        assert args.trace is False

    def test_chat_trace_flag(self):
        args = build_parser().parse_args(["chat", "--trace"])
        assert args.trace is True

    def test_simulate_options(self):
        args = build_parser().parse_args(["simulate", "-n", "50", "--seed", "3"])
        assert args.interactions == 50
        assert args.seed == 3


class TestExportAndChatRoundTrip:
    def test_export_writes_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        lines = []
        args = build_parser().parse_args(["export", "--out", str(out)])
        assert cmd_export(args, output_fn=lines.append) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "artifacts.json", "conversation_space.json",
            "dialogue_logic_table.txt", "intent_model.npz", "kb.db",
            "ontology.owl",
        ]
        space = json.loads((out / "conversation_space.json").read_text())
        assert any(
            i["name"] == "Drugs That Treat Condition" for i in space["intents"]
        )

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_exported_files_get_the_umask_mode(self, tmp_path, umask):
        # Every artifact gets the mode ``open(path, "w")`` would give it,
        # the fitted model too (it is written atomically): a server run
        # as another user can read what ``export`` wrote.
        out = tmp_path / "artifacts"
        args = build_parser().parse_args(["export", "--out", str(out)])
        previous = os.umask(umask)
        try:
            assert cmd_export(args, output_fn=lambda _line: None) == 0
        finally:
            os.umask(previous)
        modes = {
            str(path.relative_to(out)): stat.S_IMODE(path.stat().st_mode)
            for path in out.rglob("*") if path.is_file()
        }
        assert "intent_model.npz" in modes and "kb.db" in modes
        assert modes == {name: 0o666 & ~umask for name in modes}

    def test_chat_from_exported_artifacts(self, mdx_artifacts):
        chat_args = build_parser().parse_args([
            "chat", "--artifacts", str(mdx_artifacts),
        ])
        script = iter([
            "adverse effects of aspirin", "+1",
            "adverse effects of aspirin", "-1", "quit",
        ])
        transcript = []
        code = cmd_chat(
            chat_args,
            input_fn=lambda _prompt: next(script),
            output_fn=transcript.append,
        )
        assert code == 0
        answers = [t for t in transcript if t.startswith("A: Here are the")]
        assert answers
        assert "Aspirin" in answers[0]
        # Equation 1 over the session's own turns: 1 of 2 marked down.
        assert transcript[-1] == "Session over. Equation-1 success rate: 50.0%"

    def test_chat_trace_prints_stage_breakdown(self, mdx_artifacts):
        chat_args = build_parser().parse_args([
            "chat", "--trace", "--artifacts", str(mdx_artifacts),
        ])
        script = iter(["adverse effects of aspirin", "quit"])
        transcript = []
        code = cmd_chat(
            chat_args,
            input_fn=lambda _prompt: next(script),
            output_fn=transcript.append,
        )
        assert code == 0
        traces = [t for t in transcript if "decided by" in t]
        assert traces, transcript
        assert "classify" in traces[0]
        assert "decided by [answer]" in traces[0]
        assert "kind=answer" in traces[0]


class TestSessionsExport:
    def test_export_round_trips_router_layout(self, tmp_path):
        # Two worker slices, each owning its residue class of ids.
        expected, apps = [], []
        for index in range(2):
            app = ConversationApp(
                build_toy_agent(), data_dir=worker_dir(tmp_path, index),
                fsync="never", id_stride=2, id_offset=index,
            )
            sid = None
            for drug, mark in (("Aspirin", "down"), ("Ibuprofen", None)):
                utterance = f"dosage for {drug}"
                payload = {"utterance": utterance}
                if sid is not None:
                    payload["session_id"] = sid
                _status, body = app.handle("POST", "/chat", payload)
                sid = body["session_id"]
                if mark is not None:
                    status, _body = app.handle("POST", "/feedback", {
                        "session_id": sid, "feedback": mark,
                    })
                    assert status == 200
                expected.append((int(sid), utterance, body["text"], mark))
            apps.append(app)

        def export() -> list[tuple]:
            out = tmp_path / "interactions.jsonl"
            lines = []
            args = build_parser().parse_args([
                "sessions", "--data-dir", str(tmp_path), "--export", str(out),
            ])
            assert cmd_sessions(args, output_fn=lines.append) == 0
            assert lines == [
                f"exported 4 interactions from 2 sessions to {out}"
            ]
            return sorted(
                (r.session_id, r.utterance, r.response, r.feedback)
                for r in load_log(out)
            )

        # Live workers: turns and marks are journal records only.
        assert export() == sorted(expected)
        for app in apps:
            app.close()
        # After a clean shutdown they are snapshots.
        assert export() == sorted(expected)

    def test_export_excludes_session(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "sessions", "--data-dir", str(tmp_path),
                "--session", "1", "--export", str(tmp_path / "x.jsonl"),
            ])


def test_main_dispatches(tmp_path):
    out = tmp_path / "artifacts"
    assert main(["export", "--out", str(out)]) == 0
    assert (out / "ontology.owl").exists()
