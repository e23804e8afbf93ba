"""Serving what ``repro export`` wrote: the artifact directory.

A directory that :func:`repro.artifacts.write_artifacts` wrote serves
the same agent as the in-process build.  One that is incomplete, or that
holds a file from another build, is refused by ``chat``, ``serve`` and
``check`` with one error line: it is never served and never re-fitted.
``POST /refresh`` re-reads the directory the server was started from,
so a new KB version is published by pointing that path at a new export.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.artifacts import load_artifacts, write_artifacts
from repro.cli import _build_agent, build_parser, main
from repro.nlp.classifier import SoftmaxClassifier
from repro.serving import ConversationApp
from tests.conftest import make_toy_database, reseal
from tests.integration.test_golden_transcripts import (
    CONVERSATIONS,
    GOLDEN_DIR,
    play,
)
from tests.serving.conftest import build_toy_agent

#: The commands that read a directory, each as far as its refusal.
COMMANDS = {
    "chat": ["chat"],
    "serve": ["serve", "--port", "0"],
    "check": ["check"],
}


@pytest.fixture(scope="module")
def other_build(tmp_path_factory) -> Path:
    """Another build's directory: the toy agent's."""
    return write_artifacts(tmp_path_factory.mktemp("toy"), build_toy_agent())


@pytest.fixture
def directory(mdx_artifacts, tmp_path) -> Path:
    """A private copy of a fresh MDX export, to tamper with."""
    return Path(shutil.copytree(mdx_artifacts, tmp_path / "artifacts"))


def assert_refused(directory: Path, file_name: str) -> None:
    """``chat``, ``serve`` and ``check`` each exit with one error line
    naming ``file_name``."""
    for command in COMMANDS.values():
        with pytest.raises(SystemExit) as refusal:
            main([*command, "--artifacts", str(directory)])
        message = str(refusal.value.code)
        assert message.startswith("--artifacts: "), message
        assert "\n" not in message
        assert str(directory.resolve() / file_name) in message


class TestSameAgent:
    @pytest.mark.parametrize("name", sorted(CONVERSATIONS))
    def test_golden_transcripts_replay_from_the_export(self, mdx_artifacts, name):
        agent = load_artifacts(mdx_artifacts).agent()
        recorded = json.loads(
            (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        )
        assert json.loads(json.dumps(play(agent, CONVERSATIONS[name]))) == recorded

    @pytest.mark.parametrize("baseline", ["default", "empty"])
    def test_check_deep_json_matches_the_in_process_build(
        self, mdx_artifacts, tmp_path, capsys, baseline
    ):
        extra = []
        if baseline == "empty":
            (tmp_path / "baseline").write_text("# empty\n", encoding="utf-8")
            extra = ["--baseline", str(tmp_path / "baseline")]
        outputs = []
        for source in ([], ["--artifacts", str(mdx_artifacts)]):
            assert main(["check", "--deep", "--format", "json", *extra,
                         *source]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        if baseline == "empty":
            assert '"A003"' in outputs[0]

    @pytest.mark.parametrize("command", ["check", "audit"])
    def test_flagless_commands_check_the_served_space(
        self, mdx_artifacts, capsys, command
    ):
        # Without --artifacts, the space checked is the one `repro serve`
        # serves: the management intents (and their training examples)
        # are folded in, as in an export.  The headers differ only in
        # the time taken.
        headers = []
        for source in ([], ["--artifacts", str(mdx_artifacts)]):
            assert main([command, *source]) == 0
            header = capsys.readouterr().out.splitlines()[0]
            headers.append(re.sub(r" in [\d.]+s$", "", header))
        assert headers[0] == headers[1]
        if command == "check":
            served = len(load_artifacts(mdx_artifacts).space.intents)
            assert headers[0].startswith(f"repro check: {served} intents, ")


class TestRefusals:
    def test_kb_db_from_another_build_is_refused(self, directory, other_build):
        shutil.copy(other_build / "kb.db", directory / "kb.db")
        assert_refused(directory, "kb.db")

    def test_intent_model_from_another_build_is_refused(
        self, directory, other_build
    ):
        shutil.copy(other_build / "intent_model.npz",
                    directory / "intent_model.npz")
        assert_refused(directory, "intent_model.npz")

    def test_edited_conversation_space_is_refused(self, directory):
        path = directory / "conversation_space.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["assistant"]["agent_name"] = "Edited"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert_refused(directory, "conversation_space.json")

    def test_missing_manifest_is_refused(self, directory):
        (directory / "artifacts.json").unlink()
        assert_refused(directory, "artifacts.json")

    def test_corrupt_manifest_is_refused(self, directory):
        (directory / "artifacts.json").write_text("{broken")
        assert_refused(directory, "artifacts.json")

    def test_model_fitted_on_another_space_is_refused_not_refitted(
        self, directory, other_build, monkeypatch
    ):
        # The manifest vouches for every file, but the model was fitted
        # on other examples: refused, never fitted again.
        def fit(*args, **kwargs):
            raise AssertionError("SoftmaxClassifier.fit was called")

        monkeypatch.setattr(SoftmaxClassifier, "fit", fit)
        shutil.copy(other_build / "intent_model.npz",
                    directory / "intent_model.npz")
        reseal(directory)
        assert_refused(directory, "intent_model.npz")

    def test_refusal_is_one_line_on_stderr(self, directory):
        (directory / "kb.db").write_bytes(b"not the exported KB")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--artifacts", str(directory)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(
                Path(repro.__file__).resolve().parent.parent
            )},
        )
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"--artifacts: {directory.resolve() / 'kb.db'} does not match "
            "its sha256 in artifacts.json (a file from another export?)"
        ]

    def test_export_that_dies_part_way_is_refused(
        self, directory, monkeypatch
    ):
        # Re-exporting over a complete directory, the KB write fails.
        def save_sqlite(database, path):
            raise OSError("No space left on device")

        monkeypatch.setattr("repro.kb.io.save_sqlite", save_sqlite)
        with pytest.raises(OSError, match="No space left"):
            main(["export", "--out", str(directory)])
        monkeypatch.undo()
        assert_refused(directory, "artifacts.json")


def publish(served: Path, directory: Path) -> None:
    """Point the ``served`` symlink at ``directory`` in one rename."""
    staged = served.with_name(served.name + ".new")
    staged.symlink_to(directory)
    os.replace(staged, served)


class TestRefreshFromTheDirectory:
    ASK = {"utterance": "dosage for Aspirin"}

    def serve(self, served: Path) -> ConversationApp:
        agent, kb_builder = _build_agent(
            build_parser().parse_args(["serve", "--artifacts", str(served)])
        )
        return ConversationApp(agent, kb_builder=kb_builder)

    def test_republished_kb_is_served_after_refresh(self, tmp_path):
        agent = build_toy_agent()
        first = write_artifacts(tmp_path / "v1", agent)
        database = make_toy_database()
        database.insert("dosage", {
            "d_id": 99, "drug_id": 1, "ind_id": 1,
            "description": "75mg twice daily",
        })
        agent.database.swap(database)
        second = write_artifacts(tmp_path / "v2", agent)
        served = tmp_path / "current"
        served.symlink_to(first)

        app = self.serve(served)
        _, before = app.handle("POST", "/chat", self.ASK)
        app.handle("POST", "/chat", self.ASK)  # the second can hit the cache
        assert "75mg twice daily" not in before["text"]
        publish(served, second)
        status, body = app.handle("POST", "/refresh", {})
        assert (status, body["epoch"]) == (200, 1)
        _, after = app.handle("POST", "/chat", self.ASK)
        assert "10mg daily" in after["text"]
        assert "75mg twice daily" in after["text"]
        assert app.cache.stale_drops >= 1
        assert app.cache.stale_served == 0

    def test_refresh_onto_another_space_keeps_the_served_kb(self, tmp_path):
        served = tmp_path / "current"
        served.symlink_to(write_artifacts(tmp_path / "v1", build_toy_agent()))
        app = self.serve(served)
        other = build_toy_agent()
        other.agent_name = "Other"
        publish(served, write_artifacts(tmp_path / "v2", other))

        status, body = app.handle("POST", "/refresh", {})
        assert status == 500
        assert body["error"] == "refresh_build_failed"
        assert "conversation_space.json differs" in body["message"]
        _, metrics = app.handle("GET", "/metrics", {})
        assert "kb_epoch 0.0" in metrics
        _, answer = app.handle("POST", "/chat", self.ASK)
        assert "10mg daily" in answer["text"]
