"""What importing the package loads, and what the package declares.

The router process only forwards bytes, so its import path must not
load the model's libraries; the package ``__init__`` files re-export
lazily to make that so.  The serving processes that hold the model
(the single server and the router's workers) load numpy alone: they
load the shipped intent model instead of fitting it, and score without
``scipy.sparse``, which only ``SoftmaxClassifier.fit`` imports.  Nor do
they load networkx, which only the offline ``pagerank``/``betweenness``
centralities use.  A server started from an ``--artifacts`` directory
also loads ``sqlite3``, to read its ``kb.db``; the default one does not.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.persistence
import repro.serving

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
HEAVY = ("numpy", "scipy", "networkx")

#: Runs ``repro serve --workers 2`` through the CLI up to a serving,
#: then drained, router, with the worker launch stubbed out, and prints
#: which heavy libraries the process loaded.
_ROUTER_PROCESS = """
import json, sys
from repro import cli
from repro.persistence.router import SessionRouter

SessionRouter._launch = lambda self, handle: 0.0
SessionRouter._await_ready = lambda self, launched: []
args = cli.build_parser().parse_args([
    "serve", "--workers", "2", "--data-dir", sys.argv[1], "--port", "0",
])
assert cli.cmd_serve(args, output_fn=lambda line: None, run_forever=False) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in %r)))
""" % (HEAVY,)


#: Starts and drains ``repro serve`` with the arguments after ``--``
#: through the CLI (which builds or loads the MDX agent and imports the
#: server), answers one turn with the agent it built, then prints the
#: networkx, scipy and sqlite3 modules the process loaded.  Any call to
#: ``SoftmaxClassifier.fit`` fails the process.
_SERVING_PROCESS = """
import sys
from repro import cli
from repro.nlp.classifier import SoftmaxClassifier

def fit(*args, **kwargs):
    raise AssertionError("a serving process called SoftmaxClassifier.fit")

SoftmaxClassifier.fit = fit
builds = []
build_agent = cli._build_agent
cli._build_agent = lambda args: builds.append(build_agent(args)) or builds[-1]
args = cli.build_parser().parse_args(sys.argv[sys.argv.index("--") + 1:])
assert cli.cmd_serve(args, output_fn=lambda line: None, run_forever=False) == 0
assert "repro.serving.server" in sys.modules
[(agent, _)] = builds
assert agent.session().ask("dosage for Tazarotene").intent
print(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("networkx", "scipy", "sqlite3")
))
"""


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT, capture_output=True,
        text=True, timeout=120, env={"PYTHONPATH": str(SRC), "PATH": ""},
    )


def test_router_process_loads_no_model_libraries(tmp_path):
    result = _run("-c", _ROUTER_PROCESS, str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_importing_the_package_loads_no_model_libraries():
    result = _run("-c", (
        "import sys, repro, repro.serving, repro.persistence\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_serving_process_loads_no_networkx():
    # Nor scipy, nor sqlite3: the default server builds MDX in-process
    # and reads no kb.db.
    result = _run("-c", _SERVING_PROCESS, "--", "serve", "--port", "0")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_router_worker_loads_no_scipy_and_never_fits(tmp_path):
    result = _run("-c", _SERVING_PROCESS, "--", "serve", "--port", "0",
                  "--workers", "2", "--worker-index", "0",
                  "--data-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("worker", [[], [
    "--workers", "2", "--worker-index", "0", "--data-dir", "{data_dir}",
]], ids=["single", "worker"])
def test_serving_from_artifacts_loads_no_scipy_and_never_fits(
    mdx_artifacts, tmp_path, worker
):
    # sqlite3 is the one addition: the served kb.db needs it.
    result = _run("-c", _SERVING_PROCESS, "--", "serve", "--port", "0",
                  "--artifacts", str(mdx_artifacts),
                  *[arg.format(data_dir=tmp_path) for arg in worker])
    assert result.returncode == 0, result.stderr
    loaded = ast.literal_eval(result.stdout.splitlines()[-1])
    assert "sqlite3" in loaded
    assert [m for m in loaded if m.split(".")[0] != "sqlite3"] == []


@pytest.mark.parametrize("modules, libraries", [
    # The bootstrap layers a serving process builds its agent with.
    ("repro.ontology, repro.bootstrap, repro.nlq", ("networkx",)),
    # ``repro lint``/``race``/``purity`` only parse source files; the
    # space checkers that need the model are imported per command.
    ("repro.analysis.runner", HEAVY),
], ids=["bootstrap", "analysis_runner"])
def test_import_loads_no_heavy_library(modules, libraries):
    result = _run("-c", (
        f"import sys, {modules}\n"
        f"print([m for m in {libraries!r} if m in sys.modules])"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_kb_refresh_validation_loads_only_the_space_checker():
    # ``ConversationApp.refresh_kb`` imports these two inside a serving
    # process; the code analyzers must stay unloaded there.
    result = _run("-c", (
        "import sys\n"
        "from repro.analysis.diagnostics import error_count\n"
        "from repro.analysis.space_checker import check_space\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str([
        "repro.analysis", "repro.analysis.diagnostics",
        "repro.analysis.space_checker",
    ])


@pytest.mark.parametrize(
    "package", [repro, repro.analysis, repro.serving, repro.persistence],
    ids=lambda package: package.__name__,
)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


def test_cli_help_runs():
    result = _run("-m", "repro", "--help")
    assert result.returncode == 0, result.stderr
    assert "serve" in result.stdout and "lint" in result.stdout


def test_third_party_imports_are_declared():
    declared = set()
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.S | re.M)
    for requirement in re.findall(r'"([^"]+)"', block.group(1)):
        declared.add(re.split(r"[<>=!~\[; ]", requirement, 1)[0].lower())
    imported: dict[str, str] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    imported.setdefault(top, str(path.relative_to(SRC)))
    undeclared = {
        top: where for top, where in imported.items() if top not in declared
    }
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"
