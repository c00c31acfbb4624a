"""Shared fixtures: the bundled toylib demo plus small builders."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from harnessgen.agents import HarnessArtifact, normalize_and_hash
from harnessgen.callgraph import build, load_facts
from harnessgen.code_index import CodeIndex
from harnessgen.config import load_config
from harnessgen.coverage import CoverageReport
from harnessgen.docs_index import DocsIndex
from harnessgen.ecosystem import load_sandbox
from harnessgen.toolbus import ToolRegistry, register_default_tools

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = REPO_ROOT / "demo"

ROOT_ID = "toylib.ArgParser.parse(String[])"

# A file or other resource a test leaves open fails that test: its
# ResourceWarning, raised where nothing can catch it, reaches pytest as an
# unraisable exception. Only the items under this directory get the filters.
LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items) -> None:
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            for spec in LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


def make_harness(source: str, dependencies: tuple[str, ...] = ()) -> HarnessArtifact:
    return HarnessArtifact(
        source=source, dependencies=dependencies, normalized_hash=normalize_and_hash(source)
    )


def dense_report(
    scope: str, methods=(), campaign_seconds: float = 0.0, dropped_events: int = 0
) -> CoverageReport:
    """The report of `methods`, each with its own totals: the totals table
    made from those totals, the hits the methods with a covered site."""
    return CoverageReport(
        scope,
        {m.id: (m.lines_total, m.branches_total) for m in methods},
        {m.id: m for m in methods if m.lines_covered or m.branches_covered},
        float(campaign_seconds),
        dropped_events,
    )


def write_shell_config(tmp_path, wall_seconds=None, **shell):
    """The demo config on the shell adapter with `shell` commands; returns its path."""
    config = json.loads((DEMO_DIR / "config.json").read_text())
    config["model"]["script"] = str(DEMO_DIR / "scripts" / "happy.json")
    config["output_dir"] = str(tmp_path / "runs")
    config["adapter"] = {"shell": {"coverage_out": "cov.json", **shell}}
    config["target"].update(
        docs_bundle=str(DEMO_DIR / "docs.json"),
        source_root=str(DEMO_DIR / "src"),
        facts=str(DEMO_DIR / "facts.json"),
    )
    if wall_seconds is not None:
        config["budgets"]["wall_seconds"] = wall_seconds
    path = tmp_path / "shell.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="session")
def demo_dir() -> Path:
    return DEMO_DIR


@pytest.fixture(scope="session")
def docs_index() -> DocsIndex:
    return DocsIndex.from_file(DEMO_DIR / "docs.json")


@pytest.fixture(scope="session")
def code_index() -> CodeIndex:
    return CodeIndex.build(DEMO_DIR / "src")


@pytest.fixture(scope="session")
def facts():
    return load_facts(DEMO_DIR / "facts.json")


@pytest.fixture(scope="session")
def graph(facts):
    return build(facts, ROOT_ID, 10)


@pytest.fixture(scope="session")
def sandbox():
    return load_sandbox(DEMO_DIR / "sandbox.json")


@pytest.fixture()
def registry(docs_index, code_index, graph) -> ToolRegistry:
    return register_default_tools(ToolRegistry(), docs_index, code_index, graph)


@pytest.fixture()
def demo_config(tmp_path):
    """Demo config with runs redirected into the test tmp dir."""

    def _load(script: str = "scripts/happy.json", overrides: list[str] | None = None):
        base = [f"output_dir={tmp_path / 'runs'}", f"model.script={script}"]
        return load_config(DEMO_DIR / "config.json", base + (overrides or []))

    return _load
