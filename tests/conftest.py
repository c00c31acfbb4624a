"""Shared fixtures: the bundled toylib demo plus small builders."""

from __future__ import annotations

from pathlib import Path

import pytest

from harnessgen.agents import HarnessArtifact, normalize_and_hash
from harnessgen.callgraph import build, load_facts
from harnessgen.code_index import CodeIndex
from harnessgen.config import load_config
from harnessgen.docs_index import DocsIndex
from harnessgen.ecosystem import load_sandbox
from harnessgen.toolbus import ToolRegistry, register_default_tools

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = REPO_ROOT / "demo"

ROOT_ID = "toylib.ArgParser.parse(String[])"


def make_harness(source: str, dependencies: tuple[str, ...] = ()) -> HarnessArtifact:
    return HarnessArtifact(
        source=source, dependencies=dependencies, normalized_hash=normalize_and_hash(source)
    )


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
