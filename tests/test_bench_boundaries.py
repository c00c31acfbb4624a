"""The benchmark's trace boundaries still name what the engine calls.

`bench/tracing.py` wraps engine functions and runner services by name from
outside the engine. A refactor that moves or renames one fails here, in
the engine's own suite, instead of only in the benchmark's selftest.
"""

from __future__ import annotations

import importlib.util
import json
from collections import Counter

import pytest

from conftest import REPO_ROOT
from harnessgen import ecosystem
from harnessgen.orchestrator import TargetSpec, WorkflowRunner


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO_ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demo_runner(demo_config) -> WorkflowRunner:
    config = demo_config("scripts/happy.json")
    return WorkflowRunner(TargetSpec.from_config(config), config)


def test_module_boundaries_exist(tracing):
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing.MODULE_BOUNDARIES
        if attr not in vars(owner)
    ]
    assert missing == []


def test_instance_boundaries_exist(tracing, demo_config):
    runner = demo_runner(demo_config)
    for field, methods in tracing.INSTANCE_BOUNDARIES.items():
        assert hasattr(runner, field), f"WorkflowRunner.{field}"
        for method, _, _ in methods:
            assert callable(getattr(getattr(runner, field), method, None)), f"{field}.{method}"


def test_traced_run_records_each_agent_run(tracing, demo_config):
    tracer = tracing.Tracer()
    with tracer.module_boundaries(0):
        runner = demo_runner(demo_config)
        with tracer.runner_boundaries(runner):
            manifest = runner.run()
    assert manifest["outcome"] == "success"
    spans = [s[5] for s in tracer.spans if s[0] == "agents.run_react"]
    traced = sorted((attrs["role"], attrs["iterations"]) for attrs in spans)
    transcripts = sorted(
        (path.stem.split("-")[0], json.loads(path.read_text())["iterations"])
        for path in (runner.run_dir / "transcripts").glob("*.json")
    )
    assert traced == transcripts
    assert {role for role, _ in traced} == {"RSH", "GEN", "CVA", "REF"}


def test_traced_run_records_the_coverage_layers_per_round(tracing, demo_config):
    """The per-layer coverage metrics read these spans; a refactor that moves
    the calls would otherwise zero them without a failure."""
    tracer = tracing.Tracer()
    with tracer.module_boundaries(0):
        runner = demo_runner(demo_config)
        with tracer.runner_boundaries(runner):
            manifest = runner.run()
    names = Counter(s[0] for s in tracer.spans)
    rounds = len(manifest["rounds"])
    assert rounds == 2
    assert names["coverage.apply_recording_windows"] == rounds
    assert names["coverage.merge_with_callgraph"] == rounds
    assert names["coverage.render_annotated_view"] >= 1


SETUP_LOADERS = (
    "ecosystem.load_sandbox",
    "docs_index.from_file",
    "code_index.build",
    "callgraph.load_facts",
    "callgraph.build",
)


def test_traced_set_up_records_each_loader_once(tracing, demo_config):
    """The set-up metrics read one span per loader, sized like the services."""
    tracer = tracing.Tracer()
    with tracer.module_boundaries(0):
        demo_runner(demo_config)
    names = Counter(s[0] for s in tracer.spans)
    assert {name: names[name] for name in SETUP_LOADERS} == dict.fromkeys(SETUP_LOADERS, 1)
    attrs = {s[0]: s[5] for s in tracer.spans}
    untraced = demo_runner(demo_config)
    assert attrs["code_index.build"] == {
        "files": len(untraced.code.units), "symbols": len(untraced.code.symbols)
    }
    assert attrs["callgraph.build"] == {
        "nodes": len(untraced.graph.nodes), "edges": len(untraced.graph.edges)
    }
    assert attrs["docs_index.from_file"] == {"entries": sum(untraced.docs.counts().values())}


def test_traced_trace_events_count_the_runs_lines(tracing, demo_config, monkeypatch):
    """`coverage.trace_events` reads the span's `events`: one per hit site,
    however the trace holds them."""
    traces = []
    apply = ecosystem.apply_recording_windows

    def recording(trace, *args, **kwargs):
        traces.append(trace)
        return apply(trace, *args, **kwargs)

    monkeypatch.setattr(ecosystem, "apply_recording_windows", recording)
    tracer = tracing.Tracer()
    with tracer.module_boundaries(0):
        runner = demo_runner(demo_config)
        with tracer.runner_boundaries(runner):
            runner.run()
    counted = [s[5]["events"] for s in tracer.spans if s[0] == "coverage.apply_recording_windows"]
    assert counted == [sum(len(run.lines) for run in t.events.runs) for t in traces]
    assert len(traces) == 2 and all(counted)
