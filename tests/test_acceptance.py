"""Acceptance suite: nine criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every expected value is either computed by an independent in-test
oracle (brute-force BFS, hand summation) or summed by hand from the demo
sandbox tables.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from pathlib import Path

import pytest

from conftest import DEMO_DIR, make_harness
from harnessgen.callgraph import CallFacts, build, path_to_method
from harnessgen.cli import main as cli_main
from harnessgen.coverage import (
    RecordingTrace,
    RunEvents,
    TraceRun,
    apply_recording_windows,
    coverage_percent,
    merge_with_callgraph,
)
from harnessgen.orchestrator import TargetSpec, run_workflow
from harnessgen.toolbus import (
    AccessLevel,
    AgentRole,
    ToolDescriptor,
    ToolRegistry,
    ToolRequest,
    register_default_tools,
)

DOCS_TOOLS = ["method_doc", "class_doc", "package_doc", "list_packages", "list_classes", "list_methods"]
CODE_TOOLS = ["get_method_code", "get_class_code", "find_definition", "find_refs", "grep", "find_symbol"]
ALL_TOOLS = DOCS_TOOLS + CODE_TOOLS + ["reach_methods", "path_to_method", "compile", "fuzz"]


class Criterion:
    """Context manager that prints one pass/fail line with the runtime bound."""

    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(
            f"[{verdict}] criterion {self.number}: {self.label} "
            f"({elapsed:.2f}s, budget {self.budget:.0f}s)"
        )
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded runtime budget: {elapsed:.2f}s"
            )
        return False


def expected_access(tool: str, role: AgentRole) -> AccessLevel:
    """Published availability matrix, written out independently of the code."""
    if tool in DOCS_TOOLS or tool in CODE_TOOLS:
        return AccessLevel.ALLOWED
    if tool == "reach_methods":
        return AccessLevel.STATIC_ONLY if role is AgentRole.CVA else AccessLevel.DENIED
    if tool == "path_to_method":
        return AccessLevel.ALLOWED if role is AgentRole.CVA else AccessLevel.DENIED
    if tool == "compile":
        return AccessLevel.STATIC_ONLY if role is AgentRole.PAT else AccessLevel.DENIED
    return AccessLevel.STATIC_ONLY if role is AgentRole.CVA else AccessLevel.DENIED


def run_demo(tmp_path, script, overrides=()):
    from harnessgen.config import load_config

    config = load_config(
        DEMO_DIR / "config.json",
        [f"output_dir={tmp_path / 'runs'}", f"model.script={script}", *overrides],
    )
    return run_workflow(TargetSpec.from_config(config), config)


def test_criterion_1_acl_conformance(registry):
    with Criterion(1, "ACL matrix matches the published table and is enforced", 1.0):
        for tool in ALL_TOOLS:
            for role in AgentRole:
                assert registry.check_access(role, tool) is expected_access(tool, role)
        # property check: random (role, tool) dispatches never leak content
        stub = ToolRegistry()
        for name in ALL_TOOLS:
            category = (
                "docs" if name in DOCS_TOOLS else
                "code" if name in CODE_TOOLS else
                "callgraph" if name in ("reach_methods", "path_to_method") else "exec"
            )
            stub.register(ToolDescriptor(name, category, {}, ""), lambda: "SECRET")
        rng = random.Random(11)
        for _ in range(500):
            role = rng.choice(list(AgentRole))
            tool = rng.choice(ALL_TOOLS)
            response = stub.dispatch(role, ToolRequest(tool, {}))
            if expected_access(tool, role) is AccessLevel.ALLOWED:
                assert response.ok and response.content == "SECRET"
            else:
                assert not response.ok and response.content == ""


def test_criterion_2_callgraph_oracle():
    with Criterion(2, "callgraph depths/limits/paths match brute-force BFS on 200 random digraphs", 10.0):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 50)
            methods = [f"m{i:02d}" for i in range(n)]
            calls = sorted({(rng.choice(methods), rng.choice(methods)) for _ in range(rng.randint(1, 150))})
            facts = CallFacts(methods={m: f"C.{m}" for m in methods}, calls=tuple(calls))
            adjacency: dict[str, set[str]] = {}
            for frm, to in calls:
                adjacency.setdefault(frm, set()).add(to)
            for limit in (1, 3, 5, 10):
                # oracle: naive level-by-level expansion
                depths = {methods[0]: 0}
                frontier = {methods[0]}
                for level in range(1, limit + 1):
                    nxt = set()
                    for node in frontier:
                        for callee in adjacency.get(node, ()):
                            if callee not in depths:
                                depths[callee] = level
                                nxt.add(callee)
                    frontier = nxt
                graph = build(facts, methods[0], limit)
                assert {nd.id: nd.depth for nd in graph.nodes.values()} == depths
                for node in graph.nodes.values():
                    assert len(path_to_method(graph, node.id)) - 1 == node.depth


def test_criterion_3_coverage_semantics(graph):
    with Criterion(3, "window filtering, status classification, and percent vs oracles", 5.0):
        node_ids = sorted(graph.nodes)
        for seed in range(100):
            rng = random.Random(1000 + seed)
            totals = {mid: (rng.randint(1, 12), rng.randint(0, 6)) for mid in node_ids}
            windows = ((5.0, 15.0), (30.0, 45.0))
            # one single-line run per event: method, line, kind, time drawn in that order
            events = tuple(
                TraceRun(mid, kind, ts, (line,))
                for mid, line, kind, ts in (
                    (rng.choice(node_ids), rng.randint(1, 14),
                     rng.choice(["line_hit", "branch_hit"]), rng.uniform(0, 60))
                    for _ in range(rng.randint(0, 150))
                )
            )
            report = apply_recording_windows(
                RecordingTrace(events=RunEvents(events), windows=windows, method_totals=totals)
            )
            covered_sum = 0
            total_sum = 0
            for mid, (lt, bt) in totals.items():
                in_window = [
                    e for e in events
                    if e.method_id == mid and any(s <= e.timestamp <= t for s, t in windows)
                ]
                lines = {line for e in in_window if e.kind == "line_hit" for line in e.lines}
                got = report.by_id()[mid]
                assert got.lines_covered == min(lt, len(lines))
                covered_sum += got.lines_covered
                total_sum += lt
            # merged statuses follow the counter-based definition for all nodes
            view = merge_with_callgraph(report, graph)
            for entry in view.entries():
                c = entry.counters
                if c.lines_total > 0 and c.lines_covered == c.lines_total:
                    assert entry.status == "covered"
                elif 0 < c.lines_covered < c.lines_total:
                    assert entry.status == "partial"
                else:
                    assert entry.status == "uncovered"
            # percent vs independent hand summation
            pct = coverage_percent(view, "line")
            assert float(pct) == pytest.approx(100.0 * covered_sum / total_sum, rel=1e-9)


def test_criterion_4_method_targeted_isolation(sandbox):
    with Criterion(4, "out-of-window hits invisible under method-targeted scope", 5.0):
        warmup = make_harness("void fuzzTarget(byte[] d) { WARMUP }")
        targeted = sandbox.fuzz(warmup, 5).coverage
        full = sandbox.fuzz(warmup, 5, scope="full").coverage
        assert float(coverage_percent(targeted, "line")) == 0.0
        assert float(coverage_percent(full, "line")) > 0.0


def test_criterion_5_end_to_end_deterministic(tmp_path):
    with Criterion(5, "happy-path scripted run, 2 rounds, deterministic x3", 30.0):
        manifests = [run_demo(tmp_path / str(i), "scripts/happy.json") for i in range(3)]
        for manifest in manifests:
            assert manifest["outcome"] == "success"
            rounds = manifest["rounds"]
            assert len(rounds) == 2
            assert rounds[1]["line_percent"] > rounds[0]["line_percent"]
            assert manifest["transitions"] == [
                "research", "generate", "compile", "fuzz", "analyze",
                "refine", "compile", "fuzz", "analyze", "done",
            ]
            totals = manifest["accounting"]["totals"]
            assert totals["tokens"] == sum(r["tokens"] for r in manifest["accounting"]["rows"])
        scrubbed = [
            {k: v for k, v in m.items() if k not in ("timings", "run_dir")} for m in manifests
        ]
        assert scrubbed[0] == scrubbed[1] == scrubbed[2]


def test_criterion_6_patch_loop(tmp_path):
    with Criterion(6, "patch fixed on first turn renders 1/0; persistent error fails after budget", 10.0):
        fixed = run_demo(tmp_path / "fix", "scripts/patch_fix.json")
        assert fixed["outcome"] == "success"
        pat = next(r for r in fixed["accounting"]["rows"] if r["agent"] == "PAT")
        assert pat["iterations"] == "1/0"
        broken = run_demo(
            tmp_path / "fail", "scripts/patch_fail.json", ["budgets.max_patch_rounds=3"]
        )
        assert broken["outcome"] == "compile_failed"
        assert broken["transitions"].count("patch") == 3


def test_criterion_7_convergence_and_budget(tmp_path):
    with Criterion(7, "hash-equal refinement converges; max_rounds=1 exhausts budget", 10.0):
        converged = run_demo(tmp_path / "conv", "scripts/converge.json")
        assert converged["outcome"] == "converged"
        budget = run_demo(tmp_path / "bud", "scripts/budget.json", ["budgets.max_rounds=1"])
        assert budget["outcome"] == "budget_exhausted"
        assert [r["round"] for r in budget["rounds"]] == [0, 1]
        assert all(r["decision"] == "continue" for r in budget["rounds"])


def test_criterion_8_crash_dedup(sandbox):
    with Criterion(8, "identical crash summaries collapse to one dedup key", 5.0):
        harness = make_harness(
            "void fuzzTarget(byte[] d) { parser.parse(a); } // CRASH_NULL CRASH_NULL_TWIN CRASH_OOB"
        )
        result = sandbox.fuzz(harness, 5)
        assert len(result.crashes) == 3
        assert len({c.dedup_key for c in result.crashes}) == 2


def test_criterion_9_report_fidelity(tmp_path, capsys):
    with Criterion(9, "report text shows '/'-joined rows; csv/json round-trip losslessly", 1.0):
        manifest = run_demo(tmp_path, "scripts/happy.json")
        run_dir = manifest["run_dir"]
        capsys.readouterr()

        assert cli_main(["report", run_dir, "--format", "json"]) == 0
        json_out = capsys.readouterr().out
        assert json_out == (Path(run_dir) / "manifest.json").read_text()

        assert cli_main(["report", run_dir, "--format", "text"]) == 0
        text_out = capsys.readouterr().out
        pat_line = next(l for l in text_out.splitlines() if l.startswith("PAT"))
        assert "0/0" in pat_line
        for agent in ("RES", "GEN", "CVA", "REF", "Total"):
            assert any(l.startswith(agent) for l in text_out.splitlines())

        assert cli_main(["report", run_dir, "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        on_disk = json.loads((Path(run_dir) / "manifest.json").read_text())
        assert len(rows) == len(on_disk["rounds"])
        for got, want in zip(rows, on_disk["rounds"]):
            assert float(got["line_pct"]) == want["line_percent"]
            assert float(got["branch_pct"]) == want["branch_percent"]
