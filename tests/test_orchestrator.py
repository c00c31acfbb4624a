from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import ROOT_ID, make_harness
from harnessgen.coverage import CoverageReport, MethodCoverage, merge_with_callgraph
from harnessgen.errors import EngineError
from harnessgen.orchestrator import (
    PHASE_GRAPH,
    TargetSpec,
    WorkflowState,
    render_annotated_view,
    run_workflow,
)


def run_demo(demo_config, script, overrides=None):
    config = demo_config(script, overrides)
    return run_workflow(TargetSpec.from_config(config), config)


def accounting_row(manifest, agent):
    return next(r for r in manifest["accounting"]["rows"] if r["agent"] == agent)


class TestStateMachine:
    def test_legal_walk(self):
        state = WorkflowState()
        for phase in ("research", "generate", "compile", "patch", "compile", "fuzz", "analyze", "refine", "compile", "fuzz", "analyze", "done"):
            state.transition(phase)
        assert state.phase == "done"

    def test_illegal_transition(self):
        state = WorkflowState()
        state.transition("research")
        with pytest.raises(EngineError) as exc:
            state.transition("fuzz")
        assert exc.value.code == "CONFIG"

    def test_terminal_phases_absorb(self):
        for terminal in ("done", "failed"):
            assert PHASE_GRAPH[terminal] == set()

    def test_failure_reachable_everywhere(self):
        for phase, nexts in PHASE_GRAPH.items():
            if phase not in ("done", "failed"):
                assert "failed" in nexts


class TestRenderView:
    def test_grouping_and_ordering(self, graph):
        report = CoverageReport(
            scope="full",
            methods=(
                MethodCoverage(ROOT_ID, 12, 6, 6, 3),
                MethodCoverage("toylib.Token.isFlag()", 2, 2, 2, 2),
            ),
        )
        text = render_annotated_view(merge_with_callgraph(report, graph))
        lines = text.splitlines()
        assert lines[0] == "## depth 0"
        assert lines[1] == f"partial {ROOT_ID} lines 6/12 branches 3/6"
        # within a depth group uncovered sorts before partial before covered
        depth2 = lines[lines.index("## depth 2") + 1 :]
        statuses = [line.split()[0] for line in depth2 if not line.startswith("##")]
        order = {"uncovered": 0, "partial": 1, "covered": 2}
        assert statuses == sorted(statuses, key=order.__getitem__)
        assert "covered toylib.Token.isFlag() lines 2/2 branches 2/2" in depth2

    def test_all_twelve_nodes_present(self, graph):
        text = render_annotated_view(merge_with_callgraph(CoverageReport(scope="full"), graph))
        body = [l for l in text.splitlines() if not l.startswith("##")]
        assert len(body) == 12
        assert all(l.startswith("uncovered ") for l in body)


class TestHappyPath:
    def test_outcome_and_rounds(self, demo_config):
        manifest = run_demo(demo_config, "scripts/happy.json")
        assert manifest["outcome"] == "success"
        rounds = manifest["rounds"]
        assert [r["round"] for r in rounds] == [0, 1]
        # line totals summed by hand from the sandbox method table
        assert rounds[0]["line_percent"] == pytest.approx(100 * 16 / 60, rel=1e-9)
        assert rounds[1]["line_percent"] == pytest.approx(100 * 50 / 60, rel=1e-9)
        assert rounds[0]["decision"] == "continue"
        assert rounds[1]["decision"] == "stop"
        assert rounds[0]["harness_hash"] != rounds[1]["harness_hash"]

    def test_transitions(self, demo_config):
        manifest = run_demo(demo_config, "scripts/happy.json")
        assert manifest["transitions"] == [
            "research", "generate", "compile", "fuzz", "analyze",
            "refine", "compile", "fuzz", "analyze", "done",
        ]

    def test_accounting_table(self, demo_config):
        manifest = run_demo(demo_config, "scripts/happy.json")
        assert accounting_row(manifest, "RES")["iterations"] == "2"
        assert accounting_row(manifest, "GEN")["iterations"] == "1"
        assert accounting_row(manifest, "PAT")["iterations"] == "0/0"
        assert accounting_row(manifest, "CVA")["iterations"] == "2/1"
        assert accounting_row(manifest, "REF")["iterations"] == "1"
        totals = manifest["accounting"]["totals"]
        assert totals["tokens"] == sum(r["tokens"] for r in manifest["accounting"]["rows"])
        assert totals["cost"] > 0

    def test_run_dir_layout(self, demo_config):
        manifest = run_demo(demo_config, "scripts/happy.json")
        root = Path(manifest["run_dir"])
        assert (root / "manifest.json").is_file()
        assert sorted(p.name for p in (root / "harness").iterdir()) == [
            "final.src", "v1.src", "v2.src",
        ]
        transcripts = sorted(p.name for p in (root / "transcripts").iterdir())
        assert transcripts == [
            "CVA-r0.json", "CVA-r1.json", "GEN-r0.json", "REF-r0.json", "RSH-r0.json",
        ]
        assert sorted(p.name for p in (root / "coverage").iterdir()) == ["r0.json", "r1.json"]
        # persisted manifest matches the returned one apart from run_dir
        on_disk = json.loads((root / "manifest.json").read_text())
        in_memory = {k: v for k, v in manifest.items() if k != "run_dir"}
        assert on_disk == in_memory

    def test_deterministic_across_runs(self, demo_config):
        manifests = [run_demo(demo_config, "scripts/happy.json") for _ in range(2)]
        scrubbed = [
            {k: v for k, v in m.items() if k not in ("timings", "run_dir")} for m in manifests
        ]
        assert scrubbed[0] == scrubbed[1]


class TestPatchLoop:
    def test_fix_after_one_patch(self, demo_config):
        manifest = run_demo(demo_config, "scripts/patch_fix.json")
        assert manifest["outcome"] == "success"
        assert accounting_row(manifest, "PAT")["iterations"] == "1/0"
        assert manifest["transitions"][:5] == [
            "research", "generate", "compile", "patch", "compile",
        ]

    def test_compile_failed_after_budget(self, demo_config):
        manifest = run_demo(
            demo_config, "scripts/patch_fail.json", ["budgets.max_patch_rounds=3"]
        )
        assert manifest["outcome"] == "compile_failed"
        assert accounting_row(manifest, "PAT")["iterations"] == "3"
        assert manifest["transitions"].count("patch") == 3
        assert manifest["transitions"][-1] == "failed"
        assert "cannot resolve import" in manifest["error"]
        assert manifest["rounds"] == []

    def test_each_patch_attempt_keeps_its_transcript(self, demo_config):
        manifest = run_demo(
            demo_config, "scripts/patch_fail.json", ["budgets.max_patch_rounds=3"]
        )
        transcripts = Path(manifest["run_dir"]) / "transcripts"
        assert sorted(p.name for p in transcripts.glob("PAT-*.json")) == [
            "PAT-r0-a1.json", "PAT-r0-a2.json", "PAT-r0-a3.json",
        ]


class TestTermination:
    def test_convergence_detected(self, demo_config):
        manifest = run_demo(demo_config, "scripts/converge.json")
        assert manifest["outcome"] == "converged"
        assert len(manifest["rounds"]) == 1
        assert manifest["rounds"][0]["decision"] == "continue"
        assert manifest["transitions"][-2:] == ["refine", "done"]

    def test_budget_exhausted(self, demo_config):
        manifest = run_demo(demo_config, "scripts/budget.json", ["budgets.max_rounds=1"])
        assert manifest["outcome"] == "budget_exhausted"
        assert [r["round"] for r in manifest["rounds"]] == [0, 1]
        assert all(r["decision"] == "continue" for r in manifest["rounds"])

    def test_generation_failure(self, demo_config):
        manifest = run_demo(demo_config, "scripts/genfail.json")
        assert manifest["outcome"] == "model_failed"
        assert manifest["rounds"] == []
        assert manifest["transitions"][-1] == "failed"

    def test_crash_reporting(self, demo_config):
        manifest = run_demo(demo_config, "scripts/crash.json")
        assert manifest["outcome"] == "success"
        assert manifest["rounds"][0]["crash_count"] == 3


class TestScopes:
    def test_method_targeted_hides_warmup_coverage(self, demo_config):
        manifest = run_demo(demo_config, "scripts/warmup.json")
        assert manifest["outcome"] == "success"
        assert manifest["rounds"][0]["line_percent"] == 0.0

    def test_full_scope_sees_warmup_coverage(self, demo_config):
        manifest = run_demo(
            demo_config, "scripts/warmup.json", ['budgets.coverage_scope="full"']
        )
        assert manifest["rounds"][0]["line_percent"] > 0.0


class TestTargetResolution:
    def test_unknown_target_fails_before_run_dir_matters(self, demo_config):
        config = demo_config("scripts/happy.json", ['target.target_method="nosuch()"'])
        with pytest.raises(EngineError) as exc:
            run_workflow(TargetSpec.from_config(config), config)
        assert exc.value.code == "TARGET_NOT_FOUND"

    def test_target_echoed_in_manifest(self, demo_config):
        manifest = run_demo(demo_config, "scripts/happy.json")
        assert manifest["target"] == {
            "library_name": "toylib",
            "library_version": "1.0",
            "target_class": "ArgParser",
            "target_method": "parse(String[])",
        }
