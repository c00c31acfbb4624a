from __future__ import annotations

import gc
import json
import random
import re
import shutil
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEMO_DIR, ROOT_ID, dense_report, make_harness
from harnessgen import orchestrator
from harnessgen.agents import load_prompt
from harnessgen.callgraph import CallFacts, build
from harnessgen.config import load_config
from harnessgen.coverage import (
    CoverageReport,
    MethodCoverage,
    ViewDiff,
    merge_with_callgraph,
)
from harnessgen.errors import EngineError
from harnessgen.orchestrator import (
    PHASE_GRAPH,
    TargetSpec,
    WorkflowRunner,
    WorkflowState,
    render_annotated_view,
    render_view_diff,
    run_workflow,
)
from harnessgen.toolbus import AgentRole


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
        report = dense_report(
            "full",
            (
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
        text = render_annotated_view(merge_with_callgraph(dense_report("full"), graph))
        body = [l for l in text.splitlines() if not l.startswith("##")]
        assert len(body) == 12
        assert all(l.startswith("uncovered ") for l in body)


STATUSES = ("uncovered", "partial", "covered")
COUNT_RE = re.compile(
    r"\.\.\. (\d+) more at depth (\d+): (\d+) uncovered, (\d+) partial, (\d+) covered"
)


def groups_of(view) -> dict[int, list]:
    """The view's entries per depth, shallow first."""
    groups: dict[int, list] = {}
    for e in view.entries():
        groups.setdefault(e.node.depth, []).append(e)
    return groups


def full_view(view) -> str:
    """The unbounded rendering: every depth, then every entry by status and id."""
    lines = []
    for depth, entries in groups_of(view).items():
        lines.append(f"## depth {depth}")
        for e in sorted(entries, key=lambda e: (STATUSES.index(e.status), e.node.id)):
            c = e.counters
            lc, lt = (c.lines_covered, c.lines_total) if c else (0, 0)
            bc, bt = (c.branches_covered, c.branches_total) if c else (0, 0)
            lines.append(f"{e.status} {e.node.id} lines {lc}/{lt} branches {bc}/{bt}")
    return "\n".join(lines)


def skeleton(view) -> str:
    lines = []
    for depth, entries in groups_of(view).items():
        counts = Counter(e.status for e in entries)
        lines.append(f"## depth {depth}")
        lines.append(
            f"... {len(entries)} more at depth {depth}: {counts['uncovered']} "
            f"uncovered, {counts['partial']} partial, {counts['covered']} covered"
        )
    return "\n".join(lines)


def random_view(seed: int, n_nodes: int):
    rng = random.Random(seed)
    methods = [f"pkg.C{i % 7}.method{i}(int)" for i in range(n_nodes)]
    calls = {(methods[rng.randrange(i)], methods[i]) for i in range(1, n_nodes)}
    calls |= {(rng.choice(methods), rng.choice(methods)) for _ in range(n_nodes)}
    facts = CallFacts(methods={m: m.rsplit(".", 1)[0] for m in methods}, calls=tuple(sorted(calls)))
    graph = build(facts, methods[0], n_nodes)
    counters = []
    for mid in methods:
        if rng.random() < 0.7:
            total = rng.randrange(1, 30)
            covered = rng.choice((0, total, rng.randrange(total + 1)))
            counters.append(MethodCoverage(mid, total, covered, 4, rng.randrange(5)))
    return merge_with_callgraph(dense_report("full", counters), graph)


class TestBoundedView:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10**6), n_nodes=st.integers(1, 60), data=st.data())
    def test_bounded_view_counts_every_node(self, seed, n_nodes, data):
        view = random_view(seed, n_nodes)
        full = full_view(view)
        # a tiny view can render shorter than its skeleton
        lowest = min(len(skeleton(view)), len(full))
        budget = data.draw(st.integers(lowest, len(full) + 10))
        out = render_annotated_view(view, budget)
        assert len(out) <= budget
        if len(full) <= budget:
            assert out == full
        full_entries = [l for l in full.splitlines() if not l.startswith("## ")]
        shown = [l for l in out.splitlines() if not l.startswith(("## ", "... "))]
        assert shown == full_entries[: len(shown)]
        seen = {depth: Counter() for depth in groups_of(view)}
        depth = None
        for line in out.splitlines():
            if line.startswith("## depth "):
                depth = int(line.split()[-1])
                assert not seen[depth]
                seen[depth]["header"] += 1
            elif line.startswith("... "):
                n, d, *counts = map(int, COUNT_RE.fullmatch(line).groups())
                assert d == depth and n == sum(counts)
                seen[depth].update(dict(zip(STATUSES, counts)))
            else:
                seen[depth][line.split()[0]] += 1
        for depth, entries in groups_of(view).items():
            expected = Counter(e.status for e in entries)
            expected["header"] = 1
            assert +seen[depth] == +expected

    def test_budget_below_skeleton_yields_skeleton(self):
        view = random_view(7, 40)
        for budget in (0, len(skeleton(view)) - 1):
            assert render_annotated_view(view, budget) == skeleton(view)

    def test_large_view_stays_within_default_budget(self):
        view = random_view(3, 2000)
        assert len(full_view(view)) > 8000
        out = render_annotated_view(view)
        assert len(out) <= 8000
        assert out.startswith("## depth 0\n")
        assert [l for l in out.splitlines() if l.startswith("## ")] == [
            f"## depth {d}" for d in groups_of(view)
        ]


class TestDiffBlock:
    def test_small_diff_lists_every_id(self):
        diff = ViewDiff(newly_covered=("a.B.c()",), regressed=(), delta_percent=2.5)
        assert render_view_diff(diff) == (
            "newly covered: a.B.c()\nregressed: none\nline coverage delta: +2.50%"
        )

    def test_long_diff_lists_ids_while_they_fit(self):
        newly = tuple(f"pkg.C.method{i:04d}()" for i in range(2000))
        regressed = ("pkg.C.lost()", "pkg.C.lost2()")
        out = render_view_diff(ViewDiff(newly, regressed, -1.0), 8000)
        assert len(out) <= 8000
        first, second, third = out.splitlines()
        shown = first.removeprefix("newly covered: ").split(", ")
        more = re.fullmatch(r"\.\.\. and (\d+) more", shown.pop())
        assert shown == list(newly[: len(shown)])
        assert len(shown) + int(more.group(1)) == len(newly)
        assert second == "regressed: pkg.C.lost(), pkg.C.lost2()"
        assert third == "line coverage delta: -1.00%"


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

    def test_each_round_renders_its_view_once(self, demo_config, monkeypatch):
        """CVA's seed and REF's seed share the round's one rendering."""
        real = orchestrator.render_annotated_view
        rendered = []

        def render(view, budget):
            rendered.append(real(view, budget))
            return rendered[-1]

        monkeypatch.setattr(orchestrator, "render_annotated_view", render)
        manifest = run_demo(demo_config, "scripts/happy.json")
        assert len(rendered) == len(manifest["rounds"]) == 2

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
        assert sorted(p.name for p in (root / "coverage").iterdir()) == [
            "r0.json", "r1.json", "totals.json",
        ]
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


class TestSetupRecord:
    def test_demo_run_writes_the_seconds_of_each_service(self, demo_config):
        config = demo_config("scripts/happy.json")
        started = time.monotonic()
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        built = time.monotonic() - started
        setup = json.loads((runner.run_dir / "setup.json").read_text())
        assert list(setup["seconds"]) == list(orchestrator.SETUP_STEPS)
        assert all(v >= 0 for v in setup["seconds"].values())
        assert sum(setup["seconds"].values()) <= built
        assert setup["warnings"] == []
        manifest = runner.run()
        assert manifest["outcome"] == "success"
        assert json.loads((runner.run_dir / "setup.json").read_text()) == setup
        assert "setup" not in manifest and "warnings" not in manifest

    def test_setup_counts_the_files_scanned_and_cached(self, demo_config):
        """The first run into an `output_dir` scans the sources and leaves
        the symbol cache; the next reads every file from it."""
        config = demo_config("scripts/happy.json")
        counts = []
        for _ in range(2):
            runner = WorkflowRunner(TargetSpec.from_config(config), config)
            counts.append(json.loads((runner.run_dir / "setup.json").read_text())["code_index"])
            runner.run()
        assert counts == [{"scanned": 3, "cached": 0}, {"scanned": 0, "cached": 3}]

    @pytest.mark.parametrize("fault", [None, KeyboardInterrupt, RuntimeError])
    def test_services_are_frozen_for_the_run_only(self, demo_config, fault):
        """No collection during `run()` walks the objects built before it:
        they stay frozen from construction until `run()` ends, however it ends."""
        config = demo_config("scripts/happy.json")
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        frozen = gc.get_freeze_count()
        phases = runner._run_phases
        during = []

        def run_phases():
            during.append(gc.get_freeze_count())
            if fault is not None:
                raise fault
            return phases()

        runner._run_phases = run_phases
        if fault is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                runner.run()
        else:
            runner.run()
        assert frozen > 0 and during == [frozen]
        assert gc.get_freeze_count() == 0

    def test_undecodable_source_is_skipped_and_named(self, tmp_path):
        demo = tmp_path / "demo"
        shutil.copytree(DEMO_DIR, demo)
        legacy = demo / "src" / "toylib" / "Legacy.java"
        legacy.write_bytes("public class L\u00e9gacy {\n}\n".encode("latin-1"))
        config = load_config(demo / "config.json", [f"output_dir={tmp_path / 'runs'}"])
        manifest = run_workflow(TargetSpec.from_config(config), config)
        assert manifest["outcome"] == "success"
        setup = json.loads((Path(manifest["run_dir"]) / "setup.json").read_text())
        (warning,) = setup["warnings"]
        assert "toylib/Legacy.java" in warning


class TestCoverageFiles:
    def test_each_round_file_loads_as_its_report(self, demo_config):
        config = demo_config("scripts/happy.json")
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        reports = []
        fuzz = runner.adapter.fuzz

        def recording_fuzz(*args, **kwargs):
            result = fuzz(*args, **kwargs)
            reports.append(result.coverage)
            return result

        runner.adapter.fuzz = recording_fuzz
        manifest = runner.run()
        assert len(reports) == len(manifest["rounds"]) == 2
        for n, report in enumerate(reports):
            path = runner.run_dir / "coverage" / f"r{n}.json"
            assert CoverageReport.load(path) == report
            assert "\n" not in path.read_text(encoding="utf-8")  # compact, one line


    def test_unmatched_methods_counts_hits_outside_the_graph(self, demo_config):
        config = demo_config("scripts/happy.json", ["budgets.depth_limit=1"])
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        manifest = runner.run()
        counts = []
        for n, _ in enumerate(manifest["rounds"]):
            report = CoverageReport.load(runner.run_dir / "coverage" / f"r{n}.json")
            outside = {mid for mid, c in report.by_id().items() if c.lines_covered or c.branches_covered}
            counts.append(len(outside - runner.graph.nodes.keys()))
        assert [row["unmatched_methods"] for row in manifest["rounds"]] == counts
        assert counts[-1] > 0

    def test_report_over_another_table_names_its_own_totals_file(self, demo_config):
        config = demo_config("scripts/happy.json")
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        table = {"a": (4, 2), "b": (3, 0)}
        reports = [
            CoverageReport("full", table, {"a": MethodCoverage("a", 4, 1, 2, 0)}),
            CoverageReport("full", dict(table), {"b": MethodCoverage("b", 3, 3, 0, 0)}),
            dense_report("full", [MethodCoverage("a", 5, 5, 0, 0)]),  # a table of its own
            CoverageReport("full", table, {}),
        ]
        coverage = runner.run_dir / "coverage"
        for n, report in enumerate(reports):
            runner._save_coverage(report, n)
        raw = [json.loads((coverage / f"r{n}.json").read_text(encoding="utf-8")) for n in range(4)]
        assert [r["totals"] for r in raw] == [
            "totals.json", "totals.json", "totals-r2.json", "totals.json"
        ]
        assert all("lines_total" not in m for r in raw for m in r["methods"])
        assert sorted(p.name for p in coverage.iterdir()) == [
            "r0.json", "r1.json", "r2.json", "r3.json", "totals-r2.json", "totals.json"
        ]
        for n, report in enumerate(reports):
            assert CoverageReport.load(coverage / f"r{n}.json") == report

    def test_shell_run_over_changing_tables_saves_every_round_sparse(self, tmp_path):
        """A shell fuzzer writes campaign files whose tables differ between
        rounds: each round file is sparse, the later one over its own totals
        file, and each loads as the report the round read."""
        tables = [{ROOT_ID: (12, 6), "toylib.Token.isFlag()": (2, 2)}, {ROOT_ID: (10, 6)}]
        for n, table in enumerate(tables):
            runs = [[mid, "line_hit", 1.0, list(range(1, lines // 2 + 1))]
                    for mid, (lines, _) in table.items()]
            (tmp_path / f"cov{n}.json").write_text(json.dumps({
                "windows": [[0, 2]], "method_totals": table, "runs": runs, "executions": 10 + n,
            }))
        # the n-th campaign copies cov{n}.json to coverage_out
        (tmp_path / "fuzz.sh").write_text(
            f"cd {tmp_path}\nn=$(cat round 2>/dev/null || echo 0)\n"
            "echo $((n + 1)) > round\ncp cov$n.json cov.json\n"
        )
        config = json.loads((DEMO_DIR / "config.json").read_text())
        config["adapter"] = {"shell": {
            "compile_cmd": "true", "fuzz_cmd": f"sh {tmp_path / 'fuzz.sh'}", "coverage_out": "cov.json"
        }}
        config["target"].update(
            docs_bundle=str(DEMO_DIR / "docs.json"),
            source_root=str(DEMO_DIR / "src"),
            facts=str(DEMO_DIR / "facts.json"),
        )
        config["model"]["script"] = str(DEMO_DIR / "scripts" / "happy.json")
        config["output_dir"] = str(tmp_path / "runs")
        (tmp_path / "config.json").write_text(json.dumps(config))
        config = load_config(tmp_path / "config.json")
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        reports = []
        fuzz = runner.adapter.fuzz

        def recording_fuzz(*args, **kwargs):
            result = fuzz(*args, **kwargs)
            reports.append(result.coverage)
            return result

        runner.adapter.fuzz = recording_fuzz
        manifest = runner.run()
        assert manifest["outcome"] == "success"
        assert [row["executions"] for row in manifest["rounds"]] == [10, 11]
        assert [report.totals for report in reports] == tables
        assert [report.hits[ROOT_ID].lines_covered for report in reports] == [6, 5]
        coverage = runner.run_dir / "coverage"
        raw = [json.loads((coverage / f"r{n}.json").read_text(encoding="utf-8")) for n in (0, 1)]
        assert [r["totals"] for r in raw] == ["totals.json", "totals-r1.json"]
        assert all(set(m) == {"id", "lines_covered", "branches_covered"}
                   for r in raw for m in r["methods"])
        for n, report in enumerate(reports):
            assert CoverageReport.load(coverage / f"r{n}.json") == report

    def test_round_files_are_sparse_over_one_totals_file(self, demo_config):
        manifest = run_demo(demo_config, "scripts/happy.json")
        coverage = Path(manifest["run_dir"]) / "coverage"
        totals = json.loads((coverage / "totals.json").read_text(encoding="utf-8"))
        for n in range(len(manifest["rounds"])):
            raw = json.loads((coverage / f"r{n}.json").read_text(encoding="utf-8"))
            assert raw["totals"] == "totals.json"
            assert raw["methods"] and all(
                (m["lines_covered"] or m["branches_covered"]) and m["id"] in totals
                for m in raw["methods"]
            )


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
        assert manifest["error"].startswith("MODEL_PROTOCOL: GEN gave no parseable answer")

    def test_wall_budget_spent_before_the_first_fuzz(self, demo_config):
        manifest = run_demo(demo_config, "scripts/happy.json", ["budgets.wall_seconds=1e-9"])
        assert manifest["outcome"] == "budget_exhausted" and "error" not in manifest
        assert manifest["transitions"][-2:] == ["compile", "done"]
        assert manifest["rounds"] == []

    def test_crash_reporting(self, demo_config):
        manifest = run_demo(demo_config, "scripts/crash.json")
        assert manifest["outcome"] == "success"
        assert manifest["rounds"][0]["crash_count"] == 3

    def test_rows_count_unique_crashes_and_executions(self, demo_config):
        row = run_demo(demo_config, "scripts/crash.json")["rounds"][0]
        # two of the three crash rules share a summary, so a dedup key
        assert (row["crash_count"], row["unique_crashes"]) == (3, 2)
        # the sandbox runs int(fuzz_seconds) * 1000 plus 37 per matched coverage rule
        assert row["executions"] == 5 * 1000 + 37
        assert row["unmatched_methods"] == 0

    def test_wall_budget_bounds_the_fuzz_campaign(self, demo_config):
        """A round fuzzes for the wall time left when that is below `fuzz_seconds`."""
        config = demo_config("scripts/happy.json")
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        runner._wall_left = lambda: 1.5
        runner.run()
        saved = json.loads((runner.run_dir / "coverage" / "r0.json").read_text())
        assert saved["campaign_seconds"] == 1.5


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


class TestRunRecord:
    def test_unexpected_exception_leaves_manifest(self, demo_config, monkeypatch):
        config = demo_config("scripts/happy.json")
        runner = WorkflowRunner(TargetSpec.from_config(config), config)

        def explode(*args, **kwargs):
            raise RuntimeError("backend exploded")

        monkeypatch.setattr(runner.backend, "complete", explode)
        manifest = runner.run()
        assert manifest["outcome"] == "internal_error"
        assert manifest["error"] == "RuntimeError: backend exploded"
        assert manifest["transitions"] == ["research", "failed"]
        assert "in explode" in manifest["traceback"]
        on_disk = json.loads((runner.run_dir / "manifest.json").read_text())
        assert on_disk == manifest

    def test_interrupt_leaves_manifest_and_reraises(self, demo_config, monkeypatch):
        config = demo_config("scripts/happy.json")
        runner = WorkflowRunner(TargetSpec.from_config(config), config)
        complete = runner.backend.complete
        cva_prompt = load_prompt(AgentRole.CVA)

        def interrupt_cva(messages, tools):
            if messages[0].content == cva_prompt:
                raise KeyboardInterrupt
            return complete(messages, tools)

        monkeypatch.setattr(runner.backend, "complete", interrupt_cva)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        manifest = json.loads((runner.run_dir / "manifest.json").read_text())
        assert manifest["outcome"] == "interrupted"
        assert manifest["error"] == "KeyboardInterrupt"
        assert_legal_walk(manifest["transitions"])
        assert manifest["transitions"][-2:] == ["analyze", "failed"]
        cva = json.loads((runner.run_dir / "transcripts" / "CVA-r0.json").read_text())
        assert cva["steps"] == [] and accounting_row(manifest, "CVA")["iterations"] == "0"
        assert (runner.run_dir / "harness" / "final.src").is_file()


def assert_legal_walk(transitions):
    phase = "init"
    for nxt in transitions:
        assert nxt in PHASE_GRAPH[phase], f"{phase} -> {nxt}"
        phase = nxt
    assert phase in ("done", "failed")


DEMO_SCENARIOS = {
    "happy": [], "converge": [], "crash": [], "genfail": [], "warmup": [],
    "patch_fail": ["budgets.max_patch_rounds=3"], "budget": ["budgets.max_rounds=1"],
    "patch_fix": [],
}
ROLE_ORDER = (("RSH", "RES"), ("GEN", "GEN"), ("PAT", "PAT"), ("CVA", "CVA"), ("REF", "REF"))


def accounting_from_transcripts(manifest: dict, rate_in: float, rate_out: float) -> dict:
    """The accounting table rebuilt from `transcripts/*.json` alone.

    The round comes from the file name (`CVA-r1.json`, `PAT-r0-a2.json`);
    every compiled round has a PAT entry, zero when no patch ran.
    """
    sums: dict[tuple[str, int], list[int]] = {}
    compiled = sum(
        1 for prev, nxt in zip(manifest["transitions"], manifest["transitions"][1:])
        if nxt == "compile" and prev in ("generate", "refine")
    )
    for rnd in range(compiled):
        sums[("PAT", rnd)] = [0, 0, 0, 0]
    for path in (Path(manifest["run_dir"]) / "transcripts").glob("*.json"):
        role, rnd = path.stem.split("-")[0], int(path.stem.split("-")[1][1:])
        entry = sums.setdefault((role, rnd), [0, 0, 0, 0])
        for step in json.loads(path.read_text())["steps"]:
            entry[0] += 1
            entry[1] += len(step["tool_calls"])
            entry[2] += step["tokens_in"]
            entry[3] += step["tokens_out"]
    rows = []
    for role, label in ROLE_ORDER:
        rounds = [sums[key] for key in sorted(k for k in sums if k[0] == role)]
        rows.append({
            "agent": label,
            "iterations": "/".join(str(e[0]) for e in rounds) or "--",
            "tool_calls": "/".join(str(e[1]) for e in rounds) or "--",
            "tokens": sum(e[2] + e[3] for e in rounds),
            "cost": sum(e[2] * rate_in + e[3] * rate_out for e in rounds),
        })
    totals = {
        "iterations": sum(e[0] for e in sums.values()),
        "tool_calls": sum(e[1] for e in sums.values()),
        "tokens": sum(e[2] + e[3] for e in sums.values()),
        "cost": sum(e[2] * rate_in + e[3] * rate_out for e in sums.values()),
    }
    return {"rows": rows, "totals": totals}


def assert_accounting_from_transcripts(manifest, config):
    rates = float(config.model["rate_in"]), float(config.model["rate_out"])
    expected = accounting_from_transcripts(manifest, *rates)
    actual = manifest["accounting"]
    pairs = zip(actual["rows"] + [actual["totals"]], expected["rows"] + [expected["totals"]])
    for got, want in pairs:
        assert got["cost"] == pytest.approx(want["cost"], abs=1e-6)
        assert {k: v for k, v in got.items() if k != "cost"} == {
            k: v for k, v in want.items() if k != "cost"
        }
    assert len(actual["rows"]) == len(expected["rows"])


class TestRunRecordFromTranscripts:
    @pytest.mark.parametrize("name", sorted(DEMO_SCENARIOS))
    def test_accounting_is_the_transcripts_sum(self, demo_config, name):
        config = demo_config(f"scripts/{name}.json", DEMO_SCENARIOS[name])
        manifest = run_workflow(TargetSpec.from_config(config), config)
        assert manifest["accounting"]["totals"]["iterations"] > 0
        assert_accounting_from_transcripts(manifest, config)

    def test_cut_script_keeps_the_turns_it_was_charged_for(self, demo_config, tmp_path):
        turns = json.loads((DEMO_DIR / "scripts" / "happy.json").read_text())["turns"]
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps({"turns": turns[:4]}))  # RSH 2, GEN 1, CVA's tool turn
        config = demo_config(str(cut))
        manifest = run_workflow(TargetSpec.from_config(config), config)
        assert manifest["outcome"] == "model_failed"
        assert manifest["error"].startswith("SCRIPT_EXHAUSTED")
        cva = json.loads((Path(manifest["run_dir"]) / "transcripts" / "CVA-r0.json").read_text())
        assert cva["iterations"] == 1 and cva["tool_call_count"] == 1 and len(cva["steps"]) == 1
        assert accounting_row(manifest, "CVA")["iterations"] == "1"
        assert_accounting_from_transcripts(manifest, config)

    def test_round_cut_in_cva_keeps_its_row(self, demo_config, tmp_path):
        turns = json.loads((DEMO_DIR / "scripts" / "happy.json").read_text())["turns"]
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps({"turns": turns[:4]}))  # ends in CVA's first round
        config = demo_config(str(cut))
        manifest = run_workflow(TargetSpec.from_config(config), config)
        assert (Path(manifest["run_dir"]) / "coverage" / "r0.json").is_file()
        (row,) = manifest["rounds"]
        assert row["round"] == 0 and row["decision"] == "model_failed"
        assert row["line_percent"] > 0 and row["executions"] > 0
        assert manifest["transitions"][-3:] == ["fuzz", "analyze", "failed"]

    @pytest.mark.parametrize("name", sorted(DEMO_SCENARIOS))
    def test_timings_cover_the_phases_entered(self, demo_config, name):
        config = demo_config(f"scripts/{name}.json", DEMO_SCENARIOS[name])
        started = time.monotonic()
        manifest = run_workflow(TargetSpec.from_config(config), config)
        wall = time.monotonic() - started
        assert set(manifest["timings"]) == set(manifest["transitions"]) - {"done", "failed"}
        assert all(v >= 0 for v in manifest["timings"].values())
        assert sum(manifest["timings"].values()) <= wall

    def test_transition_charges_the_phase_it_leaves(self, monkeypatch):
        clock = iter([10.0, 10.5, 12.0, 12.25])
        monkeypatch.setattr(orchestrator, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        state = WorkflowState()
        for phase in ("research", "generate", "compile", "failed"):
            state.transition(phase)
        assert state.timings == {"research": 0.5, "generate": 1.5, "compile": 0.25}
