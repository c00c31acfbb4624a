"""Workflow state machine driving harness generation end to end.

init -> research -> generate -> (compile <-> patch) -> fuzz -> analyze
-> (refine -> compile ...)* -> done | failed

Every run persists a manifest, all harness versions, per-agent transcripts,
and per-round coverage reports under its run directory, whatever the
outcome.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import callgraph as cg
from .agents import (
    STATUS_OK,
    AgentProfile,
    AgentRunResult,
    HarnessArtifact,
    TerminationDecision,
    build_research_context,
    run_react,
)
from .code_index import CodeIndex
from .config import Config
from .coverage import (
    STATUS_COVERED,
    AnnotatedCoverageView,
    coverage_percent,
    diff_views,
    merge_with_callgraph,
)
from .docs_index import DocsIndex
from .ecosystem import CompileResult, SandboxAdapter, ShellAdapter, load_sandbox
from .errors import EngineError
from .model_backend import HttpBackend, UsageLedger, load_script, summarize_usage
from .toolbus import AgentRole, ToolRegistry, register_default_tools

PHASE_GRAPH = {
    "init": {"research", "failed"},
    "research": {"generate", "failed"},
    "generate": {"compile", "failed"},
    "compile": {"patch", "fuzz", "failed"},
    "patch": {"compile", "failed"},
    "fuzz": {"analyze", "failed"},
    "analyze": {"refine", "done", "failed"},
    "refine": {"compile", "done", "failed"},
    "done": set(),
    "failed": set(),
}

OUTCOME_SUCCESS = "success"
OUTCOME_CONVERGED = "converged"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_COMPILE_FAILED = "compile_failed"
OUTCOME_MODEL_FAILED = "model_failed"

_STATUS_ORDER = {"uncovered": 0, "partial": 1, "covered": 2}


@dataclass(frozen=True)
class TargetSpec:
    library_name: str
    library_version: str
    target_class: str
    target_method: str  # signature, e.g. parse(Options,String[])

    @classmethod
    def from_config(cls, config: Config) -> "TargetSpec":
        t = config.target
        return cls(
            library_name=t.get("library_name", ""),
            library_version=t.get("library_version", ""),
            target_class=t.get("target_class", ""),
            target_method=t.get("target_method", ""),
        )

    def echo(self) -> dict:
        return {
            "library_name": self.library_name,
            "library_version": self.library_version,
            "target_class": self.target_class,
            "target_method": self.target_method,
        }


@dataclass
class RoundRow:
    round: int
    line_percent: float
    branch_percent: float
    decision: str
    harness_hash: str
    crash_count: int

    def to_json(self) -> dict:
        return {
            "round": self.round,
            "line_percent": self.line_percent,
            "branch_percent": self.branch_percent,
            "decision": self.decision,
            "harness_hash": self.harness_hash,
            "crash_count": self.crash_count,
        }


@dataclass
class WorkflowState:
    phase: str = "init"
    round: int = 0
    harness: HarnessArtifact | None = None
    seen_hashes: set[str] = field(default_factory=set)
    views: dict[int, AnnotatedCoverageView] = field(default_factory=dict)
    rows: list[RoundRow] = field(default_factory=list)
    transitions: list[str] = field(default_factory=list)
    harness_versions: int = 0
    fuzz_timeout: bool = False

    def transition(self, phase: str) -> None:
        if phase not in PHASE_GRAPH[self.phase]:
            raise EngineError("CONFIG", f"illegal phase transition {self.phase} -> {phase}")
        self.transitions.append(phase)
        self.phase = phase


def render_annotated_view(view: AnnotatedCoverageView) -> str:
    """Deterministic text rendering for agent prompts, grouped by depth."""
    lines = []
    for depth in sorted(view.groups):
        lines.append(f"## depth {depth}")
        entries = sorted(
            view.groups[depth], key=lambda e: (_STATUS_ORDER[e.status], e.node.id)
        )
        for entry in entries:
            c = entry.counters
            lc, lt = (c.lines_covered, c.lines_total) if c else (0, 0)
            bc, bt = (c.branches_covered, c.branches_total) if c else (0, 0)
            lines.append(f"{entry.status} {entry.node.id} lines {lc}/{lt} branches {bc}/{bt}")
    return "\n".join(lines)


class Services(NamedTuple):
    adapter: SandboxAdapter | ShellAdapter
    docs: DocsIndex
    code: CodeIndex
    graph: cg.CallGraph
    registry: ToolRegistry


def build_services(config: Config, target: TargetSpec) -> Services:
    """Build the adapter, indexes, callgraph and tool registry a run uses.

    The docs, source and facts paths come from `target.*` when set, else
    from the sandbox spec; the shell adapter requires the `target.*` paths.
    """
    keys = ("docs_bundle", "source_root", "facts")
    if config.adapter.get("sandbox_spec"):
        adapter = load_sandbox(config.resolve(config.adapter["sandbox_spec"]))
        paths = {key: getattr(adapter.spec, key) for key in keys}
    elif config.adapter.get("shell"):
        adapter = ShellAdapter(config.adapter["shell"], base_dir=config.base_dir)
        paths = {}
    else:
        raise EngineError("CONFIG", "no adapter configured")
    for key in keys:
        if config.target.get(key):
            paths[key] = config.resolve(config.target[key])
        elif key not in paths:
            raise EngineError("CONFIG", f"target.{key} is required with the shell adapter")

    docs = DocsIndex.from_file(paths["docs_bundle"])
    code = CodeIndex.build(paths["source_root"])
    facts = cg.load_facts(paths["facts"])
    graph = cg.build(facts, _resolve_root(facts, target), config.depth_limit())
    registry = register_default_tools(ToolRegistry(), docs, code, graph, adapter)
    return Services(adapter, docs, code, graph, registry)


def _resolve_root(facts: cg.CallFacts, target: TargetSpec) -> str:
    wanted = f"{target.target_class}.{target.target_method}"
    matches = [mid for mid in facts.methods if mid == wanted or mid.endswith("." + wanted)]
    if not matches:
        raise EngineError("TARGET_NOT_FOUND", f"no call facts for target {wanted}")
    if len(matches) > 1:
        raise EngineError("AMBIGUOUS", f"target {wanted} matches: {sorted(matches)}")
    return matches[0]


class WorkflowRunner:
    """One sequential harness-generation run over configured services."""

    def __init__(self, target: TargetSpec, config: Config, run_dir: str | Path | None = None):
        self.target = target
        self.config = config
        self.state = WorkflowState()
        self.timings: dict[str, float] = {}
        self._started = time.monotonic()
        self.adapter, self.docs, self.code, self.graph, self.registry = build_services(
            config, target
        )
        self._setup_backend()
        self._setup_run_dir(run_dir)

    # -- setup ------------------------------------------------------------

    def _setup_backend(self) -> None:
        config = self.config
        backend_kind = config.model.get("backend", "scripted")
        if backend_kind == "scripted":
            self.backend = load_script(config.resolve(config.model["script"]))
        else:
            import os

            key_env = config.model.get("api_key_env", "HARNESSGEN_API_KEY")
            self.backend = HttpBackend(
                endpoint=config.model["endpoint"],
                model=config.model["model"],
                api_key=os.environ.get(key_env),
            )
        self.ledger = UsageLedger(
            rate_in=float(config.model.get("rate_in", 0.0)),
            rate_out=float(config.model.get("rate_out", 0.0)),
        )
        self.profiles = {
            role: AgentProfile.default(role, config.max_iterations(role))
            for role in AgentRole
        }

    def _setup_run_dir(self, run_dir: str | Path | None) -> None:
        if run_dir is not None:
            self.run_dir = Path(run_dir)
        else:
            stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
            base = self.config.resolve(self.config.output_dir)
            self.run_dir = base / f"{stamp}-{self.target.library_name}"
        for sub in ("harness", "transcripts", "coverage"):
            (self.run_dir / sub).mkdir(parents=True, exist_ok=True)

    # -- persistence helpers -----------------------------------------------

    def _save_harness(self, harness: HarnessArtifact) -> None:
        self.state.harness_versions += 1
        path = self.run_dir / "harness" / f"v{self.state.harness_versions}.src"
        path.write_text(harness.source, encoding="utf-8")

    def _save_coverage(self, report, round_index: int) -> None:
        path = self.run_dir / "coverage" / f"r{round_index}.json"
        path.write_text(json.dumps(report.to_json(), indent=2), encoding="utf-8")

    def _timed(self, phase: str, fn, *args, **kwargs):
        started = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            self.timings[phase] = self.timings.get(phase, 0.0) + time.monotonic() - started

    def _wall_exceeded(self) -> bool:
        return time.monotonic() - self._started > float(self.config.budget("wall_seconds"))

    # -- agent steps --------------------------------------------------------

    def _run_agent(
        self, role: AgentRole, seed: list[tuple[str, str]], round_index: int, transcript: str
    ) -> AgentRunResult:
        """Run one agent and save its transcript as `transcripts/<transcript>.json`."""
        result = run_react(
            self.profiles[role], seed, self.registry, self.backend, self.ledger, round_index
        )
        path = self.run_dir / "transcripts" / f"{transcript}.json"
        path.write_text(json.dumps(result.transcript.to_json(), indent=2), encoding="utf-8")
        return result

    def compile_patch_loop(self, harness: HarnessArtifact, round_index: int) -> HarnessArtifact:
        """Compile; on errors let the patching agent retry up to the budget."""
        max_patch_rounds = int(self.config.budget("max_patch_rounds"))
        self.state.transition("compile")
        result: CompileResult = self._timed("compile", self.adapter.compile, harness)
        # an explicit zero entry keeps the per-round '/' rendering aligned
        self.ledger.record(AgentRole.PAT, round_index)
        attempts = 0
        while not result.success:
            if attempts >= max_patch_rounds:
                raise EngineError(
                    "COMPILE_FAILED",
                    "compilation still failing after "
                    f"{max_patch_rounds} patch rounds: "
                    + "; ".join(f"{d.file}:{d.line}: {d.message}" for d in result.errors()),
                )
            attempts += 1
            self.state.transition("patch")
            diagnostics = "\n".join(
                f"{d.severity}: {d.file}:{d.line}: {d.message}" for d in result.diagnostics
            )
            seed = [
                ("harness source", harness.source),
                ("compiler diagnostics", diagnostics),
            ]
            pat = self._timed(
                "patch", self._run_agent, AgentRole.PAT, seed, round_index,
                f"PAT-r{round_index}-a{attempts}",
            )
            if pat.status != STATUS_OK:
                raise EngineError("MODEL_PROTOCOL", "patch agent produced no parseable harness")
            harness = pat.parsed_output
            self._save_harness(harness)
            self.state.transition("compile")
            result = self._timed("compile", self.adapter.compile, harness)
        return harness

    # -- workflow ------------------------------------------------------------

    def run(self) -> dict:
        outcome = OUTCOME_MODEL_FAILED
        error_note = None
        try:
            outcome = self._run_phases()
        except EngineError as exc:
            error_note = f"{exc.code}: {exc.message}"
            if exc.code == "COMPILE_FAILED":
                outcome = OUTCOME_COMPILE_FAILED
            elif exc.code == "FUZZ_TIMEOUT":
                outcome = OUTCOME_BUDGET
                self.state.fuzz_timeout = True
            else:
                outcome = OUTCOME_MODEL_FAILED
            if self.state.phase not in ("done", "failed"):
                self.state.transition("failed")
        else:
            if self.state.phase not in ("done", "failed"):
                self.state.transition(
                    "failed" if outcome in (OUTCOME_COMPILE_FAILED, OUTCOME_MODEL_FAILED) else "done"
                )
        manifest = self._manifest(outcome, error_note)
        (self.run_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        if self.state.harness is not None:
            (self.run_dir / "harness" / "final.src").write_text(
                self.state.harness.source, encoding="utf-8"
            )
        return manifest

    def _run_phases(self) -> str:
        state = self.state
        max_rounds = int(self.config.budget("max_rounds"))
        fuzz_seconds = float(self.config.budget("fuzz_seconds"))
        scope = self.config.budget("coverage_scope")

        state.transition("research")
        research = self._timed(
            "research",
            self._run_agent,
            AgentRole.RSH,
            build_research_context(self.target, self.docs, self.code),
            0,
            "RSH-r0",
        )
        if research.status != STATUS_OK:
            return OUTCOME_MODEL_FAILED

        state.transition("generate")
        gen_seed = [
            ("target signature", f"{self.target.target_class}.{self.target.target_method}"),
            ("research report", research.parsed_output.markdown),
        ]
        gen = self._timed("generate", self._run_agent, AgentRole.GEN, gen_seed, 0, "GEN-r0")
        if gen.status != STATUS_OK:
            return OUTCOME_MODEL_FAILED
        harness = gen.parsed_output
        self._save_harness(harness)

        harness = self.compile_patch_loop(harness, 0)
        state.harness = harness
        state.seen_hashes.add(harness.normalized_hash)

        while True:
            if self._wall_exceeded():
                return OUTCOME_BUDGET
            state.transition("fuzz")
            fuzz = self._timed(
                "fuzz", self.adapter.fuzz, state.harness, fuzz_seconds, scope=scope
            )
            self._save_coverage(fuzz.coverage, state.round)
            view = merge_with_callgraph(fuzz.coverage, self.graph)
            state.views[state.round] = view

            state.transition("analyze")
            decision, cva_failed = self._timed("analyze", self._analyze, view, fuzz)
            row = RoundRow(
                round=state.round,
                line_percent=coverage_percent(view, "line").value,
                branch_percent=coverage_percent(view, "branch").value,
                decision="model_failed" if cva_failed else decision.decision,
                harness_hash=state.harness.normalized_hash,
                crash_count=len(fuzz.crashes),
            )
            state.rows.append(row)
            if cva_failed:
                return OUTCOME_MODEL_FAILED
            if decision.decision == "stop":
                return OUTCOME_SUCCESS
            if state.round >= max_rounds:
                return OUTCOME_BUDGET
            if self._wall_exceeded():
                return OUTCOME_BUDGET

            state.transition("refine")
            ref_seed = [
                ("current harness", state.harness.source),
                ("priority methods", "\n".join(decision.priority_methods)),
                ("strategy", decision.strategy or decision.rationale),
                ("coverage view", render_annotated_view(view)),
            ]
            ref = self._timed(
                "refine", self._run_agent, AgentRole.REF, ref_seed, state.round,
                f"REF-r{state.round}",
            )
            if ref.status != STATUS_OK:
                return OUTCOME_MODEL_FAILED
            refined = ref.parsed_output
            self._save_harness(refined)
            if refined.normalized_hash in state.seen_hashes:
                state.transition("done")
                return OUTCOME_CONVERGED

            state.round += 1
            refined = self.compile_patch_loop(refined, state.round)
            state.harness = refined
            state.seen_hashes.add(refined.normalized_hash)

    def _analyze(self, view: AnnotatedCoverageView, fuzz) -> tuple[TerminationDecision, bool]:
        state = self.state
        seed = [
            ("coverage view (grouped by call depth)", render_annotated_view(view)),
            ("current harness", state.harness.source),
        ]
        if state.round > 0:
            diff = diff_views(state.views[state.round - 1], view)
            seed.append(
                (
                    "change since previous round",
                    f"newly covered: {', '.join(diff.newly_covered) or 'none'}\n"
                    f"regressed: {', '.join(diff.regressed) or 'none'}\n"
                    f"line coverage delta: {diff.delta_percent:+.2f}%",
                )
            )
        if fuzz.crashes:
            unique = sorted({c.dedup_key for c in fuzz.crashes})
            seed.append(("crashes", f"{len(fuzz.crashes)} crashes, {len(unique)} unique"))
        cva = self._run_agent(AgentRole.CVA, seed, state.round, f"CVA-r{state.round}")
        if cva.status != STATUS_OK:
            # fail-safe: a CVA that cannot answer means stop, not spend
            return TerminationDecision(decision="stop", rationale="cva parse failure"), True
        return cva.parsed_output, False

    def _manifest(self, outcome: str, error_note: str | None) -> dict:
        manifest = {
            "target": self.target.echo(),
            "outcome": outcome,
            "rounds": [row.to_json() for row in self.state.rows],
            "accounting": summarize_usage(self.ledger),
            "transitions": list(self.state.transitions),
            "fuzz_timeout": self.state.fuzz_timeout,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        if error_note:
            manifest["error"] = error_note
        return manifest


def run_workflow(target: TargetSpec, config: Config, run_dir: str | Path | None = None) -> dict:
    runner = WorkflowRunner(target, config, run_dir=run_dir)
    manifest = runner.run()
    manifest["run_dir"] = str(runner.run_dir)
    return manifest
