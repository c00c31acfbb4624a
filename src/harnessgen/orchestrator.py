"""Workflow state machine driving harness generation end to end.

init -> research -> generate -> (compile <-> patch) -> fuzz -> analyze
-> (refine -> compile ...)* -> done | failed

Every run persists a manifest, all harness versions, per-agent transcripts,
and per-round coverage reports under its run directory, whatever the
outcome.
"""

from __future__ import annotations

import gc
import json
import os
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import callgraph as cg
from .agents import (
    AgentProfile,
    AgentTranscript,
    HarnessArtifact,
    TerminationDecision,
    build_research_context,
    run_react,
)
from .code_index import CodeIndex
from .config import Config
from .coverage import (
    AnnotatedCoverageView,
    CoverageReport,
    ViewDiff,
    ViewEntry,
    coverage_percent,
    diff_views,
    merge_with_callgraph,
)
from .docs_index import DocsIndex
from .ecosystem import CompileResult, SandboxAdapter, ShellAdapter, load_sandbox
from .errors import EngineError
from .model_backend import HttpBackend, load_script
from .toolbus import (
    DEFAULT_RESPONSE_BUDGET,
    AgentRole,
    ToolRegistry,
    register_default_tools,
)

PHASE_GRAPH = {
    "init": {"research", "failed"},
    "research": {"generate", "failed"},
    "generate": {"compile", "failed"},
    "compile": {"patch", "fuzz", "done", "failed"},
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
OUTCOME_TOOLCHAIN_FAILED = "toolchain_failed"
OUTCOME_INTERNAL_ERROR = "internal_error"
OUTCOME_INTERRUPTED = "interrupted"

# error code -> the outcome of a run it ends; any other EngineError ends
# the run model_failed, and a ToolchainError toolchain_failed
OUTCOME_OF_ERROR = {
    "COMPILE_FAILED": OUTCOME_COMPILE_FAILED,
    "FUZZ_TIMEOUT": OUTCOME_BUDGET,
    "COMPILE_TIMEOUT": OUTCOME_BUDGET,
}

TOTALS_FILE = "totals.json"  # the run's coverage totals table, under coverage/

# accounting row labels: each role's name, but the research role reads RES
ROLE_LABELS = {**{role: role.value for role in AgentRole}, AgentRole.RSH: "RES"}


@dataclass(frozen=True)
class TargetSpec:
    library_name: str
    library_version: str
    target_class: str
    target_method: str  # signature, e.g. parse(Options,String[])

    @classmethod
    def from_config(cls, config: Config) -> "TargetSpec":
        return cls(**{f.name: config.target[f.name] for f in fields(cls)})


@dataclass
class RoundRow:
    round: int
    line_percent: float
    branch_percent: float
    decision: str
    harness_hash: str
    crash_count: int
    executions: int
    unique_crashes: int  # distinct crash dedup keys
    unmatched_methods: int  # hit methods outside the depth-bounded callgraph


@dataclass
class WorkflowState:
    phase: str = "init"
    round: int = 0
    harness: HarnessArtifact | None = None
    seen_hashes: set[str] = field(default_factory=set)
    prev_view: AnnotatedCoverageView | None = None  # the last analyzed round's view
    rows: list[RoundRow] = field(default_factory=list)
    transitions: list[str] = field(default_factory=list)
    harness_versions: int = 0
    timings: dict[str, float] = field(default_factory=dict)  # phase -> wall seconds spent in it
    entered: float = 0.0  # monotonic time of the last transition

    def transition(self, phase: str) -> None:
        if phase not in PHASE_GRAPH[self.phase]:
            raise EngineError("CONFIG", f"illegal phase transition {self.phase} -> {phase}")
        now = time.monotonic()
        if self.phase != "init":
            self.timings[self.phase] = self.timings.get(self.phase, 0.0) + now - self.entered
        self.entered = now
        self.transitions.append(phase)
        self.phase = phase


def _entry_line(entry: ViewEntry) -> str:
    c = entry.counters
    lc, lt = (c.lines_covered, c.lines_total) if c else (0, 0)
    bc, bt = (c.branches_covered, c.branches_total) if c else (0, 0)
    return f"{entry.status} {entry.node.id} lines {lc}/{lt} branches {bc}/{bt}"


def _count_line(depth: int, counts: Counter) -> str:
    return (
        f"... {sum(counts.values())} more at depth {depth}: {counts['uncovered']} uncovered, "
        f"{counts['partial']} partial, {counts['covered']} covered"
    )


def _full_view_lines(view: AnnotatedCoverageView):
    for depth in view.depths():
        yield f"## depth {depth}"
        yield from map(_entry_line, view.ranked(depth))


def render_annotated_view(
    view: AnnotatedCoverageView, budget: int = DEFAULT_RESPONSE_BUDGET
) -> str:
    """Deterministic text rendering for agent prompts, grouped by depth.

    Depths run shallow first; within a depth uncovered sorts before partial
    before covered, ties by id. When the whole view exceeds `budget`
    characters, the entry that would leave no room for the count lines
    still owed, and the rest of its depth, become one status-count line,
    and each deeper depth shows only its header and count line: every node
    is still counted. A budget below that header-and-count skeleton yields
    the skeleton alone. Entries are made only as far as they are shown, so
    the cost is the budget plus the round's hits.
    """
    full: list[str] = []
    size = -1  # len("\n".join(full))
    for line in _full_view_lines(view):
        size += len(line) + 1
        if size > budget:
            break
        full.append(line)
    else:
        return "\n".join(full)
    depths = view.depths()
    counts = [view.status_counts(depth) for depth in depths]
    # owed[k]: header and all-entries count line of depths k.., one newline each
    owed = [0] * (len(depths) + 1)
    for k in range(len(depths) - 1, -1, -1):
        depth = depths[k]
        owed[k] = len(f"## depth {depth}") + len(_count_line(depth, counts[k])) + 2 + owed[k + 1]
    cut = owed[0] - 1 > budget
    lines: list[str] = []
    used = 0  # characters in `lines`, one newline each
    for k, depth in enumerate(depths):
        lines.append(f"## depth {depth}")
        used += len(lines[-1]) + 1
        left = counts[k]
        if cut:
            lines.append(_count_line(depth, left))
            continue
        n_entries = sum(left.values())
        for i, entry in enumerate(view.ranked(depth)):
            line = _entry_line(entry)
            left[entry.status] -= 1
            rest = len(_count_line(depth, left)) + 1 if i + 1 < n_entries else 0
            if used + len(line) + rest + owed[k + 1] > budget:
                left[entry.status] += 1
                lines.append(_count_line(depth, left))
                cut = True
                break
            lines.append(line)
            used += len(line) + 1
    return "\n".join(lines)


def _bounded_ids(ids: tuple[str, ...], room: int) -> str:
    """`ids` joined by ", " while they fit `room`, then "... and N more"."""
    text = ", ".join(ids) or "none"
    if len(text) <= room or not ids:
        return text
    shown: list[str] = []
    used = 0
    for mid in ids:
        more = f"... and {len(ids) - len(shown) - 1} more"
        if used + len(mid) + 2 + len(more) > room:
            break
        shown.append(mid)
        used += len(mid) + 2
    return ", ".join(shown + [f"... and {len(ids) - len(shown)} more"])


def render_view_diff(diff: ViewDiff, budget: int = DEFAULT_RESPONSE_BUDGET) -> str:
    """The change-since-previous-round block, its id lists cut to `budget`."""
    delta = f"line coverage delta: {diff.delta_percent:+.2f}%"
    room = budget - len("newly covered: \nregressed: \n") - len(delta)
    regressed_full = len(", ".join(diff.regressed) or "none")
    newly = _bounded_ids(diff.newly_covered, room - min(regressed_full, room // 2))
    regressed = _bounded_ids(diff.regressed, room - len(newly))
    return f"newly covered: {newly}\nregressed: {regressed}\n{delta}"


class ToolchainError(EngineError):
    """An adapter's compile or fuzz call failed other than by timing out."""


class Services(NamedTuple):
    adapter: SandboxAdapter | ShellAdapter
    docs: DocsIndex
    code: CodeIndex
    graph: cg.CallGraph
    registry: ToolRegistry
    # {"seconds": wall seconds per service, "warnings": skipped sources,
    #  "code_index": files scanned and files read from the symbol cache}
    setup: dict


SETUP_STEPS = ("adapter", "docs", "code", "callgraph")


def build_services(config: Config, target: TargetSpec) -> Services:
    """Build the adapter, indexes, callgraph and tool registry a run uses.

    `config` is one that `config.validate_config` passed. The docs, source
    and facts paths come from `target.*` when set, else from the sandbox
    spec. `setup` records the wall seconds of each of `SETUP_STEPS`, the
    warnings of the code index, one per source file it skipped, and how
    many files it scanned and read from its cache under `output_dir`. The
    cache is only read here: `WorkflowRunner` writes it once its run
    directory exists.
    """
    marks = [time.monotonic()]
    keys = ("docs_bundle", "source_root", "facts")
    if config.adapter.get("sandbox_spec"):
        adapter = load_sandbox(config.adapter["sandbox_spec"])
        paths = {key: getattr(adapter.spec, key) for key in keys}
    else:
        adapter = ShellAdapter(config.adapter["shell"])
        paths = {}
    paths.update((key, config.target[key]) for key in keys if config.target.get(key))
    marks.append(time.monotonic())
    docs = DocsIndex.from_file(paths["docs_bundle"])
    marks.append(time.monotonic())
    warnings: list[str] = []
    code = CodeIndex.build(
        paths["source_root"], warn=warnings.append,
        cache_dir=Path(config.output_dir) / ".cache",
    )
    marks.append(time.monotonic())
    facts = cg.load_facts(paths["facts"])
    graph = cg.build(facts, _resolve_root(facts, target), config.depth_limit())
    marks.append(time.monotonic())
    registry = register_default_tools(ToolRegistry(), docs, code, graph)
    seconds = {step: end - start for step, start, end in zip(SETUP_STEPS, marks, marks[1:])}
    setup = {"seconds": seconds, "warnings": warnings, "code_index": code.scan_counts}
    return Services(adapter, docs, code, graph, registry, setup)


def _resolve_root(facts: cg.CallFacts, target: TargetSpec) -> str:
    wanted = f"{target.target_class}.{target.target_method}"
    matches = [mid for mid in facts.methods if mid == wanted or mid.endswith("." + wanted)]
    if not matches:
        raise EngineError("TARGET_NOT_FOUND", f"no call facts for target {wanted}")
    if len(matches) > 1:
        raise EngineError("AMBIGUOUS", f"target {wanted} matches: {sorted(matches)}")
    return matches[0]


class WorkflowRunner:
    """One sequential harness-generation run over configured services.

    `transcripts` maps (role, round) to that round's agent runs. It is the
    run's one record of model usage: the manifest's `accounting` is summed
    from it by `summarize_usage`.

    Construction ends with `gc.freeze()`, and `run()` ends with
    `gc.unfreeze()`: the services are built once and live for the whole
    run, so no full collection during the run walks them. They are still
    freed by reference counting. `gc.unfreeze()` also releases objects
    the host process froze itself.
    """

    def __init__(self, target: TargetSpec, config: Config, run_dir: str | Path | None = None):
        self.target = target
        self.config = config
        self.state = WorkflowState()
        self.transcripts: dict[tuple[AgentRole, int], list[AgentTranscript]] = {}
        self._saved_totals = None  # the totals table in coverage/totals.json
        self._started = time.monotonic()
        (
            self.adapter, self.docs, self.code, self.graph, self.registry, self.setup
        ) = build_services(config, target)
        self._setup_backend()
        self._setup_run_dir(run_dir)
        self.code.save_cache()
        gc.freeze()

    # -- setup ------------------------------------------------------------

    def _setup_backend(self) -> None:
        config = self.config
        if config.model["backend"] == "scripted":
            self.backend = load_script(config.model["script"])
        else:
            api_key = os.environ.get(config.model["api_key_env"])
            self.backend = HttpBackend(config.model["endpoint"], config.model["model"], api_key)
        self.profiles = {
            role: AgentProfile.default(role, config.budgets["max_iterations"][role.value])
            for role in AgentRole
        }

    def _setup_run_dir(self, run_dir: str | Path | None) -> None:
        """Create the run directory and write `setup.json`; a directory that
        cannot be made, or a file that cannot be written, is IO."""
        if run_dir is not None:
            self.run_dir = Path(run_dir)
        else:
            stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
            self.run_dir = Path(self.config.output_dir) / f"{stamp}-{self.target.library_name}"
        try:
            for sub in ("harness", "transcripts", "coverage"):
                (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
            (self.run_dir / "setup.json").write_text(
                json.dumps(self.setup, indent=2), encoding="utf-8"
            )
        except OSError as exc:
            raise EngineError("IO", f"cannot create run directory {self.run_dir}: {exc}") from exc

    # -- persistence helpers -----------------------------------------------

    def _save_harness(self, harness: HarnessArtifact) -> None:
        self.state.harness_versions += 1
        path = self.run_dir / "harness" / f"v{self.state.harness_versions}.src"
        path.write_text(harness.source, encoding="utf-8")

    def _save_coverage(self, report: CoverageReport, round_index: int) -> None:
        """`coverage/r{n}.json` with the hit methods only, over the run's first
        totals table in `coverage/totals.json`; a report over another table
        names its own `coverage/totals-r{n}.json`."""
        coverage = self.run_dir / "coverage"
        # compact: the C encoder; with `indent` json falls back to pure Python
        if self._saved_totals is None:
            (coverage / TOTALS_FILE).write_text(json.dumps(report.totals), encoding="utf-8")
            self._saved_totals = report.totals
        totals_file = TOTALS_FILE
        if report.totals is not self._saved_totals and report.totals != self._saved_totals:
            totals_file = f"totals-r{round_index}.json"
            (coverage / totals_file).write_text(json.dumps(report.totals), encoding="utf-8")
        raw = report.to_json(totals_file)
        (coverage / f"r{round_index}.json").write_text(json.dumps(raw), encoding="utf-8")

    def _toolchain(self, fn, *args, **kwargs):
        """An adapter call; an error whose code OUTCOME_OF_ERROR lacks becomes ToolchainError."""
        try:
            return fn(*args, **kwargs)
        except EngineError as exc:
            if exc.code in OUTCOME_OF_ERROR:
                raise
            raise ToolchainError(exc.code, exc.message) from exc

    def _wall_left(self) -> float:
        return self.config.budgets["wall_seconds"] - (time.monotonic() - self._started)

    # -- agent steps --------------------------------------------------------

    def _run_agent(self, role: AgentRole, seed: list[tuple[str, str]], round_index: int, name: str):
        """Run one agent and return its parsed answer. Its transcript joins
        `transcripts` before the first turn, so the accounting counts every
        turn of a run that raises; however it ends, the transcript is saved
        as `transcripts/<name>.json`."""
        transcript = AgentTranscript(role=role.value)
        self.transcripts.setdefault((role, round_index), []).append(transcript)
        try:
            result = run_react(self.profiles[role], seed, self.registry, self.backend, transcript)
            return result.parsed_output
        finally:
            path = self.run_dir / "transcripts" / f"{name}.json"
            path.write_text(json.dumps(transcript.to_json(), indent=2), encoding="utf-8")

    def compile_patch_loop(self, harness: HarnessArtifact, round_index: int) -> HarnessArtifact:
        """Compile; on errors let the patching agent retry up to the budget."""
        max_patch_rounds = self.config.budgets["max_patch_rounds"]
        self.state.transition("compile")
        result: CompileResult = self._compile(harness)
        # an empty entry keeps the per-round '/' rendering aligned
        self.transcripts.setdefault((AgentRole.PAT, round_index), [])
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
            harness = self._run_agent(
                AgentRole.PAT, seed, round_index, f"PAT-r{round_index}-a{attempts}"
            )
            self._save_harness(harness)
            self.state.transition("compile")
            result = self._compile(harness)
        return harness

    def _compile(self, harness: HarnessArtifact) -> CompileResult:
        """One adapter compile, bounded by the wall-clock time left."""
        return self._toolchain(self.adapter.compile, harness, timeout=max(self._wall_left(), 0.0))

    # -- workflow ------------------------------------------------------------

    def run(self) -> dict:
        """Run the phases and write the run record; an interrupt is re-raised after.

        `_run_phases` returns the outcome of a run that stops by success,
        convergence or budget; every failure raises, and the run ends in
        phase `failed` with an `error` note. However it ends, the objects
        frozen at construction join the collector's oldest generation again.
        """
        try:
            error_note = trace = interrupt = None
            try:
                outcome = self._run_phases()
            except EngineError as exc:
                error_note = f"{exc.code}: {exc.message}"
                if isinstance(exc, ToolchainError):
                    outcome = OUTCOME_TOOLCHAIN_FAILED
                else:
                    outcome = OUTCOME_OF_ERROR.get(exc.code, OUTCOME_MODEL_FAILED)
            except KeyboardInterrupt as exc:
                error_note, outcome, interrupt = "KeyboardInterrupt", OUTCOME_INTERRUPTED, exc
            except Exception as exc:  # any other fault still leaves a manifest
                error_note = f"{type(exc).__name__}: {exc}"
                outcome = OUTCOME_INTERNAL_ERROR
                trace = traceback.format_exc()
            if self.state.phase not in ("done", "failed"):
                self.state.transition("failed" if error_note else "done")
            manifest = self._manifest(outcome, error_note)
            if trace:
                manifest["traceback"] = trace
            (self.run_dir / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
            )
            if self.state.harness is not None:
                (self.run_dir / "harness" / "final.src").write_text(
                    self.state.harness.source, encoding="utf-8"
                )
            if interrupt is not None:
                raise interrupt
            return manifest
        finally:
            gc.unfreeze()  # the services froze at construction

    def _run_phases(self) -> str:
        state = self.state
        max_rounds = self.config.budgets["max_rounds"]
        fuzz_seconds = float(self.config.budgets["fuzz_seconds"])
        scope = self.config.budgets["coverage_scope"]

        state.transition("research")
        research = self._run_agent(
            AgentRole.RSH, build_research_context(self.target, self.docs, self.code), 0, "RSH-r0"
        )

        state.transition("generate")
        gen_seed = [
            ("target signature", f"{self.target.target_class}.{self.target.target_method}"),
            ("research report", research),
        ]
        harness = self._run_agent(AgentRole.GEN, gen_seed, 0, "GEN-r0")
        self._save_harness(harness)

        while True:
            # state.harness changes only once a harness compiles
            state.harness = self.compile_patch_loop(harness, state.round)
            state.seen_hashes.add(state.harness.normalized_hash)
            wall_left = self._wall_left()
            if wall_left < 0:
                return OUTCOME_BUDGET
            state.transition("fuzz")
            # the campaign, like a compile, ends within the wall budget
            duration = min(fuzz_seconds, wall_left)
            fuzz = self._toolchain(self.adapter.fuzz, state.harness, duration, scope=scope)
            self._save_coverage(fuzz.coverage, state.round)
            view = merge_with_callgraph(fuzz.coverage, self.graph)
            # the row stands before CVA runs, so a saved round always has one;
            # it reads model_failed until CVA decides
            row = RoundRow(
                round=state.round,
                line_percent=coverage_percent(view, "line"),
                branch_percent=coverage_percent(view, "branch"),
                decision=OUTCOME_MODEL_FAILED,
                harness_hash=state.harness.normalized_hash,
                crash_count=len(fuzz.crashes),
                executions=fuzz.executions,
                unique_crashes=len({c.dedup_key for c in fuzz.crashes}),
                unmatched_methods=len(view.unmatched_hits),
            )
            state.rows.append(row)

            state.transition("analyze")
            # CVA's and REF's seeds share the round's one rendering
            view_text = render_annotated_view(view, self.registry.response_budget)
            decision = self._analyze(view, view_text, row)
            row.decision = decision.decision
            state.prev_view = view
            if decision.decision == "stop":
                return OUTCOME_SUCCESS
            if state.round >= max_rounds or self._wall_left() < 0:
                return OUTCOME_BUDGET

            state.transition("refine")
            ref_seed = [
                ("current harness", state.harness.source),
                ("priority methods", "\n".join(decision.priority_methods)),
                ("strategy", decision.strategy or decision.rationale),
                ("coverage view", view_text),
            ]
            harness = self._run_agent(AgentRole.REF, ref_seed, state.round, f"REF-r{state.round}")
            self._save_harness(harness)
            if harness.normalized_hash in state.seen_hashes:
                return OUTCOME_CONVERGED
            state.round += 1

    def _analyze(
        self, view: AnnotatedCoverageView, view_text: str, row: RoundRow
    ) -> TerminationDecision:
        state = self.state
        budget = self.registry.response_budget
        seed = [
            ("coverage view (grouped by call depth)", view_text),
            ("current harness", state.harness.source),
        ]
        if state.prev_view is not None:
            diff = diff_views(state.prev_view, view)
            seed.append(("change since previous round", render_view_diff(diff, budget)))
        if row.crash_count:
            seed.append(("crashes", f"{row.crash_count} crashes, {row.unique_crashes} unique"))
        return self._run_agent(AgentRole.CVA, seed, state.round, f"CVA-r{state.round}")

    def _manifest(self, outcome: str, error_note: str | None) -> dict:
        rates = (float(self.config.model[key]) for key in ("rate_in", "rate_out"))
        manifest = {
            "target": asdict(self.target),
            "outcome": outcome,
            "rounds": [asdict(row) for row in self.state.rows],
            "accounting": summarize_usage(self.transcripts, *rates),
            "transitions": list(self.state.transitions),
            "fuzz_timeout": (error_note or "").startswith("FUZZ_TIMEOUT:"),
            "timings": {k: round(v, 6) for k, v in self.state.timings.items()},
        }
        if error_note:
            manifest["error"] = error_note
        return manifest


def summarize_usage(transcripts: dict, rate_in: float = 0.0, rate_out: float = 0.0) -> dict:
    """The manifest's accounting: a row per agent, its per-round values
    joined by '/', and the run's totals, summed from `transcripts`, which
    maps (role, round) to that round's agent runs."""
    entries = []  # one per (role, round), in run order
    for (role, rnd), runs in transcripts.items():
        steps = [step for transcript in runs for step in transcript.steps]
        tokens_in = sum(step.tokens_in for step in steps)
        tokens_out = sum(step.tokens_out for step in steps)
        entries.append({
            "role": role, "round": rnd,
            "iterations": sum(transcript.iterations for transcript in runs),
            "tool_calls": sum(transcript.tool_call_count for transcript in runs),
            "tokens": tokens_in + tokens_out,
            "cost": tokens_in * rate_in + tokens_out * rate_out,
        })

    def cost(sums) -> float:  # 0.0, not 0, when there is no entry
        return round(sum((e["cost"] for e in sums), 0.0), 6)

    rows = []
    for role in AgentRole:
        mine = sorted((e for e in entries if e["role"] == role), key=lambda e: e["round"])
        rows.append({
            "agent": ROLE_LABELS[role],
            "iterations": "/".join(str(e["iterations"]) for e in mine) or "--",
            "tool_calls": "/".join(str(e["tool_calls"]) for e in mine) or "--",
            "tokens": sum(e["tokens"] for e in mine),
            "cost": cost(mine),
        })
    totals = {key: sum(e[key] for e in entries) for key in ("iterations", "tool_calls", "tokens")}
    return {"rows": rows, "totals": {**totals, "cost": cost(entries)}}


def run_workflow(target: TargetSpec, config: Config, run_dir: str | Path | None = None) -> dict:
    runner = WorkflowRunner(target, config, run_dir=run_dir)
    manifest = runner.run()
    manifest["run_dir"] = str(runner.run_dir)
    return manifest
