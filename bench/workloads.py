"""The benchmark's three closed-loop workloads.

One client drives each workload in this process and waits for every
operation before it starts the next, as a `harnessgen run` user waits
for a run and an agent waits for each tool call.

- `demo-suite`: one run of a `demo/scripts/*.json` scenario, round-robin.
- `synth-workflow`: one full scripted run over the synthetic library.
- `synth-tools`: one `ToolRegistry.dispatch` on the synthetic library,
  in 25-call agent sessions, after a single set-up.

A run is timed as `harnessgen run` pays for it: `load_config`,
`validate_config` and `WorkflowRunner(...)` are the set-up, `run()` the
run. Without tracing, the only instrument inside a run is a timer on the
registry's `dispatch`. With tracing, operations alternate between traced
and untraced, and the difference of their medians is the overhead.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harnessgen import callgraph, orchestrator
from harnessgen import config as config_module
from harnessgen.model_backend import count_tokens
from harnessgen.toolbus import AgentRole, ToolRequest

import tracing

BENCH_DIR = Path(__file__).resolve().parent

# Scenario -> (the --set overrides the tests use, expected outcome, rounds,
# crashes), each read off the script: `budget` keeps asking to continue
# past max_rounds=1; `converge` refines to a harness it already had;
# `crash` carries three crash markers, two with one dedup key; `genfail`
# never writes a code block; every PAT turn of `patch_fail` keeps the
# broken import; `patch_fix` repairs it.
DEMO_SCENARIOS = {
    "happy": ([], "success", 2, 0),
    "converge": ([], "converged", 1, 0),
    "crash": ([], "success", 1, 3),
    "genfail": ([], "model_failed", 0, 0),
    "warmup": ([], "success", 1, 0),
    "patch_fail": (["budgets.max_patch_rounds=3"], "compile_failed", 0, 0),
    "budget": (["budgets.max_rounds=1"], "budget_exhausted", 2, 0),
    "patch_fix": ([], "success", 2, 0),
}
FAILED_OUTCOMES = {"compile_failed", "model_failed"}


@dataclass(frozen=True)
class Plan:
    """How a workload turns operations into samples.

    `group` operations make one run sample: a demo-suite sample is the
    mean run of one round-robin cycle, because the eight scenarios take
    distinct times and the median of single runs would jump between
    them. The tail percentiles of run and tool samples come with the
    fewest operations that leave at least ten samples beyond them,
    except on synth-workflow: a run there takes about two seconds with
    its set-up, so only about twenty fit in a measured window, and its
    tail is p75, the highest percentile with a few samples beyond it.
    """

    group: int
    run_tail: float
    tool_tail: float
    min_ops: int


PLANS = {
    "demo-suite": Plan(group=len(DEMO_SCENARIOS), run_tail=95, tool_tail=90, min_ops=1600),
    "synth-workflow": Plan(group=1, run_tail=75, tool_tail=75, min_ops=3),
    "synth-tools": Plan(group=1, run_tail=75, tool_tail=99, min_ops=40),
}
# Set-ups timed on synth-tools, where one set-up serves every call: the
# first before the measured window, the rest spread evenly over it, so
# that setup_s is not read in a single phase of the host's speed.
SETUPS = 10

END_TO_END_UNITS = {
    "setup_s": "s", "run_ms_p50": "ms", "run_ms_tail": "ms", "runs_per_s": "1/s",
    "tool_ms_p50": "ms", "tool_ms_tail": "ms", "tool_calls_per_s": "1/s",
    "tokens_per_run": "count", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here: inputs missing or malformed."""


@dataclass
class Samples:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    run_ms: dict[int, float] = field(default_factory=dict)  # op -> ms, untraced
    traced_run_ms: dict[int, float] = field(default_factory=dict)
    busy_s: list[float] = field(default_factory=list)  # time runs_per_s divides by
    tool_ms: list[float] = field(default_factory=list)
    tool_calls: int = 0
    tool_s: float = 0.0
    tokens: dict[str, int] = field(default_factory=dict)  # kind of run -> tokens
    runs: list[dict] = field(default_factory=list)  # traced workflow runs


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def set_up(config_path: Path, overrides: list[str]):
    """The calls `harnessgen run` makes before the run starts."""
    cfg = config_module.load_config(config_path, overrides)
    problems = config_module.validate_config(cfg)
    if problems:
        raise BenchError(f"{config_path}: " + "; ".join(problems))
    return orchestrator.WorkflowRunner(orchestrator.TargetSpec.from_config(cfg), cfg)


def check_transitions(transitions: list[str], outcome: str) -> list[str]:
    phase = "init"
    for nxt in transitions:
        if nxt not in orchestrator.PHASE_GRAPH[phase]:
            return [f"illegal transition {phase} -> {nxt}"]
        phase = nxt
    final = "failed" if outcome in FAILED_OUTCOMES else "done"
    return [] if phase == final else [f"run ended in {phase}, expected {final}"]


@contextlib.contextmanager
def dispatch_timer(registry, sink: list[float]):
    """Time each dispatch; the one instrument of an untraced run."""
    dispatch = registry.dispatch

    def timed(role, request):
        started = time.perf_counter()
        try:
            return dispatch(role, request)
        finally:
            sink.append(time.perf_counter() - started)

    registry.dispatch = timed
    try:
        yield
    finally:
        del registry.dispatch


class Workload:
    def __init__(self, name: str, seed: int, root: Path, work: Path, tracer) -> None:
        self.name = name
        self.plan = PLANS[name]
        self.seed = seed
        self.root = root
        self.work = work
        self.tracer = tracer
        self.samples = Samples()

    def traced(self, op: int) -> bool:
        return self.tracer is not None and (op // self.plan.group) % 2 == 1

    def measure(self, seconds: float) -> Samples:
        started = time.perf_counter()
        self.window = (started, seconds)
        op = 0
        while time.perf_counter() - started < seconds or op < self.plan.min_ops:
            self.operation(op)
            op += 1
        return self.samples

    def fail(self, what: str) -> None:
        self.samples.failures.append(what)

    def run_samples(self, by_op: dict[int, float]) -> list[float]:
        """One sample per complete group of operations: its mean run time."""
        groups: dict[int, list[float]] = {}
        for op, ms in by_op.items():
            groups.setdefault(op // self.plan.group, []).append(ms)
        return [statistics.fmean(g) for g in groups.values() if len(g) == self.plan.group]

    def boundaries(self, op: int):
        return self.tracer.module_boundaries(op) if self.traced(op) else contextlib.nullcontext()

    def span(self, op: int, name: str):
        return self.tracer.span(name) if self.traced(op) else contextlib.nullcontext()

    def workflow_run(self, op: int, config_path: Path, overrides: list[str], kind: str):
        """Set up and run once; returns the manifest and the runner, or None."""
        s = self.samples
        s.attempted += 1
        traced = self.traced(op)
        tool_s: list[float] = []
        try:
            with self.boundaries(op):
                with self.span(op, "orchestrator.setup"):
                    t0 = time.perf_counter()
                    runner = set_up(config_path, overrides)
                    t1 = time.perf_counter()
                instrument = (
                    self.tracer.runner_boundaries(runner) if traced
                    else dispatch_timer(runner.registry, tool_s)
                )
                run_span = len(self.tracer.spans) if traced else None
                with instrument, self.span(op, "orchestrator.run"):
                    t2 = time.perf_counter()
                    manifest = runner.run()
                    t3 = time.perf_counter()
        except tracing.TraceError:
            raise
        except Exception as exc:  # an engine failure fails this operation only
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        run_ms = 1000.0 * (t3 - t2)
        if traced:
            s.traced_run_ms[op] = run_ms
            files = [p for p in runner.run_dir.rglob("*") if p.is_file()]
            s.runs.append({"run": op, "span": run_span, "files": len(files),
                           "bytes": sum(p.stat().st_size for p in files)})
        else:
            s.setup_s.append(t1 - t0)
            s.run_ms[op] = run_ms
            s.busy_s.append(t1 - t0 + t3 - t2)
            if tool_s:
                s.tool_ms.append(1000.0 * statistics.fmean(tool_s))
                s.tool_calls += len(tool_s)
                s.tool_s += sum(tool_s)
        s.tokens.setdefault(kind, manifest["accounting"]["totals"]["tokens"])
        return manifest, runner

    def result(self) -> dict:
        """End-to-end metrics of an untraced run."""
        s = self.samples
        runs = self.run_samples(s.run_ms)
        return {
            "setup_s": statistics.median(s.setup_s),
            "run_ms_p50": statistics.median(runs),
            "run_ms_tail": percentile(runs, self.plan.run_tail),
            "runs_per_s": len(s.busy_s) / sum(s.busy_s),
            "tool_ms_p50": statistics.median(s.tool_ms),
            "tool_ms_tail": percentile(s.tool_ms, self.plan.tool_tail),
            "tool_calls_per_s": s.tool_calls / s.tool_s,
            "tokens_per_run": statistics.fmean(s.tokens.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def overhead_ms(self) -> float | None:
        """Median traced run minus median untraced run, both from this run."""
        traced = self.run_samples(self.samples.traced_run_ms)
        untraced = self.run_samples(self.samples.run_ms)
        if not traced or not untraced:
            return None
        return statistics.median(traced) - statistics.median(untraced)

    def finish(self) -> list[str]:
        """Work after the measured window, traced runs only; returns problems."""
        return []


class DemoSuite(Workload):
    """Each operation is one demo scenario, taken round-robin from a
    seeded start; `tool_ms` is the mean dispatch time within a run."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        demo = self.root / "demo"
        self.config_path = demo / "config.json"
        for name in DEMO_SCENARIOS:
            if not (demo / "scripts" / f"{name}.json").is_file():
                raise BenchError(f"demo scenario not found: {name}")
        names = list(DEMO_SCENARIOS)
        start = self.seed % len(names)
        self.order = names[start:] + names[:start]
        self.base = [f"output_dir={self.work / 'runs'}"]
        # one untimed cycle lets lazy imports and regex caches fill first
        for op in range(len(self.order)):
            self.operation(op)
        self.samples = Samples()

    def operation(self, op: int) -> None:
        name = self.order[op % len(self.order)]
        overrides, outcome, rounds, crashes = DEMO_SCENARIOS[name]
        out = self.workflow_run(
            op, self.config_path, self.base + [f"model.script=scripts/{name}.json"] + overrides, name
        )
        if out is None:
            return
        manifest, runner = out
        problems = check_transitions(manifest["transitions"], outcome)
        if manifest["outcome"] != outcome:
            problems.append(f"outcome {manifest['outcome']}, expected {outcome}")
        if len(manifest["rounds"]) != rounds:
            problems.append(f"{len(manifest['rounds'])} rounds, expected {rounds}")
        if sum(r["crash_count"] for r in manifest["rounds"]) != crashes:
            problems.append(f"crash count differs from {crashes}")
        if problems:
            self.fail(f"{name}: " + "; ".join(problems))
        shutil.rmtree(runner.run_dir)


class SynthWorkload(Workload):
    """Generates the seeded synthetic library in a child process, so the
    generator's memory stays out of peak_rss_mb."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.lib = self.work / "lib"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "synthlib.py"), "--seed", str(self.seed),
             "--out", str(self.lib)],
            check=True, timeout=170,
        )
        self.config_path = self.lib / "config.json"
        self.expect = json.loads((self.lib / "expect.json").read_text(encoding="utf-8"))


class SynthWorkflow(SynthWorkload):
    last_runner = None

    def operation(self, op: int) -> None:
        out = self.workflow_run(op, self.config_path, [], "synth")
        if out is None:
            return
        manifest, runner = out
        problems = self.check(manifest, runner.run_dir)
        if problems:
            self.fail("; ".join(problems))
        if self.tracer is not None:
            self.last_runner = runner  # finish() times reach_methods on its graph
        shutil.rmtree(runner.run_dir)

    def check(self, manifest: dict, run_dir: Path) -> list[str]:
        expect = self.expect
        problems = check_transitions(manifest["transitions"], expect["outcome"])
        if manifest["outcome"] != expect["outcome"]:
            problems.append(f"outcome {manifest['outcome']}: {manifest.get('error')}")
        if manifest["transitions"] != expect["transitions"]:
            problems.append(f"transitions {manifest['transitions']}")
        rows = manifest["rounds"]
        if len(rows) != len(expect["rounds"]):
            problems.append(f"{len(rows)} rounds, expected {len(expect['rounds'])}")
        for got, want in zip(rows, expect["rounds"]):
            for key in ("decision", "crash_count"):
                if got[key] != want[key]:
                    problems.append(f"round {got['round']} {key} {got[key]}, expected {want[key]}")
            for key in ("line_percent", "branch_percent"):
                if abs(got[key] - want[key]) > 1e-9:
                    problems.append(f"round {got['round']} {key} {got[key]}, expected {want[key]}")
        versions = len(list((run_dir / "harness").glob("v*.src")))
        if versions != expect["harness_versions"]:
            problems.append(f"{versions} harness versions, expected {expect['harness_versions']}")
        return problems

    def finish(self) -> list[str]:
        """Time reach_methods from the root at the config's depth limit,
        directly: no role may dispatch it."""
        runner = self.last_runner
        if runner is None:
            return ["no run completed"]
        graph = runner.graph
        with self.tracer.module_boundaries(-1):
            reached = callgraph.reach_methods(graph, graph.root, runner.config.depth_limit())
        if len(reached) != self.expect["methods"]:
            return [f"reach_methods found {len(reached)} methods, expected {self.expect['methods']}"]
        return []


class SynthTools(SynthWorkload):
    """One set-up, then sessions of 25 dispatches. A run here is one
    session: run_ms is the time its dispatches take, so runs_per_s is
    tool_calls_per_s / 25, and tokens_per_run counts the tool
    observations it would add to an agent's prompt, over the first
    `min_ops` sessions, which every run completes. The services are
    rebuilt `SETUPS - 1` times between sessions to time setup_s."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sessions = json.loads((self.lib / "calls.json").read_text(encoding="utf-8"))
        self.runner = None
        self.build()

    def build(self) -> None:
        """Build the services again, timed as setup_s."""
        s = self.samples
        self.runner = None  # release the previous services before building again
        boundaries = (
            self.tracer.module_boundaries(-1 - len(s.setup_s)) if self.tracer
            else contextlib.nullcontext()
        )
        with boundaries:
            t0 = time.perf_counter()
            self.runner = set_up(self.config_path, [])
            s.setup_s.append(time.perf_counter() - t0)
        shutil.rmtree(self.runner.run_dir)

    def operation(self, op: int) -> None:
        s = self.samples
        started, seconds = self.window
        built = len(s.setup_s)
        if built < SETUPS and time.perf_counter() - started >= built * seconds / SETUPS:
            self.build()
        traced = self.traced(op)
        registry = self.runner.registry
        instrument = (
            self.tracer.runner_boundaries(self.runner) if traced else contextlib.nullcontext()
        )
        times = []
        tokens = 0
        with self.boundaries(op), instrument:
            for call in self.sessions[op % len(self.sessions)]:
                s.attempted += 1
                request = ToolRequest(tool=call["tool"], args=call["args"])
                role = AgentRole[call["role"]]
                t0 = time.perf_counter()
                response = registry.dispatch(role, request)
                times.append(time.perf_counter() - t0)
                problem = self.check(call, response)
                if problem:
                    self.fail(f"session {op}: {call['role']} {call['tool']} {call['args']}: {problem}")
                observation = (
                    response.content if response.ok
                    else f"ERROR {response.error_code}: {response.error_message}"
                )
                tokens += count_tokens(observation)
        if traced:
            s.traced_run_ms[op] = 1000.0 * sum(times)
            return
        s.run_ms[op] = 1000.0 * sum(times)
        s.busy_s.append(sum(times))
        s.tool_ms.extend(1000.0 * t for t in times)
        s.tool_calls += len(times)
        s.tool_s += sum(times)
        if op < self.plan.min_ops:
            s.tokens[f"session {op}"] = tokens

    @staticmethod
    def check(call: dict, response) -> str | None:
        if call["expect"] == "ok":
            if not response.ok:
                return f"error {response.error_code}: {response.error_message}"
            if call["contains"] and call["contains"] not in response.content:
                return f"response lacks {call['contains']!r}"
            return None
        if response.ok:
            return f"succeeded, expected {call['expect']}"
        if response.error_code != call["expect"]:
            return f"error {response.error_code}, expected {call['expect']}"
        return None


CLASSES = {"demo-suite": DemoSuite, "synth-workflow": SynthWorkflow, "synth-tools": SynthTools}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and summary lines.

    Samples of an untraced run, and spans of a traced one, are saved under
    `.bench_work/` in the checkout for later comparison."""
    tracer = tracing.Tracer() if trace else None
    workload = CLASSES[name](name, seed, root, work, tracer)
    s = workload.measure(seconds)
    failed = len(s.failures)
    summary = [
        f"{name} seed={seed} trace={int(trace)}: {s.attempted} operations, {failed} failed "
        f"(failed_share {failed / max(s.attempted, 1):.4f})",
    ]
    summary += [f"  failure: {f}" for f in s.failures[:5]]
    correct = failed == 0
    out_dir = root / ".bench_work"
    if trace:
        problems = workload.finish()
        summary += [f"  failure: {p}" for p in problems]
        correct = correct and not problems
        values = tracing.layer_metrics(tracer.spans, s.runs, workload.overhead_ms())
        missing = tracing.missing_evidence(values, name)
        if missing:
            correct = False
            summary.append(f"  no span or count backs: {', '.join(missing)}")
        tracing.write_spans(tracer.spans, out_dir / f"trace-{name}-seed{seed}.jsonl")
        metrics = {
            key: {"value": values[key] if values[key] is not None else 0.0, "unit": unit}
            for key, (unit, _, _) in tracing.LAYER_METRICS.items()
        }
    else:
        runs = workload.run_samples(s.run_ms)
        summary.append(
            f"  run_ms_tail = p{workload.plan.run_tail:g} of {len(runs)} run samples; "
            f"tool_ms_tail = p{workload.plan.tool_tail:g} of {len(s.tool_ms)} tool samples; "
            f"setup_s = median of {len(s.setup_s)} set-ups"
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"samples-{name}-seed{seed}.json").write_text(json.dumps(
            {"setup_s": s.setup_s, "run_ms": runs, "tool_ms": s.tool_ms, "busy_s": s.busy_s}
        ), encoding="utf-8")
        metrics = {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in workload.result().items()
        }
    return {"correct": correct, "attempted": s.attempted, "failed": failed, "metrics": metrics}, summary
