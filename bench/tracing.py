"""Spans at the engine's module boundaries, recorded from outside the engine.

The traced run wraps public callables where the engine calls them:
names a module imported by name are rebound in the importing module,
class attributes on the class, and the runner's registry, adapter and
backend on the instance, between construction and `run()`. Spans stay
in memory; `write_spans` saves them when the benchmark ends.

`layer_metrics` turns spans into the per-layer metrics, and reports for
each metric whether any span or count backs it, so that a wrapper bound
where the engine no longer looks shows up as missing, not as zero.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path

from harnessgen import callgraph, config, ecosystem, orchestrator
from harnessgen.code_index import CodeIndex
from harnessgen.docs_index import DocsIndex

ROLES = ("RSH", "GEN", "PAT", "CVA", "REF")
SEARCH_KINDS = ("definition", "refs", "text", "symbol")
TOOLS = (
    "method_doc", "class_doc", "package_doc", "list_packages", "list_classes", "list_methods",
    "get_method_code", "get_class_code", "find_definition", "find_refs", "grep", "find_symbol",
    "reach_methods", "path_to_method", "compile", "fuzz",
)


class TraceError(RuntimeError):
    """A boundary the traced run wraps no longer exists in the engine."""


def _react_attrs(args, kwargs, result):
    return {
        "role": args[0].role.value,
        "seed_chars": sum(len(text) for _, text in args[1]),
        "iterations": result.transcript.iterations,
    }


# (owner, attribute, span name, attributes taken from (args, kwargs, result))
MODULE_BOUNDARIES = (
    (config, "load_config", "config.load_config", None),
    (orchestrator, "load_sandbox", "ecosystem.load_sandbox", None),
    (orchestrator, "load_script", "model_backend.load_script", None),
    (orchestrator, "run_react", "agents.run_react", _react_attrs),
    (orchestrator, "merge_with_callgraph", "coverage.merge_with_callgraph", None),
    (orchestrator, "render_annotated_view", "coverage.render_annotated_view",
     lambda a, k, r: {"chars": len(r)}),
    (orchestrator, "diff_views", "coverage.diff_views", None),
    (ecosystem, "apply_recording_windows", "coverage.apply_recording_windows",
     lambda a, k, r: {"events": len(a[0].events)}),
    (callgraph, "load_facts", "callgraph.load_facts", None),
    (callgraph, "build", "callgraph.build",
     lambda a, k, r: {"nodes": len(r.nodes), "edges": len(r.edges)}),
    (callgraph, "path_to_method", "callgraph.path_to_method", None),
    (callgraph, "reach_methods", "callgraph.reach_methods", None),
    (CodeIndex, "build", "code_index.build",
     lambda a, k, r: {"files": len(r.units), "symbols": len(r.symbols)}),
    (CodeIndex, "search", "code_index.search", lambda a, k, r: {"kind": a[1]}),
    (CodeIndex, "get_code", "code_index.get_code", None),
    (DocsIndex, "from_file", "docs_index.from_file",
     lambda a, k, r: {"entries": sum(r.counts().values())}),
    (DocsIndex, "query_doc", "docs_index.query_doc", None),
    (DocsIndex, "list_entities", "docs_index.list_entities", None),
)

# runner attribute -> [(method, span name, attributes)]
INSTANCE_BOUNDARIES = {
    "registry": [
        ("dispatch", "toolbus.dispatch",
         lambda a, k, r: {"tool": a[1].tool, "ok": r.ok, "truncated": r.truncated,
                          "chars": len(r.content)}),
    ],
    "adapter": [
        ("compile", "ecosystem.compile", lambda a, k, r: {"ok": r.success}),
        ("fuzz", "ecosystem.fuzz", None),
    ],
    "backend": [
        ("complete", "model_backend.complete",
         lambda a, k, r: {"tokens_in": r.usage.tokens_in}),
    ],
}


class Tracer:
    """Spans of one benchmark process: [name, start, end, parent, run, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.run_id, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record[5] = attrs(args, kwargs, result)
                return result

        return traced

    @contextlib.contextmanager
    def module_boundaries(self, run_id: int):
        """Wrap every module and class boundary for one traced operation."""
        saved = []
        self.run_id = run_id
        try:
            for owner, attr, name, attrs in MODULE_BOUNDARIES:
                if attr not in vars(owner):
                    raise TraceError(f"{owner.__name__}.{attr} no longer exists")
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, attrs)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, attrs))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.run_id = None

    @contextlib.contextmanager
    def runner_boundaries(self, runner):
        """Wrap the runner's registry, adapter and backend on the instance."""
        saved = []
        try:
            for field, methods in INSTANCE_BOUNDARIES.items():
                if not hasattr(runner, field):
                    raise TraceError(f"WorkflowRunner.{field} no longer exists")
                service = getattr(runner, field)
                for method, name, attrs in methods:
                    saved.append((service, method, vars(service).get(method)))
                    setattr(service, method, self.wrap(name, getattr(service, method), attrs))
            yield
        finally:
            for service, method, own in reversed(saved):
                if own is None:
                    delattr(service, method)
                else:
                    setattr(service, method, own)


def write_spans(spans: list[list], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for name, start, end, parent, run, attrs in spans:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "parent": parent, "run": run, "attrs": attrs}) + "\n")


# -- per-layer metrics ------------------------------------------------------------

# name -> (unit, better, workloads whose traced run must back it). The
# rows the demo-suite backs are backed on synth-workflow too, which
# BENCHMARK.json runs.
WF = ("synth-workflow",)
SYNTH = ("synth-workflow", "synth-tools")
DEMO_WF = ("demo-suite", "synth-workflow")
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "config.load_ms": ("ms", "lower", DEMO_WF),
    "docs_index.load_ms": ("ms", "lower", SYNTH),
    "docs_index.entries": ("count", "higher", SYNTH),
    "code_index.build_ms": ("ms", "lower", SYNTH),
    "code_index.files": ("count", "higher", SYNTH),
    "code_index.symbols": ("count", "higher", SYNTH),
    "code_index.get_code_ms": ("ms", "lower", SYNTH),
    **{f"code_index.search_ms.{k}": ("ms", "lower", SYNTH) for k in SEARCH_KINDS},
    "callgraph.load_facts_ms": ("ms", "lower", SYNTH),
    "callgraph.build_ms": ("ms", "lower", SYNTH),
    "callgraph.nodes": ("count", "higher", SYNTH),
    "callgraph.edges": ("count", "higher", SYNTH),
    "callgraph.path_ms": ("ms", "lower", SYNTH),
    "callgraph.reach_ms": ("ms", "lower", WF),
    "coverage.windows_ms": ("ms", "lower", WF),
    "coverage.trace_events": ("count", "lower", WF),
    "coverage.merge_ms": ("ms", "lower", WF),
    "coverage.render_ms": ("ms", "lower", WF),
    "coverage.render_chars": ("count", "lower", WF),
    "coverage.diff_ms": ("ms", "lower", WF),
    "ecosystem.compile_ms": ("ms", "lower", WF),
    "ecosystem.fuzz_ms": ("ms", "lower", WF),
    "ecosystem.compile_ok_ratio": ("ratio", "higher", WF),
    **{f"toolbus.dispatch_ms.{t}": ("ms", "lower", ("synth-tools",)) for t in TOOLS},
    "toolbus.error_share": ("ratio", "lower", ("synth-tools",)),
    "toolbus.truncated_share": ("ratio", "lower", ("synth-tools",)),
    "toolbus.response_chars": ("count", "lower", ("synth-tools",)),
    "model_backend.complete_ms": ("ms", "lower", WF),
    "model_backend.turns": ("count", "lower", WF),
    "model_backend.tokens_in": ("count", "lower", WF),
    **{f"agents.react_ms.{r}": ("ms", "lower", WF) for r in ROLES},
    **{f"agents.seed_chars.{r}": ("count", "lower", WF) for r in ROLES},
    **{f"agents.iterations.{r}": ("count", "lower", WF) for r in ROLES},
    "orchestrator.self_ms": ("ms", "lower", DEMO_WF),
    "orchestrator.files_written": ("count", "lower", DEMO_WF),
    "orchestrator.run_dir_bytes": ("bytes", "lower", DEMO_WF),
    "share.model": ("ratio", "higher", DEMO_WF),
    "share.toolchain": ("ratio", "higher", DEMO_WF),
    "share.engine": ("ratio", "lower", DEMO_WF),
    "trace.overhead_ms": ("ms", "lower", ("demo-suite", "synth-workflow", "synth-tools")),
}


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans: list[list], runs: list[dict], overhead_ms: float | None) -> dict:
    """Per-layer values from traced spans; None where nothing backs a metric.

    `runs` has one entry per traced workflow run: its run id and what it
    left in its run directory.
    """
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def ms(name, **match):
        return _median([
            1000.0 * (s[2] - s[1]) for s in by_name.get(name, ())
            if all(s[5].get(k) == v for k, v in match.items())
        ])

    def attr(name, key):
        return _median([s[5][key] for s in by_name.get(name, ()) if key in s[5]])

    def per_run(name, value, **match):
        """Median over traced runs of a per-run total."""
        totals: dict[int, float] = {}
        for s in by_name.get(name, ()):
            if all(s[5].get(k) == v for k, v in match.items()):
                totals[s[4]] = totals.get(s[4], 0) + value(s)
        return _median([totals.get(r["run"], 0) for r in runs]) if totals else None

    child_s: dict[int, float] = {}
    for span in spans:
        child_s[span[3]] = child_s.get(span[3], 0.0) + span[2] - span[1]
    dispatches = by_name.get("toolbus.dispatch", [])
    compiles = by_name.get("ecosystem.compile", [])
    out = {
        "config.load_ms": ms("config.load_config"),
        "docs_index.load_ms": ms("docs_index.from_file"),
        "docs_index.entries": attr("docs_index.from_file", "entries"),
        "code_index.build_ms": ms("code_index.build"),
        "code_index.files": attr("code_index.build", "files"),
        "code_index.symbols": attr("code_index.build", "symbols"),
        "code_index.get_code_ms": ms("code_index.get_code"),
        **{f"code_index.search_ms.{k}": ms("code_index.search", kind=k) for k in SEARCH_KINDS},
        "callgraph.load_facts_ms": ms("callgraph.load_facts"),
        "callgraph.build_ms": ms("callgraph.build"),
        "callgraph.nodes": attr("callgraph.build", "nodes"),
        "callgraph.edges": attr("callgraph.build", "edges"),
        "callgraph.path_ms": ms("callgraph.path_to_method"),
        "callgraph.reach_ms": ms("callgraph.reach_methods"),
        "coverage.windows_ms": ms("coverage.apply_recording_windows"),
        "coverage.trace_events": per_run("coverage.apply_recording_windows",
                                         lambda s: s[5]["events"]),
        "coverage.merge_ms": ms("coverage.merge_with_callgraph"),
        "coverage.render_ms": ms("coverage.render_annotated_view"),
        "coverage.render_chars": per_run("coverage.render_annotated_view",
                                         lambda s: s[5]["chars"]),
        "coverage.diff_ms": ms("coverage.diff_views"),
        "ecosystem.compile_ms": ms("ecosystem.compile"),
        "ecosystem.fuzz_ms": ms("ecosystem.fuzz"),
        "ecosystem.compile_ok_ratio": (
            sum(s[5]["ok"] for s in compiles) / len(compiles) if compiles else None
        ),
        **{f"toolbus.dispatch_ms.{t}": ms("toolbus.dispatch", tool=t) for t in TOOLS},
        "toolbus.error_share": (
            sum(not s[5]["ok"] for s in dispatches) / len(dispatches) if dispatches else None
        ),
        "toolbus.truncated_share": (
            sum(s[5]["truncated"] for s in dispatches) / len(dispatches) if dispatches else None
        ),
        "toolbus.response_chars": (
            statistics.fmean(s[5]["chars"] for s in dispatches) if dispatches else None
        ),
        "model_backend.complete_ms": ms("model_backend.complete"),
        "model_backend.turns": per_run("model_backend.complete", lambda s: 1),
        "model_backend.tokens_in": per_run("model_backend.complete",
                                           lambda s: s[5]["tokens_in"]),
        **{f"agents.react_ms.{r}": ms("agents.run_react", role=r) for r in ROLES},
        **{f"agents.seed_chars.{r}": per_run("agents.run_react", lambda s: s[5]["seed_chars"],
                                             role=r) for r in ROLES},
        **{f"agents.iterations.{r}": per_run("agents.run_react", lambda s: s[5]["iterations"],
                                             role=r) for r in ROLES},
        "orchestrator.self_ms": _median([_self_ms(spans, child_s, r["span"]) for r in runs]),
        "orchestrator.files_written": _median([r["files"] for r in runs]),
        "orchestrator.run_dir_bytes": _median([r["bytes"] for r in runs]),
        "trace.overhead_ms": overhead_ms,
    }
    out.update(_shares(by_name))
    return out


def _self_ms(spans: list[list], child_s: dict[int, float], index: int) -> float:
    """A span's duration minus the time its direct children cover.

    The engine is single-threaded, so children never overlap."""
    span = spans[index]
    return 1000.0 * (span[2] - span[1] - child_s.get(index, 0.0))


def _shares(by_name: dict[str, list[list]]) -> dict:
    run_s = sum(s[2] - s[1] for s in by_name.get("orchestrator.run", ()))
    if not run_s:
        return {"share.model": None, "share.toolchain": None, "share.engine": None}
    model = sum(s[2] - s[1] for s in by_name.get("model_backend.complete", ())) / run_s
    toolchain = sum(
        s[2] - s[1] for name in ("ecosystem.compile", "ecosystem.fuzz") for s in by_name.get(name, ())
    ) / run_s
    return {"share.model": model, "share.toolchain": toolchain,
            "share.engine": 1.0 - model - toolchain}


def missing_evidence(values: dict, workload: str) -> list[str]:
    """Metrics the workload's traced run should back but nothing did."""
    return sorted(
        name for name, (_, _, workloads) in LAYER_METRICS.items()
        if workload in workloads and values.get(name) is None
    )
