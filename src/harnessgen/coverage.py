"""Per-method coverage counters, recording-window filtering, and the
depth-grouped annotated view fed to the coverage analysis agent.

All values are immutable and every operation is pure.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .callgraph import CallGraph, CallGraphNode
from .errors import EngineError

METRIC_LINE = "line"
METRIC_BRANCH = "branch"

STATUS_COVERED = "covered"
STATUS_PARTIAL = "partial"
STATUS_UNCOVERED = "uncovered"


@dataclass(frozen=True)
class MethodCoverage:
    id: str
    lines_total: int = 0
    lines_covered: int = 0
    branches_total: int = 0
    branches_covered: int = 0

    def __post_init__(self) -> None:
        if self.lines_covered > self.lines_total or self.branches_covered > self.branches_total:
            raise EngineError("BAD_ARGS", f"covered exceeds total for {self.id}")
        if min(self.lines_total, self.lines_covered, self.branches_total, self.branches_covered) < 0:
            raise EngineError("BAD_ARGS", f"negative counter for {self.id}")


@dataclass(frozen=True)
class CoverageReport:
    scope: str  # method_targeted | full
    methods: tuple[MethodCoverage, ...] = ()
    campaign_seconds: float = 0.0
    dropped_events: int = 0

    def __post_init__(self) -> None:
        ids = [m.id for m in self.methods]
        if len(ids) != len(set(ids)):
            raise EngineError("BAD_ARGS", "duplicate method ids in coverage report")

    def by_id(self) -> dict[str, MethodCoverage]:
        return {m.id: m for m in self.methods}

    def to_json(self) -> dict:
        return {
            "scope": self.scope,
            "campaign_seconds": self.campaign_seconds,
            "dropped_events": self.dropped_events,
            "methods": [
                {
                    "id": m.id,
                    "lines_total": m.lines_total,
                    "lines_covered": m.lines_covered,
                    "branches_total": m.branches_total,
                    "branches_covered": m.branches_covered,
                }
                for m in self.methods
            ],
        }

    @classmethod
    def from_json(cls, raw: dict) -> "CoverageReport":
        return cls(
            scope=raw["scope"],
            campaign_seconds=float(raw.get("campaign_seconds", 0.0)),
            dropped_events=int(raw.get("dropped_events", 0)),
            methods=tuple(
                MethodCoverage(
                    id=m["id"],
                    lines_total=int(m.get("lines_total", 0)),
                    lines_covered=int(m.get("lines_covered", 0)),
                    branches_total=int(m.get("branches_total", 0)),
                    branches_covered=int(m.get("branches_covered", 0)),
                )
                for m in raw.get("methods", [])
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "CoverageReport":
        try:
            return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
        except FileNotFoundError as exc:
            raise EngineError("IO", f"coverage report not found: {path}") from exc
        except (json.JSONDecodeError, KeyError) as exc:
            raise EngineError("PARSE", f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TraceEvent:
    method_id: str
    line: int
    kind: str  # line_hit | branch_hit
    timestamp: float


@dataclass(frozen=True)
class RecordingTrace:
    events: tuple[TraceEvent, ...]
    windows: tuple[tuple[float, float], ...]
    method_totals: dict[str, tuple[int, int]] = field(default_factory=dict)  # id -> (lines, branches)

    def __post_init__(self) -> None:
        prev_end = None
        for start, end in self.windows:
            if end < start:
                raise EngineError("BAD_ARGS", f"window end before start: ({start}, {end})")
            if prev_end is not None and start < prev_end:
                raise EngineError("BAD_ARGS", "recording windows overlap or are unordered")
            prev_end = end


@dataclass(frozen=True)
class ViewEntry:
    node: CallGraphNode
    status: str
    counters: MethodCoverage | None


@dataclass(frozen=True)
class AnnotatedCoverageView:
    root: str
    groups: dict[int, tuple[ViewEntry, ...]]
    unmatched_ids: tuple[str, ...] = ()

    def entries(self) -> list[ViewEntry]:
        return [e for depth in sorted(self.groups) for e in self.groups[depth]]

    def node_ids(self) -> set[str]:
        return {e.node.id for e in self.entries()}

    def status_of(self, method_id: str) -> str:
        for entry in self.entries():
            if entry.node.id == method_id:
                return entry.status
        raise EngineError("NOT_FOUND", f"method not in view: {method_id}")


_KIND_INDEX = {"line_hit": 0, "branch_hit": 1}


def apply_recording_windows(trace: RecordingTrace, warn=None) -> CoverageReport:
    """Aggregate a trace into a method-targeted report.

    Only events inside a recording window count; distinct hit sites per
    method and kind become the covered counters, capped at the declared
    totals. An in-window event of another kind raises KeyError.
    """
    totals = trace.method_totals
    windows = trace.windows
    sites: set[tuple[str, int, int]] = set()  # (method id, kind index, line)
    dropped = 0
    for event in trace.events:
        mid = event.method_id
        if mid not in totals:
            dropped += 1
            if warn is not None:
                warn(f"dropping event for unknown method {mid}")
            continue
        ts = event.timestamp
        for start, end in windows:
            if start <= ts <= end:
                sites.add((mid, _KIND_INDEX[event.kind], event.line))
                break
    hits = Counter((mid, kind) for mid, kind, _ in sites)
    methods = tuple(
        MethodCoverage(
            id=mid,
            lines_total=lines,
            lines_covered=min(lines, hits[mid, 0]),
            branches_total=branches,
            branches_covered=min(branches, hits[mid, 1]),
        )
        for mid, (lines, branches) in sorted(totals.items())
    )
    return CoverageReport(scope="method_targeted", methods=methods, dropped_events=dropped)


def classify(counters: MethodCoverage | None) -> str:
    if counters is None:
        return STATUS_UNCOVERED
    if counters.lines_covered == counters.lines_total and counters.lines_total > 0:
        return STATUS_COVERED
    if 0 < counters.lines_covered < counters.lines_total:
        return STATUS_PARTIAL
    return STATUS_UNCOVERED


def merge_with_callgraph(report: CoverageReport, graph: CallGraph) -> AnnotatedCoverageView:
    by_id = report.by_id()
    groups: dict[int, list[ViewEntry]] = {}
    for node in graph.nodes.values():
        counters = by_id.get(node.id)
        groups.setdefault(node.depth, []).append(
            ViewEntry(node=node, status=classify(counters), counters=counters)
        )
    unmatched = tuple(sorted(set(by_id) - set(graph.nodes)))
    return AnnotatedCoverageView(
        root=graph.root,
        groups={
            depth: tuple(sorted(entries, key=lambda e: e.node.id))
            for depth, entries in groups.items()
        },
        unmatched_ids=unmatched,
    )


@dataclass(frozen=True)
class CoveragePercent:
    value: float
    zero_denominator: bool = False

    def __float__(self) -> float:
        return self.value


def coverage_percent(view_or_report, metric: str = METRIC_LINE) -> CoveragePercent:
    if metric not in (METRIC_LINE, METRIC_BRANCH):
        raise EngineError("BAD_ARGS", f"unknown metric: {metric}")
    if isinstance(view_or_report, AnnotatedCoverageView):
        counters = [e.counters for e in view_or_report.entries() if e.counters is not None]
    else:
        counters = list(view_or_report.methods)
    if metric == METRIC_LINE:
        total = sum(c.lines_total for c in counters)
        covered = sum(c.lines_covered for c in counters)
    else:
        total = sum(c.branches_total for c in counters)
        covered = sum(c.branches_covered for c in counters)
    if total == 0:
        return CoveragePercent(0.0, zero_denominator=True)
    return CoveragePercent(100.0 * covered / total)


@dataclass(frozen=True)
class ViewDiff:
    newly_covered: tuple[str, ...]
    regressed: tuple[str, ...]
    delta_percent: float


def diff_views(prev: AnnotatedCoverageView, curr: AnnotatedCoverageView) -> ViewDiff:
    prev_status = {e.node.id: e.status for e in prev.entries()}
    curr_status = {e.node.id: e.status for e in curr.entries()}
    if prev.root != curr.root or prev_status.keys() != curr_status.keys():
        raise EngineError("BAD_ARGS", "views cover different node sets")
    newly = tuple(
        sorted(
            mid
            for mid, status in curr_status.items()
            if status == STATUS_COVERED and prev_status[mid] != STATUS_COVERED
        )
    )
    regressed = tuple(
        sorted(
            mid
            for mid, status in prev_status.items()
            if status == STATUS_COVERED and curr_status[mid] != STATUS_COVERED
        )
    )
    delta = coverage_percent(curr, METRIC_LINE).value - coverage_percent(prev, METRIC_LINE).value
    return ViewDiff(newly_covered=newly, regressed=regressed, delta_percent=delta)
