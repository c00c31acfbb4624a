"""Per-method coverage counters, recording-window filtering, and the
depth-grouped annotated view fed to the coverage analysis agent.

Reports and views are not changed once built; a view fills its derived
fields on first use, and a graph keeps the sums over the totals table of
its last merge.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .callgraph import CallGraph, CallGraphNode
from .errors import EngineError, json_input

METRIC_LINE = "line"
METRIC_BRANCH = "branch"

STATUS_COVERED = "covered"
STATUS_PARTIAL = "partial"
STATUS_UNCOVERED = "uncovered"


class MethodCoverage(NamedTuple):
    id: str
    lines_total: int = 0
    lines_covered: int = 0
    branches_total: int = 0
    branches_covered: int = 0


def check_counts(table: Mapping[str, Iterable], what: str) -> None:
    """Raise ValueError unless every count in `table` (id -> counts read
    from a file) is a JSON integer >= 0; the file's loader turns it into
    PARSE naming the file."""
    for mid, counts in table.items():
        for count in counts:
            if type(count) is not int or count < 0:
                raise ValueError(f"{what} of {mid}: {count!r} is not an integer >= 0")


@dataclass(frozen=True)
class CoverageReport:
    """One campaign's per-method counters.

    `hits` holds the counters of each method with a covered site; `totals`
    (method id -> (lines, branches)) is the table that the reports of one
    run share, and every other method in it has zero covered counters. The
    counters are not checked here: the engine builds them within the
    totals, and a file's are checked where it is read (`from_json`,
    `load`). Tables are never mutated once a report refers to them.
    """

    scope: str  # method_targeted | full
    totals: Mapping[str, tuple[int, int]] = field(repr=False)
    hits: dict[str, MethodCoverage]
    campaign_seconds: float = 0.0
    dropped_events: int = 0

    def by_id(self) -> dict[str, MethodCoverage]:
        """Counters of every method in the totals table, zero where not hit."""
        hits = self.hits
        return {
            mid: hits.get(mid) or MethodCoverage(mid, lines, 0, branches, 0)
            for mid, (lines, branches) in self.totals.items()
        }

    def to_json(self, totals_file: str) -> dict:
        """The hit methods' covered counters and the name of the file, beside
        this one, that holds the totals table."""
        return {
            "scope": self.scope,
            "campaign_seconds": self.campaign_seconds,
            "dropped_events": self.dropped_events,
            "totals": totals_file,
            "methods": [
                {"id": m.id, "lines_covered": m.lines_covered,
                 "branches_covered": m.branches_covered}
                for m in self.hits.values()
            ],
        }

    @classmethod
    def from_json(
        cls, raw: dict, totals: Mapping[str, tuple[int, int]] | None = None
    ) -> "CoverageReport":
        """A report file over its `totals` table, or, with no table, the
        dense form a shell fuzzer writes to `coverage_out`, where each
        method brings its own `lines_total` and `branches_total` and the
        table is made from them.

        ValueError if an id is not a non-empty string or repeats, a count
        is not an integer >= 0, a covered count exceeds its total, a sparse
        id is not in `totals`, `scope` is not a string, `dropped_events` is
        not an integer >= 0 or `campaign_seconds` is not a number >= 0.
        """
        counters: dict[str, MethodCoverage] = {}
        for m in raw.get("methods", []):
            mid = m["id"]
            if type(mid) is not str or not mid:
                raise ValueError(f"method id must be a non-empty string: {mid!r}")
            if mid in counters:
                raise ValueError(f"repeated method id {mid}")
            if totals is None:
                lines, branches = m.get("lines_total", 0), m.get("branches_total", 0)
            elif mid in totals:
                lines, branches = totals[mid]
            else:
                raise ValueError(f"method {mid} is not in the totals table")
            counters[mid] = MethodCoverage(
                mid, lines, m.get("lines_covered", 0), branches, m.get("branches_covered", 0)
            )
        check_counts({mid: c[1:] for mid, c in counters.items()}, "coverage counters")
        for c in counters.values():
            if c.lines_covered > c.lines_total or c.branches_covered > c.branches_total:
                raise ValueError(f"covered exceeds total for {c.id}")
        scope = raw["scope"]
        seconds = raw.get("campaign_seconds", 0.0)
        dropped = raw.get("dropped_events", 0)
        if not isinstance(scope, str):
            raise ValueError(f"scope: {scope!r} is not a string")
        if type(seconds) not in (int, float) or not seconds >= 0:
            raise ValueError(f"campaign_seconds: {seconds!r} is not a number >= 0")
        if type(dropped) is not int or dropped < 0:
            raise ValueError(f"dropped_events: {dropped!r} is not an integer >= 0")
        if totals is None:
            totals = {c.id: (c.lines_total, c.branches_total) for c in counters.values()}
        hits = {mid: c for mid, c in counters.items() if c.lines_covered or c.branches_covered}
        return cls(scope, totals, hits, float(seconds), dropped)

    @classmethod
    def load(cls, path: str | Path) -> "CoverageReport":
        """A report file with the totals file it names, or a dense
        `coverage_out` file; a malformed count in either is PARSE naming its
        file."""
        with json_input(path, "coverage report") as raw:
            totals = None
            if "totals" in raw:
                with json_input(Path(path).parent / raw["totals"], "coverage totals") as table:
                    totals = {mid: (line, branch) for mid, (line, branch) in table.items()}
                    check_counts(totals, "coverage totals")
            return cls.from_json(raw, totals)


class TraceRun(NamedTuple):
    """The events of one method and kind at one timestamp: one per line."""

    method_id: str
    kind: str  # line_hit | branch_hit
    timestamp: float
    lines: range | tuple[int, ...]


_LINES = itemgetter(3)


class RunEvents:
    """A trace's events, held as runs; `len` is the event count. Runs
    without lines hold no event and are not kept."""

    def __init__(self, runs: Iterable[TraceRun]) -> None:
        self.runs = tuple(filter(_LINES, runs))

    def __len__(self) -> int:
        return sum(map(len, map(_LINES, self.runs)))


@dataclass(frozen=True)
class RecordingTrace:
    events: RunEvents
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


def _graph_totals(graph: CallGraph, totals: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
    """Lines and branches of the graph's nodes in `totals`, summed once per
    graph and table: the graph keeps the sums of the last table it met."""
    kept = graph.coverage_totals
    if kept is None or kept[0] is not totals:
        known = [totals[mid] for mid in graph.nodes if mid in totals]
        kept = graph.coverage_totals = (
            totals, sum(lines for lines, _ in known), sum(branches for _, branches in known)
        )
    return kept[1], kept[2]


class AnnotatedCoverageView:
    """A report merged with the depth-bounded callgraph.

    The view holds the status of each hit node; every other node is
    uncovered, and its entry is made from the graph and the report's totals
    table when it is read. So merging, percent and diff cost what the round
    hit, and `ranked` what is read.
    """

    def __init__(
        self,
        graph: CallGraph,
        report: CoverageReport,
        hit_status: dict[str, str],
        unmatched_hits: tuple[str, ...],
        lines: tuple[int, int],
        branches: tuple[int, int],
    ) -> None:
        self.root = graph.root
        self.graph = graph
        self.report = report
        self.hit_status = hit_status  # hit node id -> status
        self.unmatched_hits = unmatched_hits  # hit ids outside the graph, sorted
        self.lines = lines  # (covered, total) over the nodes in the totals table
        self.branches = branches

    def _entry(self, mid: str, status: str) -> ViewEntry:
        counters = self.report.hits.get(mid)
        if counters is None and mid in self.report.totals:
            lines, branches = self.report.totals[mid]
            counters = MethodCoverage(mid, lines, 0, branches, 0)
        return ViewEntry(node=self.graph.nodes[mid], status=status, counters=counters)

    @cached_property
    def _hits_by_depth(self) -> dict[int, tuple[list[str], list[str]]]:
        """depth -> (partial ids, covered ids), each by id."""
        ranked: dict[int, tuple[list[str], list[str]]] = {}
        nodes = self.graph.nodes
        for mid, status in self.hit_status.items():
            if status != STATUS_UNCOVERED:
                partial, covered = ranked.setdefault(nodes[mid].depth, ([], []))
                (covered if status == STATUS_COVERED else partial).append(mid)
        for partial, covered in ranked.values():
            partial.sort()
            covered.sort()
        return ranked

    def entries(self) -> list[ViewEntry]:
        """Every node's entry, shallow first, by id within a depth."""
        status = self.hit_status
        return [
            self._entry(mid, status.get(mid, STATUS_UNCOVERED))
            for depth in self.depths()
            for mid in self.graph.by_depth[depth]
        ]

    def depths(self) -> list[int]:
        return sorted(self.graph.by_depth)

    def status_counts(self, depth: int) -> Counter:
        """Nodes at `depth` per status."""
        partial, covered = self._hits_by_depth.get(depth, ((), ()))
        size = len(self.graph.by_depth[depth])
        return Counter(
            {
                STATUS_UNCOVERED: size - len(partial) - len(covered),
                STATUS_PARTIAL: len(partial),
                STATUS_COVERED: len(covered),
            }
        )

    def ranked(self, depth: int) -> Iterator[ViewEntry]:
        """The entries at `depth`, uncovered before partial before covered,
        ties by id, made as they are read."""
        status = self.hit_status
        for mid in self.graph.by_depth[depth]:
            if status.get(mid, STATUS_UNCOVERED) == STATUS_UNCOVERED:
                yield self._entry(mid, STATUS_UNCOVERED)
        partial, covered = self._hits_by_depth.get(depth, ((), ()))
        for mid in partial:
            yield self._entry(mid, STATUS_PARTIAL)
        for mid in covered:
            yield self._entry(mid, STATUS_COVERED)


_KIND_INDEX = {"line_hit": 0, "branch_hit": 1}


def apply_recording_windows(
    trace: RecordingTrace,
    warn=None,
    scope: str = "method_targeted",
    campaign_seconds: float = 0.0,
) -> CoverageReport:
    """Aggregate a trace into a report over the trace's totals table.

    Only events inside a recording window count, or every event when
    `scope` is "full", whatever the windows; distinct hit sites per
    method and kind become the covered counters, capped at the declared
    totals. An in-window event of another kind raises KeyError.

    The trace is walked run by run: each run gets one method, window and
    kind check, and its lines go into the (method, kind) site set in one
    C-level `update`.
    """
    totals = trace.method_totals
    windows = ((float("-inf"), float("inf")),) if scope == "full" else trace.windows
    sites: dict[tuple[str, int], set[int]] = {}  # (method id, kind index) -> lines
    dropped = 0
    for mid, kind, ts, run_lines in trace.events.runs:
        if mid not in totals:
            dropped += len(run_lines)
            if warn is not None:
                for _ in run_lines:
                    warn(f"dropping event for unknown method {mid}")
            continue
        for start, end in windows:
            if start <= ts <= end:
                key = (mid, _KIND_INDEX[kind])
                lines = sites.get(key)
                if lines is None:
                    lines = sites[key] = set()
                lines.update(run_lines)
                break
    hits = {}
    for mid in sorted({mid for mid, _ in sites}):
        lines, branches = totals[mid]
        counters = MethodCoverage(
            mid,
            lines,
            min(lines, len(sites.get((mid, 0), ()))),
            branches,
            min(branches, len(sites.get((mid, 1), ()))),
        )
        if counters.lines_covered or counters.branches_covered:
            hits[mid] = counters
    return CoverageReport(scope, totals, hits, campaign_seconds, dropped)


def classify(counters: MethodCoverage | None) -> str:
    if counters is None:
        return STATUS_UNCOVERED
    if counters.lines_covered == counters.lines_total and counters.lines_total > 0:
        return STATUS_COVERED
    if 0 < counters.lines_covered < counters.lines_total:
        return STATUS_PARTIAL
    return STATUS_UNCOVERED


def merge_with_callgraph(report: CoverageReport, graph: CallGraph) -> AnnotatedCoverageView:
    """The report over the graph, in O(hits) once the graph has met its totals table."""
    lines_total, branches_total = _graph_totals(graph, report.totals)
    nodes = graph.nodes
    hit_status: dict[str, str] = {}
    unmatched: list[str] = []
    lines = branches = 0
    for mid, counters in report.hits.items():
        if mid in nodes:
            hit_status[mid] = classify(counters)
            lines += counters.lines_covered
            branches += counters.branches_covered
        else:
            unmatched.append(mid)
    return AnnotatedCoverageView(
        graph,
        report,
        hit_status,
        tuple(sorted(unmatched)),
        (lines, lines_total),
        (branches, branches_total),
    )


def coverage_percent(view_or_report, metric: str = METRIC_LINE) -> float:
    """Percent covered of the view's nodes in the totals table (O(1)), or
    of every method in the report's table; 0.0 when there is nothing to
    cover."""
    if metric not in (METRIC_LINE, METRIC_BRANCH):
        raise EngineError("BAD_ARGS", f"unknown metric: {metric}")
    line = metric == METRIC_LINE
    if isinstance(view_or_report, AnnotatedCoverageView):
        covered, total = view_or_report.lines if line else view_or_report.branches
    else:
        index = 0 if line else 1
        total = sum(t[index] for t in view_or_report.totals.values())
        covered = sum(
            c.lines_covered if line else c.branches_covered
            for c in view_or_report.hits.values()
        )
    if total == 0:
        return 0.0
    return 100.0 * covered / total


@dataclass(frozen=True)
class ViewDiff:
    newly_covered: tuple[str, ...]
    regressed: tuple[str, ...]
    delta_percent: float


def _covered_ids(view: AnnotatedCoverageView) -> set[str]:
    return {mid for mid, status in view.hit_status.items() if status == STATUS_COVERED}


def diff_views(prev: AnnotatedCoverageView, curr: AnnotatedCoverageView) -> ViewDiff:
    """What changed between two views of one graph, in O(hits of both)."""
    if prev.root != curr.root or (
        prev.graph is not curr.graph and prev.graph.nodes.keys() != curr.graph.nodes.keys()
    ):
        raise EngineError("BAD_ARGS", "views cover different node sets")
    prev_covered, curr_covered = _covered_ids(prev), _covered_ids(curr)
    delta = coverage_percent(curr, METRIC_LINE) - coverage_percent(prev, METRIC_LINE)
    return ViewDiff(
        newly_covered=tuple(sorted(curr_covered - prev_covered)),
        regressed=tuple(sorted(prev_covered - curr_covered)),
        delta_percent=delta,
    )
