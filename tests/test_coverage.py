from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_report
from harnessgen.callgraph import CallFacts, build
from harnessgen.coverage import (
    STATUS_COVERED,
    AnnotatedCoverageView,
    Campaign,
    CoverageReport,
    MethodCoverage,
    RecordingTrace,
    RunEvents,
    TraceRun,
    ViewDiff,
    ViewEntry,
    apply_recording_windows,
    classify,
    coverage_percent,
    diff_views,
    merge_with_callgraph,
)
from harnessgen.errors import EngineError
from harnessgen.orchestrator import render_annotated_view


NAN, INF = float("nan"), float("inf")


def mk(mid, lt=0, lc=0, bt=0, bc=0):
    return MethodCoverage(mid, lines_total=lt, lines_covered=lc, branches_total=bt, branches_covered=bc)


def hits(*methods):
    """A report's `hits`: the counters of the methods with a covered site."""
    return {m.id: m for m in methods if m.lines_covered or m.branches_covered}


def report_file(root: Path, rows) -> Path:
    """`rows` of (id, lines total, lines covered, branches total, branches
    covered) written as a round file beside its totals file; its path."""
    (root / "totals.json").write_text(json.dumps({row[0]: [row[1], row[3]] for row in rows}))
    path = root / "r0.json"
    path.write_text(json.dumps({
        "scope": "full",
        "totals": "totals.json",
        "methods": [{"id": mid, "lines_covered": lc, "branches_covered": bc}
                    for mid, _, lc, _, bc in rows],
    }))
    return path


def assert_load_is_parse(path: Path, named: Path, problem: str) -> None:
    with pytest.raises(EngineError) as exc:
        CoverageReport.load(path)
    assert exc.value.code == "PARSE"
    assert str(named) in exc.value.message and problem in exc.value.message


class TestCounters:
    """Counters are checked where a round file is read."""

    def test_covered_cannot_exceed_total(self, tmp_path):
        path = report_file(tmp_path, [("m", 3, 4, 0, 0)])
        assert_load_is_parse(path, path, "covered exceeds total for m")

    def test_negative_rejected(self, tmp_path):
        path = report_file(tmp_path, [("m", 3, 1, 2, -1)])
        assert_load_is_parse(path, path, "-1 is not an integer >= 0")

    @pytest.mark.parametrize("count", [1.5, "2", True, None])
    def test_count_not_an_integer_is_parse(self, tmp_path, count):
        path = report_file(tmp_path, [("m", 3, count, 0, 0)])
        assert_load_is_parse(path, path, f"{count!r} is not an integer >= 0")

    def test_duplicate_ids_rejected(self, tmp_path):
        path = report_file(tmp_path, [("m", 3, 1, 0, 0), ("m", 3, 2, 0, 0)])
        assert_load_is_parse(path, path, "repeated method id m")

    @pytest.mark.parametrize("mid", [5, None, ""])
    def test_id_other_than_a_non_empty_string_is_parse(self, tmp_path, mid):
        """A non-string id would reach the view, whose sort of the unmatched
        ids cannot order it among strings."""
        path = report_file(tmp_path, [(mid, 3, 1, 0, 0), ("zz.Q.r()", 2, 1, 0, 0)])
        assert_load_is_parse(path, path, f"method id must be a non-empty string: {mid!r}")

    def test_sparse_id_missing_from_the_table(self, tmp_path):
        path = report_file(tmp_path, [("m", 3, 1, 0, 0)])
        (tmp_path / "totals.json").write_text(json.dumps({"other": [3, 0]}))
        assert_load_is_parse(path, path, "method m is not in the totals table")

    @pytest.mark.parametrize("entry", [[-3, 0], [3, -1], [2.5, 0], ["3", 0]])
    def test_bad_entry_in_the_totals_file(self, tmp_path, entry):
        path = report_file(tmp_path, [])
        (tmp_path / "totals.json").write_text(json.dumps({"m": entry}))
        assert_load_is_parse(path, tmp_path / "totals.json", "coverage totals of m")

    def test_json_round_trip(self, tmp_path):
        report = dense_report(
            "full",
            (mk("a", 10, 4, 2, 1), mk("b", 5, 5), mk("c", 3, 0, 1, 0)),
            campaign_seconds=12.5,
            dropped_events=3,
        )
        (tmp_path / "totals.json").write_text(json.dumps(report.totals))
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(report.to_json("totals.json")))
        loaded = CoverageReport.load(path)
        assert loaded == report
        assert loaded.by_id() == report.by_id()
        assert list(loaded.hits) == ["a", "b"]
        assert loaded.campaign_seconds == 12.5
        assert loaded.dropped_events == 3


class TestReportFields:
    """A round file's scope, dropped events and campaign seconds are checked
    where it is read."""

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("dropped_events", 2.7, "dropped_events: 2.7 is not an integer >= 0"),
            ("dropped_events", -1, "dropped_events: -1 is not an integer >= 0"),
            ("dropped_events", "3", "dropped_events: '3' is not an integer >= 0"),
            ("dropped_events", True, "dropped_events: True is not an integer >= 0"),
            ("campaign_seconds", "5", "campaign_seconds: '5' is not a number >= 0"),
            ("campaign_seconds", -1, "campaign_seconds: -1 is not a number >= 0"),
            ("campaign_seconds", False, "campaign_seconds: False is not a number >= 0"),
            ("campaign_seconds", None, "campaign_seconds: None is not a number >= 0"),
            # JSON reads NaN and Infinity as numbers; a float must hold the seconds
            ("campaign_seconds", NAN, "campaign_seconds: nan is not a number >= 0"),
            ("campaign_seconds", INF, "campaign_seconds: inf is not a number >= 0"),
            pytest.param("campaign_seconds", 10**400, "campaign_seconds: 1000",
                         id="campaign_seconds-400-digits"),
            ("scope", 7, "scope: 7 is not a string"),
        ],
    )
    def test_bad_field_is_parse(self, tmp_path, key, value, problem):
        path = report_file(tmp_path, [("m", 3, 1, 0, 0)])
        raw = json.loads(path.read_text())
        raw[key] = value
        path.write_text(json.dumps(raw))
        assert_load_is_parse(path, path, problem)

    def test_whole_seconds_load_as_float(self, tmp_path):
        path = report_file(tmp_path, [("m", 3, 1, 0, 0)])
        raw = json.loads(path.read_text())
        raw.update(campaign_seconds=5, dropped_events=0)
        path.write_text(json.dumps(raw))
        report = CoverageReport.load(path)
        assert report.campaign_seconds == 5.0 and type(report.campaign_seconds) is float


def campaign_file(root: Path, **keys) -> Path:
    """A campaign file, two touching windows and a run in each, with `keys`
    put in; its path."""
    raw = {
        "windows": [[100, 200], [200, 300.5]],
        "method_totals": {"a": [10, 4]},
        "runs": [["a", "line_hit", 150, [1, 2]], ["a", "branch_hit", 250.5, [1]]],
        "executions": 7,
        "crashes": [{"summary": "boom"}],
    }
    path = root / "cov.json"
    path.write_text(json.dumps({**raw, **keys}))
    return path


class TestCampaignFile:
    def test_loads_the_trace_its_crashes_and_executions(self, tmp_path):
        campaign = Campaign.load(campaign_file(tmp_path))
        assert campaign.trace.windows == ((100, 200), (200, 300.5))
        assert campaign.trace.method_totals == {"a": (10, 4)}
        assert campaign.trace.events.runs == (
            TraceRun("a", "line_hit", 150, (1, 2)), TraceRun("a", "branch_hit", 250.5, (1,))
        )
        assert (campaign.crashes, campaign.executions) == (("boom",), 7)

    def test_an_integer_of_any_size_is_a_bound_or_timestamp(self, tmp_path):
        path = campaign_file(
            tmp_path, windows=[[-10**400, 10**400]], runs=[["a", "line_hit", 10**399, [1, 2]]]
        )
        report = apply_recording_windows(Campaign.load(path).trace)
        assert report.hits == {"a": mk("a", 10, 2, 4, 0)}

    def test_crashes_left_out_are_none(self, tmp_path):
        path = campaign_file(tmp_path)
        raw = json.loads(path.read_text())
        del raw["crashes"]
        path.write_text(json.dumps(raw))
        assert Campaign.load(path).crashes == ()

    @pytest.mark.parametrize(
        "keys, problem",
        [
            pytest.param({"windows": [[0, 10], [5, 20]]}, "overlap, are reversed",
                         id="overlapping-windows"),
            pytest.param({"windows": [[10, 5]]}, "overlap, are reversed", id="reversed-window"),
            pytest.param({"windows": [[True, 5]]}, "are not numbers", id="bool-window"),
            # JSON reads NaN and Infinity as numbers; no event would fall in such a window
            pytest.param({"windows": [[NAN, NAN]]}, "are not numbers", id="nan-window"),
            pytest.param({"windows": [[NAN, 200.0]]}, "are not numbers", id="nan-start"),
            pytest.param({"windows": [[100, INF]]}, "are not numbers", id="infinite-end"),
            pytest.param({"windows": [[-INF, 200]]}, "are not numbers", id="infinite-start"),
            pytest.param({"runs": [["a", "stmt_hit", 150, [1]]]}, "line_hit or branch_hit",
                         id="unknown-kind"),
            pytest.param({"runs": [["a", "line_hit", 150, [0]]]}, "a line is not an integer >= 1",
                         id="line-0"),
            pytest.param({"runs": [["a", "line_hit", 150, [1.0]]]}, "not an integer >= 1",
                         id="float-line"),
            pytest.param({"runs": [["a", "line_hit", True, [1]]]}, "and a number",
                         id="true-timestamp"),
            pytest.param({"runs": [["a", "line_hit", NAN, [1]]]}, "and a number",
                         id="nan-timestamp"),
            pytest.param({"runs": [["a", "line_hit", -INF, [1]]]}, "and a number",
                         id="infinite-timestamp"),
            pytest.param({"runs": [[5, "line_hit", 150, [1]]]}, "not an id",
                         id="int-method-id"),
            pytest.param({"method_totals": {"a": [10, -4]}}, "method_totals of a: -4",
                         id="negative-total"),
            pytest.param({"executions": -1}, "executions: -1 is not an integer >= 0",
                         id="executions--1"),
            pytest.param({"executions": 1.5}, "executions: 1.5 is not an integer >= 0",
                         id="executions-1.5"),
            pytest.param({"crashes": [{"summary": 3}]}, "a summary is not a string",
                         id="int-summary"),
            pytest.param({"crashes": [{}]}, "KeyError: 'summary'", id="no-summary"),
        ],
    )
    def test_malformed_is_parse(self, tmp_path, keys, problem):
        path = campaign_file(tmp_path, **keys)
        with pytest.raises(EngineError) as exc:
            Campaign.load(path)
        assert exc.value.code == "PARSE"
        assert str(path) in exc.value.message and problem in exc.value.message


class TestClassify:
    def test_exact_boundaries(self):
        assert classify(None) == "uncovered"
        assert classify(mk("m", lt=0, lc=0)) == "uncovered"
        assert classify(mk("m", lt=4, lc=0)) == "uncovered"
        assert classify(mk("m", lt=4, lc=1)) == "partial"
        assert classify(mk("m", lt=4, lc=3)) == "partial"
        assert classify(mk("m", lt=4, lc=4)) == "covered"

    @given(total=st.integers(0, 50), covered=st.integers(0, 50))
    def test_status_is_total_function(self, total, covered):
        if covered > total:
            return
        status = classify(mk("m", lt=total, lc=covered))
        if total == 0 or covered == 0:
            assert status == "uncovered"
        elif covered == total:
            assert status == "covered"
        else:
            assert status == "partial"


def run_trace(runs, totals, windows=((100.0, 200.0),)) -> RecordingTrace:
    """A trace of `runs` over `totals`, in one window unless given others."""
    return RecordingTrace(events=RunEvents(runs), windows=windows, method_totals=totals)


class TestWindows:
    TOTALS = {"a": (10, 4), "b": (6, 2)}

    def test_only_in_window_events_count(self):
        runs = (
            TraceRun("a", "line_hit", 50.0, (1,)),     # before window
            TraceRun("a", "line_hit", 150.0, (1, 2)),  # inside
            TraceRun("a", "line_hit", 151.0, (2,)),    # duplicate site
            TraceRun("a", "line_hit", 250.0, (3,)),    # after window
            TraceRun("b", "branch_hit", 160.0, (1,)),  # inside
        )
        trace = run_trace(runs, self.TOTALS)
        report = apply_recording_windows(trace)
        by_id = report.by_id()
        assert by_id["a"].lines_covered == 2
        assert by_id["b"].branches_covered == 1 and by_id["b"].lines_covered == 0
        assert report.scope == "method_targeted"

    def test_window_edges_inclusive(self):
        runs = (
            TraceRun("a", "line_hit", 100.0, (1,)),
            TraceRun("a", "line_hit", 200.0, (2,)),
        )
        assert apply_recording_windows(run_trace(runs, self.TOTALS)).by_id()["a"].lines_covered == 2

    def test_unknown_method_dropped_and_warned(self):
        warnings: list[str] = []
        trace = run_trace((TraceRun("ghost", "line_hit", 150.0, (1,)),), self.TOTALS)
        report = apply_recording_windows(trace, warn=warnings.append)
        assert report.dropped_events == 1
        assert warnings and "ghost" in warnings[0]

    def test_run_without_lines_holds_no_event(self):
        """A run without lines is neither counted, nor dropped, nor checked
        for its kind, even in a window."""
        warnings: list[str] = []
        runs = (
            TraceRun("a", "stmt_hit", 150.0, ()),
            TraceRun("ghost", "line_hit", 150.0, range(3, 3)),
            TraceRun("b", "line_hit", 150.0, ()),
            TraceRun("a", "line_hit", 150.0, (4,)),
        )
        trace = run_trace(runs, self.TOTALS)
        assert len(trace.events) == 1 and trace.events.runs == runs[3:]
        report = apply_recording_windows(trace, warn=warnings.append)
        assert report.dropped_events == 0 and warnings == []
        assert report.hits == {"a": mk("a", 10, 1, 4, 0)}

    def test_covered_capped_at_total(self):
        trace = run_trace((TraceRun("b", "line_hit", 150.0, range(1, 20)),), self.TOTALS)
        assert apply_recording_windows(trace).by_id()["b"].lines_covered == 6

    @pytest.mark.parametrize("seed", range(20))
    def test_random_traces_match_filter_oracle(self, seed):
        rng = random.Random(seed)
        totals = {f"m{i}": (rng.randint(1, 12), rng.randint(0, 6)) for i in range(5)}
        windows = ((10.0, 20.0), (40.0, 60.0))
        # one single-line run per event: method, line, kind, time drawn in that order
        runs = tuple(
            TraceRun(mid, kind, ts, (line,))
            for mid, line, kind, ts in (
                (rng.choice(list(totals)), rng.randint(1, 15),
                 rng.choice(["line_hit", "branch_hit"]), rng.uniform(0.0, 80.0))
                for _ in range(rng.randint(0, 120))
            )
        )
        report = apply_recording_windows(run_trace(runs, totals, windows))
        # oracle: plain set comprehension over the raw runs' lines
        for mid, (lt, bt) in totals.items():
            lines = {
                line
                for r in runs
                if r.method_id == mid
                and r.kind == "line_hit"
                and any(s <= r.timestamp <= t for s, t in windows)
                for line in r.lines
            }
            branches = {
                line
                for r in runs
                if r.method_id == mid
                and r.kind == "branch_hit"
                and any(s <= r.timestamp <= t for s, t in windows)
                for line in r.lines
            }
            got = report.by_id()[mid]
            assert got.lines_covered == min(lt, len(lines))
            assert got.branches_covered == min(bt, len(branches))


def small_graph():
    facts = CallFacts(
        methods={"r": "C.r", "x": "C.x", "y": "C.y", "z": "C.z"},
        calls=(("r", "x"), ("r", "y"), ("x", "z")),
    )
    return build(facts, "r", 10)


class TestMergedView:
    def test_grouped_by_depth_sorted_by_id(self):
        graph = small_graph()
        report = dense_report("full", (mk("x", 4, 4), mk("y", 4, 2)))
        view = merge_with_callgraph(report, graph)
        assert [(e.node.depth, e.node.id, e.status) for e in view.entries()] == [
            (0, "r", "uncovered"), (1, "x", "covered"), (1, "y", "partial"), (2, "z", "uncovered")
        ]

    def test_unmatched_hits_reported(self):
        report = dense_report("full", (mk("stranger", 2, 1),))
        view = merge_with_callgraph(report, small_graph())
        assert view.unmatched_hits == ("stranger",)

    def test_toylib_view_covers_all_nodes(self, graph):
        view = merge_with_callgraph(dense_report("full"), graph)
        assert [e.node.id for e in view.entries()] == sorted(
            graph.nodes, key=lambda mid: (graph.nodes[mid].depth, mid)
        )
        assert all(e.status == "uncovered" for e in view.entries())


class TestPercent:
    def test_hand_summed(self):
        report = dense_report("full", (mk("a", 10, 4, 4, 2), mk("b", 10, 6, 6, 1)))
        # oracle by hand: (4+6)/(10+10), (2+1)/(4+6)
        assert float(coverage_percent(report, "line")) == pytest.approx(50.0, rel=1e-9)
        assert float(coverage_percent(report, "branch")) == pytest.approx(30.0, rel=1e-9)

    def test_zero_denominator_flag(self):
        pct = coverage_percent(dense_report("full"))
        assert type(pct) is float and pct == 0.0

    def test_unknown_metric(self):
        with pytest.raises(EngineError):
            coverage_percent(dense_report("full"), "statements")

    def test_view_matches_report(self):
        graph = small_graph()
        report = dense_report("full", (mk("x", 8, 3), mk("z", 2, 2)))
        view = merge_with_callgraph(report, graph)
        assert float(coverage_percent(view)) == pytest.approx(
            float(coverage_percent(report)), rel=1e-9
        )

    @given(
        counters=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda t: t[1] <= t[0]),
            max_size=10,
        )
    )
    def test_percent_in_range_and_monotone(self, counters):
        methods = tuple(mk(f"m{i}", lt, lc) for i, (lt, lc) in enumerate(counters))
        pct = coverage_percent(dense_report("full", methods))
        assert 0.0 <= pct <= 100.0
        # bumping one covered counter never lowers the percentage
        for i, m in enumerate(methods):
            if m.lines_covered < m.lines_total:
                bumped = methods[:i] + (mk(m.id, m.lines_total, m.lines_covered + 1),) + methods[i + 1 :]
                assert coverage_percent(dense_report("full", bumped)) >= pct
                break


class TestDiff:
    def _views(self, prev_methods, curr_methods):
        graph = small_graph()
        prev = merge_with_callgraph(dense_report("full", prev_methods), graph)
        curr = merge_with_callgraph(dense_report("full", curr_methods), graph)
        return prev, curr

    def test_newly_covered_and_delta(self):
        prev, curr = self._views((mk("x", 4, 2),), (mk("x", 4, 4), mk("z", 2, 2)))
        diff = diff_views(prev, curr)
        assert diff.newly_covered == ("x", "z")
        assert diff.regressed == ()
        assert diff.delta_percent == pytest.approx(100.0 * 6 / 6 - 100.0 * 2 / 4, rel=1e-9)

    def test_regression_detected(self):
        prev, curr = self._views((mk("x", 4, 4),), (mk("x", 4, 1),))
        diff = diff_views(prev, curr)
        assert diff.regressed == ("x",) and diff.newly_covered == ()
        assert diff.delta_percent < 0

    def test_mismatched_node_sets(self, graph):
        prev = merge_with_callgraph(dense_report("full"), small_graph())
        curr = merge_with_callgraph(dense_report("full"), graph)
        with pytest.raises(EngineError) as exc:
            diff_views(prev, curr)
        assert exc.value.code == "BAD_ARGS"

    def test_identical_views_empty_diff(self):
        prev, curr = self._views((mk("x", 4, 4),), (mk("x", 4, 4),))
        diff = diff_views(prev, curr)
        assert diff.newly_covered == () and diff.regressed == ()
        assert diff.delta_percent == pytest.approx(0.0, abs=1e-12)


def old_apply_recording_windows(trace: RecordingTrace, warn=None) -> CoverageReport:
    """The per-method set-of-sets filter with a generator window test, as it was
    before the one-pass version; the reference for the equivalence test."""
    hits = {mid: {"line_hit": set(), "branch_hit": set()} for mid in trace.method_totals}
    dropped = 0
    for mid, kind, ts, lines in trace.events.runs:
        for line in lines:
            if mid not in hits:
                dropped += 1
                if warn is not None:
                    warn(f"dropping event for unknown method {mid}")
                continue
            if any(start <= ts <= end for start, end in trace.windows):
                hits[mid][kind].add(line)
    methods = tuple(
        MethodCoverage(
            id=mid,
            lines_total=totals[0],
            lines_covered=min(totals[0], len(hits[mid]["line_hit"])),
            branches_total=totals[1],
            branches_covered=min(totals[1], len(hits[mid]["branch_hit"])),
        )
        for mid, totals in sorted(trace.method_totals.items())
    )
    return dense_report("method_targeted", methods, dropped_events=dropped)


@st.composite
def traces(draw):
    """Ordered windows, some touching at an endpoint; single-line runs on and
    near their bounds; unknown methods, repeated sites, sites past the
    totals, zero totals."""
    windows = []
    start = float(draw(st.integers(0, 5)))
    for _ in range(draw(st.integers(0, 4))):
        end = start + draw(st.integers(0, 6))
        windows.append((start, end))
        start = end + draw(st.sampled_from([0, 0, 1, 3]))  # 0: the next window touches
    bounds = [t for w in windows for t in w]
    timestamp = st.one_of(
        st.sampled_from(bounds or [0.0]),
        st.integers(-2, 40).map(float),
        st.floats(-2.0, 40.0, allow_nan=False),
    )
    totals = draw(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.tuples(st.integers(0, 4), st.integers(0, 3)),
            max_size=4,
        )
    )
    run = st.builds(
        TraceRun,
        method_id=st.sampled_from(["a", "b", "c", "d", "ghost"]),
        kind=st.sampled_from(["line_hit", "branch_hit"]),
        timestamp=timestamp,
        lines=st.integers(0, 7).map(lambda line: (line,)),
    )
    return run_trace(draw(st.lists(run, max_size=60)), totals, tuple(windows))


@st.composite
def run_traces(draw):
    """Traces shaped like the sandbox's: runs of lines sharing method, kind
    and timestamp, with repeated lines, runs of unknown methods,
    runs on and off the window bounds, and runs of an unknown kind that lie
    outside every window or belong to an unknown method."""
    windows = []
    start = float(draw(st.integers(0, 5)))
    for _ in range(draw(st.integers(0, 3))):
        end = start + draw(st.integers(0, 6))
        windows.append((start, end))
        start = end + draw(st.sampled_from([0, 1, 3]))
    bounds = [t for w in windows for t in w]
    totals = draw(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.tuples(st.integers(0, 6), st.integers(0, 4)),
            max_size=3,
        )
    )
    runs = []
    for _ in range(draw(st.integers(0, 12))):
        mid = draw(st.sampled_from(["a", "b", "c", "ghost"]))
        kind = draw(st.sampled_from(["line_hit", "branch_hit", "stmt_hit"]))
        if kind == "stmt_hit" and mid != "ghost":
            ts = -1.0  # before every window
        else:
            ts = draw(st.one_of(st.sampled_from(bounds or [0.0]), st.integers(-2, 30).map(float)))
        lines = draw(
            st.one_of(
                st.integers(0, 8).map(lambda k: list(range(1, k + 1))),
                st.lists(st.integers(0, 7), min_size=1, max_size=10),
            )
        )
        runs.append(TraceRun(mid, kind, ts, tuple(lines)))
    return run_trace(runs, totals, tuple(windows))


class TestWindowsEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(trace=traces())
    def test_matches_old_filter(self, trace):
        warned: list[str] = []
        old_warned: list[str] = []
        report = apply_recording_windows(trace, warn=warned.append)
        assert report == old_apply_recording_windows(trace, warn=old_warned.append)
        assert warned == old_warned
        assert len(warned) == report.dropped_events

    @settings(max_examples=300, deadline=None)
    @given(trace=run_traces())
    def test_matches_old_filter_on_runs(self, trace):
        warned: list[str] = []
        old_warned: list[str] = []
        report = apply_recording_windows(trace, warn=warned.append)
        assert report == old_apply_recording_windows(trace, warn=old_warned.append)
        assert warned == old_warned
        assert len(warned) == report.dropped_events

    @settings(max_examples=300, deadline=None)
    @given(trace=traces())
    def test_full_scope_counts_every_event_whatever_the_windows(self, trace):
        stamps = [ts for _, _, ts, _ in trace.events.runs] or [0.0]
        covering = replace(trace, windows=((min(stamps), max(stamps)),))
        warned: list[str] = []
        covered_warned: list[str] = []
        report = apply_recording_windows(trace, warn=warned.append, scope="full")
        assert report == apply_recording_windows(
            covering, warn=covered_warned.append, scope="full"
        )
        assert warned == covered_warned

    def test_unknown_kind_in_window_fails_as_before(self):
        trace = run_trace((TraceRun("a", "stmt_hit", 150.0, (1,)),), {"a": (2, 2)})
        for apply in (apply_recording_windows, old_apply_recording_windows):
            with pytest.raises(KeyError):
                apply(trace)

    def test_unknown_kind_outside_windows_is_ignored_as_before(self):
        trace = run_trace(
            (TraceRun("a", "stmt_hit", 50.0, (1,)), TraceRun("a", "line_hit", 150.0, (1,))),
            {"a": (2, 2)},
        )
        assert apply_recording_windows(trace) == old_apply_recording_windows(trace)
        assert apply_recording_windows(trace).by_id()["a"].lines_covered == 1


@st.composite
def run_sets(draw):
    """(runs, windows, totals): runs of known and unknown methods, of unknown
    kinds in and out of the windows, with repeated, out-of-total and no
    lines, given as ranges or tuples; no windows, or windows that touch or
    hold a single instant."""
    windows = []
    start = float(draw(st.integers(0, 5)))
    for _ in range(draw(st.integers(0, 3))):
        end = start + draw(st.integers(0, 6))
        windows.append((start, end))
        start = end + draw(st.sampled_from([0, 1, 3]))
    bounds = [t for w in windows for t in w]
    totals = draw(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.tuples(st.integers(0, 6), st.integers(0, 4)),
            max_size=3,
        )
    )
    run = st.builds(
        TraceRun,
        method_id=st.sampled_from(["a", "b", "c", "ghost"]),
        kind=st.sampled_from(["line_hit", "branch_hit", "stmt_hit"]),
        timestamp=st.one_of(st.sampled_from(bounds or [0.0]), st.integers(-2, 30).map(float)),
        lines=st.one_of(
            st.builds(range, st.integers(0, 3), st.integers(0, 9)),
            st.lists(st.integers(0, 9), max_size=10).map(tuple),
        ),
    )
    return draw(st.lists(run, max_size=12)), tuple(windows), totals


def outcome(apply, trace):
    """The report and warnings of `apply` on `trace`, or KeyError."""
    warned: list[str] = []
    try:
        return apply(trace, warn=warned.append), warned
    except KeyError:
        return KeyError


class TestRunEvents:
    @settings(max_examples=300, deadline=None)
    @given(case=run_sets())
    def test_runs_match_the_reference_filter(self, case):
        runs, windows, totals = case
        events = RunEvents(runs)
        assert len(events) == sum(len(run.lines) for run in runs)
        assert events.runs == tuple(run for run in runs if run.lines)
        trace = RecordingTrace(events=events, windows=windows, method_totals=totals)
        assert outcome(apply_recording_windows, trace) == outcome(old_apply_recording_windows, trace)


def old_diff_views(prev: AnnotatedCoverageView, curr: AnnotatedCoverageView) -> ViewDiff:
    """`diff_views` as it was before it built each status dict once."""
    if prev.root != curr.root or prev.graph.nodes.keys() != curr.graph.nodes.keys():
        raise EngineError("BAD_ARGS", "views cover different node sets")
    prev_status = {e.node.id: e.status for e in prev.entries()}
    curr_status = {e.node.id: e.status for e in curr.entries()}
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
    delta = coverage_percent(curr, "line") - coverage_percent(prev, "line")
    return ViewDiff(newly_covered=newly, regressed=regressed, delta_percent=delta)


@st.composite
def view_pairs(draw):
    """Two views of one random graph, from random reports (stray ids included)."""
    n = draw(st.integers(1, 12))
    ids = [f"m{i}" for i in range(n)]
    calls = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n))
    # a spanning chain keeps every node reachable from m0
    facts = CallFacts(methods={i: f"C.{i}" for i in ids}, calls=tuple(zip(ids, ids[1:])) + tuple(calls))
    graph = build(facts, "m0", 20)

    def report():
        picked = draw(st.lists(st.sampled_from(ids + ["stray"]), unique=True))
        methods = []
        for mid in picked:
            lines, branches = draw(st.integers(0, 4)), draw(st.integers(0, 3))
            methods.append(
                mk(mid, lines, draw(st.integers(0, lines)), branches, draw(st.integers(0, branches)))
            )
        return dense_report("method_targeted", methods)

    return merge_with_callgraph(report(), graph), merge_with_callgraph(report(), graph)


class TestDiffEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(views=view_pairs())
    def test_matches_old_diff(self, views):
        prev, curr = views
        assert diff_views(prev, curr) == old_diff_views(prev, curr)
        assert diff_views(curr, prev) == old_diff_views(curr, prev)

    def test_bad_args_as_before(self, graph):
        def view(calls, root):
            facts = CallFacts(methods={"r": "C.r", "x": "C.x", "y": "C.y"}, calls=calls)
            return merge_with_callgraph(dense_report("full"), build(facts, root, 5))

        cycle = (("r", "x"), ("x", "r"))
        pair = view((("r", "x"),), "r")
        small = merge_with_callgraph(dense_report("full"), small_graph())
        toylib = merge_with_callgraph(dense_report("full"), graph)
        cases = [
            (view(cycle, "r"), view(cycle, "x")),  # same nodes under another root
            (pair, view((("r", "y"),), "r")),  # same root and size, other nodes
            (small, toylib),  # disjoint
            (small, pair),  # a subset, either way
            (pair, small),
        ]
        for prev, curr in cases:
            for diff in (diff_views, old_diff_views):
                with pytest.raises(EngineError) as exc:
                    diff(prev, curr)
                assert exc.value.code == "BAD_ARGS"


# -- the sparse report and view against the dense code they replaced ---------------


@dataclass(frozen=True)
class OldView:
    """`AnnotatedCoverageView` as it was before it held only the hits."""

    root: str
    groups: dict

    def entries(self):
        return [e for depth in sorted(self.groups) for e in self.groups[depth]]

    def node_ids(self):
        return {e.node.id for e in self.entries()}


def old_merge_with_callgraph(report: CoverageReport, graph) -> OldView:
    """The merge that built one entry per node; the reference for the sparse one."""
    by_id = report.by_id()
    groups: dict = {}
    for node in graph.nodes.values():
        counters = by_id.get(node.id)
        groups.setdefault(node.depth, []).append(
            ViewEntry(node=node, status=classify(counters), counters=counters)
        )
    return OldView(
        root=graph.root,
        groups={
            depth: tuple(sorted(entries, key=lambda e: e.node.id))
            for depth, entries in groups.items()
        },
    )


def old_coverage_percent(view_or_report, metric="line") -> float:
    """`coverage_percent` summing every entry or every method, as it was."""
    if isinstance(view_or_report, OldView):
        counters = [e.counters for e in view_or_report.entries() if e.counters is not None]
    else:
        counters = list(view_or_report.by_id().values())
    if metric == "line":
        total = sum(c.lines_total for c in counters)
        covered = sum(c.lines_covered for c in counters)
    else:
        total = sum(c.branches_total for c in counters)
        covered = sum(c.branches_covered for c in counters)
    if total == 0:
        return 0.0
    return 100.0 * covered / total


def old_diff_of_old_views(prev: OldView, curr: OldView) -> ViewDiff:
    """`diff_views` over two whole status dicts, as it was."""
    prev_status = {e.node.id: e.status for e in prev.entries()}
    curr_status = {e.node.id: e.status for e in curr.entries()}
    if prev.root != curr.root or prev_status.keys() != curr_status.keys():
        raise EngineError("BAD_ARGS", "views cover different node sets")
    newly = tuple(sorted(
        mid for mid, status in curr_status.items()
        if status == STATUS_COVERED and prev_status[mid] != STATUS_COVERED
    ))
    regressed = tuple(sorted(
        mid for mid, status in prev_status.items()
        if status == STATUS_COVERED and curr_status[mid] != STATUS_COVERED
    ))
    delta = old_coverage_percent(curr) - old_coverage_percent(prev)
    return ViewDiff(newly_covered=newly, regressed=regressed, delta_percent=delta)


_OLD_STATUS_ORDER = {"uncovered": 0, "partial": 1, "covered": 2}


def _old_entry_line(entry) -> str:
    c = entry.counters
    lc, lt = (c.lines_covered, c.lines_total) if c else (0, 0)
    bc, bt = (c.branches_covered, c.branches_total) if c else (0, 0)
    return f"{entry.status} {entry.node.id} lines {lc}/{lt} branches {bc}/{bt}"


def _old_count_line(depth, counts) -> str:
    return (
        f"... {sum(counts.values())} more at depth {depth}: {counts['uncovered']} uncovered, "
        f"{counts['partial']} partial, {counts['covered']} covered"
    )


def old_render_annotated_view(view: OldView, budget: int = 8000) -> str:
    """`render_annotated_view` sorting and formatting every entry, as it was."""
    groups = [
        (depth, sorted(view.groups[depth], key=lambda e: (_OLD_STATUS_ORDER[e.status], e.node.id)))
        for depth in sorted(view.groups)
    ]
    full: list[str] = []
    size = -1
    for depth, entries in groups:
        block = [f"## depth {depth}", *map(_old_entry_line, entries)]
        size += sum(map(len, block)) + len(block)
        if size > budget:
            break
        full += block
    else:
        return "\n".join(full)
    counts = [Counter(e.status for e in entries) for _, entries in groups]
    owed = [0] * (len(groups) + 1)
    for k in range(len(groups) - 1, -1, -1):
        depth = groups[k][0]
        owed[k] = len(f"## depth {depth}") + len(_old_count_line(depth, counts[k])) + 2 + owed[k + 1]
    cut = owed[0] - 1 > budget
    lines: list[str] = []
    used = 0
    for k, (depth, entries) in enumerate(groups):
        lines.append(f"## depth {depth}")
        used += len(lines[-1]) + 1
        left = counts[k]
        for i, entry in enumerate(entries):
            line = _old_entry_line(entry)
            left[entry.status] -= 1
            rest = len(_old_count_line(depth, left)) + 1 if i + 1 < len(entries) else 0
            if cut or used + len(line) + rest + owed[k + 1] > budget:
                left[entry.status] += 1
                lines.append(_old_count_line(depth, left))
                cut = True
                break
            lines.append(line)
            used += len(line) + 1
    return "\n".join(lines)


def counters_for(draw, mid, totals=None):
    """Random counters for `mid`, within `totals` when given; zero totals are common."""
    if totals is None:
        totals = (draw(st.integers(0, 5)), draw(st.integers(0, 3)))
    lines, branches = totals
    return mk(mid, lines, draw(st.integers(0, lines)), branches, draw(st.integers(0, branches)))


@st.composite
def graph_and_reports(draw):
    """A random graph and three reports over it: two over one shared totals
    table, and one over a table made from its own methods' totals. Tables
    miss some nodes and hold ids outside the graph."""
    n = draw(st.integers(1, 14))
    ids = [f"m{i:02d}" for i in range(n)]
    calls = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n))
    facts = CallFacts(
        methods={i: f"C.{i}" for i in ids}, calls=tuple(zip(ids, ids[1:])) + tuple(calls)
    )
    graph = build(facts, "m00", draw(st.integers(1, 6)))  # a low limit leaves methods outside
    known = ids + ["stray1", "stray2"]
    table = {
        mid: (draw(st.integers(0, 5)), draw(st.integers(0, 3)))
        for mid in draw(st.lists(st.sampled_from(known), unique=True))
    }

    def sparse():
        hit = draw(st.lists(st.sampled_from(sorted(table) or ["-"]), unique=True))
        methods = [counters_for(draw, mid, table[mid]) for mid in hit if mid in table]
        return CoverageReport("method_targeted", table, hits(*methods))

    dense = dense_report(
        "method_targeted",
        [counters_for(draw, mid) for mid in draw(st.lists(st.sampled_from(known), unique=True))],
    )
    return graph, [sparse(), sparse(), dense]


def unmatched_hit_oracle(report, graph):
    return sorted(
        m.id for m in report.by_id().values()
        if (m.lines_covered or m.branches_covered) and m.id not in graph.nodes
    )


class TestSparseEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(case=graph_and_reports())
    def test_merge_and_percent_match_old(self, case):
        graph, reports = case
        for report in reports + reports[::-1]:  # the graph meets each table more than once
            view, old = merge_with_callgraph(report, graph), old_merge_with_callgraph(report, graph)
            assert view.root == old.root
            assert view.entries() == old.entries()
            assert view.graph.nodes.keys() == old.node_ids()
            assert list(view.unmatched_hits) == unmatched_hit_oracle(report, graph)
            for entry in old.entries():
                assert view.hit_status.get(entry.node.id, "uncovered") == entry.status
            for metric in ("line", "branch"):
                assert coverage_percent(view, metric) == old_coverage_percent(old, metric)
                assert coverage_percent(report, metric) == old_coverage_percent(report, metric)

    @settings(max_examples=300, deadline=None)
    @given(case=graph_and_reports())
    def test_diff_matches_old(self, case):
        graph, reports = case
        for prev in reports:
            for curr in reports:
                assert diff_views(
                    merge_with_callgraph(prev, graph), merge_with_callgraph(curr, graph)
                ) == old_diff_of_old_views(
                    old_merge_with_callgraph(prev, graph), old_merge_with_callgraph(curr, graph)
                )

    @settings(max_examples=300, deadline=None)
    @given(case=graph_and_reports(), data=st.data())
    def test_render_matches_old(self, case, data):
        graph, reports = case
        report = data.draw(st.sampled_from(reports))
        view, old = merge_with_callgraph(report, graph), old_merge_with_callgraph(report, graph)
        full = old_render_annotated_view(old, 10**9)
        # from below the header-and-count skeleton to past the whole view
        for budget in (data.draw(st.integers(0, len(full) + 10)), 0, len(full), len(full) - 1, 8000):
            assert render_annotated_view(view, budget) == old_render_annotated_view(old, budget)


class TestSparseReport:
    TOTALS = {"a": (4, 2), "b": (3, 0), "c": (0, 0)}

    def test_dense_and_sparse_with_the_same_counters_are_equal(self):
        """A report over a table made from its methods' own totals equals the
        one with the same counters over an equal shared table."""
        sparse = CoverageReport("full", self.TOTALS, hits(mk("a", 4, 2, 2, 0)))
        dense = dense_report("full", [mk("a", 4, 2, 2, 0), mk("b", 3), mk("c")])
        assert sparse == dense
        assert dense.hits == {"a": mk("a", 4, 2, 2, 0)}
        assert sparse.by_id()["b"] == mk("b", 3) and sparse.by_id()["c"] == mk("c")
        assert CoverageReport("full", self.TOTALS, hits(mk("a", 4, 3, 2, 0))) != dense
        assert CoverageReport("method_targeted", self.TOTALS, hits(mk("a", 4, 2, 2, 0))) != dense
        assert CoverageReport("full", {"a": (4, 2)}, hits(mk("a", 4, 2, 2, 0))) != dense

    def test_windows_keep_the_traces_table_and_only_hit_methods(self):
        trace = run_trace(
            (TraceRun("a", "branch_hit", 150.0, (1,)), TraceRun("b", "line_hit", 50.0, (1,))),
            self.TOTALS,
        )
        report = apply_recording_windows(trace, scope="method_targeted", campaign_seconds=3.0)
        assert report.totals is self.TOTALS
        assert list(report.hits) == ["a"]
        assert (report.scope, report.campaign_seconds) == ("method_targeted", 3.0)

    def test_merge_sums_each_table_once_per_graph(self):
        graph = small_graph()
        table = {"r": (4, 0), "x": (2, 0)}
        merge_with_callgraph(CoverageReport("full", table, hits(mk("x", 2, 1))), graph)
        kept = graph.coverage_totals
        view = merge_with_callgraph(CoverageReport("full", table, hits(mk("x", 2, 2))), graph)
        assert graph.coverage_totals is kept
        assert view.lines == (2, 6)
        other = merge_with_callgraph(dense_report("full", [mk("r", 4, 4)]), graph)
        assert graph.coverage_totals is not kept
        assert other.lines == (4, 4)

    def test_sparse_file_without_its_totals_file(self, tmp_path):
        report = CoverageReport("full", self.TOTALS, hits(mk("a", 4, 1, 2, 0)))
        path = tmp_path / "r0.json"
        path.write_text(json.dumps(report.to_json("totals.json")))
        with pytest.raises(EngineError) as exc:
            CoverageReport.load(path)
        assert exc.value.code == "IO"
