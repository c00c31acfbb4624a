from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnessgen.callgraph import CallFacts, build
from harnessgen.coverage import (
    STATUS_COVERED,
    AnnotatedCoverageView,
    CoverageReport,
    MethodCoverage,
    RecordingTrace,
    TraceEvent,
    ViewDiff,
    apply_recording_windows,
    classify,
    coverage_percent,
    diff_views,
    merge_with_callgraph,
)
from harnessgen.errors import EngineError


def mk(mid, lt=0, lc=0, bt=0, bc=0):
    return MethodCoverage(mid, lines_total=lt, lines_covered=lc, branches_total=bt, branches_covered=bc)


class TestCounters:
    def test_covered_cannot_exceed_total(self):
        with pytest.raises(EngineError) as exc:
            mk("m", lt=3, lc=4)
        assert exc.value.code == "BAD_ARGS"

    def test_negative_rejected(self):
        with pytest.raises(EngineError):
            MethodCoverage("m", lines_total=-1, lines_covered=-1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(EngineError):
            CoverageReport(scope="full", methods=(mk("m"), mk("m")))

    def test_json_round_trip(self, tmp_path):
        report = CoverageReport(
            scope="full",
            methods=(mk("a", 10, 4, 2, 1), mk("b", 5, 5)),
            campaign_seconds=12.5,
            dropped_events=3,
        )
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(report.to_json()))
        loaded = CoverageReport.load(path)
        assert loaded.scope == report.scope
        assert loaded.methods == report.methods
        assert loaded.campaign_seconds == 12.5
        assert loaded.dropped_events == 3


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


class TestWindows:
    TOTALS = {"a": (10, 4), "b": (6, 2)}

    def test_only_in_window_events_count(self):
        events = (
            TraceEvent("a", 1, "line_hit", 50.0),    # before window
            TraceEvent("a", 1, "line_hit", 150.0),   # inside
            TraceEvent("a", 2, "line_hit", 150.0),   # inside
            TraceEvent("a", 2, "line_hit", 151.0),   # duplicate site
            TraceEvent("a", 3, "line_hit", 250.0),   # after window
            TraceEvent("b", 1, "branch_hit", 160.0), # inside
        )
        trace = RecordingTrace(events=events, windows=((100.0, 200.0),), method_totals=self.TOTALS)
        report = apply_recording_windows(trace)
        by_id = report.by_id()
        assert by_id["a"].lines_covered == 2
        assert by_id["b"].branches_covered == 1 and by_id["b"].lines_covered == 0
        assert report.scope == "method_targeted"

    def test_window_edges_inclusive(self):
        events = (
            TraceEvent("a", 1, "line_hit", 100.0),
            TraceEvent("a", 2, "line_hit", 200.0),
        )
        trace = RecordingTrace(events=events, windows=((100.0, 200.0),), method_totals=self.TOTALS)
        assert apply_recording_windows(trace).by_id()["a"].lines_covered == 2

    def test_unknown_method_dropped_and_warned(self):
        warnings: list[str] = []
        trace = RecordingTrace(
            events=(TraceEvent("ghost", 1, "line_hit", 150.0),),
            windows=((100.0, 200.0),),
            method_totals=self.TOTALS,
        )
        report = apply_recording_windows(trace, warn=warnings.append)
        assert report.dropped_events == 1
        assert warnings and "ghost" in warnings[0]

    def test_covered_capped_at_total(self):
        events = tuple(TraceEvent("b", line, "line_hit", 150.0) for line in range(1, 20))
        trace = RecordingTrace(events=events, windows=((100.0, 200.0),), method_totals=self.TOTALS)
        assert apply_recording_windows(trace).by_id()["b"].lines_covered == 6

    def test_overlapping_windows_rejected(self):
        with pytest.raises(EngineError) as exc:
            RecordingTrace(events=(), windows=((0.0, 10.0), (5.0, 20.0)), method_totals={})
        assert exc.value.code == "BAD_ARGS"

    def test_reversed_window_rejected(self):
        with pytest.raises(EngineError):
            RecordingTrace(events=(), windows=((10.0, 5.0),), method_totals={})

    @pytest.mark.parametrize("seed", range(20))
    def test_random_traces_match_filter_oracle(self, seed):
        rng = random.Random(seed)
        totals = {f"m{i}": (rng.randint(1, 12), rng.randint(0, 6)) for i in range(5)}
        windows = ((10.0, 20.0), (40.0, 60.0))
        events = tuple(
            TraceEvent(
                method_id=rng.choice(list(totals)),
                line=rng.randint(1, 15),
                kind=rng.choice(["line_hit", "branch_hit"]),
                timestamp=rng.uniform(0.0, 80.0),
            )
            for _ in range(rng.randint(0, 120))
        )
        report = apply_recording_windows(
            RecordingTrace(events=events, windows=windows, method_totals=totals)
        )
        # oracle: plain set comprehension over the raw event list
        for mid, (lt, bt) in totals.items():
            lines = {
                e.line
                for e in events
                if e.method_id == mid
                and e.kind == "line_hit"
                and any(s <= e.timestamp <= t for s, t in windows)
            }
            branches = {
                e.line
                for e in events
                if e.method_id == mid
                and e.kind == "branch_hit"
                and any(s <= e.timestamp <= t for s, t in windows)
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
        report = CoverageReport(scope="full", methods=(mk("x", 4, 4), mk("y", 4, 2)))
        view = merge_with_callgraph(report, graph)
        assert sorted(view.groups) == [0, 1, 2]
        assert [e.node.id for e in view.groups[1]] == ["x", "y"]
        assert view.status_of("x") == "covered"
        assert view.status_of("y") == "partial"
        assert view.status_of("r") == "uncovered" and view.status_of("z") == "uncovered"

    def test_unmatched_ids_reported(self):
        report = CoverageReport(scope="full", methods=(mk("stranger", 2, 1),))
        view = merge_with_callgraph(report, small_graph())
        assert view.unmatched_ids == ("stranger",)

    def test_toylib_view_covers_all_nodes(self, graph):
        view = merge_with_callgraph(CoverageReport(scope="full"), graph)
        assert view.node_ids() == set(graph.nodes)
        assert all(e.status == "uncovered" for e in view.entries())


class TestPercent:
    def test_hand_summed(self):
        report = CoverageReport(
            scope="full", methods=(mk("a", 10, 4, 4, 2), mk("b", 10, 6, 6, 1))
        )
        # oracle by hand: (4+6)/(10+10), (2+1)/(4+6)
        assert float(coverage_percent(report, "line")) == pytest.approx(50.0, rel=1e-9)
        assert float(coverage_percent(report, "branch")) == pytest.approx(30.0, rel=1e-9)

    def test_zero_denominator_flag(self):
        pct = coverage_percent(CoverageReport(scope="full"))
        assert pct.value == 0.0 and pct.zero_denominator

    def test_unknown_metric(self):
        with pytest.raises(EngineError):
            coverage_percent(CoverageReport(scope="full"), "statements")

    def test_view_matches_report(self):
        graph = small_graph()
        report = CoverageReport(scope="full", methods=(mk("x", 8, 3), mk("z", 2, 2)))
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
        pct = coverage_percent(CoverageReport(scope="full", methods=methods))
        assert 0.0 <= pct.value <= 100.0
        # bumping one covered counter never lowers the percentage
        for i, m in enumerate(methods):
            if m.lines_covered < m.lines_total:
                bumped = methods[:i] + (mk(m.id, m.lines_total, m.lines_covered + 1),) + methods[i + 1 :]
                assert coverage_percent(CoverageReport(scope="full", methods=bumped)).value >= pct.value
                break


class TestDiff:
    def _views(self, prev_methods, curr_methods):
        graph = small_graph()
        prev = merge_with_callgraph(CoverageReport(scope="full", methods=prev_methods), graph)
        curr = merge_with_callgraph(CoverageReport(scope="full", methods=curr_methods), graph)
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
        prev = merge_with_callgraph(CoverageReport(scope="full"), small_graph())
        curr = merge_with_callgraph(CoverageReport(scope="full"), graph)
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
    for event in trace.events:
        if event.method_id not in hits:
            dropped += 1
            if warn is not None:
                warn(f"dropping event for unknown method {event.method_id}")
            continue
        if any(start <= event.timestamp <= end for start, end in trace.windows):
            hits[event.method_id][event.kind].add(event.line)
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
    return CoverageReport(scope="method_targeted", methods=methods, dropped_events=dropped)


@st.composite
def traces(draw):
    """Ordered windows, some touching at an endpoint; events on and near their
    bounds; unknown methods, repeated sites, sites past the totals, zero totals."""
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
    event = st.builds(
        TraceEvent,
        method_id=st.sampled_from(["a", "b", "c", "d", "ghost"]),
        line=st.integers(0, 7),
        kind=st.sampled_from(["line_hit", "branch_hit"]),
        timestamp=timestamp,
    )
    events = draw(st.lists(event, max_size=60))
    return RecordingTrace(events=tuple(events), windows=tuple(windows), method_totals=totals)


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

    def test_unknown_kind_in_window_fails_as_before(self):
        trace = RecordingTrace(
            events=(TraceEvent("a", 1, "stmt_hit", 150.0),),
            windows=((100.0, 200.0),),
            method_totals={"a": (2, 2)},
        )
        for apply in (apply_recording_windows, old_apply_recording_windows):
            with pytest.raises(KeyError):
                apply(trace)

    def test_unknown_kind_outside_windows_is_ignored_as_before(self):
        trace = RecordingTrace(
            events=(TraceEvent("a", 1, "stmt_hit", 50.0), TraceEvent("a", 1, "line_hit", 150.0)),
            windows=((100.0, 200.0),),
            method_totals={"a": (2, 2)},
        )
        assert apply_recording_windows(trace) == old_apply_recording_windows(trace)
        assert apply_recording_windows(trace).by_id()["a"].lines_covered == 1


def old_diff_views(prev: AnnotatedCoverageView, curr: AnnotatedCoverageView) -> ViewDiff:
    """`diff_views` as it was before it built each status dict once."""
    if prev.root != curr.root or prev.node_ids() != curr.node_ids():
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
    delta = coverage_percent(curr, "line").value - coverage_percent(prev, "line").value
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
        return CoverageReport(scope="method_targeted", methods=tuple(methods))

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
            return merge_with_callgraph(CoverageReport(scope="full"), build(facts, root, 5))

        cycle = (("r", "x"), ("x", "r"))
        pair = view((("r", "x"),), "r")
        small = merge_with_callgraph(CoverageReport(scope="full"), small_graph())
        toylib = merge_with_callgraph(CoverageReport(scope="full"), graph)
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
