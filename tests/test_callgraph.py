from __future__ import annotations

import json
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnessgen.callgraph import (
    CallFacts,
    CallGraph,
    CallGraphNode,
    build,
    load_facts,
    path_to_method,
    reach_methods,
)
from harnessgen.errors import EngineError


def facts_from(methods: list[str], calls: list[tuple[str, str]]) -> CallFacts:
    return CallFacts(methods={m: m for m in methods}, calls=tuple(calls))


def oracle_depths(methods, calls, root, limit):
    """Naive level-by-level expansion, independent of the engine's BFS."""
    adjacency = {}
    for frm, to in calls:
        adjacency.setdefault(frm, set()).add(to)
    depths = {root: 0}
    frontier = {root}
    for level in range(1, limit + 1):
        nxt = set()
        for node in frontier:
            for callee in adjacency.get(node, ()):
                if callee not in depths:
                    depths[callee] = level
                    nxt.add(callee)
        frontier = nxt
    return depths


class TestLoadFacts:
    def test_counts(self, tmp_path):
        payload = {
            "methods": [{"id": "a", "class": "A"}, {"id": "b", "class": "B"}, {"id": "c", "class": "C"}],
            "calls": [["a", "b"], ["b", "c"]],
        }
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(payload))
        facts = load_facts(path)
        assert len(facts.methods) == 3 and len(facts.calls) == 2

    def test_calls_share_the_method_id_strings(self, tmp_path):
        ids = ["pkg.Alpha.run(String)", "pkg.Beta.stop(int)", "pkg.Gamma.wait()"]
        payload = {
            "methods": [{"id": mid, "class": mid.rsplit(".", 1)[0]} for mid in ids],
            "calls": [[ids[0], ids[1]], [ids[1], ids[2]], [ids[2], ids[0]]],
        }
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(payload))
        facts = load_facts(path)
        own = {mid: mid for mid in facts.methods}
        assert all(frm is own[frm] and to is own[to] for frm, to in facts.calls)

    def test_unknown_call_end_rejected(self, tmp_path):
        payload = {"methods": [{"id": "a", "class": "A"}], "calls": [["a", "ghost"]]}
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(EngineError) as exc:
            load_facts(path)
        assert exc.value.code == "PARSE" and "ghost" in exc.value.message

    def test_duplicate_call_deduplicated(self, tmp_path):
        payload = {
            "methods": [{"id": "a", "class": "A"}, {"id": "b", "class": "B"}],
            "calls": [["a", "b"], ["a", "b"]],
        }
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(payload))
        assert load_facts(path).calls == (("a", "b"),)

    def test_dangling_id(self, tmp_path):
        payload = {"methods": [{"id": "a", "class": "A"}], "calls": [["a", "ghost"]]}
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(EngineError) as exc:
            load_facts(path)
        assert exc.value.code == "PARSE" and "ghost" in exc.value.message


class TestBuild:
    def test_chain_depths(self):
        facts = facts_from(["A", "B", "C"], [("A", "B"), ("B", "C")])
        graph = build(facts, "A", 2)
        assert {n.id: n.depth for n in graph.nodes.values()} == {"A": 0, "B": 1, "C": 2}

    def test_limit_excludes_deep_nodes(self):
        facts = facts_from(["A", "B", "C"], [("A", "B"), ("B", "C")])
        graph = build(facts, "A", 1)
        assert set(graph.nodes) == {"A", "B"}
        assert all(frm in graph.nodes and to in graph.nodes for frm, to in graph.edges)

    def test_diamond_shortest_depth(self):
        facts = facts_from(
            ["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        )
        graph = build(facts, "A", 10)
        assert graph.nodes["D"].depth == 2
        assert len(graph.nodes) == 4

    def test_unknown_root(self):
        with pytest.raises(EngineError) as exc:
            build(facts_from(["A"], []), "Z", 5)
        assert exc.value.code == "NOT_FOUND"

    def test_cycles_terminate(self):
        facts = facts_from(["A", "B"], [("A", "B"), ("B", "A")])
        graph = build(facts, "A", 10)
        assert graph.nodes["B"].depth == 1

    def test_deterministic(self):
        facts = facts_from(
            ["A", "B", "C", "D"], [("A", "C"), ("A", "B"), ("C", "D"), ("B", "D")]
        )
        g1, g2 = build(facts, "A", 3), build(facts, "A", 3)
        assert {n.id: n.depth for n in g1.nodes.values()} == {
            n.id: n.depth for n in g2.nodes.values()
        }
        assert g1.edges == g2.edges


class TestReach:
    def test_from_root_everything(self, graph):
        reached = reach_methods(graph, graph.root, 10)
        assert {r["id"] for r in reached} == set(graph.nodes)

    def test_leaf_only_itself(self, graph):
        leaf = "toylib.Token.text()"
        assert reach_methods(graph, leaf, 5) == [{"id": leaf, "relative_depth": 0}]

    def test_unknown_node(self, graph):
        with pytest.raises(EngineError):
            reach_methods(graph, "nope", 3)


class TestPath:
    def test_root_path(self, graph):
        assert path_to_method(graph, graph.root) == [graph.root]

    def test_diamond_lexicographic_tiebreak(self):
        facts = facts_from(
            ["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        )
        graph = build(facts, "A", 10)
        assert path_to_method(graph, "D") == ["A", "B", "D"]

    def test_path_length_matches_depth(self, graph):
        for node in graph.nodes.values():
            assert len(path_to_method(graph, node.id)) - 1 == node.depth


def random_instance(rng: random.Random):
    n_nodes = rng.randint(2, 50)
    methods = [f"m{i:02d}" for i in range(n_nodes)]
    n_edges = rng.randint(1, 150)
    calls = list(
        {
            (rng.choice(methods), rng.choice(methods))
            for _ in range(n_edges)
        }
    )
    return methods, sorted(calls)


@pytest.mark.parametrize("seed", range(40))
def test_random_digraphs_match_oracle(seed):
    rng = random.Random(seed)
    methods, calls = random_instance(rng)
    root = methods[0]
    for limit in (1, 3, 5, 10):
        graph = build(facts_from(methods, calls), root, limit)
        expected = oracle_depths(methods, calls, root, limit)
        assert {n.id: n.depth for n in graph.nodes.values()} == expected
        # mid-graph reachability against a brute-force scan
        probe = sorted(graph.nodes)[len(graph.nodes) // 2]
        reached = reach_methods(graph, probe, limit)
        edges_in_graph = [(f, t) for f, t in calls if f in expected and t in expected]
        oracle = oracle_depths(list(expected), edges_in_graph, probe, limit)
        assert {r["id"]: r["relative_depth"] for r in reached} == oracle
        # path length equals depth for every node
        for node in graph.nodes.values():
            assert len(path_to_method(graph, node.id)) - 1 == node.depth


@st.composite
def small_graphs(draw):
    n_nodes = draw(st.integers(1, 30))
    methods = [f"m{i:02d}" for i in range(n_nodes)]
    edge = st.tuples(st.sampled_from(methods), st.sampled_from(methods))
    # at least one call per method on average, so ties between shortest paths are common
    calls = draw(st.lists(edge, min_size=n_nodes, max_size=2 * n_nodes, unique=True))
    root = draw(st.sampled_from(methods))
    return methods, calls, root


def smallest_shortest_path(methods, calls, root, target):
    """Every shortest root-to-target path, enumerated; the smallest one.

    The i-th node of a shortest path is i calls from the root, so only
    such steps are taken.
    """
    depths = oracle_depths(methods, calls, root, len(methods))
    paths = [[root]]
    for _ in range(depths[target]):
        paths = [
            p + [to] for p in paths for frm, to in calls if frm == p[-1] and depths[to] == len(p)
        ]
    return min(p for p in paths if p[-1] == target)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(1, 30), st.integers(1, 30), st.data())
def test_queries_match_brute_force(instance, limit, max_depth, data):
    methods, calls, root = instance
    graph = build(facts_from(methods, calls), root, limit)
    in_graph = sorted(oracle_depths(methods, calls, root, limit))
    inner = [(f, t) for f, t in calls if f in in_graph and t in in_graph]
    probe = data.draw(st.sampled_from(in_graph))
    reached = oracle_depths(in_graph, inner, probe, max_depth)
    assert reach_methods(graph, probe, max_depth) == [
        {"id": node, "relative_depth": depth}
        for node, depth in sorted(reached.items(), key=lambda kv: (kv[1], kv[0]))
    ]
    for target in in_graph:
        assert path_to_method(graph, target) == smallest_shortest_path(methods, calls, root, target)


def old_load_facts(raw: dict, path: Path) -> CallFacts:
    """`load_facts` after decoding the file at `path`, as it was before it
    built the pairs in one comprehension and dropped repeats with
    `dict.fromkeys`."""
    ids: dict[str, str] = {}
    for entry in raw.get("methods", []):
        ids[entry["id"]] = entry["id"]
    calls: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for frm, to in raw.get("calls", []):
        try:
            pair = (ids[frm], ids[to])
        except KeyError as exc:
            raise EngineError(
                "PARSE", f"{path}: call references unknown method id: {exc.args[0]}"
            ) from None
        if pair not in seen:
            seen.add(pair)
            calls.append(pair)
    return CallFacts(methods=ids, calls=tuple(calls))


def old_build(facts: CallFacts, root: str, depth_limit: int) -> CallGraph:
    """`build` as it was before it took the nodes once in id order instead
    of sorting every edge."""
    adjacency: dict[str, list[str]] = {}
    for frm, to in facts.calls:
        adjacency.setdefault(frm, []).append(to)
    depths = {root: 0}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        if depths[current] >= depth_limit:
            continue
        for callee in adjacency.get(current, []):
            if callee not in depths:
                depths[callee] = depths[current] + 1
                queue.append(callee)
    graph = CallGraph(root=root)
    for method_id, depth in depths.items():
        graph.nodes[method_id] = CallGraphNode(id=method_id, depth=depth)
        graph.by_depth.setdefault(depth, []).append(method_id)
    for ids in graph.by_depth.values():
        ids.sort()
    graph.edges = {(frm, to) for frm, to in facts.calls if frm in depths and to in depths}
    for frm, to in sorted(graph.edges):
        graph.succ.setdefault(frm, []).append(to)
    return graph


@st.composite
def raw_facts(draw):
    """Decoded facts: ids with dots or without, a repeated method entry,
    repeated calls, self-calls, cycles, methods no call reaches, and at
    times a call to an unknown id."""
    n = draw(st.integers(1, 25))
    methods = [draw(st.sampled_from(("p.C.", "p.D.", ""))) + f"m{i:02d}()" for i in range(n)]
    entries = [{"id": m, "class": m.rpartition(".")[0]} for m in methods]
    if draw(st.booleans()):
        entries.append({"id": draw(st.sampled_from(methods)), "class": "Again"})
    edge = st.tuples(st.sampled_from(methods), st.sampled_from(methods)).map(list)
    calls = draw(st.lists(edge, max_size=3 * n))
    calls += draw(st.lists(st.sampled_from(calls), max_size=n)) if calls else []
    calls = draw(st.permutations(calls))
    if draw(st.integers(0, 9)) == 0:
        calls.insert(draw(st.integers(0, len(calls))), [methods[0], "ghost.m()"])
    return {"methods": entries, "calls": calls}


def as_sequences(mapping: dict) -> list:
    return [(key, list(values)) for key, values in mapping.items()]


class TestLinearBuildEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(raw=raw_facts(), limit=st.integers(1, 4), data=st.data())
    def test_matches_old_load_and_build(self, tmp_path_factory, raw, limit, data):
        path = tmp_path_factory.mktemp("facts") / "facts.json"
        path.write_text(json.dumps(raw))
        try:
            expected = old_load_facts(json.loads(path.read_text()), path)
        except EngineError as exc:
            with pytest.raises(EngineError) as got:
                load_facts(path)
            assert (got.value.code, got.value.message) == (exc.code, exc.message)
            return
        facts = load_facts(path)
        assert list(facts.methods.items()) == list(expected.methods.items())
        assert facts.calls == expected.calls
        root = data.draw(st.sampled_from(sorted(facts.methods)))
        graph, old = build(facts, root, limit), old_build(expected, root, limit)
        assert list(graph.nodes.items()) == list(old.nodes.items())
        assert graph.edges == old.edges  # a set: equal members, no order to compare
        for name in ("succ", "by_depth"):
            assert as_sequences(getattr(graph, name)) == as_sequences(getattr(old, name)), name
            assert all(type(v) is tuple for v in getattr(graph, name).values()), name
