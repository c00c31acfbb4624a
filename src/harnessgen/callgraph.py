"""Depth-limited static callgraph rooted at the target method.

Call facts come from an external extractor as a JSON file; the engine
builds a breadth-first graph where node depth is the shortest call
distance from the root, then answers reachability and path queries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .errors import EngineError, json_input

DEFAULT_DEPTH_LIMIT = 10


@dataclass(frozen=True)
class CallFacts:
    methods: dict[str, str]  # method id -> enclosing class
    calls: tuple[tuple[str, str], ...]  # deduplicated (caller, callee)


class CallGraphNode(NamedTuple):
    id: str
    signature: str
    enclosing_class: str
    depth: int


@dataclass
class CallGraph:
    root: str
    depth_limit: int
    nodes: dict[str, CallGraphNode] = field(default_factory=dict)
    # sorted adjacency between the nodes, and the node ids of each depth in
    # id order, filled once by build(); do not mutate
    succ: dict[str, tuple[str, ...]] = field(default_factory=dict)
    pred: dict[str, tuple[str, ...]] = field(default_factory=dict)
    by_depth: dict[int, tuple[str, ...]] = field(default_factory=dict)
    # (totals table, lines, branches) of the nodes in the table, summed and
    # kept by coverage.merge_with_callgraph
    coverage_totals: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def edges(self) -> set[tuple[str, str]]:
        """Every in-graph call, made on first use; the engine walks `succ`."""
        return {(frm, to) for frm, callees in self.succ.items() for to in callees}

    def successors(self, node_id: str) -> tuple[str, ...]:
        return self.succ.get(node_id, ())


def load_facts(path: str | Path) -> CallFacts:
    with json_input(path, "call facts file") as raw:
        entries = raw.get("methods", [])
        methods = {entry["id"]: entry.get("class", "") for entry in entries}
        # each id's one string: the decoder makes a new one per occurrence, and
        # the calls, the graph's edges and its adjacency would keep them all
        ids = {entry["id"]: entry["id"] for entry in entries}
        try:
            calls = [(ids[frm], ids[to]) for frm, to in raw.get("calls", [])]
        except KeyError as exc:
            raise EngineError("PARSE", f"call references unknown method id: {exc.args[0]}") from None
    # dict.fromkeys drops the repeats and keeps the first-seen order
    return CallFacts(methods=methods, calls=tuple(dict.fromkeys(calls)))


def build(facts: CallFacts, root: str, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> CallGraph:
    if root not in facts.methods:
        raise EngineError("NOT_FOUND", f"unknown root method: {root}")
    if depth_limit < 1:
        raise EngineError("BAD_ARGS", "depth_limit must be positive")
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
    graph = CallGraph(root=root, depth_limit=depth_limit)
    methods = facts.methods
    graph.nodes = {
        mid: CallGraphNode(mid, mid.rpartition(".")[2] or mid, methods[mid], d)
        for mid, d in depths.items()
    }
    # the search meets the depths in order: the last node met is the deepest
    deepest = next(reversed(depths.values()))
    by_depth: dict[int, list[str]] = {d: [] for d in range(deepest + 1)}
    pred: dict[str, list[str]] = {}
    succ = graph.succ
    # One pass over the nodes by id yields each node's callees, each depth's
    # ids and each callee's callers already in id order: no edge is sorted.
    for frm in sorted(depths):
        by_depth[depths[frm]].append(frm)
        callees = sorted({to for to in adjacency.get(frm, ()) if to in depths})
        if callees:
            succ[frm] = tuple(callees)
            for to in callees:
                pred.setdefault(to, []).append(frm)
    # tuples of strings, which the cycle collector stops tracking
    graph.pred = {to: tuple(callers) for to, callers in pred.items()}
    graph.by_depth = {d: tuple(ids) for d, ids in by_depth.items()}
    return graph


def reach_methods(graph: CallGraph, from_id: str, max_depth: int) -> list[dict]:
    if from_id not in graph.nodes:
        raise EngineError("NOT_FOUND", f"method not in callgraph: {from_id}")
    if max_depth < 1:
        raise EngineError("BAD_ARGS", "max_depth must be positive")
    rel = {from_id: 0}
    queue = deque([from_id])
    while queue:
        current = queue.popleft()
        if rel[current] >= max_depth:
            continue
        for callee in graph.successors(current):
            if callee not in rel:
                rel[callee] = rel[current] + 1
                queue.append(callee)
    return [
        {"id": node_id, "relative_depth": depth}
        for node_id, depth in sorted(rel.items(), key=lambda kv: (kv[1], kv[0]))
    ]


def path_to_method(graph: CallGraph, target: str) -> list[str]:
    """Shortest root-to-target path; ties broken lexicographically.

    A node's depth is its distance from the root, so a shortest path
    steps one depth deeper per call: only predecessors one depth
    shallower are walked back from the target, and the cost is the nodes
    on shortest paths, not every ancestor.
    """
    if target not in graph.nodes:
        raise EngineError("NOT_FOUND", f"method not in callgraph: {target}")
    nodes = graph.nodes
    # every node on some shortest root-to-target path
    on_path = {target}
    layer = [target]
    while layer:
        above = []
        for current in layer:
            depth = nodes[current].depth - 1
            for caller in graph.pred.get(current, ()):
                if caller not in on_path and nodes[caller].depth == depth:
                    on_path.add(caller)
                    above.append(caller)
        layer = above
    # walk forward, always taking the smallest id that stays on a shortest
    # path; every node on one but the target has such a successor
    path = [graph.root]
    current = graph.root
    while current != target:
        depth = nodes[current].depth + 1
        for nxt in graph.successors(current):
            if nxt in on_path and nodes[nxt].depth == depth:
                break
        path.append(nxt)
        current = nxt
    return path
