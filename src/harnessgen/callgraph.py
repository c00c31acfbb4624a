"""Depth-limited static callgraph rooted at the target method.

Call facts come from an external extractor as a JSON file; the engine
builds a breadth-first graph where node depth is the shortest call
distance from the root, then answers reachability and path queries.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EngineError

DEFAULT_DEPTH_LIMIT = 10
LARGE_LIBRARY_DEPTH_LIMIT = 5


@dataclass(frozen=True)
class CallFacts:
    methods: dict[str, str]  # method id -> enclosing class
    calls: tuple[tuple[str, str], ...]  # deduplicated (caller, callee)


@dataclass(frozen=True)
class CallGraphNode:
    id: str
    signature: str
    enclosing_class: str
    depth: int


@dataclass
class CallGraph:
    root: str
    depth_limit: int
    nodes: dict[str, CallGraphNode] = field(default_factory=dict)
    edges: set[tuple[str, str]] = field(default_factory=set)
    # sorted adjacency over `edges`, and the node ids of each depth in id
    # order, filled once by build(); do not mutate
    succ: dict[str, list[str]] = field(default_factory=dict)
    pred: dict[str, list[str]] = field(default_factory=dict)
    by_depth: dict[int, list[str]] = field(default_factory=dict)
    # (totals table, lines, branches) of the nodes in the table, summed and
    # kept by coverage.merge_with_callgraph
    coverage_totals: tuple | None = field(default=None, repr=False, compare=False)

    def successors(self, node_id: str) -> list[str]:
        return self.succ.get(node_id, [])


def load_facts(path: str | Path) -> CallFacts:
    path = Path(path)
    if not path.is_file():
        raise EngineError("IO", f"call facts file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise EngineError("PARSE", f"{path}: {exc}") from exc
    methods: dict[str, str] = {}
    # each id's one string: the decoder makes a new one per occurrence, and
    # the calls, the graph's edges and its adjacency would keep them all
    ids: dict[str, str] = {}
    for entry in raw.get("methods", []):
        methods[entry["id"]] = entry.get("class", "")
        ids[entry["id"]] = entry["id"]
    calls: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for frm, to in raw.get("calls", []):
        try:
            pair = (ids[frm], ids[to])
        except KeyError as exc:
            raise EngineError("PARSE", f"call references unknown method id: {exc.args[0]}") from None
        if pair not in seen:
            seen.add(pair)
            calls.append(pair)
    return CallFacts(methods=methods, calls=tuple(calls))


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
    for method_id, depth in depths.items():
        graph.nodes[method_id] = CallGraphNode(
            id=method_id,
            signature=method_id.rpartition(".")[2] or method_id,
            enclosing_class=facts.methods[method_id],
            depth=depth,
        )
        graph.by_depth.setdefault(depth, []).append(method_id)
    for ids in graph.by_depth.values():
        ids.sort()
    graph.edges = {
        (frm, to) for frm, to in facts.calls if frm in depths and to in depths
    }
    for frm, to in sorted(graph.edges):
        graph.succ.setdefault(frm, []).append(to)
        graph.pred.setdefault(to, []).append(frm)
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
