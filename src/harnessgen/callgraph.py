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
    # sorted adjacency over `edges`, filled once by build(); do not mutate
    succ: dict[str, list[str]] = field(default_factory=dict)
    pred: dict[str, list[str]] = field(default_factory=dict)

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
    for entry in raw.get("methods", []):
        methods[entry["id"]] = entry.get("class", "")
    calls: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for frm, to in raw.get("calls", []):
        for end in (frm, to):
            if end not in methods:
                raise EngineError("PARSE", f"call references unknown method id: {end}")
        pair = (frm, to)
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
    """Shortest root-to-target path; ties broken lexicographically."""
    if target not in graph.nodes:
        raise EngineError("NOT_FOUND", f"method not in callgraph: {target}")
    # distance of every node to the target along graph edges
    dist_to_target = {target: 0}
    queue = deque([target])
    while queue:
        current = queue.popleft()
        for caller in graph.pred.get(current, []):
            if caller not in dist_to_target:
                dist_to_target[caller] = dist_to_target[current] + 1
                queue.append(caller)
    if graph.root not in dist_to_target:
        raise EngineError("NOT_FOUND", f"no path from root to {target}")
    # walk forward, always taking the smallest id that stays on a shortest path
    path = [graph.root]
    current = graph.root
    while current != target:
        remaining = dist_to_target[current]
        nxt = min(
            s
            for s in graph.successors(current)
            if dist_to_target.get(s, -1) == remaining - 1
        )
        path.append(nxt)
        current = nxt
    return path

