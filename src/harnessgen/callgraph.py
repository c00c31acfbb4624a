"""Depth-limited static callgraph rooted at the target method.

Call facts come from an external extractor as a JSON file; the engine
builds a breadth-first graph where node depth is the shortest call
distance from the root, then answers reachability and path queries.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .errors import EngineError, json_input


@dataclass(frozen=True)
class CallFacts:
    methods: dict[str, str]  # method id -> itself, the one string the calls share
    calls: tuple[tuple[str, str], ...]  # deduplicated (caller, callee)


class CallGraphNode(NamedTuple):
    id: str
    depth: int


@dataclass
class CallGraph:
    root: str
    nodes: dict[str, CallGraphNode] = field(default_factory=dict)
    # sorted adjacency between the nodes, the node ids of each depth in id
    # order, and each node but the root's caller on its smallest shortest
    # path from the root, filled once by build(); do not mutate
    succ: dict[str, tuple[str, ...]] = field(default_factory=dict)
    by_depth: dict[int, tuple[str, ...]] = field(default_factory=dict)
    parent: dict[str, str] = field(default_factory=dict)
    # (totals table, lines, branches) of the nodes in the table, summed and
    # kept by coverage.merge_with_callgraph
    coverage_totals: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def edges(self) -> set[tuple[str, str]]:
        """Every in-graph call, made on first use; the engine walks `succ`."""
        return {(frm, to) for frm, callees in self.succ.items() for to in callees}


def load_facts(path: str | Path) -> CallFacts:
    with json_input(path, "call facts file") as raw:
        # each id's one string: the decoder makes a new one per occurrence, and
        # the calls, the graph's edges and its adjacency would keep them all
        ids = {entry["id"]: entry["id"] for entry in raw.get("methods", [])}
        for mid in ids:
            if not isinstance(mid, str) or not mid:
                raise EngineError("PARSE", f"{path}: method id must be a non-empty string: {mid!r}")
        try:
            calls = [(ids[frm], ids[to]) for frm, to in raw.get("calls", [])]
        except KeyError as exc:
            raise EngineError(
                "PARSE", f"{path}: call references unknown method id: {exc.args[0]}"
            ) from None
    # dict.fromkeys drops the repeats and keeps the first-seen order
    return CallFacts(methods=ids, calls=tuple(dict.fromkeys(calls)))


def _walk(succ: Mapping, start: str, limit: int) -> dict[str, tuple[int, str | None]]:
    """Breadth-first from `start`, at most `limit` calls deep: each method
    met, in the order met, with its distance and the caller it was first
    met from (None for `start`)."""
    met: dict[str, tuple[int, str | None]] = {start: (0, None)}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        depth = met[current][0] + 1
        if depth > limit:
            break  # every method still queued is as deep
        for callee in succ.get(current, ()):
            if callee not in met:
                met[callee] = (depth, current)
                queue.append(callee)
    return met


def build(facts: CallFacts, root: str, depth_limit: int) -> CallGraph:
    if root not in facts.methods:
        raise EngineError("NOT_FOUND", f"unknown root method: {root}")
    if depth_limit < 1:
        raise EngineError("BAD_ARGS", "depth_limit must be positive")
    adjacency: dict[str, list[str]] = {}
    for frm, to in facts.calls:
        adjacency.setdefault(frm, []).append(to)
    depths = {mid: depth for mid, (depth, _) in _walk(adjacency, root, depth_limit).items()}
    graph = CallGraph(root, {mid: CallGraphNode(mid, d) for mid, d in depths.items()})
    # the walk meets the depths in order: the last node met is the deepest
    deepest = next(reversed(depths.values()))
    by_depth: dict[int, list[str]] = {d: [] for d in range(deepest + 1)}
    succ = graph.succ
    # One pass over the nodes by id yields each node's callees and each
    # depth's ids already in id order: no edge is sorted.
    for frm in sorted(depths):
        by_depth[depths[frm]].append(frm)
        callees = sorted({to for to in adjacency.get(frm, ()) if to in depths})
        if callees:
            succ[frm] = tuple(callees)
    # tuples of strings, which the cycle collector stops tracking
    graph.by_depth = {d: tuple(ids) for d, ids in by_depth.items()}
    # Taking callees in id order, the walk meets each depth's nodes in the
    # order of their smallest shortest paths, so each node is first met from
    # the caller that ends its own.
    walk = _walk(succ, root, depth_limit)
    graph.parent = {mid: caller for mid, (_, caller) in walk.items() if caller is not None}
    return graph


def reach_methods(graph: CallGraph, from_id: str, max_depth: int) -> list[dict]:
    if from_id not in graph.nodes:
        raise EngineError("NOT_FOUND", f"method not in callgraph: {from_id}")
    if max_depth < 1:
        raise EngineError("BAD_ARGS", "max_depth must be positive")
    reached = _walk(graph.succ, from_id, max_depth)
    return [
        {"id": node_id, "relative_depth": depth}
        for depth, node_id in sorted((depth, node_id) for node_id, (depth, _) in reached.items())
    ]


def path_to_method(graph: CallGraph, target: str) -> list[str]:
    """Shortest root-to-target path; among equals, the one whose ids are
    smallest in order."""
    if target not in graph.nodes:
        raise EngineError("NOT_FOUND", f"method not in callgraph: {target}")
    path = [target]
    while path[-1] in graph.parent:
        path.append(graph.parent[path[-1]])
    return path[::-1]
