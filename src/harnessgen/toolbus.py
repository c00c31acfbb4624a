"""Tool registry and dispatcher with per-agent-role access control.

Sixteen tools across four categories (docs, code, callgraph, exec) are
registered against backing services. Each agent role sees a fixed access
level per tool; dispatch enforces the matrix and always returns a
ToolResponse, never raises past the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping, NamedTuple

from . import callgraph
from .errors import EngineError

DEFAULT_RESPONSE_BUDGET = 8000

Scalar = str | int | float | bool
# a declared parameter type -> the types that satisfy it; a bool satisfies none
_ARG_TYPES = {"string": (str,), "integer": (int,), "number": (int, float)}


class AgentRole(str, Enum):
    RSH = "RSH"  # research
    GEN = "GEN"  # generation
    PAT = "PAT"  # patching
    CVA = "CVA"  # coverage analysis
    REF = "REF"  # refinement


class AccessLevel(str, Enum):
    ALLOWED = "allowed"
    DENIED = "denied"
    STATIC_ONLY = "static_only"  # reserved for the orchestrator, not queryable


@dataclass(frozen=True)
class ToolDescriptor:
    name: str
    category: str  # docs | code | callgraph | exec
    param_schema: Mapping[str, Mapping[str, Any]]  # param -> {"type", "required"}
    description: str

    def json_schema(self) -> dict[str, Any]:
        """The function schema a model is offered: a parameter's type is
        `string` and it is required unless its spec says otherwise."""
        params = self.param_schema.items()
        return {
            "name": self.name,
            "description": self.description,
            "parameters": {
                "type": "object",
                "properties": {name: {"type": spec.get("type", "string")} for name, spec in params},
                "required": [name for name, spec in params if spec.get("required", True)],
            },
        }


@dataclass(frozen=True)
class ToolRequest:
    tool: str
    args: Mapping[str, Scalar] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        return {"tool": self.tool, "args": dict(self.args)}

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "ToolRequest":
        """A call as a script or a model sends it: ValueError unless a str tool, dict args."""
        tool, args = payload["tool"], payload.get("args", {})
        if not (isinstance(tool, str) and isinstance(args, dict)):
            raise ValueError(f"tool call needs a str tool and dict args: {tool!r}, {args!r}")
        return cls(tool=tool, args=dict(args))


@dataclass(frozen=True)
class ToolResponse:
    ok: bool
    content: str = ""
    truncated: bool = False
    error_code: str | None = None
    error_message: str | None = None

    def to_wire(self) -> dict[str, Any]:
        if self.ok:
            return {"ok": True, "content": self.content, "truncated": self.truncated}
        return {"ok": False, "error": {"code": self.error_code, "message": self.error_message}}


def _error(code: str, message: str) -> ToolResponse:
    return ToolResponse(ok=False, error_code=code, error_message=message)


# Per-tool access rows for the non-uniform tools; docs/code tools are
# allowed for every role, and a role a row does not name is denied.
_RESTRICTED_ACCESS: dict[str, dict[AgentRole, AccessLevel]] = {
    "reach_methods": {AgentRole.CVA: AccessLevel.STATIC_ONLY},
    "path_to_method": {AgentRole.CVA: AccessLevel.ALLOWED},
    "compile": {AgentRole.PAT: AccessLevel.STATIC_ONLY},
    "fuzz": {AgentRole.CVA: AccessLevel.STATIC_ONLY},
}


class _Tool(NamedTuple):
    descriptor: ToolDescriptor
    handler: Callable[..., str] | None
    access: dict[AgentRole, AccessLevel]
    params: dict[str, Any]  # the descriptor's json_schema() parameters


class ToolRegistry:
    """Immutable-after-construction registry of tools plus ACL."""

    def __init__(self, response_budget: int = DEFAULT_RESPONSE_BUDGET) -> None:
        self._tools: dict[str, _Tool] = {}
        self.response_budget = response_budget

    def register(self, descriptor: ToolDescriptor, handler: Callable[..., str] | None) -> None:
        """Add a tool with its access row; one that no role may call needs no handler."""
        name = descriptor.name
        if name in self._tools:
            raise EngineError("CONFIG", f"tool already registered: {name}")
        restricted = _RESTRICTED_ACCESS.get(name, {})
        row = {
            role: AccessLevel.ALLOWED if descriptor.category in ("docs", "code")
            else restricted.get(role, AccessLevel.DENIED)
            for role in AgentRole
        }
        self._tools[name] = _Tool(descriptor, handler, row, descriptor.json_schema()["parameters"])

    @property
    def descriptors(self) -> list[ToolDescriptor]:
        return [tool.descriptor for tool in self._tools.values()]

    def check_access(self, role: AgentRole, tool: str) -> AccessLevel:
        if tool not in self._tools:
            raise EngineError("NOT_FOUND", f"unknown tool: {tool}")
        return self._tools[tool].access[role]

    def list_tools(self, role: AgentRole) -> list[ToolDescriptor]:
        """The tools a role is offered: those it may call."""
        return [
            t.descriptor for t in self._tools.values() if t.access[role] is AccessLevel.ALLOWED
        ]

    def dispatch(self, role: AgentRole, request: ToolRequest) -> ToolResponse:
        """Execute a tool request for a role; errors come back as responses."""
        try:
            tool = self._tools.get(request.tool)
            if tool is None:
                return _error("NOT_FOUND", f"unknown tool: {request.tool}")
            level = tool.access[role]
            if level is AccessLevel.DENIED:
                return _error("ACCESS_DENIED", f"{role.value} may not use {request.tool}")
            if level is AccessLevel.STATIC_ONLY:
                return _error(
                    "NOT_QUERYABLE",
                    f"{request.tool} is invoked by the orchestrator, not queryable",
                )
            problem = self._validate_args(tool.params, request.args)
            if problem:
                return _error("BAD_ARGS", problem)
            return self._truncate(tool.handler(**dict(request.args)))
        except EngineError as exc:
            return _error(exc.code, exc.message)
        except Exception as exc:  # backend failures become observations
            return _error("BACKEND_ERROR", f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _validate_args(params: Mapping[str, Any], args: Mapping[str, Scalar]) -> str | None:
        """What is wrong with `args` against a tool's `json_schema()` parameters, or None."""
        for name in params["required"]:
            if name not in args:
                return f"missing required argument: {name}"
        for name, value in args.items():
            spec = params["properties"].get(name)
            if spec is None:
                return f"unexpected argument: {name}"
            if type(value) not in _ARG_TYPES[spec["type"]]:
                return f"argument {name} must be of type {spec['type']}: {value!r}"
        return None

    def _truncate(self, content: str) -> ToolResponse:
        if len(content) <= self.response_budget:
            return ToolResponse(ok=True, content=content)
        cut = content.rfind("\n", 0, self.response_budget)
        if cut <= 0:
            cut = self.response_budget
        return ToolResponse(ok=True, content=content[:cut], truncated=True)


def _param(name: str, required: bool = True, type_: str = "string") -> dict[str, dict[str, Any]]:
    return {name: {"type": type_, "required": required}}


def register_default_tools(registry: ToolRegistry, docs_index, code_index, graph) -> ToolRegistry:
    """Register the standard 16 tools against the docs, code and callgraph
    services. No role may call `reach_methods`, `compile` or `fuzz`, so they
    have no handler: the orchestrator runs `compile` and `fuzz` through its
    adapter, and `reach_methods` is registered to complete the access table."""
    cap = _param("max_results", False, "integer")  # the four searches share it
    tools = [
        ("method_doc", "docs", _param("qualifier"), "Documentation for a method signature",
         lambda qualifier: docs_index.query_doc("method", qualifier)),
        ("class_doc", "docs", _param("qualifier"), "Documentation for a class",
         lambda qualifier: docs_index.query_doc("class", qualifier)),
        ("package_doc", "docs", _param("qualifier"), "Documentation for a package",
         lambda qualifier: docs_index.query_doc("package", qualifier)),
        ("list_packages", "docs", {}, "List all documented packages",
         lambda: "\n".join(docs_index.list_entities("packages"))),
        ("list_classes", "docs", _param("package"), "List classes in a package",
         lambda package: "\n".join(docs_index.list_entities("classes", package))),
        ("list_methods", "docs", _param("class_name"), "List method signatures of a class",
         lambda class_name: "\n".join(docs_index.list_entities("methods", class_name))),
        ("get_method_code", "code", _param("qualifier"), "Source snippet of a method",
         lambda qualifier: code_index.get_code("method", qualifier)),
        ("get_class_code", "code", _param("qualifier"), "Source snippet of a class",
         lambda qualifier: code_index.get_code("class", qualifier)),
        ("find_definition", "code", {**_param("symbol"), **cap}, "Declaration sites of a symbol",
         lambda symbol, max_results=20: code_index.render_search("definition", symbol, max_results)),
        ("find_refs", "code", {**_param("symbol"), **cap},
         "References to a symbol outside its declaration",
         lambda symbol, max_results=20: code_index.render_search("refs", symbol, max_results)),
        ("grep", "code", {**_param("pattern"), **cap}, "Search source lines by literal or regex",
         lambda pattern, max_results=20: code_index.render_search("text", pattern, max_results)),
        ("find_symbol", "code", {**_param("name"), **cap}, "Symbols whose name contains the query",
         lambda name, max_results=20: code_index.render_search("symbol", name, max_results)),
        ("reach_methods", "callgraph",
         {**_param("from_id"), **_param("max_depth", False, "integer")},
         "Methods reachable from a node within a depth bound", None),
        ("path_to_method", "callgraph", _param("target"),
         "Shortest call path from the root to a method",
         lambda target: " -> ".join(callgraph.path_to_method(graph, target))),
        ("compile", "exec", _param("harness"), "Compile a harness (orchestrator-invoked)", None),
        ("fuzz", "exec", {**_param("harness"), **_param("duration_seconds", True, "number")},
         "Run a fuzzing campaign (orchestrator-invoked)", None),
    ]
    for name, category, schema, description, handler in tools:
        registry.register(ToolDescriptor(name, category, schema, description), handler)
    return registry
