from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harnessgen.errors import EngineError
from harnessgen.toolbus import (
    AccessLevel,
    AgentRole,
    ToolDescriptor,
    ToolRegistry,
    ToolRequest,
)

DOCS_TOOLS = ["method_doc", "class_doc", "package_doc", "list_packages", "list_classes", "list_methods"]
CODE_TOOLS = ["get_method_code", "get_class_code", "find_definition", "find_refs", "grep", "find_symbol"]
CG_TOOLS = ["reach_methods", "path_to_method"]
EXEC_TOOLS = ["compile", "fuzz"]
ALL_TOOLS = DOCS_TOOLS + CODE_TOOLS + CG_TOOLS + EXEC_TOOLS


def expected_access(tool: str, role: AgentRole) -> AccessLevel:
    """The published availability matrix, written out independently."""
    if tool in DOCS_TOOLS or tool in CODE_TOOLS:
        return AccessLevel.ALLOWED
    if tool == "reach_methods":
        return AccessLevel.STATIC_ONLY if role is AgentRole.CVA else AccessLevel.DENIED
    if tool == "path_to_method":
        return AccessLevel.ALLOWED if role is AgentRole.CVA else AccessLevel.DENIED
    if tool == "compile":
        return AccessLevel.STATIC_ONLY if role is AgentRole.PAT else AccessLevel.DENIED
    if tool == "fuzz":
        return AccessLevel.STATIC_ONLY if role is AgentRole.CVA else AccessLevel.DENIED
    raise AssertionError(tool)


class TestRegistration:
    def test_default_registration_has_16_tools(self, registry):
        names = [d.name for d in registry.descriptors]
        assert sorted(names) == sorted(ALL_TOOLS)
        by_category: dict[str, int] = {}
        for d in registry.descriptors:
            by_category[d.category] = by_category.get(d.category, 0) + 1
        assert by_category == {"docs": 6, "code": 6, "callgraph": 2, "exec": 2}

    def test_json_schema_defaults_to_a_required_string(self):
        schema = {"pattern": {}, "max_results": {"type": "integer", "required": False}}
        assert ToolDescriptor("grep", "code", schema, "Search").json_schema() == {
            "name": "grep",
            "description": "Search",
            "parameters": {
                "type": "object",
                "properties": {"pattern": {"type": "string"}, "max_results": {"type": "integer"}},
                "required": ["pattern"],
            },
        }

    def test_duplicate_registration_rejected(self, registry):
        dup = ToolDescriptor("grep", "code", {}, "again")
        with pytest.raises(EngineError) as exc:
            registry.register(dup, lambda: "")
        assert exc.value.code == "CONFIG"


class TestAccessMatrix:
    def test_full_matrix_golden(self, registry):
        for tool in ALL_TOOLS:
            for role in AgentRole:
                assert registry.check_access(role, tool) is expected_access(tool, role), (
                    role,
                    tool,
                )

    def test_spot_checks(self, registry):
        assert registry.check_access(AgentRole.CVA, "path_to_method") is AccessLevel.ALLOWED
        assert registry.check_access(AgentRole.RSH, "reach_methods") is AccessLevel.DENIED
        assert registry.check_access(AgentRole.GEN, "method_doc") is AccessLevel.ALLOWED
        assert registry.check_access(AgentRole.PAT, "compile") is AccessLevel.STATIC_ONLY

    def test_unknown_tool(self, registry):
        with pytest.raises(EngineError) as exc:
            registry.check_access(AgentRole.RSH, "nope")
        assert exc.value.code == "NOT_FOUND"

    def test_list_tools_hides_denied(self, registry):
        rsh_names = {d.name for d in registry.list_tools(AgentRole.RSH)}
        assert rsh_names == set(DOCS_TOOLS + CODE_TOOLS)
        cva_names = {d.name for d in registry.list_tools(AgentRole.CVA)}
        assert cva_names == set(DOCS_TOOLS + CODE_TOOLS + ["path_to_method"])

    def test_offered_tools_are_the_callable_ones(self, registry):
        """A role is offered exactly the tools it may call; a static-only or
        denied tool has no handler and is refused as it always was."""
        for role in AgentRole:
            offered = [d.name for d in registry.list_tools(role)]
            assert offered == [
                t for t in ALL_TOOLS if expected_access(t, role) is AccessLevel.ALLOWED
            ], role
            for tool in ("reach_methods", "compile", "fuzz"):
                static = expected_access(tool, role) is AccessLevel.STATIC_ONLY
                response = registry.dispatch(role, ToolRequest(tool, {}))
                assert response.error_code == ("NOT_QUERYABLE" if static else "ACCESS_DENIED")


class TestDispatch:
    def test_allowed_lookup_succeeds(self, registry):
        response = registry.dispatch(
            AgentRole.RSH, ToolRequest("class_doc", {"qualifier": "ArgParser"})
        )
        assert response.ok
        assert "Token-based command line parser" in response.content

    def test_static_only_not_queryable(self, registry):
        response = registry.dispatch(AgentRole.REF, ToolRequest("fuzz", {}))
        assert not response.ok
        assert response.error_code == "ACCESS_DENIED"
        response = registry.dispatch(
            AgentRole.CVA, ToolRequest("fuzz", {"harness": "x", "duration_seconds": 1})
        )
        assert response.error_code == "NOT_QUERYABLE"

    def test_denied(self, registry):
        response = registry.dispatch(AgentRole.RSH, ToolRequest("path_to_method", {"target": "x"}))
        assert response.error_code == "ACCESS_DENIED"

    def test_missing_arg_is_bad_args(self, registry):
        response = registry.dispatch(AgentRole.GEN, ToolRequest("grep", {}))
        assert response.error_code == "BAD_ARGS"

    @pytest.mark.parametrize(
        "tool, args, declared",
        [
            ("find_definition", {"symbol": "parse", "max_results": "abc"}, "integer"),
            ("find_definition", {"symbol": "parse", "max_results": 2.9}, "integer"),
            ("find_definition", {"symbol": "parse", "max_results": True}, "integer"),
            ("grep", {"pattern": "parse", "max_results": None}, "integer"),
            ("method_doc", {"qualifier": 5}, "string"),
            ("list_classes", {"package": ["toylib"]}, "string"),
        ],
    )
    def test_argument_of_the_wrong_type_is_bad_args(self, registry, tool, args, declared):
        """An argument has the type its schema declares, the schema the HTTP
        backend sends the model; nothing is coerced."""
        name, value = list(args.items())[-1]
        response = registry.dispatch(AgentRole.GEN, ToolRequest(tool, args))
        assert (response.error_code, response.error_message) == (
            "BAD_ARGS", f"argument {name} must be of type {declared}: {value!r}"
        )

    def test_unknown_tool_not_found(self, registry):
        response = registry.dispatch(AgentRole.GEN, ToolRequest("bogus", {}))
        assert response.error_code == "NOT_FOUND"

    def test_backend_error_is_observation(self, registry):
        response = registry.dispatch(
            AgentRole.GEN, ToolRequest("class_doc", {"qualifier": "NoSuchClass"})
        )
        assert not response.ok
        assert response.error_code == "NOT_FOUND"

    def test_handler_exception_is_backend_error(self):
        def boom():
            raise RuntimeError("boom")

        reg = ToolRegistry()
        reg.register(ToolDescriptor("boom", "docs", {}, "raises"), boom)
        response = reg.dispatch(AgentRole.RSH, ToolRequest("boom", {}))
        assert (response.ok, response.error_code, response.error_message, response.content) == (
            False, "BACKEND_ERROR", "RuntimeError: boom", ""
        )

    def test_path_to_method_joins_shortest_path(self, registry):
        response = registry.dispatch(
            AgentRole.CVA,
            ToolRequest("path_to_method", {"target": "toylib.OptionSet.coerce(String,String)"}),
        )
        assert response.ok
        # two shortest paths; the lexicographically smaller middle node wins
        assert response.content == (
            "toylib.ArgParser.parse(String[]) -> toylib.ArgParser.handleLong(String)"
            " -> toylib.OptionSet.coerce(String,String)"
        )

    def test_path_to_unknown_method_not_found(self, registry):
        response = registry.dispatch(
            AgentRole.CVA, ToolRequest("path_to_method", {"target": "toylib.Nope.nothing()"})
        )
        assert not response.ok
        assert response.error_code == "NOT_FOUND"

    def test_wire_format(self, registry):
        ok = registry.dispatch(AgentRole.RSH, ToolRequest("list_packages", {}))
        assert ok.to_wire() == {"ok": True, "content": "toylib", "truncated": False}
        err = registry.dispatch(AgentRole.RSH, ToolRequest("fuzz", {}))
        wire = err.to_wire()
        assert wire["ok"] is False
        assert set(wire["error"]) == {"code", "message"}


class TestTruncation:
    def _registry_with_long_tool(self, budget: int) -> ToolRegistry:
        reg = ToolRegistry(response_budget=budget)
        long_output = "\n".join(f"line {i}" for i in range(200))
        reg.register(
            ToolDescriptor("blab", "docs", {}, "long output"), lambda out=long_output: out
        )
        return reg

    def test_truncates_at_line_boundary(self):
        reg = self._registry_with_long_tool(100)
        response = reg.dispatch(AgentRole.RSH, ToolRequest("blab", {}))
        assert response.truncated
        assert len(response.content) <= 100
        assert not response.content.endswith("\n")
        # cut happened at a full line
        assert response.content.rsplit("\n", 1)[-1].startswith("line ")

    def test_short_output_untouched(self):
        reg = ToolRegistry(response_budget=100)
        reg.register(ToolDescriptor("short", "docs", {}, ""), lambda: "tiny")
        response = reg.dispatch(AgentRole.RSH, ToolRequest("short", {}))
        assert response.content == "tiny" and not response.truncated


@given(
    role=st.sampled_from(list(AgentRole)),
    tool=st.sampled_from(ALL_TOOLS),
)
def test_dispatch_never_leaks_content_past_acl(role, tool):
    # fresh registry with permissive stub handlers for every tool
    reg = ToolRegistry()
    for name in ALL_TOOLS:
        category = (
            "docs" if name in DOCS_TOOLS else
            "code" if name in CODE_TOOLS else
            "callgraph" if name in CG_TOOLS else "exec"
        )
        reg.register(ToolDescriptor(name, category, {}, ""), lambda: "CONTENT")
    response = reg.dispatch(role, ToolRequest(tool, {}))
    if expected_access(tool, role) is AccessLevel.ALLOWED:
        assert response.ok and response.content == "CONTENT"
    else:
        assert not response.ok and response.content == ""
        assert response.error_code in ("ACCESS_DENIED", "NOT_QUERYABLE")
