from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import DEMO_DIR
from harnessgen.agents import AgentTranscript, TranscriptStep
from harnessgen.config import load_config
from harnessgen.errors import EngineError
from harnessgen.model_backend import (
    HttpBackend,
    Message,
    ScriptTurn,
    ScriptedBackend,
    count_tokens,
    load_script,
)
from harnessgen.orchestrator import TargetSpec, run_workflow, summarize_usage
from harnessgen.toolbus import AgentRole, ToolRequest


def convo(*texts: str) -> list[Message]:
    return [Message("system", "you are a test"), *(Message("user", text) for text in texts)]


def agent_run(*steps: tuple[int, int, int]) -> AgentTranscript:
    """A transcript with a step per (tool calls, tokens in, tokens out)."""
    return AgentTranscript("X", [
        TranscriptStep(tool_calls=[{}] * calls, tokens_in=tokens_in, tokens_out=tokens_out)
        for calls, tokens_in, tokens_out in steps
    ])


class TestScriptedBackend:
    def test_turns_replay_in_order(self):
        backend = ScriptedBackend([ScriptTurn(text="one"), ScriptTurn(text="two")])
        assert backend.complete(convo("hi"), []).text == "one"
        assert backend.complete(convo("hi"), []).text == "two"

    def test_requires_system_message_first(self):
        backend = ScriptedBackend([ScriptTurn(text="x")])
        with pytest.raises(EngineError) as exc:
            backend.complete([Message("user", "hi")], [])
        assert exc.value.code == "BAD_ARGS"

    def test_exhausted(self):
        backend = ScriptedBackend([ScriptTurn(text="only")])
        backend.complete(convo("a"), [])
        with pytest.raises(EngineError) as exc:
            backend.complete(convo("b"), [])
        assert exc.value.code == "SCRIPT_EXHAUSTED"

    def test_expect_contains_mismatch_names_turn(self):
        backend = ScriptedBackend(
            [ScriptTurn(text="a"), ScriptTurn(text="b", expect_contains="MAGIC")]
        )
        backend.complete(convo("start"), [])
        with pytest.raises(EngineError) as exc:
            backend.complete(convo("no marker here"), [])
        assert exc.value.code == "SCRIPT_MISMATCH"
        assert "turn 1" in exc.value.message and "MAGIC" in exc.value.message

    def test_expect_contains_checks_latest_tool_message(self):
        backend = ScriptedBackend([ScriptTurn(text="ok", expect_contains="observed")])
        c = convo("first")
        c.append(Message("assistant", "calling"))
        c.append(Message("tool", "observed output", tool_call_id="t0"))
        assert backend.complete(c, []).text == "ok"

    def test_usage_counts_whitespace_tokens(self):
        backend = ScriptedBackend([ScriptTurn(text="alpha beta gamma")])
        turn = backend.complete(convo("one two"), [])
        assert turn.usage.tokens_in == count_tokens("you are a test") + 2
        assert turn.usage.tokens_out == 3

    def test_tool_call_turn(self):
        backend = ScriptedBackend(
            [ScriptTurn(tool_calls=[ToolRequest("grep", {"pattern": "x"})])]
        )
        turn = backend.complete(convo("go"), [])
        assert turn.text is None
        assert turn.tool_calls[0].tool == "grep"
        assert turn.usage.tokens_out > 0


class TestLoadScript:
    def test_loads_demo_script(self, demo_dir):
        backend = load_script(demo_dir / "scripts" / "happy.json")
        assert len(backend.turns) >= 5
        assert any(t.tool_calls for t in backend.turns)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EngineError) as exc:
            load_script(tmp_path / "nope.json")
        assert exc.value.code == "IO"

    def test_turn_without_text_or_calls(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"turns": [{"expect_contains": "x"}]}))
        with pytest.raises(EngineError) as exc:
            load_script(path)
        assert exc.value.code == "PARSE"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(EngineError) as exc:
            load_script(path)
        assert exc.value.code == "PARSE"


class TestLedger:
    """Accounting sums per (role, round), over that round's transcripts."""

    def test_accumulates_per_role_round(self):
        usage = {
            (AgentRole.GEN, 0): [agent_run((1, 100, 40)), agent_run((1, 10, 10))],
            (AgentRole.GEN, 1): [agent_run((0, 10, 0))],
        }
        gen = next(r for r in summarize_usage(usage, 1e-6, 2e-6)["rows"] if r["agent"] == "GEN")
        assert gen["iterations"] == "2/1" and gen["tool_calls"] == "2/0"
        assert gen["tokens"] == 110 + 50 + 10
        assert gen["cost"] == pytest.approx(120e-6 + 100e-6, rel=1e-9)

    def test_totals_conserve_sums(self):
        usage = {
            (AgentRole.RSH, 0): [agent_run((0, 5, 0), (0, 0, 7), (0, 0, 0))],
            (AgentRole.CVA, 1): [agent_run((4, 11, 13), (0, 0, 0))],
        }
        totals = summarize_usage(usage, rate_in=1.0, rate_out=10.0)["totals"]
        assert totals["iterations"] == 5 and totals["tool_calls"] == 4
        assert totals["tokens"] == 5 + 7 + 11 + 13
        # cost oracle by hand: 5*1 + 7*10 + 11*1 + 13*10
        assert totals["cost"] == pytest.approx(5 + 70 + 11 + 130, rel=1e-9)


class TestSummary:
    def test_slash_joined_rounds(self):
        usage = {(AgentRole.PAT, 0): [agent_run(*[(0, 0, 0)] * 5)]}
        usage.update({(AgentRole.PAT, rnd): [] for rnd in (1, 2, 3)})
        summary = summarize_usage(usage)
        pat = next(r for r in summary["rows"] if r["agent"] == "PAT")
        assert pat["iterations"] == "5/0/0/0"

    def test_absent_role_renders_dashes(self):
        summary = summarize_usage({})
        for row in summary["rows"]:
            assert row["iterations"] == "--" and row["tool_calls"] == "--"
            assert row["tokens"] == 0 and row["cost"] == 0.0 and type(row["cost"]) is float

    def test_row_order_and_research_label(self):
        summary = summarize_usage({})
        assert [r["agent"] for r in summary["rows"]] == ["RES", "GEN", "PAT", "CVA", "REF"]

    def test_totals_match_rows(self):
        usage = {
            (AgentRole.RSH, 0): [agent_run((3, 10, 0), (0, 0, 20), (0, 0, 0), (0, 0, 0))],
            (AgentRole.REF, 2): [agent_run((0, 1, 1))],
        }
        summary = summarize_usage(usage, rate_in=2.0, rate_out=3.0)
        assert summary["totals"]["tokens"] == sum(r["tokens"] for r in summary["rows"])
        assert summary["totals"]["cost"] == pytest.approx(
            sum(r["cost"] for r in summary["rows"]), rel=1e-9
        )


class _StubHandler(BaseHTTPRequestHandler):
    # (status, body): a body of bytes is sent as it is, any other as JSON
    responses: list[tuple[int, object]] = []
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).requests_seen.append(json.loads(self.rfile.read(length)))
        status, body = type(self).responses.pop(0) if type(self).responses else (500, {})
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.responses = []
    _StubHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    # a short poll keeps shutdown from waiting out the default half second
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def good_completion(text="hello", tool_calls=None):
    message: dict = {"content": text}
    if tool_calls:
        message["tool_calls"] = tool_calls
    return {
        "choices": [{"message": message}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 7},
    }


class TestHttpBackend:
    def test_round_trip(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, good_completion("answer"))]
        backend = HttpBackend(url, model="stub-model", api_key="k")
        turn = backend.complete(convo("question"), [])
        assert turn.text == "answer"
        assert turn.usage.tokens_in == 12 and turn.usage.tokens_out == 7
        sent = handler.requests_seen[0]
        assert sent["model"] == "stub-model"
        assert sent["messages"][0]["role"] == "system"

    def test_tool_call_parsing(self, stub_server):
        url, handler = stub_server
        handler.responses = [
            (
                200,
                good_completion(
                    None,
                    tool_calls=[
                        {"function": {"name": "grep", "arguments": json.dumps({"pattern": "a"})}}
                    ],
                ),
            )
        ]
        turn = HttpBackend(url, model="m").complete(convo("q"), [])
        assert turn.tool_calls == [ToolRequest("grep", {"pattern": "a"})]

    def test_retries_then_succeeds(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, {}), (500, {}), (200, good_completion("late"))]
        sleeps: list[float] = []
        backend = HttpBackend(url, model="m", sleep=sleeps.append)
        assert backend.complete(convo("q"), []).text == "late"
        assert sleeps == [1.0, 2.0]

    def test_unavailable_after_retries(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, {}), (500, {}), (500, {})]
        sleeps: list[float] = []
        backend = HttpBackend(url, model="m", sleep=sleeps.append)
        with pytest.raises(EngineError) as exc:
            backend.complete(convo("q"), [])
        assert exc.value.code == "MODEL_UNAVAILABLE"
        assert sleeps == [1.0, 2.0]

    def test_client_error_fails_without_retry(self, stub_server):
        url, handler = stub_server
        handler.responses = [(400, {}), (200, good_completion("never"))]
        sleeps: list[float] = []
        backend = HttpBackend(url, model="m", sleep=sleeps.append)
        with pytest.raises(EngineError) as exc:
            backend.complete(convo("q"), [])
        assert exc.value.code == "MODEL_UNAVAILABLE" and "400" in exc.value.message
        assert sleeps == [] and len(handler.requests_seen) == 1

    def test_rate_limit_is_retried(self, stub_server):
        url, handler = stub_server
        handler.responses = [(429, {}), (200, good_completion("later"))]
        sleeps: list[float] = []
        backend = HttpBackend(url, model="m", sleep=sleeps.append)
        assert backend.complete(convo("q"), []).text == "later"
        assert sleeps == [1.0]

    @pytest.mark.parametrize(
        "body",
        [
            {"choices": [{"message": "x"}]},
            {"choices": [{"message": {"content": "x"}}], "usage": []},
            {"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": None}},
            {"choices": [{"message": {"tool_calls": ["grep"]}}]},
            {"choices": "x"},
            ["choices"],
            # tool calls whose arguments decode to something other than an object
            *(
                {"choices": [{"message": {"tool_calls": [
                    {"function": {"name": "grep", "arguments": arguments}}
                ]}}]}
                for arguments in ("[1]", '"s"', "3", '[["a", 1]]')
            ),
            {"choices": [{"message": {"tool_calls": [{"function": {"name": 3}}]}}]},
            # token counts that are not JSON integers >= 0
            *(
                {**good_completion(), "usage": usage}
                for usage in (
                    {"prompt_tokens": "12"},
                    {"completion_tokens": 2.9},
                    {"prompt_tokens": True},
                    {"completion_tokens": -5},
                )
            ),
            # a body that is not JSON at all, and one nested past the decoder's depth
            b"<html>gateway</html>",
            b"[" * 100_000,
        ],
    )
    def test_wrong_shape_is_protocol_error_sent_once(self, stub_server, body):
        """A body of the wrong shape answers a request that succeeded: no retry."""
        url, handler = stub_server
        handler.responses = [(200, body), (200, good_completion("never"))]
        sleeps: list[float] = []
        with pytest.raises(EngineError) as exc:
            HttpBackend(url, model="m", sleep=sleeps.append).complete(convo("q"), [])
        assert exc.value.code == "MODEL_PROTOCOL"
        assert len(handler.requests_seen) == 1 and sleeps == []

    def test_null_usage_reads_as_absent(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {**good_completion("answer"), "usage": None})]
        sleeps: list[float] = []
        turn = HttpBackend(url, model="m", sleep=sleeps.append).complete(convo("q"), [])
        assert turn.text == "answer"
        assert (turn.usage.tokens_in, turn.usage.tokens_out) == (0, 0)
        assert len(handler.requests_seen) == 1 and sleeps == []

    def test_malformed_body_is_protocol_error_no_retry(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"choices": []})]
        sleeps: list[float] = []
        backend = HttpBackend(url, model="m", sleep=sleeps.append)
        with pytest.raises(EngineError) as exc:
            backend.complete(convo("q"), [])
        assert exc.value.code == "MODEL_PROTOCOL"
        assert sleeps == []

    def test_request_offers_each_role_the_tools_it_may_call(self, stub_server, registry):
        """The `tools` a request carries are the role's allowed tools, each
        entry as it was sent before static-only tools left the offer."""
        url, handler = stub_server
        handler.responses = [(200, good_completion())] * len(AgentRole)
        backend = HttpBackend(url, model="m")
        for role in AgentRole:
            backend.complete(convo("q"), registry.list_tools(role))
        shared = list(OFFERED_TOOL_ENTRIES)[:12]
        for role, sent in zip(AgentRole, handler.requests_seen):
            names = shared + ["path_to_method"] if role is AgentRole.CVA else shared
            assert [json.dumps(entry) for entry in sent["tools"]] == [
                OFFERED_TOOL_ENTRIES[name] for name in names
            ], role

    def test_run_on_a_tool_call_without_object_args_ends_model_failed(self, stub_server, tmp_path):
        """The run stops at the first such turn, as for any malformed
        response, and is not an internal error."""
        url, handler = stub_server
        call = {"function": {"name": "grep", "arguments": "[1]"}}
        handler.responses = [(200, good_completion(None, tool_calls=[call]))]
        model = {"backend": "http", "endpoint": url, "model": "m"}
        config = load_config(DEMO_DIR / "config.json", [f"model={json.dumps(model)}"])
        manifest = run_workflow(TargetSpec.from_config(config), config, run_dir=tmp_path / "run")
        assert manifest["outcome"] == "model_failed"
        assert manifest["error"].startswith("MODEL_PROTOCOL: malformed model response: ")
        assert len(handler.requests_seen) == 1


# tool -> its `tools` entry in an HTTP request, as json.dumps writes it
OFFERED_TOOL_ENTRIES = {
    "method_doc": '{"type": "function", "function": {"name": "method_doc", "description": "Documentation for a method signature", "parameters": {"type": "object", "properties": {"qualifier": {"type": "string"}}, "required": ["qualifier"]}}}',
    "class_doc": '{"type": "function", "function": {"name": "class_doc", "description": "Documentation for a class", "parameters": {"type": "object", "properties": {"qualifier": {"type": "string"}}, "required": ["qualifier"]}}}',
    "package_doc": '{"type": "function", "function": {"name": "package_doc", "description": "Documentation for a package", "parameters": {"type": "object", "properties": {"qualifier": {"type": "string"}}, "required": ["qualifier"]}}}',
    "list_packages": '{"type": "function", "function": {"name": "list_packages", "description": "List all documented packages", "parameters": {"type": "object", "properties": {}, "required": []}}}',
    "list_classes": '{"type": "function", "function": {"name": "list_classes", "description": "List classes in a package", "parameters": {"type": "object", "properties": {"package": {"type": "string"}}, "required": ["package"]}}}',
    "list_methods": '{"type": "function", "function": {"name": "list_methods", "description": "List method signatures of a class", "parameters": {"type": "object", "properties": {"class_name": {"type": "string"}}, "required": ["class_name"]}}}',
    "get_method_code": '{"type": "function", "function": {"name": "get_method_code", "description": "Source snippet of a method", "parameters": {"type": "object", "properties": {"qualifier": {"type": "string"}}, "required": ["qualifier"]}}}',
    "get_class_code": '{"type": "function", "function": {"name": "get_class_code", "description": "Source snippet of a class", "parameters": {"type": "object", "properties": {"qualifier": {"type": "string"}}, "required": ["qualifier"]}}}',
    "find_definition": '{"type": "function", "function": {"name": "find_definition", "description": "Declaration sites of a symbol", "parameters": {"type": "object", "properties": {"symbol": {"type": "string"}, "max_results": {"type": "integer"}}, "required": ["symbol"]}}}',
    "find_refs": '{"type": "function", "function": {"name": "find_refs", "description": "References to a symbol outside its declaration", "parameters": {"type": "object", "properties": {"symbol": {"type": "string"}, "max_results": {"type": "integer"}}, "required": ["symbol"]}}}',
    "grep": '{"type": "function", "function": {"name": "grep", "description": "Search source lines by literal or regex", "parameters": {"type": "object", "properties": {"pattern": {"type": "string"}, "max_results": {"type": "integer"}}, "required": ["pattern"]}}}',
    "find_symbol": '{"type": "function", "function": {"name": "find_symbol", "description": "Symbols whose name contains the query", "parameters": {"type": "object", "properties": {"name": {"type": "string"}, "max_results": {"type": "integer"}}, "required": ["name"]}}}',
    "path_to_method": '{"type": "function", "function": {"name": "path_to_method", "description": "Shortest call path from the root to a method", "parameters": {"type": "object", "properties": {"target": {"type": "string"}}, "required": ["target"]}}}',
}
