from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DEMO_DIR
from harnessgen.agents import (
    CORRECTIVE_PROMPT,
    REPORT_SECTIONS,
    AgentProfile,
    AgentTranscript,
    build_research_context,
    load_prompt,
    normalize_and_hash,
    parse_harness_output,
    parse_research_report,
    parse_termination_decision,
    run_react,
)
from harnessgen.code_index import CodeIndex
from harnessgen.config import load_config
from harnessgen.docs_index import DocsIndex
from harnessgen.errors import EngineError
from harnessgen.model_backend import ScriptTurn, ScriptedBackend
from harnessgen.orchestrator import TargetSpec, run_workflow
from harnessgen.toolbus import AgentRole, ToolRequest

GOOD_REPORT = "\n".join(f"## {s}\nnotes about {s.lower()}." for s in REPORT_SECTIONS)

GOOD_HARNESS = """Here is the harness.

```java
public class Fuzz {
    public static void fuzzTarget(byte[] data) {
        // drive the target
    }
}
```

DEPENDENCIES:
toylib.ArgParser
toylib.Token
"""


class TestPrompts:
    def test_every_role_has_a_prompt(self):
        for role in AgentRole:
            text = load_prompt(role)
            assert len(text) > 100

    def test_default_profiles(self):
        config = load_config(DEMO_DIR / "config.json", ['budgets.max_iterations={"GEN": 3}'])
        limits = config.budgets["max_iterations"]
        got = {r.value: AgentProfile.default(r, limits[r.value]).max_iterations for r in AgentRole}
        assert got == {"RSH": 25, "GEN": 3, "PAT": 10, "CVA": 25, "REF": 15}

    def test_iteration_override(self):
        assert AgentProfile.default(AgentRole.GEN, max_iterations=3).max_iterations == 3


class TestResearchParser:
    def test_all_sections_accepted(self):
        assert parse_research_report(GOOD_REPORT) == GOOD_REPORT

    @pytest.mark.parametrize("missing", REPORT_SECTIONS)
    def test_each_missing_section_rejected(self, missing):
        partial = "\n".join(f"## {s}\nx" for s in REPORT_SECTIONS if s != missing)
        with pytest.raises(EngineError) as exc:
            parse_research_report(partial)
        assert exc.value.code == "PARSE" and missing in exc.value.message

    def test_heading_level_and_case_flexible(self):
        text = "\n".join(f"### {s.upper()}\nx" for s in REPORT_SECTIONS)
        parse_research_report(text)


class TestHarnessParser:
    def test_source_and_dependencies(self):
        artifact = parse_harness_output(GOOD_HARNESS)
        assert artifact.source.startswith("public class Fuzz")
        assert artifact.dependencies == ("toylib.ArgParser", "toylib.Token")
        assert artifact.normalized_hash == normalize_and_hash(artifact.source)

    def test_first_fence_wins(self):
        text = "```java\nFIRST\n```\nand\n```java\nSECOND\n```"
        assert parse_harness_output(text).source == "FIRST"

    def test_no_code_block(self):
        with pytest.raises(EngineError) as exc:
            parse_harness_output("just prose, no code")
        assert exc.value.code == "PARSE_NO_CODE"

    def test_empty_block(self):
        with pytest.raises(EngineError) as exc:
            parse_harness_output("```java\n\n   \n```")
        assert exc.value.code == "PARSE_EMPTY"

    def test_no_dependencies_marker(self):
        artifact = parse_harness_output("```java\nX\n```\ntrailing prose")
        assert artifact.dependencies == ()

    def test_dependency_list_ends_at_blank_line(self):
        text = "```java\nX\n```\nDEPENDENCIES:\na.B\n\nc.D should be ignored"
        assert parse_harness_output(text).dependencies == ("a.B",)

    @pytest.mark.parametrize("source", ["// \ud800\nX", 'String s = "\ud800";'],
                             ids=["comment", "literal"])
    def test_source_utf8_cannot_encode_is_parse(self, source):
        """A JSON string may carry a lone surrogate; no harness file can hold it."""
        with pytest.raises(EngineError) as exc:
            parse_harness_output(f"```java\n{source}\n```")
        assert exc.value.code == "PARSE" and "surrogates not allowed" in exc.value.message

    def test_run_on_a_harness_utf8_cannot_encode_ends_model_failed(self, demo_config, tmp_path):
        """The corrective prompt follows the first such harness; a second ends
        the run model_failed with a manifest, not internal_error."""
        turns = json.loads((DEMO_DIR / "scripts" / "happy.json").read_text())["turns"]
        reply = turns[2]["text"].replace("// harness v1", "// \ud800")
        script = tmp_path / "surrogate.json"
        script.write_text(json.dumps({"turns": turns[:2] + [
            {"text": reply}, {"expect_contains": CORRECTIVE_PROMPT, "text": reply},
        ]}))
        config = demo_config(str(script))
        manifest = run_workflow(TargetSpec.from_config(config), config)
        assert manifest["outcome"] == "model_failed" and "traceback" not in manifest
        assert manifest["error"].startswith("MODEL_PROTOCOL: GEN gave no parseable answer")
        assert "last turn: PARSE: " in manifest["error"]
        assert (Path(manifest["run_dir"]) / "manifest.json").is_file()


class TestDecisionParser:
    def test_stop_decision(self):
        text = '```json\n{"decision": "stop", "rationale": "plateau"}\n```'
        decision = parse_termination_decision(text)
        assert decision.decision == "stop" and decision.rationale == "plateau"

    def test_continue_requires_priorities(self):
        with pytest.raises(EngineError) as exc:
            parse_termination_decision('```json\n{"decision": "continue"}\n```')
        assert exc.value.code == "PARSE"

    def test_continue_with_priorities(self):
        text = '{"decision": "continue", "priority_methods": ["a.b()"], "strategy": "widen"}'
        decision = parse_termination_decision(text)
        assert decision.priority_methods == ("a.b()",)
        assert decision.strategy == "widen"

    def test_bare_json_outside_fence(self):
        text = 'I think we should stop. {"decision": "stop"} That is all.'
        assert parse_termination_decision(text).decision == "stop"

    def test_unknown_decision_value(self):
        with pytest.raises(EngineError):
            parse_termination_decision('{"decision": "maybe"}')

    def test_no_json_at_all(self):
        with pytest.raises(EngineError) as exc:
            parse_termination_decision("no structured content here")
        assert exc.value.code == "PARSE"

    @pytest.mark.parametrize("decision", ["stop", "continue"])
    @pytest.mark.parametrize(
        "priorities", [5, "a.B.c()", [1, 2], ["a.b()", ""], {"a.b()": 1}, True]
    )
    def test_priorities_other_than_a_list_of_strings_are_parse(self, decision, priorities):
        text = json.dumps({"decision": decision, "priority_methods": priorities})
        with pytest.raises(EngineError) as exc:
            parse_termination_decision(text)
        assert exc.value.code == "PARSE"
        assert "priority_methods must be a list of non-empty strings" in exc.value.message

    @pytest.mark.parametrize("raw", ['"priority_methods": null, ', '"priority_methods": [], ', ""])
    def test_stop_without_priorities(self, raw):
        decision = parse_termination_decision(f'{{{raw}"decision": "stop"}}')
        assert decision.priority_methods == ()

    @pytest.mark.parametrize("key", ["rationale", "strategy"])
    @pytest.mark.parametrize("raw", ["", ', "{key}": null'])
    def test_absent_or_null_text_is_empty(self, key, raw):
        text = '{"decision": "continue", "priority_methods": ["a.b()"]' + raw.format(key=key) + "}"
        assert getattr(parse_termination_decision(text), key) == ""

    @pytest.mark.parametrize("key", ["rationale", "strategy"])
    @pytest.mark.parametrize("value", [5, 0, True, False, [], ["widen"], {"x": 1}])
    def test_text_other_than_a_string_is_parse(self, key, value):
        text = json.dumps({"decision": "continue", "priority_methods": ["a.b()"], key: value})
        with pytest.raises(EngineError) as exc:
            parse_termination_decision(text)
        assert exc.value.code == "PARSE"
        assert exc.value.message == f"{key} must be a string, got {value!r}"

    @pytest.mark.parametrize("priorities", [5, "a.B.c()", [1, 2]])
    def test_run_on_malformed_priorities_ends_model_failed(self, demo_config, tmp_path, priorities):
        """The corrective prompt follows the first bad reply; a second ends the
        run model_failed with MODEL_PROTOCOL, not internal_error."""
        manifest = run_with_bad_decision(
            demo_config, tmp_path, {"decision": "continue", "priority_methods": priorities}
        )
        assert "priority_methods must be a list" in manifest["error"]

    def test_run_on_malformed_strategy_ends_model_failed(self, demo_config, tmp_path):
        manifest = run_with_bad_decision(demo_config, tmp_path, {
            "decision": "continue", "priority_methods": ["a.b()"], "strategy": {"x": 1},
        })
        assert "strategy must be a string, got {'x': 1}" in manifest["error"]


def run_with_bad_decision(demo_config, tmp_path, payload: dict) -> dict:
    """The manifest of a demo run whose CVA replies `payload` twice."""
    turns = json.loads((DEMO_DIR / "scripts" / "happy.json").read_text())["turns"]
    reply = "```json\n" + json.dumps(payload) + "\n```"
    script = tmp_path / "bad_decision.json"
    script.write_text(json.dumps({"turns": turns[:4] + [
        {"text": reply}, {"expect_contains": CORRECTIVE_PROMPT, "text": reply},
    ]}))
    config = demo_config(str(script))
    manifest = run_workflow(TargetSpec.from_config(config), config)
    assert manifest["outcome"] == "model_failed"
    assert manifest["error"].startswith("MODEL_PROTOCOL: CVA gave no parseable answer")
    assert "traceback" not in manifest
    return manifest


class TestNormalizeHash:
    def test_comment_and_whitespace_invariance(self):
        a = "int  x = 1;\n// note\nint y = 2;"
        b = "int x = 1; /* other note */ int y = 2;"
        assert normalize_and_hash(a) == normalize_and_hash(b)

    def test_code_change_changes_hash(self):
        assert normalize_and_hash("int x = 1;") != normalize_and_hash("int x = 2;")

    @given(st.text(max_size=200))
    def test_idempotent_under_outer_whitespace(self, source):
        assert normalize_and_hash(source) == normalize_and_hash(f"  {source}\n\n")


class TestRunReact:
    def _profile(self, role=AgentRole.GEN, max_iterations=5):
        return AgentProfile.default(role, max_iterations=max_iterations)

    def test_direct_final_answer(self, registry):
        backend = ScriptedBackend([ScriptTurn(text=GOOD_HARNESS)])
        result = run_react(self._profile(), [("task", "write it")], registry, backend)
        assert result.parsed_output.dependencies == ("toylib.ArgParser", "toylib.Token")
        assert result.transcript.iterations == 1

    def test_tool_iteration_then_answer(self, registry):
        backend = ScriptedBackend(
            [
                ScriptTurn(tool_calls=[ToolRequest("list_packages", {})]),
                ScriptTurn(text=GOOD_HARNESS, expect_contains="toylib"),
            ]
        )
        usages = []
        complete = backend.complete

        def recording_complete(*args):
            turn = complete(*args)
            usages.append((turn.usage.tokens_in, turn.usage.tokens_out))
            return turn

        backend.complete = recording_complete
        transcript = AgentTranscript(role="GEN")
        result = run_react(self._profile(), [("task", "go")], registry, backend, transcript)
        assert result.transcript is transcript
        assert result.transcript.iterations == 2
        assert result.transcript.tool_call_count == 1
        assert [(s.tokens_in, s.tokens_out) for s in transcript.steps] == usages
        assert all(tokens_in > 0 for tokens_in, _ in usages)

    def test_turn_recorded_before_its_tool_calls(self, registry, monkeypatch):
        backend = ScriptedBackend([ScriptTurn(tool_calls=[ToolRequest("list_packages", {})])])

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(registry, "dispatch", interrupt)
        transcript = AgentTranscript(role="GEN")
        with pytest.raises(KeyboardInterrupt):
            run_react(self._profile(), [("task", "go")], registry, backend, transcript)
        assert transcript.iterations == 1 and transcript.tool_call_count == 1
        step = transcript.to_json()["steps"][0]
        assert step["tool_calls"] == [{"tool": "list_packages", "args": {}}]
        assert step["tool_results"] == [] and step["tokens_in"] > 0

    def test_denied_tool_becomes_observation(self, registry):
        # GEN may not call path_to_method; the loop must surface the error text
        backend = ScriptedBackend(
            [
                ScriptTurn(tool_calls=[ToolRequest("path_to_method", {"target": "x"})]),
                ScriptTurn(text=GOOD_HARNESS, expect_contains="ERROR ACCESS_DENIED"),
            ]
        )
        result = run_react(self._profile(), [("task", "go")], registry, backend)
        assert result.transcript.steps[0].tool_results[0]["ok"] is False

    def test_corrective_reprompt_once(self, registry):
        backend = ScriptedBackend(
            [
                ScriptTurn(text="not a harness"),
                ScriptTurn(text=GOOD_HARNESS, expect_contains=CORRECTIVE_PROMPT),
            ]
        )
        result = run_react(self._profile(), [("task", "go")], registry, backend)
        assert result.transcript.iterations == 2
        assert result.parsed_output.source.startswith("public class Fuzz")

    def test_second_parse_failure_is_fatal(self, registry):
        backend = ScriptedBackend(
            [ScriptTurn(text="still prose"), ScriptTurn(text="more prose")]
        )
        transcript = AgentTranscript(role="GEN")
        with pytest.raises(EngineError) as exc:
            run_react(self._profile(), [("task", "go")], registry, backend, transcript)
        assert exc.value.code == "MODEL_PROTOCOL"
        assert exc.value.message == (
            "GEN gave no parseable answer in 2 turns; "
            "last turn: PARSE_NO_CODE: no fenced code block in model output"
        )
        assert transcript.iterations == 2
        assert transcript.steps[-1].text == "more prose"

    def test_iteration_budget_exhaustion(self, registry):
        backend = ScriptedBackend(
            [ScriptTurn(tool_calls=[ToolRequest("list_packages", {})]) for _ in range(9)]
        )
        transcript = AgentTranscript(role="GEN")
        with pytest.raises(EngineError) as exc:
            run_react(self._profile(max_iterations=3), [("task", "go")], registry, backend, transcript)
        assert exc.value.code == "MODEL_PROTOCOL"
        assert exc.value.message == "GEN gave no parseable answer in 3 turns"
        assert transcript.iterations == 3 and transcript.tool_call_count == 3

    def test_parse_failure_on_the_last_turn_is_named(self, registry):
        backend = ScriptedBackend(
            [ScriptTurn(tool_calls=[ToolRequest("list_packages", {})]), ScriptTurn(text="prose")]
        )
        with pytest.raises(EngineError) as exc:
            run_react(self._profile(AgentRole.CVA, 2), [("task", "go")], registry, backend)
        assert exc.value.code == "MODEL_PROTOCOL"
        assert exc.value.message.startswith("CVA gave no parseable answer in 2 turns; last turn: PARSE")

    def test_transcript_serializes(self, registry):
        backend = ScriptedBackend(
            [
                ScriptTurn(tool_calls=[ToolRequest("list_packages", {})]),
                ScriptTurn(text=GOOD_HARNESS),
            ]
        )
        result = run_react(self._profile(), [("task", "go")], registry, backend)
        blob = result.transcript.to_json()
        assert blob["role"] == "GEN" and blob["iterations"] == 2
        assert blob["steps"][0]["tool_calls"][0]["tool"] == "list_packages"
        assert blob["steps"][0]["tool_results"][0]["ok"] is True


class _Target:
    target_class = "ArgParser"
    target_method = "parse(String[])"


class TestResearchContext:
    def test_full_context(self, docs_index, code_index):
        blocks = dict(build_research_context(_Target(), docs_index, code_index))
        assert blocks["target signature"] == "ArgParser.parse(String[])"
        assert "ParseException" in blocks["target documentation"]
        assert "parse" in blocks["target source"]

    @pytest.fixture()
    def other_code(self, tmp_path) -> CodeIndex:
        """A code index of one file that lacks the target."""
        (tmp_path / "Other.tl").write_text(
            "package other;\n\npublic class Other {\n    public void run() {\n    }\n}\n"
        )
        return CodeIndex.build(tmp_path)

    def test_docs_only(self, docs_index, other_code):
        blocks = build_research_context(_Target(), docs_index, other_code)
        labels = [label for label, _ in blocks]
        assert "target documentation" in labels and "note" in labels

    def test_neither_found(self, other_code):
        with pytest.raises(EngineError) as exc:
            build_research_context(_Target(), DocsIndex(()), other_code)
        assert exc.value.code == "TARGET_NOT_FOUND"
