"""Malformed input files end in EngineError, never in a raw exception.

The engine reads eight kinds of JSON file it does not control: the config,
the docs bundle, the call facts, the sandbox spec, the model script, a fuzz
campaign (what a shell fuzzer writes to `coverage_out`), a coverage report
(with its totals file) and a run manifest (which `harnessgen report`
renders). Each test here writes one of them mutated
into a copy of the demo, by bytes (a non-UTF-8 prefix, a truncation, an
empty file, a top-level scalar or list) or by structure (a key dropped, or
a value swapped for another JSON type, at a drawn path), and checks that
its loader, and a demo run's set-up, either succeed or raise EngineError.
"""

from __future__ import annotations

import contextlib
import copy
import json
import shutil
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEMO_DIR, make_harness, write_shell_config
from harnessgen.callgraph import load_facts
from harnessgen.cli import main, render_report
from harnessgen.config import load_config, validate_config
from harnessgen.coverage import Campaign, CoverageReport, apply_recording_windows
from harnessgen.docs_index import load_bundle
from harnessgen.ecosystem import load_sandbox
from harnessgen.errors import EngineError
from harnessgen.model_backend import load_script
from harnessgen.orchestrator import TargetSpec, WorkflowRunner, run_workflow
from sandbox_toolchain import campaign_json

# values of every JSON type, to swap in for a value of another type
JSON_VALUES = (None, True, 0, -1, 2.5, "", "x", [], [0], ["x"], {}, {"x": 1})
BAD_PREFIXES = (b"\xff", b"\xfe\xff", b"\x80{")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """A copy of the demo with one finished run in `run/`, and in `trace.json`
    a campaign of the demo spec with runs in and out of its window and two
    crashes."""
    root = tmp_path_factory.mktemp("inputs") / "demo"
    shutil.copytree(DEMO_DIR, root, ignore=shutil.ignore_patterns("runs"))
    config = load_config(root / "config.json")
    run_workflow(TargetSpec.from_config(config), config, run_dir=root / "run")
    harness = make_harness("void fuzzTarget() { p.parse(a); WARMUP CRASH_NULL CRASH_OOB }")
    campaign = load_sandbox(root / "sandbox.json").campaign(harness, 5)
    (root / "trace.json").write_text(json.dumps(campaign_json(campaign)))
    return root


# input -> (the files it is read from, relative to the workspace; its loader)
INPUTS = {
    "config": (("config.json",), lambda root: validate_config(load_config(root / "config.json"))),
    "docs": (("docs.json",), lambda root: load_bundle(root / "docs.json")),
    "facts": (("facts.json",), lambda root: load_facts(root / "facts.json")),
    "sandbox": (("sandbox.json",), lambda root: load_sandbox(root / "sandbox.json")),
    "script": (("scripts/happy.json",), lambda root: load_script(root / "scripts/happy.json")),
    "trace": (
        ("trace.json",),
        lambda root: [
            apply_recording_windows(Campaign.load(root / "trace.json").trace, scope=scope)
            for scope in ("method_targeted", "full")
        ],
    ),
    "coverage": (
        ("run/coverage/r0.json", "run/coverage/totals.json"),
        lambda root: CoverageReport.load(root / "run/coverage/r0.json"),
    ),
    "manifest": (
        ("run/manifest.json",),
        lambda root: [render_report(root / "run", fmt) for fmt in ("text", "csv", "json")],
    ),
}
# the inputs a run's set-up reads
SETUP_INPUTS = ("config.json", "docs.json", "facts.json", "sandbox.json", "scripts/happy.json")


def paths_in(doc, prefix=()):
    """The path (a tuple of keys and indexes) to every value below the top."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths_in(value, prefix + (key,))


def mutate(draw, data: bytes) -> bytes:
    """`data` (a JSON document) broken by bytes or by structure."""
    doc = json.loads(data)
    kind = draw(st.sampled_from(("prefix", "truncate", "empty", "top", "drop", "swap")))
    if kind == "prefix":
        return draw(st.sampled_from(BAD_PREFIXES)) + data
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "empty":
        return b""
    if kind == "top":
        top = (*JSON_VALUES, list(doc) if isinstance(doc, dict) else doc[:1])
        return json.dumps(draw(st.sampled_from(top))).encode()
    doc = copy.deepcopy(doc)
    paths = list(paths_in(doc))
    if kind == "drop":
        paths = [p for p in paths if isinstance(reduce(getitem, p[:-1], doc), dict)]
    *parents, last = draw(st.sampled_from(paths))
    owner = reduce(getitem, parents, doc)
    if kind == "drop":
        del owner[last]
    else:
        old = owner[last]
        owner[last] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    return json.dumps(doc).encode()


@contextlib.contextmanager
def mutated(path: Path, draw):
    """`path` holds a mutated copy of itself inside the block."""
    original = path.read_bytes()
    path.write_bytes(mutate(draw, original))
    try:
        yield
    finally:
        path.write_bytes(original)


def returns_or_raises_engine_error(call) -> None:
    try:
        call()
    except EngineError:
        pass


class TestMutatedInputs:
    @pytest.mark.parametrize("name", sorted(INPUTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_loader(self, workspace, name, data):
        files, load = INPUTS[name]
        target = data.draw(st.sampled_from(files))
        with mutated(workspace / target, data.draw):
            returns_or_raises_engine_error(lambda: load(workspace))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_setup(self, workspace, data):
        def set_up():
            config = load_config(workspace / "config.json")
            if not validate_config(config):
                WorkflowRunner(TargetSpec.from_config(config), config, workspace / "setup")

        with mutated(workspace / data.draw(st.sampled_from(SETUP_INPUTS)), data.draw):
            returns_or_raises_engine_error(set_up)


def test_document_nested_too_deep_is_parse(tmp_path):
    path = tmp_path / "facts.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(EngineError) as exc:
        load_facts(path)
    assert exc.value.code == "PARSE"


class TestScriptShapes:
    @pytest.mark.parametrize("key, value", [("text", 5), ("expect_contains", 3)])
    def test_turn_field_not_a_string_is_parse(self, capsys, tmp_path, key, value):
        raw = json.loads((DEMO_DIR / "scripts/happy.json").read_text())
        raw["turns"][1][key] = value
        path = tmp_path / "script.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(EngineError) as exc:
            load_script(path)
        assert exc.value.code == "PARSE"
        assert str(path) in exc.value.message and f"turn 1: {key}" in exc.value.message
        code = main([
            "run", str(DEMO_DIR / "config.json"),
            "--set", f"output_dir={tmp_path / 'runs'}",
            "--set", f"model.script={path}",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("run failed: PARSE") and "Traceback" not in err


    @pytest.mark.parametrize(
        "raw",
        [{}, [{"text": "hello"}], {"turns": []},
         # a tool call is a string tool and an object of args: a pair list once
         # passed for an object, and a tool of 3 for the tool "3"
         *({"turns": [{"tool_calls": [call]}]} for call in (
             {"tool": "grep", "args": [["pattern", "a"]]}, {"tool": "grep", "args": "x"},
             {"tool": "grep", "args": [1]}, {"tool": 3, "args": {}}))],
        ids=["empty", "bare-list", "no-turns",
             "call-args-pairs", "call-args-string", "call-args-list", "call-tool-int"],
    )
    def test_script_without_turns_is_parse(self, capsys, tmp_path, raw):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(EngineError) as exc:
            load_script(path)
        assert exc.value.code == "PARSE" and str(path) in exc.value.message
        code = main([
            "run", str(DEMO_DIR / "config.json"),
            "--set", f"output_dir={tmp_path / 'runs'}",
            "--set", f"model.script={path}",
        ])
        assert code == 2 and capsys.readouterr().err.startswith("run failed: PARSE")
        assert not (tmp_path / "runs").exists()


class TestSpecCounts:
    @pytest.mark.parametrize("method", ["parse(String[])", "fail(String)"])
    @pytest.mark.parametrize("value", [-1, 2.5, "12"])
    def test_bad_total_fails_in_set_up(self, capsys, tmp_path, method, value):
        """A bad total ends the run in set-up as PARSE, on a method the demo's
        harness hits and on one it does not."""
        root = tmp_path / "demo"
        shutil.copytree(DEMO_DIR, root, ignore=shutil.ignore_patterns("runs"))
        spec = json.loads((root / "sandbox.json").read_text())
        spec["method_totals"][f"toylib.ArgParser.{method}"]["lines_total"] = value
        (root / "sandbox.json").write_text(json.dumps(spec))
        code = main([
            "run", str(root / "config.json"), "--set", f"output_dir={tmp_path / 'runs'}",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("run failed: PARSE") and str(root / "sandbox.json") in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("runs/*/transcripts/*.json"))


def write_spec(root: Path, edit, name: str = "sandbox.json") -> Path:
    """The demo copied under `root`, its file `name` (the sandbox spec by
    default) changed by `edit`; that file's path."""
    shutil.copytree(DEMO_DIR, root, ignore=shutil.ignore_patterns("runs"))
    path = root / name
    spec = json.loads(path.read_text())
    edit(spec)
    path.write_text(json.dumps(spec))
    return path


class TestSpecFractions:
    @pytest.mark.parametrize("key", ["line_fraction", "branch_fraction"])
    @pytest.mark.parametrize("value", [-0.5, 1.5, "0.5", True, None])
    def test_bad_fraction_is_parse(self, tmp_path, key, value):
        def edit(spec):
            spec["coverage_rules"][1]["methods"]["toylib.ArgParser.parse(String[])"][key] = value

        path = write_spec(tmp_path / "demo", edit)
        with pytest.raises(EngineError) as exc:
            load_sandbox(path)
        assert exc.value.code == "PARSE" and str(path) in exc.value.message
        assert f"{key} of toylib.ArgParser.parse(String[]): {value!r}" in exc.value.message

    def test_every_fraction_negative_fails_in_set_up(self, capsys, tmp_path):
        """At -0.5 everywhere the run would cover nothing and still succeed."""
        def edit(spec):
            for rule in spec["coverage_rules"]:
                for fractions in rule["methods"].values():
                    fractions.update(line_fraction=-0.5, branch_fraction=-0.5)

        path = write_spec(tmp_path / "demo", edit)
        code = main([
            "run", str(path.parent / "config.json"), "--set", f"output_dir={tmp_path / 'runs'}",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("run failed: PARSE") and str(path) in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("value", [0, 1, 0.25])
    def test_fraction_in_range_loads(self, tmp_path, value):
        def edit(spec):
            spec["coverage_rules"][0]["methods"]["toylib.Token.of(String)"]["line_fraction"] = value

        rule = load_sandbox(write_spec(tmp_path / "demo", edit)).spec.coverage_rules[0]
        assert rule.methods["toylib.Token.of(String)"] == (float(value), 0.5)


class TestSpecRuleFields:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("compile_rules", 0, "when"), "Absent"),
            (("compile_rules", 0, "when"), None),
            (("compile_rules", 1, "diagnostic", "severity"), "Error"),
            (("compile_rules", 1, "diagnostic", "severity"), 1),
            (("compile_rules", 1, "diagnostic", "line"), 2.7),
            (("compile_rules", 1, "diagnostic", "line"), 0),
            (("compile_rules", 1, "diagnostic", "line"), True),
            (("compile_rules", 1, "diagnostic", "line"), "2"),
            (("coverage_rules", 3, "in_window"), "false"),
            (("coverage_rules", 3, "in_window"), 0),
            (("compile_rules", 0, "pattern"), 3),
            (("coverage_rules", 1, "pattern"), None),
            (("crash_rules", 0, "pattern"), ["CRASH_NULL"]),
            (("crash_rules", 2, "summary"), 5),
            (("compile_rules", 0, "pattern"), "^("),
            (("coverage_rules", 1, "pattern"), "^a{5,3}"),
            (("crash_rules", 0, "pattern"), "^x{4294967296}"),
            (("compile_rules", 1, "diagnostic", "message"), 5),
            (("compile_rules", 1, "diagnostic", "file"), ["x"]),
        ],
    )
    def test_bad_field_is_parse(self, tmp_path, path, value):
        """A coerced field would change what a rule does: `"false"` would
        count a rule inside the window, `"Error"` let a compile pass."""
        def edit(spec):
            *parents, last = path
            reduce(getitem, parents, spec)[last] = value

        spec_path = write_spec(tmp_path / "demo", edit)
        with pytest.raises(EngineError) as exc:
            load_sandbox(spec_path)
        owner = f"{path[0][:-1].replace('_', ' ')} {path[1]}"
        assert exc.value.code == "PARSE" and str(spec_path) in exc.value.message
        assert f"{path[-1]} of {owner}: {value!r}" in exc.value.message

    def test_good_fields_load(self, tmp_path):
        def edit(spec):
            spec["compile_rules"][1]["diagnostic"].update(line=5, severity="warning")
            spec["compile_rules"][1]["when"] = "absent"
            del spec["coverage_rules"][3]["in_window"]
            del spec["compile_rules"][0]["diagnostic"]["file"]
            del spec["compile_rules"][0]["diagnostic"]["message"]

        spec = load_sandbox(write_spec(tmp_path / "demo", edit)).spec
        rule = spec.compile_rules[1]
        assert (rule.when, rule.diagnostic.line, rule.diagnostic.severity) == ("absent", 5, "warning")
        assert spec.coverage_rules[3].in_window is True
        diagnostic = spec.compile_rules[0].diagnostic
        assert (diagnostic.file, diagnostic.message) == ("harness", "compile rule fired")


class TestFactsIds:
    @pytest.mark.parametrize("value", [7, "", None, 2.5, True, [], {"x": 1}])
    def test_id_other_than_a_non_empty_string_is_parse(self, tmp_path, value):
        """Every demo id ends some call, so a mutated id is found unknown by
        the calls first; an extra method gives a bad id no call names."""
        path = write_spec(tmp_path / "demo", lambda facts: facts["methods"].append({"id": value}),
                          "facts.json")
        with pytest.raises(EngineError) as exc:
            load_facts(path)
        assert exc.value.code == "PARSE" and str(path) in exc.value.message

    def test_unknown_callee_is_parse_naming_the_file(self, tmp_path):
        path = write_spec(
            tmp_path / "demo",
            lambda facts: facts["calls"].append(["toylib.Token.text()", "ghost.m()"]),
            "facts.json",
        )
        with pytest.raises(EngineError) as exc:
            load_facts(path)
        assert exc.value.code == "PARSE"
        assert exc.value.message == f"{path}: call references unknown method id: ghost.m()"

    def test_int_id_fails_run_and_tools_cleanly(self, capsys, tmp_path):
        path = write_spec(tmp_path / "demo", lambda facts: facts["methods"].append({"id": 7}),
                          "facts.json")
        argv = [str(path.parent / "config.json"), "--set", f"output_dir={tmp_path / 'runs'}"]
        assert main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"run failed: PARSE: {path}: method id must be a non-empty string: 7")
        assert "Traceback" not in err and not (tmp_path / "runs").exists()
        assert main(["tools", *argv, "--role", "CVA"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: method id") and "Traceback" not in err


class TestDocsText:
    METHOD = ("packages", 0, "classes", 0, "methods", 0)

    @pytest.mark.parametrize(
        "where, value, entity",
        [
            ((*METHOD, "doc"), 5, "toylib.ArgParser.parse(String[]): doc"),
            ((*METHOD, "returns"), ["Result"], "toylib.ArgParser.parse(String[]): returns"),
            ((*METHOD, "signature"), 5, "toylib.ArgParser: method: signature"),
            ((*METHOD, "params", 0, "name"), 3, "parse(String[]): param: name"),
            ((*METHOD, "params", 0, "doc"), None, "parse(String[]): param: doc"),
            ((*METHOD, "throws", 0, "exception"), 1, "parse(String[]): throws entry: exception"),
            ((*METHOD, "throws", 0, "condition"), False,
             "parse(String[]): throws ParseException: condition"),
            (("packages", 0, "classes", 0, "name"), 5, "class in toylib: name"),
            (("packages", 0, "classes", 0, "doc"), {}, "toylib.ArgParser: doc"),
            (("packages", 0, "name"), 5, "package: name"),
            (("packages", 0, "doc"), 1.5, "toylib: doc"),
        ],
    )
    def test_text_other_than_a_string_is_parse(self, tmp_path, where, value, entity):
        def edit(bundle):
            *parents, last = where
            reduce(getitem, parents, bundle)[last] = value

        path = write_spec(tmp_path / "demo", edit, "docs.json")
        with pytest.raises(EngineError) as exc:
            load_bundle(path)
        assert exc.value.code == "PARSE"
        assert exc.value.message.startswith(f"{path}: ")
        assert f"{entity} must be a string: {value!r}" in exc.value.message

    @pytest.mark.parametrize(
        "where, entity",
        [
            ((*METHOD, "signature"), "toylib.ArgParser: method: signature"),
            ((*METHOD, "throws", 0, "exception"), "parse(String[]): throws entry: exception"),
            (("packages", 0, "classes", 0, "name"), "class in toylib: name"),
            (("packages", 0, "name"), "package: name"),
        ],
    )
    def test_required_text_empty_is_parse(self, tmp_path, where, entity):
        def edit(bundle):
            *parents, last = where
            reduce(getitem, parents, bundle)[last] = ""

        path = write_spec(tmp_path / "demo", edit, "docs.json")
        with pytest.raises(EngineError) as exc:
            load_bundle(path)
        assert exc.value.code == "PARSE"
        assert exc.value.message.startswith(f"{path}: ") and f"{entity} missing" in exc.value.message

    def test_int_doc_fails_run_in_set_up(self, capsys, tmp_path):
        def edit(bundle):
            reduce(getitem, self.METHOD, bundle)["doc"] = 5

        path = write_spec(tmp_path / "demo", edit, "docs.json")
        code = main(["run", str(path.parent / "config.json"),
                     "--set", f"output_dir={tmp_path / 'runs'}"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"run failed: PARSE: {path}: ")
        assert "Traceback" not in err and not (tmp_path / "runs").exists()


# a config override -> the start of the problem `validate_config` reports for it
BAD_VALUES = [
    ('target.target_method=["parse(String[])"]', "target.target_method must look like"),
    ("model.script=3", "model.script must be a string"),
    ("adapter.sandbox_spec=[1]", "adapter.sandbox_spec must be a string"),
    ('target.facts={"a": 1}', "target.facts must be a string"),
    ("output_dir=7", "output_dir must be a string"),
    ("budgets.max_iterations=[1]", "budgets.max_iterations must be an object"),
    ('budgets.max_iterations={"GEN": "x"}', "budgets.max_iterations.GEN must be >= 1"),
    ("budgets.coverage_scope=method-targeted", "budgets.coverage_scope must be one of"),
    ("model.rate_in=abc", "model.rate_in must be a number >= 0"),
    ("budgets.depth_limit=1e999", "budgets.depth_limit must be a positive number"),
    ("model.api_key_env=3", "model.api_key_env must be a string"),
    ('adapter.shell.timeout_grace="x"', "adapter.shell.timeout_grace must be a number"),
    ("adapter.shell=3", "adapter.shell must be an object"),
    ("adapter.shell.coverage_out=3", "adapter.shell.coverage_out must be a string"),
    ("budgets.depth_limit=2.7", "budgets.depth_limit must be a positive number"),
    ("budgets.max_rounds=true", "budgets.max_rounds must be a positive number"),
    ('budgets.max_patch_rounds="2"', "budgets.max_patch_rounds must be a positive"),
    ('budgets.fuzz_seconds="5"', "budgets.fuzz_seconds must be a positive number"),
    ("budgets.wall_seconds=false", "budgets.wall_seconds must be a positive number"),
    # a number-valued key holds what a float holds finitely
    ("budgets.wall_seconds=Infinity", "budgets.wall_seconds must be a positive number"),
    ("budgets.fuzz_seconds=Infinity", "budgets.fuzz_seconds must be a positive number"),
    ("budgets.wall_seconds=NaN", "budgets.wall_seconds must be a positive number"),
    pytest.param("budgets.wall_seconds=1" + "0" * 400,
                 "budgets.wall_seconds must be a positive number", id="wall_seconds-400-digits"),
    ("model.rate_in=Infinity", "model.rate_in must be a number >= 0"),
    pytest.param("model.rate_out=1" + "0" * 400, "model.rate_out must be a number >= 0",
                 id="rate_out-400-digits"),
    ("adapter.shell.timeout_grace=Infinity", "adapter.shell.timeout_grace must be a number"),
    ('budgets.max_iterations={"GEN": 2.5}', "budgets.max_iterations.GEN must be >= 1"),
    ('budgets.max_iterations={"GEN": true}', "budgets.max_iterations.GEN must be >= 1"),
    ("model.rate_out=true", "model.rate_out must be a number >= 0"),
    ("budgets.max_round=1", "budgets has unknown key: max_round"),
    ("budgets.large_library=true", "budgets has unknown key: large_library"),
    # the shell adapter's keys, its pattern and its target paths, and the http backend
    ('adapter.shell={"compile_cmd": "x"}', "adapter.shell.fuzz_cmd is required"),
    ("adapter.shell.diagnostic_pattern=(unclosed",
     "adapter.shell.diagnostic_pattern does not compile"),
    ("adapter.shell.diagnostic_pattern=a{4294967296}",
     "adapter.shell.diagnostic_pattern does not compile"),
    ("adapter.shell.diagnostic_pattern=x",
     "adapter.shell.diagnostic_pattern lacks groups: file, line, message"),
    (r"adapter.shell.diagnostic_pattern=(?P<file>\S+):(?P<line>\d+)",
     "adapter.shell.diagnostic_pattern lacks groups: message"),
    pytest.param("adapter.shell.diagnostic_pattern=" + "(" * 1000 + ")" * 1000,
                 "adapter.shell.diagnostic_pattern does not compile", id="pattern-nested-deep"),
    ('adapter={"shell": {"compile_cmd": "true", "fuzz_cmd": "true", "coverage_out": "c.json"}}',
     "target.docs_bundle is required with the shell adapter"),
    ('model={"backend": "http", "endpoint": 3, "model": "m"}',
     "model.endpoint must be a non-empty string"),
    ('model={"backend": "http", "endpoint": "http://127.0.0.1:9", "model": ""}',
     "model.model must be a non-empty string"),
]


class TestConfigShapes:
    @pytest.mark.parametrize("section", ["target", "model", "budgets", "adapter"])
    def test_section_not_an_object_is_parse(self, tmp_path, section):
        raw = json.loads((DEMO_DIR / "config.json").read_text())
        raw[section] = ["not", "an", "object"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(EngineError) as exc:
            load_config(path)
        assert exc.value.code == "PARSE" and section in exc.value.message

    def test_top_level_not_an_object_is_parse(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[]")
        with pytest.raises(EngineError) as exc:
            load_config(path)
        assert exc.value.code == "PARSE"

    @pytest.mark.parametrize("override, problem", BAD_VALUES)
    def test_bad_value_is_a_problem(self, override, problem):
        problems = validate_config(load_config(DEMO_DIR / "config.json", [override]))
        assert any(p.startswith(problem) for p in problems), problems

    @pytest.mark.parametrize("scope", ["method_targeted", "full"])
    def test_known_scopes_are_valid(self, scope):
        config = load_config(DEMO_DIR / "config.json", [f"budgets.coverage_scope={scope}"])
        assert validate_config(config) == []

    @pytest.mark.parametrize("override", [
        "budgets.wall_seconds=1e308", "budgets.fuzz_seconds=" + str(2**1000), "model.rate_in=0",
        # an integer key takes a positive JSON integer of any size
        "budgets.max_rounds=1" + "0" * 400, "budgets.depth_limit=" + str(2**1100),
        "budgets.max_iterations.GEN=1" + "0" * 400,
    ], ids=lambda override: override.partition("=")[0])
    def test_large_numbers_are_valid(self, override):
        assert validate_config(load_config(DEMO_DIR / "config.json", [override])) == []


class TestCli:
    def test_run_with_malformed_facts_fails_cleanly(self, capsys, tmp_path):
        facts = tmp_path / "facts.json"
        facts.write_text(json.dumps({"methods": [{"class": "toylib.ArgParser"}]}))
        code = main([
            "run", str(DEMO_DIR / "config.json"),
            "--set", f"output_dir={tmp_path / 'runs'}",
            "--set", f"target.facts={facts}",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("run failed: PARSE") and "Traceback" not in err

    def test_run_with_a_bad_rule_regex_fails_in_setup(self, capsys, tmp_path):
        def edit(spec):
            spec["compile_rules"][0]["pattern"] = "^("

        spec = write_spec(tmp_path / "demo", edit)
        code = main(["run", str(spec.parent / "config.json"),
                     "--set", f"output_dir={tmp_path / 'runs'}"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"run failed: PARSE: {spec}: ValueError: pattern of ")
        assert "compile rule 0: '^('" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["run", "validate", "tools"])
    def test_coverage_scope_typo_is_a_config_error(self, capsys, tmp_path, command):
        argv = [command, str(DEMO_DIR / "config.json"),
                "--set", "budgets.coverage_scope=method-targeted",
                "--set", f"output_dir={tmp_path / 'runs'}"]
        code = main(argv + (["--role", "CVA"] if command == "tools" else []))
        err = capsys.readouterr().err
        assert code == 1 and "config error: budgets.coverage_scope" in err
        assert not (tmp_path / "runs").exists()

    # an override of a valid shell and http config -> the key its config
    # error names; `validate` once passed each, and set-up or the run failed
    CRASHING = {
        "model.api_key_env=3": "model.api_key_env",
        'adapter.shell.timeout_grace="x"': "adapter.shell.timeout_grace",
        "adapter.shell.timeout_grace=Infinity": "adapter.shell.timeout_grace",
        "budgets.wall_seconds=Infinity": "budgets.wall_seconds",
        'adapter.shell={"compile_cmd": "true", "coverage_out": "cov.json"}':
            "adapter.shell.fuzz_cmd",
        'adapter.shell.diagnostic_pattern="("': "adapter.shell.diagnostic_pattern",
        'adapter.shell.diagnostic_pattern="x"': "adapter.shell.diagnostic_pattern",
        'target.docs_bundle=""': "target.docs_bundle",
        "model.endpoint=3": "model.endpoint",
    }

    @pytest.mark.parametrize("override", list(CRASHING))
    def test_value_that_would_crash_run_is_a_config_error(self, capsys, tmp_path, override):
        raw = json.loads((DEMO_DIR / "config.json").read_text())
        raw["model"] = {"backend": "http", "endpoint": "http://127.0.0.1:9", "model": "m"}
        raw["adapter"] = {"shell": {"compile_cmd": "true", "fuzz_cmd": "true",
                                    "coverage_out": "cov.json"}}
        raw["target"].update(docs_bundle=str(DEMO_DIR / "docs.json"),
                             source_root=str(DEMO_DIR / "src"),
                             facts=str(DEMO_DIR / "facts.json"))
        raw["output_dir"] = str(tmp_path / "runs")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        for argv in (["validate"], ["run"], ["tools", "--role", "CVA"]):
            code = main([*argv, str(path), "--set", override])
            err = capsys.readouterr().err
            assert code == 1 and "config error: " + self.CRASHING[override] in err, argv
            assert "Traceback" not in err and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override, problem", BAD_VALUES)
    def test_run_refuses_what_validate_refuses(self, capsys, tmp_path, override, problem):
        """`run` prints `validate`'s verdict, exits 1 and writes no run directory."""
        argv = [str(DEMO_DIR / "config.json"),
                "--set", f"output_dir={tmp_path / 'runs'}", "--set", override]
        assert main(["validate", *argv]) == 1
        verdict = capsys.readouterr().err
        assert f"config error: {problem}" in verdict
        assert main(["run", *argv]) == 1
        assert capsys.readouterr().err == verdict
        assert not (tmp_path / "runs").exists()

    def test_run_dir_that_cannot_be_made_is_io(self, capsys, tmp_path):
        """`validate` passes an `output_dir` that is a regular file; the run
        cannot create its directory there and fails with IO, not a traceback."""
        blocker = tmp_path / "runs"
        blocker.write_text("not a directory")
        argv = [str(DEMO_DIR / "config.json"), "--set", f"output_dir={blocker}"]
        assert main(["validate", *argv]) == 0
        capsys.readouterr()
        assert main(["run", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"run failed: IO: cannot create run directory {blocker}/")
        assert "Traceback" not in err and blocker.read_text() == "not a directory"

    def test_manifest_that_cannot_be_written_is_io(self, capsys, tmp_path, monkeypatch):
        """A directory where the manifest goes: the run ends in IO naming
        the file, not a traceback."""
        set_up = WorkflowRunner._setup_run_dir

        def blocked(runner, run_dir):
            set_up(runner, run_dir)
            (runner.run_dir / "manifest.json").mkdir()

        monkeypatch.setattr(WorkflowRunner, "_setup_run_dir", blocked)
        argv = ["run", str(DEMO_DIR / "config.json"), "--set", f"output_dir={tmp_path / 'runs'}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: IO: cannot write the run record: ")
        assert "manifest.json" in err and "Traceback" not in err

    def test_campaign_file_without_keys_is_toolchain_failed(self, capsys, tmp_path):
        path = write_shell_config(
            # {{}} is the command template's escape for {}
            tmp_path, compile_cmd="true", fuzz_cmd=f"echo '{{{{}}}}' > {tmp_path / 'cov.json'}"
        )
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "outcome: toolchain_failed" in out and "Traceback" not in out + err
        manifest = json.loads(Path(out.splitlines()[0], "manifest.json").read_text())
        assert manifest["error"].startswith(f"PARSE: {tmp_path / 'cov.json'}: KeyError: ")
        assert manifest["transitions"][-2:] == ["fuzz", "failed"]

    @pytest.mark.parametrize("command", ["run", "validate", "tools"])
    def test_missing_config_file(self, capsys, tmp_path, command):
        argv = [command, str(tmp_path / "nope.json")]
        code = main(argv + (["--role", "CVA"] if command == "tools" else []))
        err = capsys.readouterr().err
        assert code == 1 and "config error: config file not found" in err

    def test_unknown_role_has_its_own_message(self, capsys):
        code = main(["tools", str(DEMO_DIR / "config.json"), "--role", "CVX"])
        err = capsys.readouterr().err
        assert code == 1 and err.strip() == "error: unknown role: CVX"

    def test_report_of_a_manifest_that_is_not_an_object(self, capsys, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2]")
        code = main(["report", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and "a manifest must be an object" in err
