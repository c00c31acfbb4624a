"""A loaded config is the config a run uses.

`load_config` fills in every default of `config.DEFAULTS` and makes every
path absolute against the config file's directory, so validation and set-up
read the same values, wherever the command runs from.
"""

from __future__ import annotations

import json

import pytest

from conftest import DEMO_DIR, REPO_ROOT
from harnessgen.cli import main
from harnessgen.config import DEFAULTS, load_config, validate_config
from harnessgen.orchestrator import TargetSpec, build_services

DEMO = DEMO_DIR.resolve()
SHELL = {"compile_cmd": "true", "fuzz_cmd": "true", "coverage_out": "cov.json"}


def test_demo_config_holds_every_default_with_the_file_winning(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    config = load_config("demo/config.json")
    raw = json.loads((DEMO_DIR / "config.json").read_text())
    assert config.target == {**DEFAULTS["target"], **raw["target"]}
    assert config.target["library_version"] == "1.0"
    assert config.model == {
        **DEFAULTS["model"], **raw["model"], "script": str(DEMO / "scripts" / "happy.json")
    }
    assert config.model["rate_in"] == 3e-06 and config.model["api_key_env"] == "HARNESSGEN_API_KEY"
    assert config.budgets == {**DEFAULTS["budgets"], **raw["budgets"]}
    assert config.budgets["fuzz_seconds"] == 5
    assert config.budgets["coverage_scope"] == "method_targeted"
    assert config.adapter == {"sandbox_spec": str(DEMO / "sandbox.json")}
    assert config.output_dir == str(DEMO / "runs")
    assert validate_config(config) == []


def test_set_paths_resolve_against_the_config_not_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = load_config(
        DEMO_DIR / "config.json",
        ["output_dir=runs", "model.script=scripts/crash.json", "target.facts=facts.json"],
    )
    assert config.output_dir == str(DEMO / "runs")
    assert config.model["script"] == str(DEMO / "scripts" / "crash.json")
    assert config.target["facts"] == str(DEMO / "facts.json")
    assert validate_config(config) == []


def test_shell_adapter_gets_the_table_defaults():
    overrides = [f"adapter={json.dumps({'shell': SHELL})}", "target.docs_bundle=docs.json",
                 "target.source_root=src", "target.facts=facts.json"]
    config = load_config(DEMO_DIR / "config.json", overrides)
    assert config.adapter["shell"] == {
        "timeout_grace": 5.0,
        "diagnostic_pattern": DEFAULTS["adapter.shell"]["diagnostic_pattern"],
        **SHELL,
        "coverage_out": str(DEMO / "cov.json"),
    }
    assert validate_config(config) == []
    adapter = build_services(config, TargetSpec.from_config(config)).adapter
    assert adapter.timeout_grace == 5.0
    assert adapter.diagnostic_pattern.pattern == DEFAULTS["adapter.shell"]["diagnostic_pattern"]
    assert adapter.coverage_out == DEMO / "cov.json"


def test_path_existence_error_names_the_resolved_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", str(DEMO_DIR / "config.json"), "--set", "target.facts=nope.json"]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: target.facts does not exist: {DEMO / 'nope.json'}\n"


# an edge override -> the verdict `validate` prints for it, the same before
# the defaults moved into `load_config`
EDGE_VERDICTS = {
    "adapter.shell={}": "config ok",
    "budgets.max_iterations=3": "config error: budgets.max_iterations must be an object",
    'output_dir=""': "config ok",
    "model.api_key_env=3": "config error: model.api_key_env must be a string: 3",
}


@pytest.mark.parametrize("override", list(EDGE_VERDICTS))
def test_edge_verdicts(capsys, override):
    code = main(["validate", str(DEMO_DIR / "config.json"), "--set", override])
    out = capsys.readouterr()
    assert (out.out + out.err).strip() == EDGE_VERDICTS[override]
    assert code == (0 if EDGE_VERDICTS[override] == "config ok" else 1)


def test_edge_values_are_kept_as_given():
    """`{}` stays no shell adapter; a value of the wrong type is not filled over."""
    def load(override):
        return load_config(DEMO_DIR / "config.json", [override])

    assert load("adapter.shell={}").adapter["shell"] == {}
    assert load("adapter.shell=3").adapter["shell"] == 3
    assert load("budgets.max_iterations=3").budgets["max_iterations"] == 3
    assert load("model.api_key_env=3").model["api_key_env"] == 3
    assert load("output_dir=7").output_dir == 7
    assert load('output_dir=""').output_dir == str(DEMO)
    assert load('target.facts=""').target["facts"] == ""


def shell_config(**commands):
    """The demo config on the shell adapter with `commands` over `SHELL`'s."""
    shell = json.dumps({**SHELL, **commands})
    return load_config(DEMO_DIR / "config.json", [
        "adapter.sandbox_spec=", f"adapter.shell={shell}", "target.docs_bundle=docs.json",
        "target.source_root=src", "target.facts=facts.json",
    ])


@pytest.mark.parametrize(
    "key, template, error",
    [
        ("fuzz_cmd", "echo ${HOME} > cov.json {duration}", "KeyError: 'HOME'"),
        ("compile_cmd", "cc {harness} -t {duration}", "KeyError: 'duration'"),
        ("compile_cmd", "cc {harness} {", "ValueError: Single '{' encountered in format string"),
        ("fuzz_cmd", "fuzz {0}", "IndexError: "),
        ("fuzz_cmd", "fuzz {duration.real.x}", "AttributeError: "),
        ("fuzz_cmd", "fuzz {duration[0]}", "TypeError: "),
    ],
    ids=["shell-variable", "duration-in-compile", "lone-brace", "positional", "attribute",
         "index"],
)
def test_a_stray_brace_in_a_command_is_a_config_error(key, template, error):
    (problem,) = validate_config(shell_config(**{key: template}))
    names = "{harness} and {duration}" if key == "fuzz_cmd" else "{harness}"
    assert problem.startswith(
        f"adapter.shell.{key} may hold only {names} in braces, and {{{{ or }}}} for a literal"
        f" brace: {error}"
    )


def test_escaped_braces_and_both_placeholders_pass():
    config = shell_config(compile_cmd="cc {harness}", fuzz_cmd="echo {{}} {harness} {duration}")
    assert validate_config(config) == []


def test_validate_names_the_bad_command(capsys):
    shell = json.dumps({**SHELL, "fuzz_cmd": "echo ${HOME} > cov.json"})
    code = main(["validate", str(DEMO_DIR / "config.json"), "--set", "adapter.sandbox_spec=",
                 "--set", f"adapter.shell={shell}", "--set", "target.docs_bundle=docs.json",
                 "--set", "target.source_root=src", "--set", "target.facts=facts.json"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: adapter.shell.fuzz_cmd may hold only")
