from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEMO_DIR, REPO_ROOT, write_shell_config
from harnessgen.cli import (
    _OUTCOME_EXITS,
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    main,
    render_report_csv,
    render_report_text,
)
from harnessgen.ecosystem import SandboxAdapter
from harnessgen.errors import EngineError
from harnessgen.model_backend import ScriptedBackend
from harnessgen.orchestrator import PHASE_GRAPH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to_dir(capsys, tmp_path, script, *extra):
    code, out, err = run_cli(
        capsys,
        "run",
        str(DEMO_DIR / "config.json"),
        "--set",
        f"output_dir={tmp_path / 'runs'}",
        "--set",
        f"model.script={script}",
        *extra,
    )
    run_dir = out.splitlines()[0] if out else ""
    return code, run_dir, out, err


class TestRun:
    def test_success_exit_zero(self, capsys, tmp_path):
        code, run_dir, out, _ = run_to_dir(capsys, tmp_path, "scripts/happy.json")
        assert code == 0
        assert "outcome: success" in out
        assert (tmp_path / "runs") in list((tmp_path / "runs").parent.iterdir())
        assert json.loads(Path(run_dir, "manifest.json").read_text())["outcome"] == "success"

    def test_converged_exit_zero(self, capsys, tmp_path):
        code, _, out, _ = run_to_dir(capsys, tmp_path, "scripts/converge.json")
        assert code == 0 and "outcome: converged" in out

    def test_compile_failed_exit_two(self, capsys, tmp_path):
        code, _, out, _ = run_to_dir(capsys, tmp_path, "scripts/patch_fail.json")
        assert code == 2 and "outcome: compile_failed" in out

    def test_model_failed_exit_two(self, capsys, tmp_path):
        code, _, out, _ = run_to_dir(capsys, tmp_path, "scripts/genfail.json")
        assert code == 2 and "outcome: model_failed" in out

    def test_budget_exit_three(self, capsys, tmp_path):
        code, _, out, _ = run_to_dir(
            capsys, tmp_path, "scripts/budget.json", "--set", "budgets.max_rounds=1"
        )
        assert code == 3 and "outcome: budget_exhausted" in out

    def test_toolchain_failure_exit_two(self, capsys, tmp_path):
        path = write_shell_config(tmp_path, compile_cmd="true", fuzz_cmd="echo boom >&2; exit 7")
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 2 and "outcome: toolchain_failed" in out
        manifest = json.loads(Path(out.splitlines()[0], "manifest.json").read_text())
        assert manifest["outcome"] == "toolchain_failed"
        assert manifest["error"] == "EXEC: fuzz command exited with status 7: boom"
        assert manifest["transitions"][-2:] == ["fuzz", "failed"]

    def test_coverage_id_not_a_string_is_toolchain_failed(self, capsys, tmp_path):
        runs = [[5, "line_hit", 150, [1]], ["zz.Q.r()", "line_hit", 150, [1]]]
        (tmp_path / "ids.json").write_text(json.dumps({
            "windows": [[100, 200]], "method_totals": {"zz.Q.r()": [2, 0]}, "runs": runs,
            "executions": 1,
        }))
        path = write_shell_config(
            tmp_path, compile_cmd="true",
            fuzz_cmd=f"cp {tmp_path / 'ids.json'} {tmp_path / 'cov.json'}",
        )
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 2 and "outcome: toolchain_failed" in out
        manifest = json.loads(Path(out.splitlines()[0], "manifest.json").read_text())
        assert manifest["error"] == (
            f"PARSE: {tmp_path / 'cov.json'}: ValueError: (5, 'line_hit', 150):"
            " not an id, line_hit or branch_hit, and a number"
        )
        assert manifest["transitions"][-2:] == ["fuzz", "failed"]

    def test_unreadable_diagnostic_is_toolchain_failed(self, capsys, tmp_path):
        path = write_shell_config(
            tmp_path, compile_cmd="echo 'f.java:abc: boom'; exit 1", fuzz_cmd="true",
            diagnostic_pattern=r"(?P<file>[^:]+):(?P<line>\w+):\s*(?P<message>.+)",
        )
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 2 and "outcome: toolchain_failed" in out
        manifest = json.loads(Path(out.splitlines()[0], "manifest.json").read_text())
        assert manifest["error"].startswith("PARSE: diagnostic_pattern ")
        assert "matched 'f.java:abc: boom'" in manifest["error"]
        assert manifest["transitions"][-2:] == ["compile", "failed"]

    def test_compile_timeout_is_budget_exhausted(self, capsys, tmp_path):
        path = write_shell_config(
            tmp_path, compile_cmd="sleep 5", fuzz_cmd="true", wall_seconds=0.5
        )
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 3 and "outcome: budget_exhausted" in out
        manifest = json.loads(Path(out.splitlines()[0], "manifest.json").read_text())
        assert manifest["error"].startswith("COMPILE_TIMEOUT: compile command timed out")
        assert manifest["transitions"][-2:] == ["compile", "failed"]
        assert manifest["fuzz_timeout"] is False
        assert manifest["timings"]["compile"] < 2.0

    def test_sigterm_leaves_manifest_and_exits_130(self, tmp_path):
        path = write_shell_config(tmp_path, compile_cmd="sleep 5", fuzz_cmd="true")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "harnessgen.cli", "run", str(path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            # the first harness version is saved just before the compile starts
            while not list((tmp_path / "runs").glob("*/harness/v1.src")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.3)
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 130, err
        assert time.monotonic() - started < 4.0  # did not wait out `sleep 5`
        assert "run interrupted" in err
        (manifest_path,) = (tmp_path / "runs").glob("*/manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["outcome"] == "interrupted" and manifest["error"] == "KeyboardInterrupt"
        assert manifest["transitions"][-2:] == ["compile", "failed"]

    def test_internal_error_exit_two(self, capsys, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise KeyError("lost")

        monkeypatch.setattr(ScriptedBackend, "complete", explode)
        code, run_dir, out, _ = run_to_dir(capsys, tmp_path, "scripts/happy.json")
        assert code == 2 and "outcome: internal_error" in out
        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        assert manifest["error"] == "KeyError: 'lost'"

    def test_invalid_config_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"target": {}, "model": {}, "adapter": {}}))
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 1 and "config error" in err

    def test_missing_config_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert code == 1 and "config error" in err


# site -> (owner, method, the most calls a demo run below makes to it)
FAULT_SITES = {
    "compile": (SandboxAdapter, "compile", 3),
    "fuzz": (SandboxAdapter, "fuzz", 2),
    "complete": (ScriptedBackend, "complete", 9),
}
# the codes `WorkflowRunner.run` tells apart, and one it does not name
FAULT_CODES = ("FUZZ_TIMEOUT", "COMPILE_TIMEOUT", "COMPILE_FAILED", "EXEC", "MODEL_PROTOCOL")
faults = st.one_of(
    st.sampled_from(FAULT_CODES).map(lambda code: EngineError(code, "injected")),
    st.just(RuntimeError("injected")),
    st.just(KeyboardInterrupt()),
)


def outcome_of(site: str, fault: BaseException) -> str:
    """The outcome `WorkflowRunner.run` gives a run that `fault` ends."""
    if isinstance(fault, KeyboardInterrupt):
        return "interrupted"
    if not isinstance(fault, EngineError):
        return "internal_error"
    if fault.code in ("FUZZ_TIMEOUT", "COMPILE_TIMEOUT"):
        return "budget_exhausted"
    if fault.code == "COMPILE_FAILED":  # from any site, as the run maps the code itself
        return "compile_failed"
    # any other adapter error is a toolchain error
    return "toolchain_failed" if site != "complete" else "model_failed"


fault_points = st.sampled_from(sorted(FAULT_SITES)).flatmap(
    lambda site: st.tuples(st.just(site), st.integers(0, FAULT_SITES[site][2]))
)


def run_with_fault(script, owner, name, flaky):
    """A demo run with `owner.name` replaced by `flaky`: the exit code, the
    manifest, its path, the number of saved `coverage/r*.json` and stdout."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(owner, name, flaky):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([
                "run", str(DEMO_DIR / "config.json"),
                "--set", f"output_dir={tmp}",
                "--set", f"model.script=scripts/{script}.json",
            ])
        (manifest_path,) = Path(tmp).glob("*/manifest.json")
        manifest = json.loads(manifest_path.read_text())
        saved_rounds = len(list(manifest_path.parent.glob("coverage/r*.json")))
    return code, manifest, manifest_path, saved_rounds, out.getvalue()


def assert_complete_record(code, manifest, saved_rounds):
    """Legal transitions, the exit code of the outcome, an error on every
    failed outcome, and a row for each saved round."""
    transitions = ["init", *manifest["transitions"]]
    assert all(b in PHASE_GRAPH[a] for a, b in zip(transitions, transitions[1:]))
    assert transitions[-1] in ("done", "failed")
    exits = {**_OUTCOME_EXITS, "interrupted": EXIT_INTERRUPTED}
    assert code == exits[manifest["outcome"]]
    if code == EXIT_FAILED:
        assert manifest["error"]
    assert len(manifest["rounds"]) == saved_rounds


class TestFaultInjection:
    @settings(max_examples=100, deadline=None)
    @given(
        script=st.sampled_from(["happy", "crash", "patch_fix", "converge"]),
        point=fault_points,
        fault=faults,
    )
    def test_any_fault_leaves_a_legal_run_record(self, script, point, fault):
        """A fault at the `nth` call of an adapter or backend method (none if
        the run makes fewer calls) still leaves a complete run record whose
        outcome is the fault's."""
        site, nth = point
        owner, name, _ = FAULT_SITES[site]
        real = getattr(owner, name)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(name)
            if len(calls) == nth + 1:
                raise fault
            return real(*args, **kwargs)

        code, manifest, manifest_path, saved_rounds, out = run_with_fault(
            script, owner, name, flaky
        )
        assert_complete_record(code, manifest, saved_rounds)
        if len(calls) > nth:
            assert manifest["outcome"] == outcome_of(site, fault)
            assert manifest["fuzz_timeout"] == (getattr(fault, "code", None) == "FUZZ_TIMEOUT")
            if not isinstance(fault, KeyboardInterrupt):
                assert manifest["error"].endswith("injected")
        else:
            assert out.splitlines()[0] == str(manifest_path.parent)

    @settings(max_examples=40, deadline=None)
    @given(
        script=st.sampled_from(["happy", "crash", "patch_fix", "converge", "budget"]),
        nth=st.integers(0, 13),
    )
    def test_garbled_turn_leaves_a_complete_record(self, script, nth):
        """The `nth` model turn replaced by prose with no tool call: the
        agent may recover, or the run fails with an error."""
        real = ScriptedBackend.complete
        calls = []

        def garbled(*args, **kwargs):
            calls.append(1)
            turn = real(*args, **kwargs)
            if len(calls) == nth + 1:
                turn.text, turn.tool_calls = "prose with no answer in it", []
            return turn

        code, manifest, _, saved_rounds, _ = run_with_fault(
            script, ScriptedBackend, "complete", garbled
        )
        assert_complete_record(code, manifest, saved_rounds)


class TestTools:
    def test_table_lists_all_sixteen(self, capsys):
        code, out, _ = run_cli(
            capsys, "tools", str(DEMO_DIR / "config.json"), "--role", "CVA"
        )
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 16
        table = {line.split()[0]: line.split()[2] for line in body}
        assert table["reach_methods"] == "static_only"
        assert table["path_to_method"] == "allowed"
        assert table["compile"] == "denied"
        assert table["fuzz"] == "static_only"

    def test_rsh_denied_exec(self, capsys):
        code, out, _ = run_cli(
            capsys, "tools", str(DEMO_DIR / "config.json"), "--role", "RSH"
        )
        table = {line.split()[0]: line.split()[2] for line in out.splitlines()[1:]}
        assert table["compile"] == "denied" and table["fuzz"] == "denied"
        assert table["method_doc"] == "allowed"

    def test_unknown_target_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys, "tools", str(DEMO_DIR / "config.json"), "--role", "CVA",
            "--set", "target.target_method=nosuch()",
        )
        assert code == 1 and out == ""
        assert "ArgParser.nosuch()" in err

    def test_shell_adapter_requires_target_paths(self, capsys, tmp_path):
        config = json.loads((DEMO_DIR / "config.json").read_text())
        config["model"]["script"] = str(DEMO_DIR / "scripts" / "happy.json")
        config["adapter"] = {
            "shell": {"compile_cmd": "true", "fuzz_cmd": "true", "coverage_out": "cov.json"}
        }
        path = tmp_path / "shell.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "tools", str(path), "--role", "CVA")
        assert code == 1 and out == ""
        assert "target.docs_bundle is required" in err

    def test_unknown_role(self, capsys):
        code, _, err = run_cli(
            capsys, "tools", str(DEMO_DIR / "config.json"), "--role", "BOSS"
        )
        assert code == 1 and "unknown role" in err

    @pytest.mark.parametrize("argv", [["validate"], ["tools", "--role", "CVA"]])
    def test_writes_nothing(self, capsys, tmp_path, argv):
        """`tools` builds the services a run does and may read the symbol
        cache under `output_dir`, but neither it nor `validate` writes one."""
        out = tmp_path / "runs"
        code, _, _ = run_cli(
            capsys, argv[0], str(DEMO_DIR / "config.json"), *argv[1:], "--set", f"output_dir={out}"
        )
        assert code == 0 and not out.exists()


@pytest.fixture()
def finished_run(capsys, tmp_path):
    _, run_dir, _, _ = run_to_dir(capsys, tmp_path, "scripts/happy.json")
    return run_dir


class TestReport:
    def test_json_is_byte_identical_passthrough(self, capsys, finished_run):
        code, out, _ = run_cli(capsys, "report", finished_run, "--format", "json")
        assert code == 0
        assert out == Path(finished_run, "manifest.json").read_text()

    def test_text_table(self, capsys, finished_run):
        code, out, _ = run_cli(capsys, "report", finished_run, "--format", "text")
        assert code == 0
        assert "outcome: success" in out
        assert "PAT" in out and "0/0" in out
        assert "RES" in out and "--" not in out.split("RES")[1].splitlines()[0]

    def test_csv_round_trips_floats(self, capsys, finished_run):
        code, out, _ = run_cli(capsys, "report", finished_run, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        manifest = json.loads(Path(finished_run, "manifest.json").read_text())
        assert len(rows) == len(manifest["rounds"])
        for got, want in zip(rows, manifest["rounds"]):
            # repr-based serialization must be lossless
            assert float(got["line_pct"]) == want["line_percent"]
            assert float(got["branch_pct"]) == want["branch_percent"]
            assert got["decision"] == want["decision"]

    def test_missing_run_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "ghost"))
        assert code == 1 and "manifest not found" in err


class TestRenderHelpers:
    def test_text_includes_totals_row(self):
        manifest = {
            "target": {"library_name": "l", "library_version": "1", "target_class": "C", "target_method": "m()"},
            "outcome": "success",
            "accounting": {
                "rows": [
                    {"agent": "RES", "iterations": "2", "tool_calls": "1", "tokens": 10, "cost": 0.5}
                ],
                "totals": {"iterations": 2, "tool_calls": 1, "tokens": 10, "cost": 0.5},
            },
            "rounds": [],
        }
        text = render_report_text(manifest)
        assert "Total" in text and "0.5000" in text

    def test_csv_header(self):
        assert render_report_csv({"rounds": []}).splitlines()[0] == (
            "round,line_pct,branch_pct,decision,crashes"
        )


class TestValidate:
    def test_demo_config_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(DEMO_DIR / "config.json"))
        assert code == 0 and "config ok" in out

    def test_collects_all_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "target": {"target_method": "not a signature"},
                    "model": {"backend": "carrier-pigeon"},
                    "budgets": {"max_rounds": -2},
                    "adapter": {},
                }
            )
        )
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        messages = err.strip().splitlines()
        assert len(messages) >= 5
        joined = "\n".join(messages)
        assert "library_name" in joined
        assert "target_method" in joined
        assert "backend" in joined
        assert "max_rounds" in joined
        assert "adapter" in joined

    def test_set_override_can_fix_config(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "validate",
            str(DEMO_DIR / "config.json"),
            "--set",
            "budgets.max_rounds=9",
        )
        assert code == 0

    def test_bad_override_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "validate", str(DEMO_DIR / "config.json"), "--set", "noequals"
        )
        assert code == 1 and "key=value" in err

    @pytest.mark.parametrize("command", ["run", "tools", "validate"])
    def test_each_config_command_explains_set(self, capsys, command):
        """run, tools and validate take the same config arguments."""
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert "--set KEY=VALUE  dotted-path override" in out and "\n  config\n" in out
