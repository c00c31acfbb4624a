from __future__ import annotations

import csv
import io
import json

import pytest

from conftest import DEMO_DIR
from harnessgen.cli import main, render_report_csv, render_report_text
from harnessgen.model_backend import ScriptedBackend


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


def write_shell_config(tmp_path, wall_seconds=None, **shell):
    """The demo config on the shell adapter with `shell` commands; returns its path."""
    config = json.loads((DEMO_DIR / "config.json").read_text())
    config["model"]["script"] = str(DEMO_DIR / "scripts" / "happy.json")
    config["output_dir"] = str(tmp_path / "runs")
    config["adapter"] = {"shell": {"coverage_out": "cov.json", **shell}}
    config["target"].update(
        docs_bundle=str(DEMO_DIR / "docs.json"),
        source_root=str(DEMO_DIR / "src"),
        facts=str(DEMO_DIR / "facts.json"),
    )
    if wall_seconds is not None:
        config["budgets"]["wall_seconds"] = wall_seconds
    path = tmp_path / "shell.json"
    path.write_text(json.dumps(config))
    return path


class TestRun:
    def test_success_exit_zero(self, capsys, tmp_path):
        code, run_dir, out, _ = run_to_dir(capsys, tmp_path, "scripts/happy.json")
        assert code == 0
        assert "outcome: success" in out
        assert (tmp_path / "runs") in list((tmp_path / "runs").parent.iterdir())
        assert json.loads(open(f"{run_dir}/manifest.json").read())["outcome"] == "success"

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
        manifest = json.loads(open(f"{out.splitlines()[0]}/manifest.json").read())
        assert manifest["outcome"] == "toolchain_failed"
        assert manifest["error"] == "EXEC: fuzz command exited with status 7: boom"
        assert manifest["transitions"][-2:] == ["fuzz", "failed"]

    def test_compile_timeout_is_budget_exhausted(self, capsys, tmp_path):
        path = write_shell_config(
            tmp_path, compile_cmd="sleep 5", fuzz_cmd="true", wall_seconds=0.5
        )
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 3 and "outcome: budget_exhausted" in out
        manifest = json.loads(open(f"{out.splitlines()[0]}/manifest.json").read())
        assert manifest["error"].startswith("COMPILE_TIMEOUT: compile command timed out")
        assert manifest["transitions"][-2:] == ["compile", "failed"]
        assert manifest["fuzz_timeout"] is False
        assert manifest["timings"]["compile"] < 2.0

    def test_internal_error_exit_two(self, capsys, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise KeyError("lost")

        monkeypatch.setattr(ScriptedBackend, "complete", explode)
        code, run_dir, out, _ = run_to_dir(capsys, tmp_path, "scripts/happy.json")
        assert code == 2 and "outcome: internal_error" in out
        manifest = json.loads(open(f"{run_dir}/manifest.json").read())
        assert manifest["error"] == "KeyError: 'lost'"

    def test_invalid_config_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"target": {}, "model": {}, "adapter": {}}))
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 1 and "config error" in err

    def test_missing_config_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert code == 1 and "config error" in err


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


@pytest.fixture()
def finished_run(capsys, tmp_path):
    _, run_dir, _, _ = run_to_dir(capsys, tmp_path, "scripts/happy.json")
    return run_dir


class TestReport:
    def test_json_is_byte_identical_passthrough(self, capsys, finished_run):
        code, out, _ = run_cli(capsys, "report", finished_run, "--format", "json")
        assert code == 0
        assert out == open(f"{finished_run}/manifest.json").read()

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
        manifest = json.loads(open(f"{finished_run}/manifest.json").read())
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
