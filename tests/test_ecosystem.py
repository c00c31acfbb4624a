from __future__ import annotations

import json
import math
import shlex
import sys
import tempfile
import time
from pathlib import Path

import pytest

from harnessgen.config import DEFAULTS, load_config
from harnessgen.coverage import (
    CoverageReport,
    MethodCoverage,
    RecordingTrace,
    RunEvents,
    TraceRun,
)
from harnessgen.ecosystem import (
    _WINDOW,
    ShellAdapter,
    _pattern_matches,
    crash_dedup_key,
    load_sandbox,
)
from harnessgen.errors import EngineError
from harnessgen.orchestrator import TargetSpec, run_workflow

from conftest import DEMO_DIR, make_harness
from test_golden_runs import SCENARIOS

BASE = "void fuzzTarget(byte[] data) { parser.parse(args); }"
LONG = BASE + " // LONG_OPTS"
SHORT = BASE + " // SHORT_OPTS"
BOTH = BASE + " // LONG_OPTS SHORT_OPTS"


class TestLoadSandbox:
    def test_demo_spec_loads(self, sandbox):
        assert len(sandbox.spec.method_totals) == 12
        assert len(sandbox.spec.compile_rules) == 2
        assert len(sandbox.spec.coverage_rules) == 4
        assert len(sandbox.spec.crash_rules) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(EngineError) as exc:
            load_sandbox(tmp_path / "nope.json")
        assert exc.value.code == "IO" and "sandbox spec not found" in exc.value.message

    def test_missing_reference(self, tmp_path, demo_dir):
        raw = json.loads((demo_dir / "sandbox.json").read_text())
        raw["facts"] = "missing-facts.json"
        (tmp_path / "docs.json").write_text((demo_dir / "docs.json").read_text())
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "A.tl").write_text("class A {}")
        raw["docs_bundle"] = "docs.json"
        raw["source_root"] = "src"
        spec = tmp_path / "sandbox.json"
        spec.write_text(json.dumps(raw))
        with pytest.raises(EngineError) as exc:
            load_sandbox(spec)
        assert exc.value.code == "CONFIG" and "facts" in exc.value.message

    def test_missing_key(self, tmp_path):
        spec = tmp_path / "sandbox.json"
        spec.write_text(json.dumps({"docs_bundle": "x"}))
        with pytest.raises(EngineError) as exc:
            load_sandbox(spec)
        assert exc.value.code == "CONFIG"


class TestSandboxCompile:
    def test_valid_harness_compiles(self, sandbox):
        result = sandbox.compile(make_harness(BASE))
        assert result.success and result.diagnostics == ()

    def test_missing_entrypoint(self, sandbox):
        result = sandbox.compile(make_harness("void main() {}"))
        assert not result.success
        assert result.errors()[0].message == "missing entrypoint fuzzTarget"

    def test_broken_import(self, sandbox):
        result = sandbox.compile(make_harness(BASE + "\nimport BROKEN_IMPORT;"))
        assert not result.success
        assert "toylib.Missing" in result.errors()[0].message

    def test_deterministic(self, sandbox):
        h = make_harness("void main() {}")
        assert sandbox.compile(h) == sandbox.compile(h)

    def test_timeout_accepted_and_ignored(self, sandbox):
        h = make_harness(BASE)
        assert sandbox.compile(h, timeout=0.0) == sandbox.compile(h)


class TestSandboxCoverage:
    def test_base_rule_hand_computed(self, sandbox):
        report = sandbox.fuzz(make_harness(BASE), 10).coverage
        by_id = report.by_id()
        # oracle: ceil(fraction * total) computed by hand from the spec file
        assert by_id["toylib.ArgParser.parse(String[])"].lines_covered == 6  # ceil(.5*12)
        assert by_id["toylib.ArgParser.tokenize(String[])"].lines_covered == 4
        assert by_id["toylib.Token.of(String)"].lines_covered == 4
        assert by_id["toylib.Token.isFlag()"].branches_covered == 2
        assert by_id["toylib.OptionSet.lookup(String)"].lines_covered == 0

    def test_union_of_rules(self, sandbox):
        long_cov = sandbox.fuzz(make_harness(LONG), 10).coverage.by_id()
        short_cov = sandbox.fuzz(make_harness(SHORT), 10).coverage.by_id()
        both_cov = sandbox.fuzz(make_harness(BOTH), 10).coverage.by_id()
        coerce = "toylib.OptionSet.coerce(String,String)"
        # prefix line sets: max of the two fractions, not the sum
        assert long_cov[coerce].lines_covered == math.ceil(0.6 * 5)
        assert short_cov[coerce].lines_covered == math.ceil(0.8 * 5)
        assert both_cov[coerce].lines_covered == math.ceil(0.8 * 5)
        # the combined harness covers strictly more methods than either alone
        def nonzero(by_id):
            return {mid for mid, c in by_id.items() if c.lines_covered > 0}

        assert nonzero(both_cov) == nonzero(long_cov) | nonzero(short_cov)
        assert nonzero(both_cov) > nonzero(long_cov)
        assert nonzero(both_cov) > nonzero(short_cov)

    def test_out_of_window_rule_invisible_in_method_targeted_scope(self, sandbox):
        report = sandbox.fuzz(make_harness("void fuzzTarget() { WARMUP }"), 5).coverage
        assert report.scope == "method_targeted"
        assert report.hits == {} and report.by_id()

    def test_full_scope_counts_warmup(self, sandbox):
        report = sandbox.fuzz(make_harness("void fuzzTarget() { WARMUP }"), 5, scope="full").coverage
        assert report.scope == "full"
        by_id = report.by_id()
        assert by_id["toylib.OptionSet.defaults()"].lines_covered == 4
        assert by_id["toylib.Token.of(String)"].lines_covered == 2

    def test_campaign_seconds_echoed(self, sandbox):
        assert sandbox.fuzz(make_harness(BASE), 42).coverage.campaign_seconds == 42.0

    def test_executions_deterministic(self, sandbox):
        # int(duration)*1000 plus a fixed increment per matched coverage rule
        first = sandbox.fuzz(make_harness(BOTH), 10)
        second = sandbox.fuzz(make_harness(BOTH), 10)
        assert first.executions == second.executions
        assert first.executions == 10 * 1000 + 37 * 3

    def test_byte_identical_reports(self, sandbox):
        a = sandbox.fuzz(make_harness(LONG), 7)
        b = sandbox.fuzz(make_harness(LONG), 7)
        assert a.coverage.totals is b.coverage.totals
        assert json.dumps(a.coverage.to_json("totals.json")) == json.dumps(
            b.coverage.to_json("totals.json")
        )
        assert a.crashes == b.crashes


def old_build_trace(spec, harness) -> RecordingTrace:
    """`SandboxAdapter.campaign`'s trace as it was before rule events were kept
    per adapter: every call rebuilds the matched rules' events, one
    single-line run per event."""
    runs = []
    for rule in spec.coverage_rules:
        if not _pattern_matches(rule.pattern, harness.source):
            continue
        ts = 150.0 if rule.in_window else 50.0
        for mid, (line_frac, branch_frac) in sorted(rule.methods.items()):
            lines_total, branches_total = spec.method_totals.get(mid, (0, 0))
            for line in range(1, math.ceil(line_frac * lines_total) + 1):
                runs.append(TraceRun(mid, "line_hit", ts, (line,)))
            for branch in range(1, math.ceil(branch_frac * branches_total) + 1):
                runs.append(TraceRun(mid, "branch_hit", ts, (branch,)))
    return RecordingTrace(
        events=RunEvents(runs), windows=(_WINDOW,), method_totals=dict(spec.method_totals)
    )


def events_of(trace: RecordingTrace) -> list[tuple]:
    """(method id, line, kind, timestamp) per line of each run, in run order."""
    return [(mid, line, kind, ts) for mid, kind, ts, lines in trace.events.runs for line in lines]


class TestKeptRuleEvents:
    HARNESSES = (BOTH, LONG, BASE, "void fuzzTarget() { WARMUP }", SHORT, BOTH, "no rule")

    def test_repeat_fuzz_on_one_adapter_equals_fresh_adapter(self):
        adapter = load_sandbox(DEMO_DIR / "sandbox.json")
        for source in self.HARNESSES:
            harness = make_harness(source)
            for scope in ("method_targeted", "full"):
                first = adapter.fuzz(harness, 3, scope=scope)
                second = adapter.fuzz(harness, 3, scope=scope)
                fresh = load_sandbox(DEMO_DIR / "sandbox.json").fuzz(harness, 3, scope=scope)
                assert first.coverage == second.coverage == fresh.coverage
                assert first.crashes == second.crashes == fresh.crashes
                assert first.executions == second.executions == fresh.executions

    def test_reports_share_the_specs_totals_table(self):
        adapter = load_sandbox(DEMO_DIR / "sandbox.json")
        tables = {
            id(adapter.fuzz(make_harness(source), 3, scope=scope).coverage.totals)
            for source in self.HARNESSES
            for scope in ("method_targeted", "full")
        }
        assert tables == {id(adapter.spec.method_totals)}

    def test_trace_equals_old_build(self):
        adapter = load_sandbox(DEMO_DIR / "sandbox.json")
        for source in self.HARNESSES:
            harness = make_harness(source)
            old = old_build_trace(adapter.spec, harness)
            fresh = load_sandbox(DEMO_DIR / "sandbox.json").campaign(harness, 3).trace
            traces = [adapter.campaign(harness, 3).trace for _ in range(2)]
            for trace in (*traces, fresh):
                assert events_of(trace) == events_of(old) and len(trace.events) == len(old.events)
                assert (trace.windows, trace.method_totals) == (old.windows, old.method_totals)

    def test_runs_are_trace_runs_of_known_methods(self):
        adapter = load_sandbox(DEMO_DIR / "sandbox.json")
        runs = [
            r for source in self.HARNESSES
            for r in adapter.campaign(make_harness(source), 3).trace.events.runs
        ]
        assert runs
        for r in runs:
            # `==` cannot tell a TraceRun from a plain tuple of the same fields
            assert type(r) is TraceRun
            assert r.kind in ("line_hit", "branch_hit")
            assert r.method_id in adapter.spec.method_totals

    def test_trace_keeps_one_run_per_rule_method_and_kind(self):
        adapter = load_sandbox(DEMO_DIR / "sandbox.json")
        spec = adapter.spec
        for source in self.HARNESSES:
            harness = make_harness(source)
            expected = []
            for rule in spec.coverage_rules:
                if not _pattern_matches(rule.pattern, source):
                    continue
                ts = 150.0 if rule.in_window else 50.0
                for mid, fractions in sorted(rule.methods.items()):
                    for kind, fraction, total in zip(
                        ("line_hit", "branch_hit"), fractions, spec.method_totals.get(mid, (0, 0))
                    ):
                        if count := math.ceil(fraction * total):
                            expected.append((mid, kind, ts, count))
            first, second = (adapter.campaign(harness, 3).trace.events for _ in range(2))
            assert [
                (r.method_id, r.kind, r.timestamp, len(r.lines)) for r in first.runs
            ] == expected
            for run, again in zip(first.runs, second.runs, strict=True):
                assert type(run) is TraceRun and run.lines == range(1, len(run.lines) + 1)
                assert run is again  # kept on the adapter, not rebuilt per call
            assert len(first) == len(old_build_trace(spec, harness).events)


class TestCrashes:
    def test_dedup_key_normalizes(self):
        assert crash_dedup_key("NPE  in Foo") == crash_dedup_key("npe in foo")
        assert len(crash_dedup_key("x")) == 16

    def test_twin_rules_share_dedup_key(self, sandbox):
        harness = make_harness(BASE + " CRASH_NULL CRASH_NULL_TWIN CRASH_OOB")
        result = sandbox.fuzz(harness, 5)
        assert len(result.crashes) == 3
        assert len({c.dedup_key for c in result.crashes}) == 2

    def test_no_crash_without_trigger(self, sandbox):
        assert sandbox.fuzz(make_harness(BASE), 5).crashes == ()


class TestPatternDialect:
    def test_caret_prefix_is_regex(self, sandbox, tmp_path, demo_dir):
        raw = json.loads((demo_dir / "sandbox.json").read_text())
        raw["crash_rules"] = [{"pattern": "^import\\s+evil", "summary": "bad import"}]
        for key in ("docs_bundle", "source_root", "facts"):
            raw[key] = str(demo_dir / raw[key])
        spec = tmp_path / "sandbox.json"
        spec.write_text(json.dumps(raw))
        adapter = load_sandbox(spec)
        hit = adapter.fuzz(make_harness(BASE + "\nimport evil.Lib;"), 1)
        miss = adapter.fuzz(make_harness(BASE + "\n// import  elsewhere"), 1)
        assert len(hit.crashes) == 1 and miss.crashes == ()


# a campaign file: "b" is hit only before the window opens, "ghost" is not
# in the totals, and two of the three crashes share a dedup key
CAMPAIGN = {
    "windows": [[100, 200]],
    "method_totals": {"a": [4, 2], "b": [3, 0]},
    "runs": [
        ["a", "line_hit", 150, [1, 2]],
        ["a", "branch_hit", 200.0, [1]],
        ["b", "line_hit", 50, [1, 2, 3]],
        ["ghost", "line_hit", 150, [1]],
    ],
    "executions": 1234,
    "crashes": [{"summary": "NPE in a"}, {"summary": "npe  IN a"}, {"summary": "OOB in b"}],
}


@pytest.fixture()
def shell_dir(tmp_path):
    cov = CAMPAIGN
    (tmp_path / "cov.src.json").write_text(json.dumps(cov))
    ok_compile = tmp_path / "ok_compile.sh"
    ok_compile.write_text("#!/bin/sh\nexit 0\n")
    bad_compile = tmp_path / "bad_compile.sh"
    bad_compile.write_text('#!/bin/sh\necho "f:3: boom" >&2\nexit 1\n')
    write_cov = f'cp "{tmp_path / "cov.src.json"}" "{tmp_path / "cov.json"}"\n'
    fuzz = tmp_path / "fuzz.sh"
    fuzz.write_text("#!/bin/sh\n" + write_cov)
    fuzz_fails = tmp_path / "fuzz_fails.sh"
    fuzz_fails.write_text("#!/bin/sh\n" + write_cov + "exit 7\n")
    fuzz_silent = tmp_path / "fuzz_silent.sh"
    fuzz_silent.write_text("#!/bin/sh\nexit 0\n")
    slow = tmp_path / "slow.sh"
    slow.write_text("#!/bin/sh\nsleep 5\n")
    for script in (ok_compile, bad_compile, fuzz, fuzz_fails, fuzz_silent, slow):
        script.chmod(0o755)
    return tmp_path


def _gone_or_zombie(pid: int) -> bool:
    """True once `pid` has exited; a zombie counts, as pid 1 need not reap it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestShellAdapter:
    def _adapter(self, shell_dir, compile_script="ok_compile.sh", fuzz_script="fuzz.sh", **extra):
        config = {
            **DEFAULTS["adapter.shell"],
            "compile_cmd": f"sh {shell_dir / compile_script} {{harness}}",
            "fuzz_cmd": f"sh {shell_dir / fuzz_script} {{harness}} {{duration}}",
            "coverage_out": "cov.json",
            **extra,
        }
        config["coverage_out"] = str(shell_dir / config["coverage_out"])
        return ShellAdapter(config)

    def test_compile_success(self, shell_dir):
        result = self._adapter(shell_dir).compile(make_harness(BASE))
        assert result.success and result.errors() == ()

    def test_compile_failure_parses_diagnostics(self, shell_dir):
        result = self._adapter(shell_dir, compile_script="bad_compile.sh").compile(make_harness(BASE))
        assert not result.success
        diag = result.errors()[0]
        assert (diag.file, diag.line, diag.message) == ("f", 3, "boom")

    @pytest.mark.parametrize(
        "pattern, output",
        [
            (r"(?P<file>[^:]+):(?P<line>\w+):\s*(?P<message>.+)", "f.java:abc: boom"),
            (r"(?P<file>[^:]+):(?:(?P<line>\d+)|x):\s*(?P<message>.+)", "f.java:x: boom"),
            (r"(?P<file>[^:]+):(?P<line>\d+):(?:(?P<message>\w.*)|!)", "f.java:3:!"),
        ],
    )
    def test_diagnostic_without_integer_line_or_message_is_parse(self, shell_dir, pattern, output):
        (shell_dir / "diag.sh").write_text(f"#!/bin/sh\necho '{output}'\nexit 1\n")
        adapter = self._adapter(shell_dir, compile_script="diag.sh", diagnostic_pattern=pattern)
        with pytest.raises(EngineError) as exc:
            adapter.compile(make_harness(BASE))
        assert exc.value.code == "PARSE"
        assert f"{pattern!r} matched {output!r}" in exc.value.message

    def test_fuzz_reads_coverage_out(self, shell_dir):
        """The campaign's trace goes through the windows of the scope asked
        for, over the requested duration; its executions and crashes are the
        result's."""
        adapter = self._adapter(shell_dir)
        targeted = adapter.fuzz(make_harness(BASE), 2)
        full = adapter.fuzz(make_harness(BASE), 2, scope="full")
        totals = {"a": (4, 2), "b": (3, 0)}
        a = MethodCoverage("a", 4, 2, 2, 1)
        assert targeted.coverage == CoverageReport("method_targeted", totals, {"a": a}, 2.0, 1)
        b = MethodCoverage("b", 3, 3, 0, 0)
        assert full.coverage == CoverageReport("full", totals, {"a": a, "b": b}, 2.0, 1)
        for result in (targeted, full):
            assert result.executions == 1234
            assert [c.summary for c in result.crashes] == ["NPE in a", "npe  IN a", "OOB in b"]
            keys = [crash_dedup_key(s) for s in ("NPE in a", "NPE in a", "OOB in b")]
            assert [c.dedup_key for c in result.crashes] == keys

    def test_fuzz_nonzero_exit_is_exec_error(self, shell_dir):
        # a successful run leaves cov.json behind; the failing run must not reuse it
        self._adapter(shell_dir).fuzz(make_harness(BASE), 1)
        with pytest.raises(EngineError) as exc:
            self._adapter(shell_dir, fuzz_script="fuzz_fails.sh").fuzz(make_harness(BASE), 1)
        assert exc.value.code == "EXEC" and "status 7" in exc.value.message

    def test_fuzz_without_output_is_exec_error(self, shell_dir):
        self._adapter(shell_dir).fuzz(make_harness(BASE), 1)
        with pytest.raises(EngineError) as exc:
            self._adapter(shell_dir, fuzz_script="fuzz_silent.sh").fuzz(make_harness(BASE), 1)
        assert exc.value.code == "EXEC"
        assert not (shell_dir / "cov.json").exists()

    def test_unremovable_coverage_out_is_exec_error(self, shell_dir):
        (shell_dir / "covdir").mkdir()
        with pytest.raises(EngineError) as exc:
            self._adapter(shell_dir, coverage_out="covdir").fuzz(make_harness(BASE), 1)
        assert exc.value.code == "EXEC"

    def test_harness_temp_files_removed(self, shell_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        adapter = self._adapter(shell_dir)
        adapter.compile(make_harness(BASE))
        adapter.fuzz(make_harness(BASE), 1)
        with pytest.raises(EngineError):
            self._adapter(shell_dir, fuzz_script="fuzz_fails.sh").fuzz(make_harness(BASE), 1)
        assert list(tmp_path.glob("*.src")) == []

    def test_compile_timeout(self, shell_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        adapter = self._adapter(shell_dir, compile_script="slow.sh")
        started = time.monotonic()
        with pytest.raises(EngineError) as exc:
            adapter.compile(make_harness(BASE), timeout=0.2)
        assert exc.value.code == "COMPILE_TIMEOUT" and "compile command" in exc.value.message
        assert time.monotonic() - started < 4.0
        assert list(tmp_path.glob("*.src")) == []

    def test_compile_within_timeout(self, shell_dir):
        assert self._adapter(shell_dir).compile(make_harness(BASE), timeout=30.0).success

    def test_fuzz_timeout(self, shell_dir):
        adapter = self._adapter(shell_dir, fuzz_script="slow.sh", timeout_grace=0.2)
        with pytest.raises(EngineError) as exc:
            adapter.fuzz(make_harness(BASE), 0.1)
        assert exc.value.code == "FUZZ_TIMEOUT"

    @pytest.mark.parametrize("call", ["compile", "fuzz"])
    def test_timeout_kills_the_whole_process_group(self, shell_dir, call):
        pid_file = shell_dir / "background.pid"
        spawner = shell_dir / "spawner.sh"
        spawner.write_text(f"#!/bin/sh\nsleep 30 &\necho $! > {pid_file}\nsleep 30\n")
        adapter = self._adapter(
            shell_dir, compile_script="spawner.sh", fuzz_script="spawner.sh", timeout_grace=0.9
        )
        started = time.monotonic()
        with pytest.raises(EngineError) as exc:
            if call == "compile":
                adapter.compile(make_harness(BASE), timeout=1.0)
            else:
                adapter.fuzz(make_harness(BASE), 0.1)
        assert exc.value.code == ("COMPILE_TIMEOUT" if call == "compile" else "FUZZ_TIMEOUT")
        assert time.monotonic() - started < 10.0  # did not wait for the shell's `sleep 30`
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5
        while not _gone_or_zombie(pid):
            assert time.monotonic() < deadline, f"background sleep {pid} outlived the timeout"
            time.sleep(0.05)


def shell_overrides(coverage_out: Path) -> list[str]:
    """Overrides that move the demo config from its sandbox adapter to a
    shell adapter that runs the demo spec through `sandbox_toolchain.py`."""
    tool = shlex.join([
        sys.executable, str(Path(__file__).with_name("sandbox_toolchain.py")),
        str(DEMO_DIR / "sandbox.json"),
    ])
    shell = {
        "compile_cmd": f"{tool} compile {{harness}}",
        "fuzz_cmd": f"{tool} fuzz {{harness}} {{duration}} {shlex.quote(str(coverage_out))}",
        "coverage_out": str(coverage_out),
    }
    paths = {"docs_bundle": "docs.json", "source_root": "src", "facts": "facts.json"}
    return ["adapter.sandbox_spec=", f"adapter.shell={json.dumps(shell)}"] + [
        f"target.{key}={DEMO_DIR / name}" for key, name in paths.items()
    ]


class TestShellToolchain:
    @pytest.mark.parametrize("scope", ["method_targeted", "full"])
    @pytest.mark.parametrize("script", sorted(SCENARIOS))
    def test_shell_run_equals_sandbox_run(self, tmp_path, script, scope):
        """The demo spec run as a shell toolchain leaves the sandbox run's
        record: its outcome, rounds, accounting, transitions and error, and
        the same bytes in every coverage and transcript file."""
        base = [
            f"output_dir={tmp_path}", f"model.script=scripts/{script}.json",
            f"budgets.coverage_scope={scope}", *SCENARIOS[script],
        ]
        records = {}
        for name, overrides in (
            ("sandbox", base), ("shell", base + shell_overrides(tmp_path / "cov.json"))
        ):
            config = load_config(DEMO_DIR / "config.json", overrides)
            run_dir = tmp_path / name
            manifest = run_workflow(TargetSpec.from_config(config), config, run_dir=run_dir)
            files = {
                path.relative_to(run_dir).as_posix(): path.read_bytes()
                for sub in ("coverage", "transcripts")
                for path in (run_dir / sub).iterdir()
            }
            keys = ("outcome", "rounds", "accounting", "transitions", "error")
            records[name] = ({key: manifest.get(key) for key in keys}, files)
        assert records["shell"] == records["sandbox"]
        # the shell run's fuzzer wrote the campaign file in every round it ran
        assert (tmp_path / "cov.json").is_file() == bool(records["sandbox"][0]["rounds"])
