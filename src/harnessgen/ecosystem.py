"""Toolchain adapters: compile, fuzz, collect coverage.

Two adapters implement the same contract. The sandbox adapter is a
deterministic rule-driven stand-in for a real compiler/fuzzer toolchain,
used for offline end-to-end runs; the shell adapter delegates to
configured commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import re
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .agents import HarnessArtifact
from .coverage import (
    Campaign,
    CoverageReport,
    RecordingTrace,
    RunEvents,
    TraceRun,
    apply_recording_windows,
    check_counts,
)
from .errors import EngineError, json_input

# Sandbox traces use one fixed recording window; rules marked
# in_window=false emit their events before it opens.
_WINDOW = (100.0, 200.0)
_TS_INSIDE = 150.0
_TS_OUTSIDE = 50.0


@dataclass(frozen=True)
class Diagnostic:
    file: str
    line: int
    message: str
    severity: str = "error"


@dataclass(frozen=True)
class CompileResult:
    success: bool
    diagnostics: tuple[Diagnostic, ...] = ()

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")


@dataclass(frozen=True)
class Crash:
    dedup_key: str
    summary: str


@dataclass(frozen=True)
class FuzzResult:
    coverage: CoverageReport
    crashes: tuple[Crash, ...]
    executions: int


def crash_dedup_key(summary: str) -> str:
    normalized = " ".join(summary.lower().split())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


def _fuzz_result(campaign: Campaign, scope: str, duration_seconds: float) -> FuzzResult:
    """A campaign as a round reads it, from either adapter: its trace in the
    recording windows of `scope`, over the requested duration; its crashes keyed."""
    report = apply_recording_windows(
        campaign.trace, scope=scope, campaign_seconds=float(duration_seconds)
    )
    crashes = tuple(Crash(crash_dedup_key(summary), summary) for summary in campaign.crashes)
    return FuzzResult(report, crashes, campaign.executions)


def _pattern_matches(pattern: str, text: str) -> bool:
    """Literal substring match, or anchored regex when the pattern starts with '^'."""
    if pattern.startswith("^"):
        return re.search(pattern, text, flags=re.MULTILINE) is not None
    return pattern in text


def _valid_pattern(value) -> bool:
    """A string; one that starts with '^' must compile as `_pattern_matches` reads it."""
    if type(value) is not str or not value.startswith("^"):
        return type(value) is str
    try:
        re.compile(value, flags=re.MULTILINE)
    except (re.error, OverflowError, RecursionError):  # a huge count, deep nesting
        return False
    return True


@dataclass(frozen=True)
class CompileRule:
    pattern: str
    diagnostic: Diagnostic
    when: str = "present"  # present | absent

    def fires(self, source: str) -> bool:
        matched = _pattern_matches(self.pattern, source)
        return matched if self.when == "present" else not matched


@dataclass(frozen=True)
class CoverageRule:
    pattern: str
    methods: dict[str, tuple[float, float]]  # id -> (line fraction, branch fraction)
    in_window: bool = True


@dataclass(frozen=True)
class CrashRule:
    pattern: str
    summary: str


@dataclass
class SandboxSpec:
    docs_bundle: Path
    source_root: Path
    facts: Path
    method_totals: dict[str, tuple[int, int]] = field(default_factory=dict)
    compile_rules: list[CompileRule] = field(default_factory=list)
    coverage_rules: list[CoverageRule] = field(default_factory=list)
    crash_rules: list[CrashRule] = field(default_factory=list)


def load_sandbox(spec_path: str | Path) -> "SandboxAdapter":
    spec_path = Path(spec_path)
    with json_input(spec_path, "sandbox spec") as raw:
        return SandboxAdapter(_parse_spec(raw, spec_path))


def _parse_spec(raw: dict, spec_path: Path) -> SandboxSpec:
    base = spec_path.parent
    paths = {}
    for key in ("docs_bundle", "source_root", "facts"):
        if key not in raw:
            raise EngineError("CONFIG", f"{spec_path}: missing {key}")
        resolved = (base / raw[key]).resolve()
        if not resolved.exists():
            raise EngineError("CONFIG", f"{spec_path}: {key} does not exist: {resolved}")
        paths[key] = resolved
    totals = {
        mid: (v.get("lines_total", 0), v.get("branches_total", 0))
        for mid, v in raw.get("method_totals", {}).items()
    }
    check_counts(totals, "method_totals")
    compile_rules = [
        CompileRule(
            pattern=_field(r, "pattern", f"compile rule {i}"),
            when=_field(r, "when", f"compile rule {i}"),
            diagnostic=Diagnostic(
                file=_field(r["diagnostic"], "file", f"compile rule {i}"),
                line=_field(r["diagnostic"], "line", f"compile rule {i}"),
                message=_field(r["diagnostic"], "message", f"compile rule {i}"),
                severity=_field(r["diagnostic"], "severity", f"compile rule {i}"),
            ),
        )
        for i, r in enumerate(raw.get("compile_rules", []))
    ]
    coverage_rules = [
        CoverageRule(
            pattern=_field(r, "pattern", f"coverage rule {i}"),
            in_window=_field(r, "in_window", f"coverage rule {i}"),
            methods={
                mid: (_field(v, "line_fraction", mid), _field(v, "branch_fraction", mid))
                for mid, v in r.get("methods", {}).items()
            },
        )
        for i, r in enumerate(raw.get("coverage_rules", []))
    ]
    crash_rules = [
        CrashRule(_field(r, "pattern", f"crash rule {i}"), _field(r, "summary", f"crash rule {i}"))
        for i, r in enumerate(raw.get("crash_rules", []))
    ]
    return SandboxSpec(
        **paths, method_totals=totals, compile_rules=compile_rules,
        coverage_rules=coverage_rules, crash_rules=crash_rules,
    )


# a rule field -> (its value when unset, what it must be, the check of that);
# a field with no value when unset is required
_FRACTION = (0.0, "a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1)
_STRING = ("a string", lambda v: type(v) is str)
_RULE_FIELDS = {
    "pattern": (None, "a string that compiles as a regular expression if it starts with ^",
                _valid_pattern),
    "summary": (None, *_STRING),
    "file": ("harness", *_STRING),
    "message": ("compile rule fired", *_STRING),
    "when": ("present", "present or absent", lambda v: v in ("present", "absent")),
    "line": (1, "a JSON integer >= 1", lambda v: type(v) is int and v >= 1),
    "severity": ("error", "error or warning", lambda v: v in ("error", "warning")),
    "in_window": (True, "a JSON bool", lambda v: type(v) is bool),
    "line_fraction": _FRACTION,
    "branch_fraction": _FRACTION,
}


def _field(fields: dict, key: str, owner: str):
    """`owner`'s rule field `key`, checked against `_RULE_FIELDS`; a bad value
    is ValueError, which the spec's loader turns into PARSE naming the spec."""
    default, want, valid = _RULE_FIELDS[key]
    value = fields.get(key, default)
    if not valid(value):
        raise ValueError(f"{key} of {owner}: {value!r} is not {want}")
    return value


class SandboxAdapter:
    """Rule-driven deterministic compiler/fuzzer stand-in."""

    def __init__(self, spec: SandboxSpec) -> None:
        self.spec = spec
        # coverage rule index -> its runs; they never depend on the harness
        self._rule_runs: dict[int, tuple[TraceRun, ...]] = {}

    def compile(self, harness: HarnessArtifact, timeout: float | None = None) -> CompileResult:
        """Rule-driven diagnostics; `timeout` is accepted for the adapter contract and unused."""
        diagnostics = tuple(
            rule.diagnostic for rule in self.spec.compile_rules if rule.fires(harness.source)
        )
        success = not any(d.severity == "error" for d in diagnostics)
        return CompileResult(success=success, diagnostics=diagnostics)

    def _runs_of(self, index: int) -> tuple[TraceRun, ...]:
        """Coverage rule `index`'s runs, built on its first match and kept:
        one per method and kind with a hit site."""
        runs = self._rule_runs.get(index)
        if runs is None:
            rule = self.spec.coverage_rules[index]
            ts = _TS_INSIDE if rule.in_window else _TS_OUTSIDE
            runs = []
            for mid, (line_frac, branch_frac) in sorted(rule.methods.items()):
                lines_total, branches_total = self.spec.method_totals.get(mid, (0, 0))
                for kind, count in (
                    ("line_hit", math.ceil(line_frac * lines_total)),
                    ("branch_hit", math.ceil(branch_frac * branches_total)),
                ):
                    if count > 0:
                        runs.append(TraceRun(mid, kind, ts, range(1, count + 1)))
            runs = self._rule_runs[index] = tuple(runs)
        return runs

    def campaign(self, harness: HarnessArtifact, duration_seconds: float) -> Campaign:
        """The campaign the rules give the harness: the runs of each coverage
        rule it matches, in rule order and one window (a rule covering
        fraction f of a method hits line sites 1..ceil(f*total)); each
        matching crash rule's summary; and 1000 executions per whole second
        of `duration_seconds` plus 37 per matching coverage rule. The trace
        refers to the spec's totals table, so every round's report shares it."""
        source = harness.source
        matched = [
            i for i, rule in enumerate(self.spec.coverage_rules)
            if _pattern_matches(rule.pattern, source)
        ]
        trace = RecordingTrace(
            events=RunEvents(chain.from_iterable(map(self._runs_of, matched))),
            windows=(_WINDOW,),
            method_totals=self.spec.method_totals,
        )
        crashes = tuple(
            rule.summary for rule in self.spec.crash_rules if _pattern_matches(rule.pattern, source)
        )
        return Campaign(trace, crashes, int(duration_seconds) * 1000 + 37 * len(matched))

    def fuzz(
        self,
        harness: HarnessArtifact,
        duration_seconds: float,
        scope: str = "method_targeted",
    ) -> FuzzResult:
        return _fuzz_result(self.campaign(harness, duration_seconds), scope, duration_seconds)


def _run_shell(cmd: str, timeout: float | None) -> subprocess.CompletedProcess:
    """Run `cmd` in a shell in its own process group.

    On expiry, or on any exception while waiting (an interrupt included),
    the whole group is killed and reaped, so no compiler or fuzzer the
    shell started outlives the call.
    """
    with subprocess.Popen(
        cmd, shell=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


class ShellAdapter:
    """Delegates compile/fuzz to configured shell commands.

    `config` is an `adapter.shell` as `config.load_config` filled it in and
    `config.validate_config` passed it: compile_cmd, fuzz_cmd (with {harness}
    and {duration} placeholders), diagnostic_pattern (regex with file/line/
    message groups), coverage_out (absolute, the fuzz command writes it), timeout_grace.
    """

    def __init__(self, config: dict) -> None:
        self.compile_cmd = config["compile_cmd"]
        self.fuzz_cmd = config["fuzz_cmd"]
        self.coverage_out = Path(config["coverage_out"])
        self.timeout_grace = config["timeout_grace"]
        self.diagnostic_pattern = re.compile(config["diagnostic_pattern"])

    def _run(
        self, what: str, command: str, harness: HarnessArtifact, timeout: float | None,
        timed_out, **fields,
    ) -> subprocess.CompletedProcess:
        """Run `command` with {harness} a temp file of the harness source and `fields`
        for the rest; past `timeout` it raises `timed_out(exc)`, EXEC if it cannot start."""
        handle = tempfile.NamedTemporaryFile("w", suffix=".src", delete=False, encoding="utf-8")
        with handle:
            handle.write(harness.source)
        try:
            return _run_shell(command.format(harness=handle.name, **fields), timeout)
        except subprocess.TimeoutExpired as exc:
            raise timed_out(exc) from exc
        except OSError as exc:
            raise EngineError("EXEC", f"{what} command failed to start: {exc}") from exc
        finally:
            Path(handle.name).unlink(missing_ok=True)

    def compile(self, harness: HarnessArtifact, timeout: float | None = None) -> CompileResult:
        """Run `compile_cmd`; past `timeout` seconds it fails with COMPILE_TIMEOUT."""
        proc = self._run(
            "compile", self.compile_cmd, harness, timeout,
            lambda exc: EngineError("COMPILE_TIMEOUT", f"compile command timed out: {exc}"),
        )
        severity = "error" if proc.returncode != 0 else "warning"
        diagnostics = tuple(
            self._diagnostic(m, severity)
            for m in self.diagnostic_pattern.finditer(proc.stdout + proc.stderr)
        )
        return CompileResult(success=proc.returncode == 0, diagnostics=diagnostics)

    def _diagnostic(self, match: re.Match, severity: str) -> Diagnostic:
        """A `diagnostic_pattern` match; PARSE unless every group took part
        and `line` is an integer."""
        groups = match.group("file", "line", "message")
        if None not in groups:
            with contextlib.suppress(ValueError):
                return Diagnostic(groups[0], int(groups[1]), groups[2].strip(), severity)
        raise EngineError(
            "PARSE",
            f"diagnostic_pattern {self.diagnostic_pattern.pattern!r} matched {match.group(0)!r}"
            " without an integer line, a file and a message",
        )

    def fuzz(
        self,
        harness: HarnessArtifact,
        duration_seconds: float,
        scope: str = "method_targeted",
    ) -> FuzzResult:
        # a file left by an earlier run must never pass for this run's coverage
        try:
            self.coverage_out.unlink(missing_ok=True)
        except OSError as exc:
            raise EngineError("EXEC", f"cannot remove old coverage file: {exc}") from exc
        proc = self._run(
            "fuzz", self.fuzz_cmd, harness, duration_seconds + self.timeout_grace,
            lambda exc: EngineError(
                "FUZZ_TIMEOUT", f"fuzz command exceeded {duration_seconds}s plus grace: {exc}"
            ),
            duration=duration_seconds,
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip()[-300:]
            raise EngineError(
                "EXEC", f"fuzz command exited with status {proc.returncode}: {detail}"
            )
        if not self.coverage_out.is_file():
            raise EngineError("EXEC", f"fuzz command wrote no coverage file: {self.coverage_out}")
        return _fuzz_result(Campaign.load(self.coverage_out), scope, duration_seconds)
