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
import time
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

from .agents import HarnessArtifact
from .coverage import (
    CoverageReport,
    RecordingTrace,
    RunEvents,
    TraceRun,
    apply_recording_windows,
    check_counts,
)
from .errors import EngineError, json_input

DEFAULT_TIMEOUT_GRACE = 5.0

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
    crashes: tuple[Crash, ...] = ()
    executions: int = 0
    wall_seconds: float = 0.0


def crash_dedup_key(summary: str) -> str:
    normalized = " ".join(summary.lower().split())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


def _pattern_matches(pattern: str, text: str) -> bool:
    """Literal substring match, or anchored regex when the pattern starts with '^'."""
    if pattern.startswith("^"):
        return re.search(pattern, text, flags=re.MULTILINE) is not None
    return pattern in text


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
    if not spec_path.is_file():
        raise EngineError("CONFIG", f"sandbox spec not found: {spec_path}")
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
            pattern=r["pattern"],
            when=r.get("when", "present"),
            diagnostic=Diagnostic(
                file=r["diagnostic"].get("file", "harness"),
                line=int(r["diagnostic"].get("line", 1)),
                message=r["diagnostic"].get("message", "compile rule fired"),
                severity=r["diagnostic"].get("severity", "error"),
            ),
        )
        for r in raw.get("compile_rules", [])
    ]
    coverage_rules = [
        CoverageRule(
            pattern=r["pattern"],
            in_window=bool(r.get("in_window", True)),
            methods={
                mid: (_fraction(v, "line_fraction", mid), _fraction(v, "branch_fraction", mid))
                for mid, v in r.get("methods", {}).items()
            },
        )
        for r in raw.get("coverage_rules", [])
    ]
    crash_rules = [
        CrashRule(pattern=r["pattern"], summary=r["summary"]) for r in raw.get("crash_rules", [])
    ]
    return SandboxSpec(
        docs_bundle=paths["docs_bundle"],
        source_root=paths["source_root"],
        facts=paths["facts"],
        method_totals=totals,
        compile_rules=compile_rules,
        coverage_rules=coverage_rules,
        crash_rules=crash_rules,
    )


def _fraction(fractions: dict, key: str, mid: str) -> float:
    """A coverage rule's `key` fraction of `mid` (0 if unset): a JSON number
    in [0, 1], else ValueError, which the spec's loader turns into PARSE
    naming the spec."""
    value = fractions.get(key, 0.0)
    if type(value) not in (int, float) or not 0 <= value <= 1:
        raise ValueError(f"{key} of {mid}: {value!r} is not a number in [0, 1]")
    return float(value)


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

    def _matched_rules(self, harness: HarnessArtifact) -> list[int]:
        return [
            i
            for i, rule in enumerate(self.spec.coverage_rules)
            if _pattern_matches(rule.pattern, harness.source)
        ]

    def _trace_of(self, matched: list[int]) -> RecordingTrace:
        return RecordingTrace(
            events=RunEvents(chain.from_iterable(map(self._runs_of, matched))),
            windows=(_WINDOW,),
            method_totals=self.spec.method_totals,
        )

    def build_trace(self, harness: HarnessArtifact) -> RecordingTrace:
        """Trace synthesized from the coverage rules matching the harness.

        A rule covering fraction f of a method hits line sites 1..ceil(f*total);
        overlapping rules union naturally through the site sets. The events
        are the matched rules' runs in rule order. The trace refers to the
        spec's totals table, so every round's report shares it.
        """
        return self._trace_of(self._matched_rules(harness))

    def fuzz(
        self,
        harness: HarnessArtifact,
        duration_seconds: float,
        scope: str = "method_targeted",
    ) -> FuzzResult:
        started = time.monotonic()
        matched = self._matched_rules(harness)
        trace = self._trace_of(matched)
        if scope == "full":
            # every event counts regardless of recording windows
            trace = replace(trace, windows=((float("-inf"), float("inf")),))
        report = apply_recording_windows(
            trace, scope=scope, campaign_seconds=float(duration_seconds)
        )
        crashes = tuple(
            Crash(dedup_key=crash_dedup_key(rule.summary), summary=rule.summary)
            for rule in self.spec.crash_rules
            if _pattern_matches(rule.pattern, harness.source)
        )
        executions = int(duration_seconds) * 1000 + 37 * len(matched)
        return FuzzResult(
            coverage=report,
            crashes=crashes,
            executions=executions,
            wall_seconds=time.monotonic() - started,
        )


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

    Config keys: compile_cmd, fuzz_cmd (with {harness} and {duration}
    placeholders), diagnostic_pattern (regex with file/line/message groups),
    coverage_out (path the fuzz command writes), timeout_grace.
    """

    def __init__(self, config: dict, base_dir: str | Path = ".") -> None:
        for key in ("compile_cmd", "fuzz_cmd", "coverage_out"):
            if key not in config:
                raise EngineError("CONFIG", f"shell adapter missing config key: {key}")
        self.compile_cmd = config["compile_cmd"]
        self.fuzz_cmd = config["fuzz_cmd"]
        self.coverage_out = Path(base_dir) / config["coverage_out"]
        self.timeout_grace = float(config.get("timeout_grace", DEFAULT_TIMEOUT_GRACE))
        pattern = config.get("diagnostic_pattern", r"(?P<file>[^:\s]+):(?P<line>\d+):\s*(?P<message>.+)")
        try:
            self.diagnostic_pattern = re.compile(pattern)
        except re.error as exc:
            raise EngineError("CONFIG", f"invalid diagnostic_pattern: {exc}") from exc

    def _write_harness(self, harness: HarnessArtifact) -> str:
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".src", delete=False, encoding="utf-8"
        )
        with handle:
            handle.write(harness.source)
        return handle.name

    def compile(self, harness: HarnessArtifact, timeout: float | None = None) -> CompileResult:
        """Run `compile_cmd`; past `timeout` seconds it fails with COMPILE_TIMEOUT."""
        path = self._write_harness(harness)
        cmd = self.compile_cmd.format(harness=path)
        try:
            proc = _run_shell(cmd, timeout)
        except subprocess.TimeoutExpired as exc:
            raise EngineError("COMPILE_TIMEOUT", f"compile command timed out: {exc}") from exc
        except OSError as exc:
            raise EngineError("EXEC", f"compile command failed to start: {exc}") from exc
        finally:
            Path(path).unlink(missing_ok=True)
        output = proc.stdout + proc.stderr
        diagnostics = tuple(
            Diagnostic(
                file=m.group("file"),
                line=int(m.group("line")),
                message=m.group("message").strip(),
                severity="error" if proc.returncode != 0 else "warning",
            )
            for m in self.diagnostic_pattern.finditer(output)
        )
        return CompileResult(success=proc.returncode == 0, diagnostics=diagnostics)

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
        path = self._write_harness(harness)
        cmd = self.fuzz_cmd.format(harness=path, duration=duration_seconds)
        started = time.monotonic()
        try:
            proc = _run_shell(cmd, duration_seconds + self.timeout_grace)
        except subprocess.TimeoutExpired as exc:
            raise EngineError(
                "FUZZ_TIMEOUT", f"fuzz command exceeded {duration_seconds}s plus grace: {exc}"
            ) from exc
        except OSError as exc:
            raise EngineError("EXEC", f"fuzz command failed to start: {exc}") from exc
        finally:
            Path(path).unlink(missing_ok=True)
        if proc.returncode != 0:
            detail = proc.stderr.strip()[-300:]
            raise EngineError(
                "EXEC", f"fuzz command exited with status {proc.returncode}: {detail}"
            )
        if not self.coverage_out.is_file():
            raise EngineError("EXEC", f"fuzz command wrote no coverage file: {self.coverage_out}")
        report = CoverageReport.load(self.coverage_out)
        return FuzzResult(
            coverage=report,
            executions=0,
            wall_seconds=time.monotonic() - started,
        )
