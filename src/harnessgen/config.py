"""Run configuration: a single JSON file with dotted-path overrides.

`load_config` fills in `DEFAULTS` and makes paths absolute against the file's
directory. Validation collects every violation instead of stopping at the first.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import EngineError, json_input
from .toolbus import AgentRole

_SIGNATURE_RE = re.compile(r"^\w+\([^()]*\)$")
_SECTIONS = ("target", "model", "budgets", "adapter")
_COVERAGE_SCOPES = ("method_targeted", "full")
# the largest model rate: a run with under 2**63 tokens each way then has a finite cost
MAX_RATE = sys.float_info.max / 2**64

# every default a run reads, per section: the one home of each
DEFAULTS = {
    "target": {"library_version": ""},
    "model": {"api_key_env": "HARNESSGEN_API_KEY", "rate_in": 0.0, "rate_out": 0.0},
    "budgets": {
        "depth_limit": 10, "max_rounds": 5, "max_patch_rounds": 3,
        "wall_seconds": 3600.0, "fuzz_seconds": 60.0, "coverage_scope": "method_targeted",
        "max_iterations": {"RSH": 25, "GEN": 8, "PAT": 10, "CVA": 25, "REF": 15},  # per role
    },
    "adapter": {},
    "adapter.shell": {  # filled only into an adapter.shell that is a non-empty object
        "timeout_grace": 5.0,
        "diagnostic_pattern": r"(?P<file>[^:\s]+):(?P<line>\d+):\s*(?P<message>.+)",
    },
    "output_dir": "runs",
}
# (DEFAULTS row, key) of each path made absolute against the config file's directory
_PATHS = (("target", "docs_bundle"), ("target", "source_root"), ("target", "facts"),
          ("model", "script"), ("adapter", "sandbox_spec"), ("adapter.shell", "coverage_out"))


@dataclass
class Config:
    """A config as `load_config` returns it: `DEFAULTS` filled in, paths absolute."""

    target: dict
    model: dict
    budgets: dict
    adapter: dict
    output_dir: str

    def depth_limit(self) -> int:
        return self.budgets["depth_limit"]


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply --set key=value entries with dotted paths onto the raw config."""
    for item in overrides:
        if "=" not in item:
            raise EngineError("BAD_ARGS", f"override must be key=value: {item}")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except ValueError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise EngineError("BAD_ARGS", f"override path not an object: {key}")
        node[parts[-1]] = parsed
    return raw


def load_config(path: str | Path, overrides: list[str] | None = None) -> Config:
    """The config at `path` with `overrides`, as a run uses it: `DEFAULTS` filled
    in (`max_iterations` role by role, `adapter.shell` only if a non-empty object),
    each non-empty `_PATHS` string and `output_dir` made absolute. A value of the
    wrong type is kept as given."""
    path = Path(path)
    base = path.parent.resolve()
    with json_input(path, "config file") as raw:
        if overrides:
            raw = apply_overrides(raw, overrides)
        if not isinstance(raw, dict):
            raise EngineError("PARSE", f"{path}: the top level must be an object")
        nodes = {}  # each section, and a filled adapter.shell, by its DEFAULTS name
        for key in _SECTIONS:
            given = raw.get(key, {})
            if not isinstance(given, dict):
                raise EngineError("PARSE", f"{path}: {key} must be an object")
            nodes[key] = {**DEFAULTS[key], **given}
        roles = nodes["budgets"]["max_iterations"]
        if isinstance(roles, dict):
            nodes["budgets"]["max_iterations"] = {**DEFAULTS["budgets"]["max_iterations"], **roles}
        shell = nodes["adapter"].get("shell")
        if isinstance(shell, dict) and shell:
            shell = nodes["adapter"]["shell"] = {**DEFAULTS["adapter.shell"], **shell}
            nodes["adapter.shell"] = shell
        for name, key in _PATHS:
            node = nodes.get(name, {})
            if isinstance(node.get(key), str) and node[key]:
                node[key] = str((base / node[key]).resolve())
        output_dir = raw.get("output_dir", DEFAULTS["output_dir"])
        if isinstance(output_dir, str):
            output_dir = str((base / output_dir).resolve())
    return Config(output_dir=output_dir, **{key: nodes[key] for key in _SECTIONS})


def validate_config(config: Config) -> list[str]:
    """All violations found in the config, empty when valid.

    This is the one check of a config: `run`, `tools` and `validate` call
    it before set-up, and set-up reads what it passed without checking
    again, budgets included, which it reads without coercion. It checks
    the values `load_config` filled in and made absolute, with no default
    of its own.
    """
    problems: list[str] = []
    for key in ("library_name", "target_class", "target_method"):
        if not config.target.get(key):
            problems.append(f"target.{key} is required")
    method = config.target.get("target_method", "")
    if method and not (isinstance(method, str) and _SIGNATURE_RE.match(method)):
        problems.append(
            f"target.target_method must look like name(Type,...): {method!r}"
        )

    backend = config.model.get("backend")
    if backend not in ("scripted", "http"):
        problems.append("model.backend must be 'scripted' or 'http'")
    elif backend == "scripted":
        script = config.model.get("script")
        if not script:
            problems.append("model.script is required for the scripted backend")
        else:
            _check_path("model.script", script, problems, want_file=True)
    else:
        for key in ("endpoint", "model"):
            if not (isinstance(config.model.get(key), str) and config.model[key]):
                problems.append(f"model.{key} must be a non-empty string for the http backend")
    for key in ("rate_in", "rate_out"):
        if not 0 <= _number(config.model[key]) <= MAX_RATE:
            problems.append(f"model.{key} must be a number >= 0 and <= {MAX_RATE:.4g}")
    if not isinstance(config.model["api_key_env"], str):
        problems.append(f"model.api_key_env must be a string: {config.model['api_key_env']!r}")

    adapters = [key for key in ("sandbox_spec", "shell") if config.adapter.get(key)]
    if len(adapters) != 1:
        problems.append("exactly one adapter (adapter.sandbox_spec or adapter.shell) must be set")
    elif adapters[0] == "sandbox_spec":
        _check_path("adapter.sandbox_spec", config.adapter["sandbox_spec"], problems, True)
    shell = config.adapter.get("shell") or {}
    if not isinstance(shell, dict):
        problems.append("adapter.shell must be an object")
        shell = {}
    for key in ("compile_cmd", "fuzz_cmd", "coverage_out", "diagnostic_pattern"):
        if key in shell and not isinstance(shell[key], str):
            problems.append(f"adapter.shell.{key} must be a string: {shell[key]!r}")
        elif shell and key != "diagnostic_pattern" and not shell.get(key):
            problems.append(f"adapter.shell.{key} is required with the shell adapter")
    # the fields each command is filled with: `compile` passes no duration
    templates = (("compile_cmd", {"harness": "h.src"}),
                 ("fuzz_cmd", {"harness": "h.src", "duration": 1.0}))
    for key, fields in templates:
        if isinstance(shell.get(key), str):
            try:
                shell[key].format(**fields)
            except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
                names = " and ".join(f"{{{name}}}" for name in fields)
                problems.append(
                    f"adapter.shell.{key} may hold only {names} in braces, and {{{{ or }}}}"
                    f" for a literal brace: {type(exc).__name__}: {exc}"
                )
    pattern = shell.get("diagnostic_pattern")
    if isinstance(pattern, str):
        try:
            groups = re.compile(pattern).groupindex
        except (re.error, OverflowError, RecursionError) as exc:  # a huge count, deep nesting
            problems.append(f"adapter.shell.diagnostic_pattern does not compile: {exc}")
        else:
            missing = [g for g in ("file", "line", "message") if g not in groups]
            if missing:
                problems.append(f"adapter.shell.diagnostic_pattern lacks groups: {', '.join(missing)}")
    if shell and not _number(grace := shell["timeout_grace"]) >= 0:
        problems.append(f"adapter.shell.timeout_grace must be a number >= 0: {grace!r}")

    for key in sorted(set(config.budgets) - set(DEFAULTS["budgets"])):
        problems.append(f"budgets has unknown key: {key}")
    for key in ("depth_limit", "max_rounds", "max_patch_rounds"):
        if not _number(config.budgets[key], int) > 0:
            problems.append(f"budgets.{key} must be a positive number (a JSON integer)")
    for key in ("wall_seconds", "fuzz_seconds"):
        if not _number(config.budgets[key]) > 0:
            problems.append(f"budgets.{key} must be a positive number")
    scope = config.budgets["coverage_scope"]
    if scope not in _COVERAGE_SCOPES:
        problems.append(
            f"budgets.coverage_scope must be one of {', '.join(_COVERAGE_SCOPES)}: {scope!r}"
        )
    iterations = config.budgets["max_iterations"]
    if not isinstance(iterations, dict):
        problems.append("budgets.max_iterations must be an object")
        iterations = {}
    for role, value in iterations.items():
        if role not in AgentRole.__members__:
            problems.append(f"budgets.max_iterations has unknown role: {role}")
        elif not _number(value, int) >= 1:
            problems.append(f"budgets.max_iterations.{role} must be >= 1 (a JSON integer)")

    for key in ("docs_bundle", "source_root", "facts"):
        value = config.target.get(key)
        if value:
            _check_path(f"target.{key}", value, problems)
        elif shell:
            problems.append(f"target.{key} is required with the shell adapter")
    if not isinstance(config.output_dir, str):
        problems.append("output_dir must be a string")
    return problems


def _number(value, kind=float) -> float:
    """`value` if it is a JSON integer (if `kind` is int) or a JSON number a
    float holds finitely (not NaN, ±Infinity or a larger integer), else NaN,
    which fails every comparison, so the caller reports it."""
    if kind is int:
        return value if type(value) is int else math.nan
    try:
        return value if type(value) in (int, float) and math.isfinite(value) else math.nan
    except OverflowError:  # an integer a float cannot hold
        return math.nan


def _check_path(name: str, value, problems: list[str], want_file=False) -> None:
    """Note a path value that is not a string or names nothing (no file, if `want_file`)."""
    if not isinstance(value, str):
        problems.append(f"{name} must be a string: {value!r}")
    elif not (Path(value).is_file() if want_file else Path(value).exists()):
        problems.append(f"{name} does not exist: {value}")
