"""Run configuration: a single JSON file with dotted-path overrides.

All relative paths in the file resolve against the config file location.
Validation collects every violation instead of stopping at the first.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import DEFAULT_DEPTH_LIMIT
from .errors import EngineError, json_input
from .toolbus import AgentRole

_SIGNATURE_RE = re.compile(r"^\w+\([^()]*\)$")
_SECTIONS = ("target", "model", "budgets", "adapter")
_COVERAGE_SCOPES = ("method_targeted", "full")

DEFAULT_BUDGETS = {
    "depth_limit": DEFAULT_DEPTH_LIMIT,
    "max_rounds": 5,
    "max_patch_rounds": 3,
    "wall_seconds": 3600.0,
    "fuzz_seconds": 60.0,
    "coverage_scope": "method_targeted",
}
_COUNT_BUDGETS = ("depth_limit", "max_rounds", "max_patch_rounds")  # JSON integers
_SECONDS_BUDGETS = ("wall_seconds", "fuzz_seconds")  # JSON numbers


@dataclass
class Config:
    base_dir: Path
    target: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    adapter: dict = field(default_factory=dict)
    output_dir: str = "runs"

    def resolve(self, value: str) -> Path:
        return (self.base_dir / value).resolve()

    def budget(self, key: str):
        return self.budgets.get(key, DEFAULT_BUDGETS.get(key))

    def max_iterations(self, role: AgentRole) -> int | None:
        return self.budgets.get("max_iterations", {}).get(role.value)

    def depth_limit(self) -> int:
        return self.budget("depth_limit")


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
    path = Path(path)
    with json_input(path, "config file") as raw:
        if overrides:
            raw = apply_overrides(raw, overrides)
        if not isinstance(raw, dict):
            raise EngineError("PARSE", f"{path}: the top level must be an object")
        sections = {key: raw.get(key, {}) for key in _SECTIONS}
        for key, value in sections.items():
            if not isinstance(value, dict):
                raise EngineError("PARSE", f"{path}: {key} must be an object")
    return Config(
        base_dir=path.parent.resolve(), output_dir=raw.get("output_dir", "runs"), **sections
    )


def validate_config(config: Config) -> list[str]:
    """All violations found in the config, empty when valid.

    A valid config's budgets have their JSON types, and the run reads them
    without coercion.
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
            _check_path(config, "model.script", script, problems, want_file=True)
    else:
        if not config.model.get("endpoint"):
            problems.append("model.endpoint is required for the http backend")
        if not config.model.get("model"):
            problems.append("model.model is required for the http backend")
    for key in ("rate_in", "rate_out"):
        if not _number(config.model.get(key, 0.0)) >= 0:
            problems.append(f"model.{key} must be a number >= 0")
    if not isinstance(config.model.get("api_key_env", ""), str):
        problems.append(f"model.api_key_env must be a string: {config.model['api_key_env']!r}")

    adapters = [key for key in ("sandbox_spec", "shell") if config.adapter.get(key)]
    if len(adapters) != 1:
        problems.append("exactly one adapter (adapter.sandbox_spec or adapter.shell) must be set")
    elif adapters[0] == "sandbox_spec":
        _check_path(config, "adapter.sandbox_spec", config.adapter["sandbox_spec"], problems, True)
    shell = config.adapter.get("shell") or {}
    if not isinstance(shell, dict):
        problems.append("adapter.shell must be an object")
        shell = {}
    for key in ("compile_cmd", "fuzz_cmd", "coverage_out", "diagnostic_pattern"):
        if key in shell and not isinstance(shell[key], str):
            problems.append(f"adapter.shell.{key} must be a string: {shell[key]!r}")
    grace = shell.get("timeout_grace", 0.0)
    if not _number(grace) >= 0:
        problems.append(f"adapter.shell.timeout_grace must be a number >= 0: {grace!r}")

    for key in sorted(set(config.budgets) - set(DEFAULT_BUDGETS) - {"max_iterations"}):
        problems.append(f"budgets has unknown key: {key}")
    for key in _COUNT_BUDGETS:
        if not _number(config.budget(key), int) > 0:
            problems.append(f"budgets.{key} must be a positive number (a JSON integer)")
    for key in _SECONDS_BUDGETS:
        if not _number(config.budget(key)) > 0:
            problems.append(f"budgets.{key} must be a positive number")
    scope = config.budget("coverage_scope")
    if scope not in _COVERAGE_SCOPES:
        problems.append(
            f"budgets.coverage_scope must be one of {', '.join(_COVERAGE_SCOPES)}: {scope!r}"
        )
    iterations = config.budgets.get("max_iterations", {})
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
            _check_path(config, f"target.{key}", value, problems)
    if not isinstance(config.output_dir, str):
        problems.append("output_dir must be a string")
    return problems


def _number(value, kind=float) -> float:
    """`value` if it is a JSON number (a JSON integer if `kind` is int), else
    NaN, which fails every comparison, so the caller reports it."""
    kinds = (int,) if kind is int else (int, float)
    return value if type(value) in kinds else float("nan")


def _check_path(config: Config, name: str, value, problems: list[str], want_file=False) -> None:
    """Note a path value that is not a string or names nothing (no file, if `want_file`)."""
    if not isinstance(value, str):
        problems.append(f"{name} must be a string: {value!r}")
    elif not (config.resolve(value).is_file() if want_file else config.resolve(value).exists()):
        problems.append(f"{name} does not exist: {value}")
