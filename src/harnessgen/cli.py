"""Command-line surface: run, tools, report, validate.

Exit codes: 0 success/converged, 1 invalid config or arguments,
2 compile_failed/model_failed/toolchain_failed/internal_error,
3 budget_exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .config import load_config, validate_config
from .errors import EngineError
from .orchestrator import TargetSpec, build_services, run_workflow
from .toolbus import AgentRole

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAILED = 2
EXIT_BUDGET = 3

_OUTCOME_EXITS = {
    "success": EXIT_OK,
    "converged": EXIT_OK,
    "compile_failed": EXIT_FAILED,
    "model_failed": EXIT_FAILED,
    "toolchain_failed": EXIT_FAILED,
    "internal_error": EXIT_FAILED,
    "budget_exhausted": EXIT_BUDGET,
}


def _load_validated(config_path: str, overrides: list[str], out=None):
    config = load_config(config_path, overrides)
    problems = validate_config(config)
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=out or sys.stderr)
        return None
    return config


def cmd_run(args) -> int:
    try:
        config = _load_validated(args.config, args.set or [])
    except EngineError as exc:
        print(f"config error: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    if config is None:
        return EXIT_CONFIG
    target = TargetSpec.from_config(config)
    try:
        manifest = run_workflow(target, config)
    except EngineError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    print(manifest["run_dir"])
    print(f"outcome: {manifest['outcome']}")
    return _OUTCOME_EXITS.get(manifest["outcome"], EXIT_FAILED)


def cmd_tools(args) -> int:
    try:
        config = _load_validated(args.config, args.set or [])
        if config is None:
            return EXIT_CONFIG
        role = AgentRole[args.role]
    except (EngineError, KeyError):
        print(f"error: unknown role or invalid config: {args.role}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        registry = build_services(config, TargetSpec.from_config(config)).registry
    except EngineError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{'tool':<18} {'category':<10} {'access':<12}")
    for descriptor in registry.descriptors:
        level = registry.check_access(role, descriptor.name)
        print(f"{descriptor.name:<18} {descriptor.category:<10} {level.value:<12}")
    return EXIT_OK


def _load_manifest(run_dir: str) -> tuple[dict, str]:
    path = Path(run_dir) / "manifest.json"
    if not path.is_file():
        raise EngineError("IO", f"manifest not found: {path}")
    text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text), text
    except json.JSONDecodeError as exc:
        raise EngineError("PARSE", f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc


def render_report_text(manifest: dict) -> str:
    lines = []
    target = manifest.get("target", {})
    lines.append(
        f"target: {target.get('library_name')} {target.get('library_version')} "
        f"{target.get('target_class')}.{target.get('target_method')}"
    )
    lines.append(f"outcome: {manifest.get('outcome')}")
    lines.append("")
    lines.append(f"{'Agent':<6} {'Iter':>14} {'Tools':>14} {'Tokens':>10} {'Cost':>10}")
    accounting = manifest.get("accounting", {})
    for row in accounting.get("rows", []):
        lines.append(
            f"{row['agent']:<6} {row['iterations']:>14} {row['tool_calls']:>14} "
            f"{row['tokens']:>10} {row['cost']:>10.4f}"
        )
    totals = accounting.get("totals", {})
    lines.append(
        f"{'Total':<6} {totals.get('iterations', 0):>14} {totals.get('tool_calls', 0):>14} "
        f"{totals.get('tokens', 0):>10} {totals.get('cost', 0.0):>10.4f}"
    )
    lines.append("")
    lines.append("round  line%    branch%  decision      crashes")
    for row in manifest.get("rounds", []):
        lines.append(
            f"{row['round']:<6} {row['line_percent']:<8.2f} {row['branch_percent']:<8.2f} "
            f"{row['decision']:<13} {row['crash_count']}"
        )
    return "\n".join(lines)


def render_report_csv(manifest: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["round", "line_pct", "branch_pct", "decision", "crashes"])
    for row in manifest.get("rounds", []):
        writer.writerow(
            [
                row["round"],
                repr(row["line_percent"]),
                repr(row["branch_percent"]),
                row["decision"],
                row["crash_count"],
            ]
        )
    return buffer.getvalue()


def cmd_report(args) -> int:
    try:
        manifest, raw = _load_manifest(args.run_dir)
    except EngineError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    if args.format == "json":
        sys.stdout.write(raw)
    elif args.format == "csv":
        sys.stdout.write(render_report_csv(manifest))
    else:
        print(render_report_text(manifest))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        config = load_config(args.config, args.set or [])
    except EngineError as exc:
        print(f"config error: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    problems = validate_config(config)
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harnessgen",
        description="Agent-driven fuzz harness generation engine",
        epilog="exit codes: 0 success/converged, 1 invalid config, "
        "2 compile/model/toolchain failure or internal error, 3 budget exhausted",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a full generation workflow")
    run.add_argument("config")
    run.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted-path override")
    run.set_defaults(fn=cmd_run)

    tools = sub.add_parser("tools", help="show tool access for an agent role")
    tools.add_argument("config")
    tools.add_argument("--role", required=True)
    tools.add_argument("--set", action="append", metavar="KEY=VALUE")
    tools.set_defaults(fn=cmd_tools)

    report = sub.add_parser("report", help="render a run manifest")
    report.add_argument("run_dir")
    report.add_argument("--format", choices=["text", "json", "csv"], default="text")
    report.set_defaults(fn=cmd_report)

    validate = sub.add_parser("validate", help="validate a config file")
    validate.add_argument("config")
    validate.add_argument("--set", action="append", metavar="KEY=VALUE")
    validate.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
