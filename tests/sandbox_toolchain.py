"""A sandbox spec run as a shell toolchain: the compiler and the fuzzer of an
`adapter.shell`, so that a shell run can be set beside a sandbox run.

    python tests/sandbox_toolchain.py SPEC compile HARNESS
    python tests/sandbox_toolchain.py SPEC fuzz HARNESS DURATION OUT

`compile` prints each diagnostic the spec's compile rules give the harness
as `file:line: message`, and exits 1 if the compile fails. `fuzz` writes
the campaign the spec's rules give the harness to OUT, in the form a fuzz
command writes `coverage_out`: the raw trace, with its recording windows
not yet applied, the execution count and the crash summaries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harnessgen.agents import HarnessArtifact, normalize_and_hash  # noqa: E402
from harnessgen.coverage import Campaign  # noqa: E402
from harnessgen.ecosystem import load_sandbox  # noqa: E402


def campaign_json(campaign: Campaign) -> dict:
    """`campaign` as a `coverage_out` file holds it."""
    trace = campaign.trace
    return {
        "windows": [list(window) for window in trace.windows],
        "method_totals": {mid: list(counts) for mid, counts in trace.method_totals.items()},
        "runs": [[mid, kind, ts, list(lines)] for mid, kind, ts, lines in trace.events.runs],
        "executions": campaign.executions,
        "crashes": [{"summary": summary} for summary in campaign.crashes],
    }


def main(argv: list[str]) -> int:
    spec, command, harness_file, *rest = argv
    with open(harness_file, encoding="utf-8", newline="") as handle:
        source = handle.read()
    harness = HarnessArtifact(source, (), normalize_and_hash(source))
    adapter = load_sandbox(spec)
    if command == "compile":
        result = adapter.compile(harness)
        for d in result.diagnostics:
            print(f"{d.file}:{d.line}: {d.message}")
        return 0 if result.success else 1
    duration, out = rest
    campaign = adapter.campaign(harness, float(duration))
    Path(out).write_text(json.dumps(campaign_json(campaign)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
