"""Offline benchmark of harnessgen; see bench/README.md.

    python3 bench/run.py --workload demo-suite --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: it imports the engine from the
checkout's `src/`, writes only under `.bench_work/` there, and prints
a summary followed by one JSON line with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
with `--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("demo-suite", "synth-workflow", "synth-tools")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="harnessgen offline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "harnessgen" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, summary = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work
        )
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
