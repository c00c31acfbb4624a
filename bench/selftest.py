"""Tests of the benchmark itself (not collected by the engine's suite):

    python3 -m pytest -q bench/selftest.py

They run every workload for a moment, so they take about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import synthlib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from harnessgen import coverage, orchestrator  # noqa: E402
from harnessgen.config import load_config, validate_config  # noqa: E402

SEED = 5
# Counts that must repeat exactly across two runs with one seed; run_dir_bytes
# is left out because manifest timings vary in length.
EXACT_COUNTS = (
    "tokens_per_run", "coverage.render_chars", "callgraph.nodes", "callgraph.edges",
    "code_index.symbols", "orchestrator.files_written",
)


def files_of(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_generator_is_deterministic_and_valid(tmp_path):
    config = synthlib.generate(3, tmp_path / "a")
    synthlib.generate(3, tmp_path / "b")
    synthlib.generate(4, tmp_path / "c")
    a, b, c = (files_of(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c
    assert validate_config(load_config(config)) == []


def bench(workload: str, trace: int, seed: int = SEED) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(w, t): bench(w, t) for w in workloads.PLANS for t in (0, 1)}


def test_metric_names_match_benchmark_json(results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.PLANS)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for (workload, trace), result in results.items():
        assert result["correct"], (workload, trace)
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units[trace], (workload, trace)


def test_end_to_end_metrics_are_never_zero(results):
    for workload in workloads.PLANS:
        for name, metric in results[(workload, 0)]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_counts_repeat_exactly_for_one_seed(results):
    again = {t: bench("synth-workflow", t) for t in (0, 1)}
    for name in EXACT_COUNTS:
        trace = 0 if name == "tokens_per_run" else 1
        first = results[("synth-workflow", trace)]["metrics"][name]["value"]
        assert first > 0, name
        assert again[trace]["metrics"][name]["value"] == first, name


def test_wrapper_in_the_wrong_namespace_fails_the_check(monkeypatch, tmp_path):
    """merge_with_callgraph bound where it is defined, not where the
    orchestrator looks it up, must show as missing, not as zero."""
    boundaries = tuple(
        (coverage, attr, name, attrs)
        if (owner, attr) == (orchestrator, "merge_with_callgraph") else (owner, attr, name, attrs)
        for owner, attr, name, attrs in tracing.MODULE_BOUNDARIES
    )
    monkeypatch.setattr(tracing, "MODULE_BOUNDARIES", boundaries)
    monkeypatch.setitem(workloads.PLANS, "synth-workflow",
                        workloads.Plan(group=1, run_tail=100, tool_tail=100, min_ops=2))
    monkeypatch.setattr(workloads.SynthWorkflow, "finish", lambda self: [])
    result, summary = workloads.run("synth-workflow", SEED, 0.0, True, tmp_path, tmp_path / "work")
    assert not result["correct"]
    assert "coverage.merge_ms" in summary[-1]
    assert result["metrics"]["coverage.render_ms"]["value"] > 0
