"""Golden run directories: the 8 demo scenarios leave the same files.

Each scenario runs with the overrides the other tests use, into its own run
directory, and every file there is reduced to a sha256 digest. The digests
must equal those in `tests/golden/demo_runs.json`. Three fields measure the
host, not the run, and are left out of their file's digest: the manifest's
`timings`, and `setup.json`'s `seconds` and `code_index`, which counts the
files read from the symbol cache that earlier runs left in `output_dir`.

After a change that is meant to alter a run's output, rewrite the digests
with `PYTHONPATH=src python tests/test_golden_runs.py` and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from conftest import DEMO_DIR
from harnessgen.config import load_config
from harnessgen.orchestrator import TargetSpec, run_workflow

GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_runs.json"

# script -> the overrides the other tests give it
SCENARIOS = {
    "budget": ["budgets.max_rounds=1"],
    "converge": [],
    "crash": [],
    "genfail": [],
    "happy": [],
    "patch_fail": ["budgets.max_patch_rounds=3"],
    "patch_fix": [],
    "warmup": [],
}

# file name -> the keys that hold host state, dropped before hashing
HOST_FIELDS = {"manifest.json": ("timings",), "setup.json": ("seconds", "code_index")}


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    fields = HOST_FIELDS.get(path.name)
    if fields is not None:
        record = json.loads(data)
        for field in fields:
            del record[field]
        data = json.dumps(record, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_digests(out: Path, runs: Path | None = None) -> dict[str, dict[str, str]]:
    """Digests of each scenario's run, with `out` as `output_dir`, each run
    directory under `runs` (by default `out`) named after its script."""
    digests = {}
    for script, overrides in SCENARIOS.items():
        config = load_config(
            DEMO_DIR / "config.json",
            [f"output_dir={out}", f"model.script=scripts/{script}.json", *overrides],
        )
        run_dir = (runs or out) / script
        run_workflow(TargetSpec.from_config(config), config, run_dir=run_dir)
        digests[script] = {
            path.relative_to(run_dir).as_posix(): file_digest(path)
            for path in sorted(run_dir.rglob("*"))
            if path.is_file()
        }
    return digests


def test_demo_run_directories_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_digests(tmp_path) == golden
    assert sum(map(len, golden.values())) == 85


def test_second_pass_reads_every_file_from_the_cache(tmp_path):
    """Runs into an `output_dir` that earlier runs left a symbol cache in
    scan nothing and leave the same files."""
    golden = json.loads(GOLDEN.read_text())
    run_digests(tmp_path, tmp_path / "first")
    assert run_digests(tmp_path, tmp_path / "second") == golden
    for script in SCENARIOS:
        setup = json.loads((tmp_path / "second" / script / "setup.json").read_text())
        assert setup["code_index"] == {"scanned": 0, "cached": 3}
    # one cache for the one source root, and no temporary file left over
    (cache,) = (tmp_path / ".cache").iterdir()
    assert cache.name.startswith("code-") and cache.suffix == ".json"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {GOLDEN}", file=sys.stderr)
