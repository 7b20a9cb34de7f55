"""The benchmark's traced runs (`perfbench/run.py --trace 1`) wrap ttkit
functions by name where their callers look them up. A rename or move in
`src/` must not leave one of those names dangling, and a signature change
must not break the benchmark's own calls into ttkit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for owner, attr, span in workloads.TRAIN_TARGETS + workloads.DECODE_TARGETS:
        assert callable(vars(owner)[attr]), span


def test_every_workload_runs_and_checks_out(tmp_path):
    # run.py writes .bench_out/ under its own root and imports ttkit from
    # <root>/src, so it runs from a copy of the checkout
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("perfbench", "configs", "src"):
        shutil.copytree(REPO / name, tmp_path / name, ignore=skip)
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    # the traced run wraps the benchmark's span targets and records the counts
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0.1", "--seed", "901",
             "--trace", trace],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, (trace, proc.stderr)
