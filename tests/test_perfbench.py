"""The benchmark's traced runs (`perfbench/run.py --trace 1`) wrap ttkit
functions by name where their callers look them up. A rename or move in
`src/` must not leave one of those names dangling."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for owner, attr, span in workloads.TRAIN_TARGETS + workloads.DECODE_TARGETS:
        assert callable(vars(owner)[attr]), span
