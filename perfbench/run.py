"""ttkit benchmark runner.

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a ttkit checkout. The library is imported from `src/`
of that checkout and driven through its public API from this one process,
with BLAS and OpenMP held to one thread. Set-up (config parsing, data
generation, dataset write/read, and for `decode` the set-up training and
checkpoint round trip) runs several times and its median is reported; then
passes of fixed work repeat for `--seconds`.

`--trace 0` prints the end-to-end metrics declared in BENCHMARK.json;
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics instead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it name every
metric of the workload with its unit, and the run environment. A full record
(environment, every metric, raw samples) goes to
`.bench_out/result-<workload>-seed<n>-trace<k>.json`, and a traced run
writes its spans next to it as JSON lines.
"""

import os

# Fix the thread count before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_desk", "train_long", "decode")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
    }


def run_all(args, declaration) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def run_one(args, declaration) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ttkit
    except ImportError as e:
        return fail(f"cannot import ttkit from {ROOT / 'src'}: {e}")
    if Path(ttkit.__file__).resolve().parent != ROOT / "src" / "ttkit":
        return fail(f"imported ttkit from {ttkit.__file__}, not from this checkout")
    config_path = ROOT / "configs" / "desk.json"
    if not config_path.is_file():
        return fail(f"missing {config_path}")

    import workloads as wl
    from clock import Clock
    from spans import Tracer

    w = wl.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=out_dir)
    tally = wl.Tally()
    clock = Clock()
    try:
        repeats = 1 if args.trace else w.setup_repeats
        setup, setup_times, setup_raw, setup_tracer = wl.timed_setups(
            w, args.seed, config_path, work_dir, repeats, clock)
        tracer = Tracer() if args.trace else None
        run = wl.run_decode if w.name == "decode" else wl.run_train
        report, gated, layers, samples = run(w, args.seed, seconds, tracer, setup, work_dir, clock, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times)

    report = {
        "setup_s": (setup_s, "s"),
        "setup_s_raw": (statistics.median(setup_raw), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
        **report,
        "machine_speed": (clock.speed(), "ratio"),
    }
    setup_ms = {name: secs * 1e3 for name, (_, secs) in setup_tracer.totals().items()}
    layers = {
        "tasks.dataset_io_ms": setup_ms.get("tasks.dataset_io", 0.0),
        "train.checkpoint_io_ms": setup_ms.get("train.checkpoint_io", 0.0),
        **layers,
    }
    gated = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **gated}

    if args.trace:
        declared = declaration["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0) for m in declared}   # 0: layer not on this workload's path
    else:
        declared = declaration["end_to_end"]
        values = {m["name"]: gated[m["name"]] for m in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment(args.seed)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": w.name, "seconds": seconds, "environment": env,
        "why": next(x["why"] for x in declaration["workloads"] if x["name"] == w.name),
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "setup_times_s": setup_times, "metrics": metrics,
        "checks_failed": tally.messages, "samples": samples,
    }
    with open(out_dir / f"result-{tag}.json", "w") as f:
        json.dump(record, f, indent=1)
    if tracer is not None:
        tracer.write(out_dir / f"spans-{tag}.jsonl")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in report.items():
        print(f"metric {w.name} {name} {value:.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"layer {w.name} {name} {m['value']:.6g} {m['unit']}")
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        declaration = load_declaration()
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload == "all":
        return run_all(args, declaration)
    return run_one(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
