"""The three benchmark workloads, their set-up, timed loops and checks.

Every workload is a closed loop in one process and one thread: the next
operation starts when the previous one has returned. Work is organised in
passes. A pass is a fixed, seed-determined amount of work that starts from
the same state, so every pass of a run must produce bit-identical outputs
and identical exact counts; the runner repeats passes until the measuring
time is up and reports medians over them.

train_desk -- the shape users and the acceptance suite train: the
    `configs/desk.json` model at batch 8 on short utterances (3-5 labels,
    1-3 frames per label). Per-node Python work in the encoders and in
    backward is most of the step; the lattice is small. A faster loss should
    move this workload only a little.
train_long -- the same model at batch 4 on long utterances (12-20 labels,
    3-6 frames per label). The T*U scalar-node lattice recursion and its
    backward dominate; the encoders are a few percent. A fused loss shows
    here, a change to encoder ops barely does.
decode -- a desk model trained for 120 steps during set-up, saved and
    loaded back, then a held-out split of longer utterances decoded three
    ways: frame-by-frame streaming, greedy, and beam search of width 4. The
    same attention and joint code runs without a graph or backward: the
    encoder one position at a time (streaming, label states) or batched
    under no_grad, the joint per (frame, hypothesis). Training workloads
    never reach these paths and this one never reaches the loss.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import shutil
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import ttkit.attention as att
import ttkit.decode as dec
import ttkit.train as trn
import ttkit.transducer as tr
from ttkit.config import load_run_config
from ttkit.model import TransducerModel, init_model
from ttkit.tasks import Dataset, SyntheticTaskConfig, corpus_wer, gen_synthetic, read_dataset, write_dataset
from ttkit.tensor import Rng

from clock import Clock
from spans import Tracer

NOISE_SIGMA = 0.2
DECODE_TRAIN_STEPS = 120
HELD_OUT_FIRST_INDEX = 1_000_000   # far past any training index: disjoint data, same templates
ORACLE_FIRST_INDEX = 2_000_000
ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    label_len: tuple[int, int]
    frames_per_label: tuple[int, int]
    size: int                 # utterances per pass
    tail: int                 # percentile reported as latency_ms_tail
    batch_size: int = 0       # training workloads only
    setup_repeats: int = 9


WORKLOADS = {
    w.name: w for w in (
        Workload("train_desk", label_len=(3, 5), frames_per_label=(1, 3), size=8 * 40, tail=95, batch_size=8),
        Workload("train_long", label_len=(12, 20), frames_per_label=(3, 6), size=4 * 10, tail=80, batch_size=4),
        Workload("decode", label_len=(10, 20), frames_per_label=(1, 3), size=20, tail=90, setup_repeats=3),
    )
}

# Where each traced call is looked up by its caller, and the span name.
TRAIN_TARGETS = [
    (trn, "train_step", "train.train_step"),
    (TransducerModel, "prepare_features", "frontend.prepare_features"),
    (TransducerModel, "encode_audio", "attention.encode_audio"),
    (TransducerModel, "encode_labels", "attention.encode_labels"),
    (tr, "log_prob_grid", "transducer.log_prob_grid"),
    (trn, "batch_loss", "transducer.batch_loss"),
    (trn, "backward", "tensor.backward"),
    (trn, "clip_gradients", "train.clip_gradients"),
    (trn.Adam, "step", "train.Adam.step"),
    (trn, "save_checkpoint", "train.save_checkpoint"),
]
TRAIN_ROOTS = {"train.train_step"}

DECODE_TARGETS = [
    (dec.StreamState, "step", "decode.StreamState.step"),
    (dec.StreamState, "flush", "decode.StreamState.flush"),
    (dec, "greedy_decode", "decode.greedy_decode"),
    (dec, "beam_decode", "decode.beam_decode"),
    (TransducerModel, "prepare_features", "frontend.prepare_features"),
    (TransducerModel, "encode_audio", "attention.encode_audio"),
    (TransducerModel, "project_audio", "model.project_audio"),
    (TransducerModel, "joint_from_projections", "model.joint_from_projections"),
    (dec.LabelState, "advance", "decode.LabelState.advance"),
    (dec.LabelState, "advanced", "decode.LabelState.advanced"),
    (att, "encoder_layer_step", "attention.encoder_layer_step"),
]
DECODE_ROOTS = {"decode.StreamState.step", "decode.StreamState.flush",
                "decode.greedy_decode", "decode.beam_decode"}


class Tally:
    """Operations attempted and failed; a failed check is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.messages) < 20:
                self.messages.append(what)


def count_graph_nodes(root) -> int:
    """Distinct tensors reachable from `root` through `parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def task_config(run, seed: int, size: int, label_len: tuple[int, int],
                frames_per_label: tuple[int, int], first_index: int) -> SyntheticTaskConfig:
    return SyntheticTaskConfig(
        vocab=run.model.vocab_size - 1, label_len=label_len, frames_per_label=frames_per_label,
        feature_dim=run.model.feature_dim, noise_sigma=NOISE_SIGMA, size=size, seed=seed,
        first_index=first_index)


def length_cycled(w: Workload, run, seed: int, size: int, first_index: int = 0) -> Dataset:
    """`size` utterances whose label counts cycle through the workload's
    range, so every seed gets the same mix of lengths; labels, frame counts
    and noise come from the seed. Length j draws its utterances from the
    index range starting at first_index + j * size, so no two collide."""
    lo, hi = w.label_len
    span = hi - lo + 1
    parts = [gen_synthetic(task_config(run, seed, len(range(j, size, span)), (lo + j, lo + j),
                                       w.frames_per_label, first_index + j * size))
             for j in range(span)]
    utts = [parts[i % span].utterances[i // span] for i in range(size)]
    return Dataset(run.model.vocab_size - 1, utts)


def dataset_round_trip(data, path, tracer: Tracer):
    with tracer.span("tasks.dataset_io"):
        write_dataset(data, path)
        return read_dataset(path)


def oracle_check(model: TransducerModel, run, seed: int, tally: Tally):
    """One small instance: the lattice recursion against alignment
    enumeration."""
    utt = gen_synthetic(task_config(run, seed, 1, (2, 4), (1, 2), ORACLE_FIRST_INDEX)).utterances[0]
    grid = model.example_grid(utt.features, utt.labels)
    value = tr.rnnt_log_prob(grid, utt.labels).item()
    oracle = tr.brute_force_log_prob(grid, utt.labels)
    tally.record(abs(value - oracle) <= ORACLE_TOLERANCE,
                 f"recursion {value!r} != enumeration {oracle!r}")


@dataclass
class Setup:
    run: object
    data: object                  # training split (train workloads, decode set-up)
    held_out: object = None       # decode only
    model: TransducerModel | None = None
    checkpoint_identical: bool = True   # load -> save reproduces the file


def setup_once(w: Workload, seed: int, config_path, work_dir, tracer: Tracer, clock: Clock) -> Setup:
    """Everything a run does before its first timed operation. The caller
    laps `clock` once more when this returns."""
    run = load_run_config(config_path)
    run = dataclasses.replace(run, seed=seed)
    if w.name != "decode":
        data = length_cycled(w, run, seed, w.size)
        return Setup(run, dataset_round_trip(data, os.path.join(work_dir, "train.ttds"), tracer))

    desk = WORKLOADS["train_desk"]
    train = length_cycled(desk, run, seed, DECODE_TRAIN_STEPS * run.train.batch_size)
    train = dataset_round_trip(train, os.path.join(work_dir, "train.ttds"), tracer)
    held_out = length_cycled(w, run, seed, w.size, HELD_OUT_FIRST_INDEX)
    held_out = dataset_round_trip(held_out, os.path.join(work_dir, "test.ttds"), tracer)
    model = init_model(run.model, Rng(seed))
    cfg = dataclasses.replace(run.train, total_steps=DECODE_TRAIN_STEPS, seed=seed)
    trn.train_loop(model, train, run.schedule, cfg, out_dir=os.path.join(work_dir, "setup_run"),
                   log_fn=lambda record: clock.lap())
    path = os.path.join(work_dir, "model.ttck")
    with tracer.span("train.checkpoint_io"):
        trn.save_checkpoint(model, path)
        loaded = trn.load_checkpoint(path)
    with open(path, "rb") as f:
        identical = f.read() == trn.checkpoint_bytes(loaded)
    return Setup(run, train, held_out, loaded, identical)


def timed_setups(w: Workload, seed: int, config_path, work_dir, repeats: int, clock: Clock):
    """Run the set-up `repeats` times. Returns the last result, the
    reference and raw seconds of each, and the tracer holding the set-up
    spans of the last one."""
    ref_times, raw_times = [], []
    for i in range(repeats):
        tracer = Tracer()
        target = os.path.join(work_dir, f"setup{i}")
        os.makedirs(target)
        start = len(clock.laps)
        clock.restart()
        setup = setup_once(w, seed, config_path, target, tracer, clock)
        clock.lap()
        raw_times.append(sum(s for s, _ in clock.laps[start:]))
        ref_times.append(sum(r for _, r in clock.laps[start:]))
    return setup, ref_times, raw_times, tracer


def measure(one_pass, seconds: float, tracer: Tracer | None = None, targets=()):
    """Repeat `one_pass(tracer_or_None)` until `seconds` have elapsed. With
    a tracer, passes alternate untraced and traced, so both see the same
    machine state and their ratio is the tracing overhead."""
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not plain or (tracer is not None and not traced):
        if tracer is not None and len(plain) > len(traced):
            with tracer.patched(targets):
                traced.append(one_pass(tracer))
        else:
            plain.append(one_pass(None))
    return [p for p in plain if p is not None], [p for p in traced if p is not None]


def median_rate(work: float, passes, key) -> float:
    return statistics.median(work / key(p) for p in passes)


# ----------------------------------------------------------------- training


@dataclass
class TrainPass:
    seconds: float                # wall time of the timed intervals
    ref_seconds: float            # the same in reference seconds
    step_ref_seconds: list[float]
    losses: list[float]
    counters: tuple[int, int]     # attention scores, joint evaluations
    graph_nodes: list[int]        # per step; counting pass only
    window: tuple[int, int]       # span range; traced passes only


@contextmanager
def keeping_roots(roots: list):
    """Make `train_step` hand each loss root to `roots` on its way into
    `backward`, so the graph can be counted after the step."""
    backward = trn.backward

    def keep(root, *args, **kwargs):
        roots.append(root)
        return backward(root, *args, **kwargs)

    trn.backward = keep
    try:
        yield
    finally:
        trn.backward = backward


def train_pass(setup: Setup, w: Workload, seed: int, out_dir, clock: Clock,
               tracer: Tracer | None, count_nodes: bool = False) -> TrainPass:
    """One `train_loop` from a freshly initialised model, as `ttkit train`
    runs it (with an output directory). Each step is timed from the end of
    the previous one; the probe runs between steps, outside the timed
    intervals. Counting graph nodes keeps each step's graph alive past its
    end, so a counting pass is not a timing pass."""
    run = setup.run
    model = init_model(run.model, Rng(seed))
    cfg = dataclasses.replace(run.train, batch_size=w.batch_size,
                              total_steps=w.size // w.batch_size, seed=seed)
    start = len(clock.laps)
    nodes: list[int] = []
    roots: list = []

    def log(record):
        clock.lap()
        if roots:
            nodes.append(count_graph_nodes(roots.pop()))
            clock.restart()

    mark = tracer.mark() if tracer is not None else 0
    with keeping_roots(roots) if count_nodes else nullcontext():
        clock.restart()
        losses = trn.train_loop(model, setup.data, run.schedule, cfg, out_dir=out_dir, log_fn=log)
        clock.lap()   # the final checkpoint, written after the last step's record
    shutil.rmtree(out_dir)
    laps = clock.laps[start:]
    window = (mark, tracer.mark() if tracer is not None else 0)
    return TrainPass(sum(s for s, _ in laps), sum(r for _, r in laps), [r for _, r in laps[:-1]],
                     losses, (model.counters.attention_scores, model.counters.joint_evals), nodes, window)


def reference_first_step(setup: Setup, w: Workload, seed: int) -> tuple[float, int]:
    """Step 0 through the plain, untraced `train_step`: its loss and the
    node count of its graph."""
    run = setup.run
    model = init_model(run.model, Rng(seed))
    cfg = dataclasses.replace(run.train, batch_size=w.batch_size, seed=seed)
    batch = setup.data.utterances[:w.batch_size]
    roots: list = []
    with keeping_roots(roots):
        loss = trn.train_step(model, trn.Adam(model, cfg), batch, 0, run.schedule, cfg, Rng(seed))
    return loss, count_graph_nodes(roots[0])


def check_train(passes: list[TrainPass], reference: tuple[float, int], tally: Tally):
    """Every step is an op: finite, and bit-identical to the first pass.
    Per pass: step 0 equals the untraced `train_step`, and the exact counts
    repeat; a counting pass's step 0 has as many graph nodes as the
    reference step."""
    reference, reference_nodes = reference
    first = passes[0]
    for i, p in enumerate(passes):
        for step, loss in enumerate(p.losses):
            tally.record(math.isfinite(loss) and loss == first.losses[step],
                         f"pass {i} step {step}: loss {loss!r}, first pass {first.losses[step]!r}")
        tally.record(p.losses[0] == reference,
                     f"pass {i}: step 0 loss {p.losses[0]!r} != untraced train_step {reference!r}")
        tally.record(p.counters == first.counters, f"pass {i}: counters {p.counters} != {first.counters}")
        if p.graph_nodes:
            tally.record(p.graph_nodes[0] == reference_nodes,
                         f"pass {i}: step 0 has {p.graph_nodes[0]} graph nodes, reference {reference_nodes}")


def run_train(w: Workload, seed: int, seconds: float, tracer: Tracer | None, setup: Setup,
              work_dir, clock: Clock, tally: Tally) -> tuple[dict, dict, dict, dict]:
    reference = reference_first_step(setup, w, seed)
    count = itertools.count()

    def one_pass(t):
        try:
            return train_pass(setup, w, seed, os.path.join(work_dir, f"pass{next(count)}"), clock, t)
        except Exception as e:  # a failed pass fails each of its steps; the run goes on
            tally.record(False, f"train pass: {type(e).__name__}: {e}", w.size // w.batch_size)
            return None

    counted = [train_pass(setup, w, seed, os.path.join(work_dir, "counted"), clock, None, True)
               ] if tracer is not None else []
    plain, traced = measure(one_pass, seconds, tracer, TRAIN_TARGETS)
    if not plain or (tracer is not None and not traced):
        raise RuntimeError("no training pass completed: " + "; ".join(tally.messages))
    check_train(plain + traced + counted, reference, tally)
    oracle_check(init_model(setup.run.model, Rng(seed)), setup.run, seed, tally)

    steps_ms = [s * 1e3 for p in plain for s in p.step_ref_seconds]
    rate = median_rate(w.size, plain, lambda p: p.ref_seconds)
    report = {
        "train_examples_per_s": (rate, "1/s"),
        "train_examples_per_s_raw": (median_rate(w.size, plain, lambda p: p.seconds), "1/s"),
        "train_loss_final": (statistics.fmean(plain[0].losses[-5:]), "loss"),
        "train_step_ms_p50": (percentile(steps_ms, 50), "ms"),
        f"train_step_ms_p{w.tail}": (percentile(steps_ms, w.tail), "ms"),
        "train_steps_timed": (len(steps_ms), "count"),
    }
    gated = {
        "throughput_per_s": rate,
        "latency_ms_p50": report["train_step_ms_p50"][0],
        "latency_ms_tail": report[f"train_step_ms_p{w.tail}"][0],
    }
    samples = {"pass_ref_s": [p.ref_seconds for p in plain],
               "step_ref_ms": [[s * 1e3 for s in p.step_ref_seconds] for p in plain]}
    if tracer is None:
        return report, gated, {}, samples

    n = sum(len(p.losses) for p in traced)
    totals = tracer.totals([p.window for p in traced])

    def ms(*names):
        return sum(totals.get(name, (0, 0.0))[1] for name in names) / n * 1e3

    root, covered = tracer.coverage(TRAIN_ROOTS, [p.window for p in traced])
    layers = {
        "attention.audio_encode_ms": ms("attention.encode_audio"),
        "attention.label_encode_ms": ms("attention.encode_labels"),
        "attention.scores": traced[0].counters[0],
        "transducer.grid_ms": ms("transducer.log_prob_grid"),
        "transducer.joint_evals": traced[0].counters[1],
        "transducer.loss_fwd_ms": ms("transducer.batch_loss"),
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.graph_nodes": sum(counted[0].graph_nodes),
        "train.optim_ms": ms("train.clip_gradients", "train.Adam.step"),
        "train.checkpoint_ms": ms("train.save_checkpoint"),
        "frontend.prepare_ms": ms("frontend.prepare_features"),
        "trace.coverage": covered / root,
        "trace.overhead": statistics.median(p.ref_seconds for p in traced)
        / statistics.median(p.ref_seconds for p in plain) - 1.0,
    }
    return report, gated, layers, samples


# ----------------------------------------------------------------- decoding


PHASES = ("stream", "greedy", "beam")


@dataclass
class DecodePass:
    ref_seconds: float
    seconds: float
    phase_ref_seconds: dict[str, float]
    frame_ref_seconds: list[float]
    outputs: dict[str, list]                       # phase -> transcript per utterance
    counters: dict[str, tuple[int, int]]           # phase -> (attention scores, joint evals)
    windows: dict[str, tuple[int, int]]            # phase -> span range; traced passes only


def decode_pass(setup: Setup, clock: Clock, tracer: Tracer | None, tally: Tally) -> DecodePass:
    """Stream, then greedy-decode, then beam-decode every held-out
    utterance, each utterance one timed interval. A raised exception fails
    that one op."""
    model = setup.model
    opts = setup.run.decode
    counters = model.counters
    frames: list[float] = []

    def stream(features):
        state = dec.StreamState(model, opts.max_symbols_per_frame)
        out = []
        for frame in features:
            start = perf_counter()
            out += state.step(frame)
            frames.append(perf_counter() - start)
        return out + state.flush()

    decoders = {
        "stream": stream,
        "greedy": lambda x: dec.greedy_decode(model, x, opts.max_symbols_per_frame),
        "beam": lambda x: list(dec.beam_decode(
            model, x, opts.beam_width, max_symbols_per_frame=opts.max_symbols_per_frame)[0].labels),
    }
    outputs, phase_ref, phase_counters, windows = {}, {}, {}, {}
    frame_ref: list[float] = []
    raw_total = 0.0
    for phase in PHASES:
        before = (counters.attention_scores, counters.joint_evals)
        mark = tracer.mark() if tracer is not None else 0
        results = []
        phase_ref[phase] = 0.0
        for utt in setup.held_out.utterances:
            frames.clear()
            clock.restart()
            try:
                results.append(decoders[phase](utt.features))
            except Exception as e:  # a failed op is counted, the run goes on
                tally.record(False, f"{phase} {utt.id}: {type(e).__name__}: {e}")
                results.append(None)
            seconds, ref = clock.lap()
            raw_total += seconds
            phase_ref[phase] += ref
            frame_ref += [f * ref / seconds for f in frames]
        windows[phase] = (mark, tracer.mark() if tracer is not None else 0)
        phase_counters[phase] = (counters.attention_scores - before[0], counters.joint_evals - before[1])
        outputs[phase] = results
    return DecodePass(sum(phase_ref.values()), raw_total, phase_ref, frame_ref, outputs,
                      phase_counters, windows)


def check_decode(passes: list[DecodePass], tally: Tally):
    """Each streamed transcript equals greedy on the same utterance, bit for
    bit; every transcript and exact count repeats the first pass."""
    first = passes[0]
    for i, p in enumerate(passes):
        for u, streamed in enumerate(p.outputs["stream"]):
            greedy = p.outputs["greedy"][u]
            if streamed is not None and greedy is not None:
                tally.record(streamed == greedy, f"pass {i} utt {u}: stream {streamed} != greedy {greedy}")
        for phase in ("greedy", "beam"):
            for u, out in enumerate(p.outputs[phase]):
                if out is not None:
                    tally.record(out == first.outputs[phase][u], f"pass {i} utt {u}: {phase} output changed")
        tally.record(p.counters == first.counters, f"pass {i}: counters {p.counters} != {first.counters}")


def run_decode(w: Workload, seed: int, seconds: float, tracer: Tracer | None, setup: Setup,
               work_dir, clock: Clock, tally: Tally) -> tuple[dict, dict, dict, dict]:
    tally.record(setup.checkpoint_identical, "checkpoint load -> save is not byte-identical")
    utts = setup.held_out.utterances
    n = len(utts)
    frames = sum(u.features.shape[0] for u in utts)
    # warm-up, untimed: one utterance through each decoder
    warm = Setup(setup.run, None, Dataset(setup.held_out.num_labels, utts[:1]), setup.model)
    decode_pass(warm, clock, None, Tally())

    plain, traced = measure(lambda t: decode_pass(setup, clock, t, tally), seconds, tracer, DECODE_TARGETS)
    check_decode(plain + traced, tally)
    oracle_check(setup.model, setup.run, seed, tally)

    refs = [u.labels for u in utts]
    frame_ms = [s * 1e3 for p in plain for s in p.frame_ref_seconds]

    def wer(phase):
        outs = plain[0].outputs[phase]
        return corpus_wer([(r, o if o is not None else []) for r, o in zip(refs, outs)])

    frame_rate = median_rate(frames, plain, lambda p: p.ref_seconds)
    report = {
        "stream_frame_ms_p50": (percentile(frame_ms, 50), "ms"),
        f"stream_frame_ms_p{w.tail}": (percentile(frame_ms, w.tail), "ms"),
        "stream_frame_ms_p99": (percentile(frame_ms, 99), "ms"),
        "stream_frames_timed": (len(frame_ms), "count"),
        **{f"{ph}_utts_per_s": (median_rate(n, plain, lambda p: p.phase_ref_seconds[ph]), "1/s")
           for ph in PHASES},
        "decode_frames_per_s": (frame_rate, "1/s"),
        "decode_frames_per_s_raw": (median_rate(frames, plain, lambda p: p.seconds), "1/s"),
        "greedy_wer": (wer("greedy"), "ratio"),
        "beam_wer": (wer("beam"), "ratio"),
    }
    gated = {
        "throughput_per_s": frame_rate,
        "latency_ms_p50": report["stream_frame_ms_p50"][0],
        "latency_ms_tail": report[f"stream_frame_ms_p{w.tail}"][0],
    }
    samples = {"pass_ref_s": [p.ref_seconds for p in plain],
               "frame_ref_ms": [[s * 1e3 for s in p.frame_ref_seconds] for p in plain],
               "frames": frames}
    if tracer is None:
        return report, gated, {}, samples

    k = len(traced)
    phase_totals = {ph: tracer.totals([p.windows[ph] for p in traced]) for ph in PHASES}

    def secs(phases, *names):
        return sum(phase_totals[ph].get(name, (0, 0.0))[1] for ph in phases for name in names)

    def calls(phases, *names):
        return sum(phase_totals[ph].get(name, (0, 0.0))[0] for ph in phases for name in names)

    offline = ("greedy", "beam")
    beam_evals = traced[0].counters["beam"][1]
    root, covered = tracer.coverage(DECODE_ROOTS, [p.windows[ph] for p in traced for ph in PHASES])
    layers = {
        "attention.audio_encode_ms": secs(offline, "attention.encode_audio") / (2 * n * k) * 1e3,
        "attention.scores": sum(c[0] for c in traced[0].counters.values()),
        "attention.layer_step_ms": secs(["stream"], "attention.encoder_layer_step") / (frames * k) * 1e3,
        "attention.layer_steps_per_frame": calls(["stream"], "attention.encoder_layer_step") / (frames * k),
        "attention.scores_per_frame": traced[0].counters["stream"][0] / frames,
        "frontend.prepare_ms": secs(offline, "frontend.prepare_features") / (2 * n * k) * 1e3,
        "decode.batch_encode_ms": secs(offline, "frontend.prepare_features", "attention.encode_audio")
        / (2 * n * k) * 1e3,
        "decode.joint_ms": secs(["beam"], "model.joint_from_projections") / (n * k) * 1e3,
        "decode.joint_evals": beam_evals,
        "decode.label_state_ms": secs(["beam"], "decode.LabelState.advance", "decode.LabelState.advanced")
        / (n * k) * 1e3,
        "decode.beam_kept_ratio": calls(["beam"], "decode.LabelState.advanced")
        / (k * beam_evals * (setup.run.model.vocab_size - 1)),
        "trace.coverage": covered / root,
        "trace.overhead": statistics.median(p.ref_seconds for p in traced)
        / statistics.median(p.ref_seconds for p in plain) - 1.0,
    }
    return report, gated, layers, samples
