"""Command-line surface: train, decode, eval, selftest, gen-data.

Exit codes: 0 success, 1 test/assertion failure, 2 usage or config error,
3 numerical failure. Every run prints its resolved configuration and seed to
stderr, so identical printed configs imply identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import checks
from . import decode as dec
from . import transducer as tr
from .config import ConfigError, DecodeOptions, load_run_config, resolved_config_dict
from .decode import BigramLm, FusionConfig, StreamState
from .model import init_model
from .tasks import DatasetFormatError, SyntheticTaskConfig, corpus_wer, edit_distance, gen_synthetic, read_dataset, write_dataset
from .tensor import NumericsError, Rng
from .train import CheckpointFormatError, load_checkpoint, train_loop

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """A bad invocation or input file; `main` prints it and exits 2."""


def _log(message: str):
    print(message, file=sys.stderr)


def _print_resolved(config_dict: dict, seed: int):
    _log(f"seed: {seed}")
    _log("resolved config: " + json.dumps(config_dict, sort_keys=True))


def _load_dataset_or_exit(path):
    try:
        return read_dataset(path)
    except FileNotFoundError:
        raise UsageError(f"dataset not found: {path}") from None
    except DatasetFormatError as e:
        raise UsageError(f"bad dataset file: {e}") from None


def _check_fits(data, path, config, features: bool = True, labels: bool = True):
    """Raise a UsageError unless every utterance of `data` has finite
    features of the model's width (when `features`) and only label ids the
    model can emit (when `labels`)."""
    for utt in data.utterances:
        if features and utt.features.shape[1] != config.feature_dim:
            raise UsageError(f"dataset {path}: utterance {utt.id} has feature dim "
                             f"{utt.features.shape[1]}, the model takes {config.feature_dim}")
        if features and not np.isfinite(utt.features).all():
            raise UsageError(f"dataset {path}: utterance {utt.id} has non-finite features")
        if labels and max(utt.labels, default=0) >= config.vocab_size:
            raise UsageError(f"dataset {path}: utterance {utt.id} holds label {max(utt.labels)}, "
                             f"beyond the model's {config.vocab_size - 1} labels")


def _load_checkpoint_or_exit(path):
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        raise UsageError(f"checkpoint not found: {path}") from None
    except CheckpointFormatError as e:
        raise UsageError(f"unreadable checkpoint: {e}") from None


def cmd_train(args) -> int:
    run = load_run_config(args.config)  # main reports a ConfigError or NumericsError
    _print_resolved(resolved_config_dict(run), run.seed)
    if "dataset" not in run.paths:
        raise UsageError("config.paths.dataset: missing required key")
    data = _load_dataset_or_exit(run.paths["dataset"])
    if data.num_labels + 1 != run.model.vocab_size:
        raise UsageError(f"dataset vocab {data.num_labels}+blank != config.model.vocab_size "
                         f"{run.model.vocab_size}")
    if not data.utterances:
        raise UsageError(f"dataset {run.paths['dataset']} holds no utterances")
    _check_fits(data, run.paths["dataset"], run.model)
    model = init_model(run.model, Rng(run.seed))
    losses = train_loop(model, data, run.schedule, run.train, out_dir=args.out)
    final = f"; final loss {losses[-1]:.4f}" if losses else ""
    _log(f"trained {len(losses)} steps{final}; checkpoints in {args.out}")
    return EXIT_OK


def _build_fusion(args, model) -> FusionConfig | None:
    if args.lm_weight == 0.0 and args.length_bonus == 0.0:
        return None
    lm = None
    if args.lm_weight != 0.0:
        if not args.lm_dataset:
            raise UsageError("--lm-weight needs --lm-dataset to fit the bundled bigram scorer")
        lm_data = _load_dataset_or_exit(args.lm_dataset)
        _check_fits(lm_data, args.lm_dataset, model.config, features=False)
        lm = BigramLm.fit([u.labels for u in lm_data.utterances], model.vocab.size - 1)
    return FusionConfig(lm_weight=args.lm_weight, length_bonus=args.length_bonus, lm=lm)


def _transcribe(model, data, mode: str, opts: DecodeOptions, fusion: FusionConfig | None):
    """Yield one (utterance, labels) pair per utterance, ordered by id."""
    if mode == "stream" and not model.config.audio.mask.is_finite:
        raise UsageError("stream mode requires a finite audio attention window in the checkpoint")
    for utt in sorted(data.utterances, key=lambda u: u.id):
        if mode == "greedy":
            labels = dec.greedy_decode(model, utt.features, opts.max_symbols_per_frame)
        elif mode == "beam":
            best = dec.beam_decode(model, utt.features, opts.beam_width, fusion,
                                   opts.max_symbols_per_frame)
            labels = list(best[0].labels)
        elif mode == "stream":
            state = StreamState(model, opts.max_symbols_per_frame)
            labels = []
            for t in range(utt.features.shape[0]):
                labels.extend(state.step(utt.features[t]))
            labels.extend(state.flush())
        else:
            raise ValueError(f"unknown decode mode {mode!r}")
        yield utt, labels


def _decode_options_or_exit(**kw) -> DecodeOptions:
    try:
        return DecodeOptions(**kw)
    except ValueError as e:
        raise UsageError(str(e)) from None


def cmd_decode(args) -> int:
    opts = _decode_options_or_exit(beam_width=args.beam_width, lm_weight=args.lm_weight,
                                   length_bonus=args.length_bonus,
                                   max_symbols_per_frame=args.max_symbols_per_frame)
    model = _load_checkpoint_or_exit(args.checkpoint)
    data = _load_dataset_or_exit(args.dataset)
    _check_fits(data, args.dataset, model.config, labels=False)
    _print_resolved({"checkpoint": args.checkpoint, "dataset": args.dataset,
                     "mode": args.mode, "beam_width": args.beam_width,
                     "lm_weight": args.lm_weight, "length_bonus": args.length_bonus}, 0)
    fusion = _build_fusion(args, model)
    vocab = model.vocab
    lines = [f"{utt.id}\t{' '.join(vocab.name(l) for l in labels)}"
             for utt, labels in _transcribe(model, data, args.mode, opts, fusion)]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_eval(args) -> int:
    opts = _decode_options_or_exit(beam_width=args.beam_width,
                                   max_symbols_per_frame=args.max_symbols_per_frame)
    model = _load_checkpoint_or_exit(args.checkpoint)
    data = _load_dataset_or_exit(args.dataset)
    _check_fits(data, args.dataset, model.config)
    _print_resolved({"checkpoint": args.checkpoint, "dataset": args.dataset,
                     "mode": args.mode}, 0)
    if not any(utt.labels for utt in data.utterances):
        raise UsageError(f"dataset {args.dataset} has no reference labels to score against")
    per_utt = [{"id": utt.id, "ref_len": len(utt.labels), "errors": edit_distance(utt.labels, hyp),
                "ref": utt.labels, "hyp": hyp}
               for utt, hyp in _transcribe(model, data, args.mode, opts, None)]
    report = {
        "wer": corpus_wer([(r["ref"], r["hyp"]) for r in per_utt]),
        "utterances": per_utt,
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    try:
        cfg = SyntheticTaskConfig(
            vocab=args.vocab, label_len=(args.min_labels, args.max_labels),
            frames_per_label=(args.min_frames, args.max_frames),
            feature_dim=args.feature_dim, noise_sigma=args.noise,
            size=args.size, seed=args.seed, bigram_scale=args.bigram_scale,
            first_index=args.first_index)
    except ValueError as e:
        raise UsageError(str(e)) from None
    _print_resolved({"command": "gen-data", "out": args.out, "vocab": args.vocab,
                     "label_len": [args.min_labels, args.max_labels],
                     "frames_per_label": [args.min_frames, args.max_frames],
                     "feature_dim": args.feature_dim, "noise": args.noise,
                     "size": args.size, "bigram_scale": args.bigram_scale}, args.seed)
    write_dataset(gen_synthetic(cfg), args.out)
    _log(f"wrote {args.size} utterances to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- selftest

def cmd_selftest(args) -> int:
    if args.perturb_dp:
        tr.dp_perturbation = 0.01
    suites = [
        ("oracle-equivalence", checks.oracle_gaps),
        ("gradient-check", checks.gradient_errors),
        ("streaming-equivalence", checks.stream_runs),
        ("lr-schedule", checks.schedule_points),
    ]
    failures = 0
    try:
        for name, cases in suites:
            start = time.monotonic()
            ok = all(case.ok for case in cases())
            failures += not ok
            print(f"{name:<24} {'PASS' if ok else 'FAIL'}  ({time.monotonic() - start:.1f}s)")
    finally:
        tr.dp_perturbation = 0.0
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory for checkpoints and metrics")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("decode", help="transcribe a dataset with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=["greedy", "beam", "stream"], default="greedy")
    p.add_argument("--beam-width", type=int, default=4)
    p.add_argument("--lm-weight", type=float, default=0.0)
    p.add_argument("--length-bonus", type=float, default=0.0)
    p.add_argument("--lm-dataset", help="dataset whose labels fit the bundled bigram scorer")
    p.add_argument("--max-symbols-per-frame", type=int, default=10)
    p.add_argument("--output", help="write transcripts here instead of stdout")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("eval", help="decode a dataset and report corpus WER")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=["greedy", "beam", "stream"], default="greedy")
    p.add_argument("--beam-width", type=int, default=4)
    p.add_argument("--max-symbols-per-frame", type=int, default=10)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--perturb-dp", action="store_true",
                   help="deliberately break the loss recursion (sensitivity check)")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", type=int, default=6)
    p.add_argument("--min-labels", type=int, default=3)
    p.add_argument("--max-labels", type=int, default=5)
    p.add_argument("--min-frames", type=int, default=1)
    p.add_argument("--max-frames", type=int, default=3)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bigram-scale", type=float, default=0.0)
    p.add_argument("--first-index", type=int, default=0,
                   help="start utterance index; same seed + disjoint ranges share "
                        "symbol templates, giving proper held-out splits")
    p.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ConfigError) as e:
        _log(f"error: {e}")
        return EXIT_USAGE
    except NumericsError as e:
        _log(f"error: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
