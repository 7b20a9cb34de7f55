"""Command-line surface: train, decode, eval, selftest, gen-data.

Exit codes: 0 success, 1 test/assertion failure, 2 usage, config or path
error, 3 numerical failure. Each run but selftest first prints its record to
stderr, so equal records imply equal outputs. `train` prints its seed and
resolved run config; decode, eval and gen-data print one `resolved config:`
JSON line of the command and every flag's effective value (decode and eval
have no seed; gen-data's is its `--seed` flag).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import fields

import numpy as np

from . import checks
from . import decode as dec
from . import train as trn
from . import transducer as tr
from .config import ConfigError, finite_float, load_run_config, resolved_config_dict
from .decode import BigramLm, DecodeOptions, FusionConfig, StreamState
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


def _print_resolved(config_dict: dict):
    _log("resolved config: " + json.dumps(config_dict, sort_keys=True))


def _print_args(args):
    """The record of a command configured by its flags alone."""
    _print_resolved({name: value for name, value in vars(args).items() if name != "fn"})


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
    _log(f"seed: {run.seed}")
    _print_resolved(resolved_config_dict(run))
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


def _decode_options(args) -> DecodeOptions:
    """The decode settings, from the flags decode and eval share."""
    try:
        return DecodeOptions(**{f.name: getattr(args, f.name) for f in fields(DecodeOptions)})
    except ValueError as e:
        raise UsageError(str(e)) from None


def _build_fusion(args, model) -> FusionConfig | None:
    """The shallow fusion the decode flags ask for, or None for none."""
    if args.lm_weight == 0.0 and args.length_bonus == 0.0:
        return None
    lm = None
    if args.lm_weight != 0.0:
        if not args.lm_dataset:
            raise UsageError("--lm-weight needs --lm-dataset to fit the bundled bigram scorer")
        lm_data = _load_dataset_or_exit(args.lm_dataset)
        _check_fits(lm_data, args.lm_dataset, model.config, features=False)
        lm = BigramLm.fit([u.labels for u in lm_data.utterances], model.config.vocab_size - 1)
    return FusionConfig(lm_weight=args.lm_weight, length_bonus=args.length_bonus, lm=lm)


def _transcribe(model, data, mode: str, opts: DecodeOptions, fusion: FusionConfig | None):
    """One (utterance, labels) pair per utterance, ordered by id, decoded as
    they are read; the mode is checked against the model at once."""
    if mode == "stream" and not model.config.audio.mask.is_finite:
        raise UsageError("stream mode requires a finite audio attention window in the checkpoint")
    trn._keep_heap_mapped()  # a decode frees and reuses its temporaries as a training step does
    return ((utt, _decode(model, utt.features, mode, opts, fusion))
            for utt in sorted(data.utterances, key=lambda u: u.id))


def _decode(model, features, mode: str, opts: DecodeOptions, fusion: FusionConfig | None) -> list[int]:
    if mode == "greedy":
        return dec.greedy_decode(model, features, opts.max_symbols_per_frame)
    if mode == "beam":
        best = dec.beam_decode(model, features, opts.beam_width, fusion, opts.max_symbols_per_frame)
        return list(best[0].labels)
    state = StreamState(model, opts.max_symbols_per_frame)
    labels = []
    for frame in features:
        labels.extend(state.step(frame))
    labels.extend(state.flush())
    return labels


def cmd_decode(args) -> int:
    _print_args(args)
    if args.mode != "beam" and (args.lm_weight != 0.0 or args.length_bonus != 0.0):
        raise UsageError("--lm-weight and --length-bonus apply only to --mode beam")
    opts = _decode_options(args)
    model = _load_checkpoint_or_exit(args.checkpoint)
    data = _load_dataset_or_exit(args.dataset)
    _check_fits(data, args.dataset, model.config, labels=False)
    fusion = _build_fusion(args, model)
    transcripts = _transcribe(model, data, args.mode, opts, fusion)
    # opened before decoding, so a path that cannot be written fails at once
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as out:
        lines = [f"{utt.id}\t{' '.join(f's{l}' for l in labels)}" for utt, labels in transcripts]
        out.write("\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_eval(args) -> int:
    _print_args(args)
    opts = _decode_options(args)
    model = _load_checkpoint_or_exit(args.checkpoint)
    data = _load_dataset_or_exit(args.dataset)
    _check_fits(data, args.dataset, model.config)
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
    _print_args(args)
    try:
        cfg = SyntheticTaskConfig(
            vocab=args.vocab, label_len=(args.min_labels, args.max_labels),
            frames_per_label=(args.min_frames, args.max_frames),
            feature_dim=args.feature_dim, noise_sigma=args.noise,
            size=args.size, seed=args.seed, bigram_scale=args.bigram_scale,
            first_index=args.first_index)
    except ValueError as e:
        raise UsageError(str(e)) from None
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

    decoding = argparse.ArgumentParser(add_help=False)  # the flags decode and eval share
    decoding.add_argument("--checkpoint", required=True)
    decoding.add_argument("--dataset", required=True)
    decoding.add_argument("--mode", choices=["greedy", "beam", "stream"], default="greedy")
    decoding.add_argument("--beam-width", type=int, default=DecodeOptions.beam_width)
    decoding.add_argument("--max-symbols-per-frame", type=int,
                          default=DecodeOptions.max_symbols_per_frame)

    p = sub.add_parser("decode", parents=[decoding], help="transcribe a dataset with a checkpoint")
    p.add_argument("--lm-weight", type=finite_float, default=FusionConfig.lm_weight)
    p.add_argument("--length-bonus", type=finite_float, default=FusionConfig.length_bonus)
    p.add_argument("--lm-dataset", help="dataset whose labels fit the bundled bigram scorer")
    p.add_argument("--output", help="write transcripts here instead of stdout")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("eval", parents=[decoding], help="decode a dataset and report corpus WER")
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
    p.add_argument("--noise", type=finite_float, default=0.1)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bigram-scale", type=finite_float, default=SyntheticTaskConfig.bigram_scale)
    p.add_argument("--first-index", type=int, default=SyntheticTaskConfig.first_index,
                   help="start utterance index; same seed + disjoint ranges share "
                        "symbol templates, giving proper held-out splits")
    p.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ConfigError, OSError) as e:
        _log(f"error: {e}")
        return EXIT_USAGE
    except NumericsError as e:
        _log(f"error: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
