"""The checks behind `ttkit selftest` and acceptance criteria 1, 3, 6 and 7:
one generator each, yielding a record per case whose `ok` applies the
criterion's threshold. Sizes and seeds are fixed, so both run the same cases."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor as tt
from . import transducer as tr
from .attention import AttentionMask
from .decode import IncrementalEncoder, StreamState, greedy_decode
from .model import desk_config, init_model
from .tensor import Rng
from .train import ScheduleConfig, lr_at


class OracleGap(NamedTuple):
    case: tuple  # (trial, T, U, V, y)
    gap: float   # |lattice recursion - alignment enumeration| of log P(y)
    ok: bool


def oracle_gaps():
    """1000 random grids, T in [1, 4], U in [0, 3], V in [2, 4]."""
    rng = Rng(20240)
    for trial in range(1000):
        T = rng.integers(1, 5)
        U = rng.integers(0, 4)
        V = rng.integers(2, 5)
        grid = tr.random_grid(T, U, V, rng.substream(f"grid{trial}"))
        y = [rng.integers(1, V) for _ in range(U)]
        gap = abs(tr.rnnt_log_prob(grid, y).item() - tr.brute_force_log_prob(grid, y))
        yield OracleGap((trial, T, U, V, y), gap, gap < 1e-9)


class GradientError(NamedTuple):
    name: str
    size: int
    error: float | None  # backward vs finite differences, relative; None without a gradient
    fd_max: float        # largest finite difference
    ok: bool


def gradient_errors():
    """Every parameter of a 1+1-layer, model_dim 8 model, through the
    training loss on a batch of two examples of 3 and 5 frames, so the
    finite differences also cover the padding."""
    cfg = desk_config(vocab_size=4, feature_dim=6, audio_mask=AttentionMask(2, 1),
                      label_left=2, dropout=0.0, model_dim=8,
                      num_audio_layers=1, num_label_layers=1)
    model = init_model(cfg, Rng(31))
    feats = [Rng(32).normal((3, 6)), Rng(33).normal((5, 6))]
    ys = [[1, 2], [3]]

    def loss():
        return tr.batch_loss(model.batch_grid(feats, ys), ys)

    tt.backward(loss())
    for name, p in model.named_params():
        num = tt.finite_difference_gradient(lambda: loss().item(), p)
        fd_max = float(np.abs(num).max())
        error = None if p.grad is None else tt.max_gradient_error(p.grad, num)
        yield GradientError(name, p.size, error, fd_max,
                            fd_max < 1e-8 if error is None else error < 1e-4)


class StreamRun(NamedTuple):
    setting: tuple                    # (audio mask, label_left)
    streamed: list[int]
    batch: list[int]
    activation_gap: float             # incremental vs batch encoder rows
    per_frame: list[tuple[int, int]]  # (joint evaluations, labels emitted) per step
    warmup: int                       # steps before the first row is final
    ok: bool


def stream_runs():
    """Audio masks 10/0, 10/2 and 2/0, each with label_left 2 and 20: 40 frames
    through a 2+1-layer, model_dim 16 model, at the default symbol cap."""
    for audio_mask in (AttentionMask(10, 0), AttentionMask(10, 2), AttentionMask(2, 0)):
        for label_left in (2, 20):
            cfg = desk_config(vocab_size=5, feature_dim=8, audio_mask=audio_mask,
                              label_left=label_left, dropout=0.0, model_dim=16)
            model = init_model(cfg, Rng(61))
            feats = Rng(62).normal((40, 8))
            batch = greedy_decode(model, feats)
            state = StreamState(model)
            streamed, per_frame = [], []
            for t in range(40):
                before = model.counters.joint_evals
                out = state.step(feats[t])
                streamed.extend(out)
                per_frame.append((model.counters.joint_evals - before, len(out)))
            streamed.extend(state.flush())
            # the encoder `state` drives, fed the rows a batch encode reads
            stacked = model.prepare_features(feats)
            encoder = IncrementalEncoder(cfg.audio, model.params.audio)
            rows = [r for row in stacked for r in encoder.push(row)] + encoder.finish()
            with tt.no_grad():
                enc = model.encode_audio(stacked).values
            gap = float(np.abs(np.stack(rows) - enc).max())
            warmup = cfg.audio.num_layers * audio_mask.right
            # one evaluation closes a frame on blank, plus one per label;
            # at the cap the frame closes without the blank check
            cost_ok = all(evals == min(emitted + 1, state.max_symbols_per_frame)
                          for evals, emitted in per_frame[warmup:])
            yield StreamRun((audio_mask, label_left), streamed, batch, gap, per_frame, warmup,
                            streamed == batch and gap < 1e-9 and cost_ok)


class SchedulePoint(NamedTuple):
    step: int
    want: float
    got: float
    ok: bool


def schedule_points():
    """The default schedule at its corners and the middle of its decay."""
    for step, want in [(0, 0.0), (4000, 2.5e-4), (30000, 2.5e-4), (115000, 2.5e-5),
                       (200000, 2.5e-6)]:
        got = lr_at(step, ScheduleConfig())
        yield SchedulePoint(step, want, got, abs(got - want) <= 1e-12 * max(1.0, abs(want)))
