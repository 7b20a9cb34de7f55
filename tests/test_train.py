import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_step
import ttkit.attention as att
import ttkit.train as trn
from ttkit.attention import AttentionMask
from ttkit.config import load_run_config
from ttkit.frontend import FrontendConfig
from ttkit.model import desk_config, init_model, model_config_from_dict, pad, param_spec
from ttkit.tasks import SyntheticTaskConfig, Utterance, gen_synthetic
from ttkit.tensor import (FlatParams, NumericsError, ParamSpec, ParamTree, Rng, Tensor, backward, flat_params,
                          graph)
from ttkit.transducer import LogProbGrid, batch_loss, log_prob_grid, rnnt_log_prob
from ttkit.train import (
    Adam,
    CheckpointFormatError,
    ScheduleConfig,
    TrainConfig,
    checkpoint_bytes,
    clip_gradients,
    global_norm,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train_loop,
    train_step,
    weight_noise,
)

PAPER_SCHEDULE = ScheduleConfig()  # 2.5e-4 peak, 4K warmup, 30K hold, 200K decay


def tiny_setup(audio_mask=AttentionMask(None, None), seed=0, noise=0.1, size=24):
    task = SyntheticTaskConfig(vocab=4, label_len=(2, 3), frames_per_label=(1, 2),
                               feature_dim=8, noise_sigma=noise, size=size, seed=seed)
    data = gen_synthetic(task)
    cfg = desk_config(vocab_size=5, feature_dim=8, audio_mask=audio_mask,
                      label_left=4, dropout=0.0, model_dim=8)
    model = init_model(cfg, Rng(seed))
    return model, data


# -------------------------------------------------------------- schedule

def test_lr_published_points():
    for step, expected in [(0, 0.0), (4000, 2.5e-4), (30000, 2.5e-4), (200000, 2.5e-6)]:
        got = lr_at(step, PAPER_SCHEDULE)
        assert got == pytest.approx(expected, rel=1e-12), step


def test_lr_geometric_midpoint():
    # halfway through decay: 2.5e-4 * (0.01)^0.5
    assert lr_at(115000, PAPER_SCHEDULE) == pytest.approx(2.5e-5, rel=1e-12)


def test_lr_warmup_is_linear():
    assert lr_at(2000, PAPER_SCHEDULE) == pytest.approx(1.25e-4, rel=1e-12)


def test_lr_after_decay_is_final():
    assert lr_at(300000, PAPER_SCHEDULE) == 2.5e-6


def test_lr_continuous_at_boundaries():
    s = PAPER_SCHEDULE
    for boundary in (s.warmup_steps, s.hold_until, s.decay_until):
        gap = abs(lr_at(boundary + 1, s) - lr_at(boundary, s))
        assert gap < s.peak_lr * 1e-3, boundary


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(warmup_steps=0)
    with pytest.raises(ValueError):
        ScheduleConfig(hold_until=300000)  # hold past decay
    with pytest.raises(ValueError):
        ScheduleConfig(final_lr=1.0)  # above peak


@pytest.mark.parametrize("field, value, message", [
    ("weight_noise_sigma", -0.1, "weight_noise_sigma must be >= 0"),
    ("weight_noise_sigma", math.nan, "weight_noise_sigma must be finite, got nan"),
    ("weight_noise_sigma", math.inf, "weight_noise_sigma must be finite, got inf"),
    ("grad_clip_norm", 0.0, "grad_clip_norm must be positive"),
    ("grad_clip_norm", math.nan, "grad_clip_norm must be positive"),
])
def test_train_config_validation(field, value, message):
    """NaN fails the range checks as a number outside them does; an
    infinite clip norm (never clip) stays valid."""
    with pytest.raises(ValueError) as err:
        TrainConfig(**{field: value})
    assert str(err.value) == message
    assert TrainConfig(grad_clip_norm=math.inf).grad_clip_norm == math.inf


@pytest.mark.parametrize("field, value", [("peak_lr", math.inf), ("peak_lr", math.nan),
                                          ("final_lr", math.nan)])
def test_schedule_config_refuses_non_finite_rates(field, value):
    """An infinite peak rate passes 0 < final_lr <= peak_lr but would step
    by inf; NaN rates, which that check refuses too, get the same message."""
    with pytest.raises(ValueError) as err:
        ScheduleConfig(**{field: value})
    assert str(err.value) == f"{field} must be finite, got {value}"


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_train_config_refuses_a_non_finite_adam_eps(value):
    """Adam divides by sqrt(v) + eps, so an infinite eps steps by exactly 0."""
    with pytest.raises(ValueError) as err:
        TrainConfig(adam_eps=value)
    assert str(err.value) == f"adam_eps must be finite, got {value}"


# ---------------------------------------------------------- weight noise

def test_weight_noise_inactive_before_start():
    model, _ = tiny_setup()
    stored = model.flat.values.tobytes()
    with weight_noise(model, sigma=0.01, step=5, start_step=10, rng=Rng(0)):
        assert model.flat.values.tobytes() == stored


def test_weight_noise_zero_sigma_identity():
    model, _ = tiny_setup()
    stored = model.flat.values.tobytes()
    with weight_noise(model, sigma=0.0, step=50, start_step=10, rng=Rng(0)):
        assert model.flat.values.tobytes() == stored


def test_weight_noise_perturbs_forward_only():
    """Inside the block each stored parameter is its value plus its draw,
    in named order from the step's substream, and a graph built there
    differentiates to the stored leaves; on exit the buffer has its bytes
    back."""
    model, data = tiny_setup()
    stored = model.flat.values.copy()
    stream = Rng(0).substream("weight_noise/50")
    noisy = [p.values + stream.normal(p.shape, sigma=0.01) for p in model.flat.leaves]
    utt = data.utterances[0]
    with weight_noise(model, sigma=0.01, step=50, start_step=10, rng=Rng(0)):
        assert [p.values.tobytes() for p in model.flat.leaves] == [n.tobytes() for n in noisy]
        backward(rnnt_log_prob(model.example_grid(utt.features, utt.labels), utt.labels))
    assert model.flat.values.tobytes() == stored.tobytes()
    assert all(p.grad is not None for p in model.flat.leaves)


def test_weight_noise_restores_the_parameters_when_the_block_raises():
    model, _ = tiny_setup()
    stored = model.flat.values.tobytes()
    with pytest.raises(RuntimeError, match="inside the block"):
        with weight_noise(model, sigma=0.01, step=50, start_step=10, rng=Rng(0)):
            assert model.flat.values.tobytes() != stored
            raise RuntimeError("inside the block")
    assert model.flat.values.tobytes() == stored


@pytest.mark.parametrize("fault", ["loss", "backward"])
def test_a_noisy_step_that_raises_leaves_the_clean_parameters(fault, monkeypatch, tmp_path):
    """Steps 0 and 1 train with weight noise; step 2 raises, on a
    non-finite loss or from inside backward. The parameter buffer is then
    byte-identical to its value before step 2, and so is the last good
    checkpoint that `train_loop` saves."""
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=2, total_steps=6, seed=0, weight_noise_sigma=0.05,
                      weight_noise_start_step=0)
    good, data = tiny_setup()
    train_loop(good, data, sched, dataclasses.replace(cfg, total_steps=2), out_dir=tmp_path / "good")
    if fault == "loss":
        bad = data.utterances[5]
        features = bad.features.copy()
        features[0, 0] = np.nan
        data.utterances[5] = Utterance(bad.id, features, bad.labels)
    else:
        roots = []

        def raising(root, **kwargs):
            roots.append(root)
            backward(root, **kwargs)
            if len(roots) == 3:
                raise NumericsError("raised from backward")

        monkeypatch.setattr(trn, "backward", raising)
    model, _ = tiny_setup()
    with pytest.raises(NumericsError, match="step 2" if fault == "loss" else "raised from backward"):
        train_loop(model, data, sched, cfg, out_dir=tmp_path)
    assert model.flat.values.tobytes() == good.flat.values.tobytes()
    assert (tmp_path / "ckpt_last_good.ttck").read_bytes() == checkpoint_bytes(good)


def test_weight_noise_mean_is_centered():
    sigma = 0.01
    draws = Rng(1).substream("weight_noise/50").normal((100_000,), sigma=sigma)
    assert abs(draws.mean()) < 3 * sigma / np.sqrt(100_000)


# ------------------------------------------------------------- optimizer

class _Shim:
    """Minimal named-parameter holder for the reference optimizer."""

    def __init__(self, values):
        self.w = Tensor(values)

    def named_params(self):
        return [("w", self.w)]


def test_adam_converges_on_quadratic():
    # the reference Adam, which the flat one matches bit for bit
    # (test_flat_clip_and_adam_match_the_per_array_reference)
    shim = _Shim(np.array([5.0]))
    opt = reference_step.Adam(shim, TrainConfig())
    for _ in range(2000):
        grad = 2.0 * (shim.w.values - 3.0)
        opt.step(shim, {"w": grad}, lr=0.05)
        if abs(shim.w.values[0] - 3.0) < 1e-6:
            break
    assert abs(shim.w.values[0] - 3.0) < 1e-6


def test_zero_lr_leaves_params_bitwise_unchanged():
    model, data = tiny_setup()
    before = {name: p.values.tobytes() for name, p in model.named_params()}
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=1, hold_until=2, decay_until=3, final_lr=1e-4)
    opt = Adam(model, TrainConfig(batch_size=4))
    loss = train_step(model, opt, data.utterances[:4], 0, sched, TrainConfig(batch_size=4), Rng(0))
    assert np.isfinite(loss)
    after = {name: p.values.tobytes() for name, p in model.named_params()}
    assert before == after  # lr_at(0) == 0


@dataclasses.dataclass
class _Leaves(ParamTree):
    items: list


def _flat(arrays) -> FlatParams:
    """Flat storage of parameters holding `arrays`, in order."""
    values = iter(arrays)

    def fill(name, spec, out):
        out[...] = next(values)

    _, flat = flat_params(_Leaves([ParamSpec(np.shape(a)) for a in arrays]), fill)
    return flat


def test_clip_preserves_direction_and_caps_norm():
    rng = Rng(2)
    originals = [rng.normal((4, 4)), rng.normal((7,))]
    flat = _flat(originals)
    grads, views = flat.values, flat.views(flat.values)
    norm = clip_gradients(grads, views, max_norm=0.5)
    assert norm > 0.5
    assert global_norm(views) == pytest.approx(0.5, rel=1e-9)
    for g, original in zip(views, originals):
        ratio = g / original
        np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-9)


def test_clip_noop_below_threshold():
    grads = np.array([0.3, 0.4])
    norm = clip_gradients(grads, [grads], max_norm=5.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(grads, [0.3, 0.4])


_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -2.5]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       shapes=st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple), min_size=1, max_size=6),
       steps=st.integers(1, 4),
       block=st.sampled_from([1, 3, 8, trn.ADAM_BLOCK]),
       max_norm=st.sampled_from([1e-3, 1.0, 1e30]),
       lr=st.sampled_from([0.0, 1e-3, 0.5]))
def test_flat_clip_and_adam_match_the_per_array_reference(data, shapes, steps, block, max_norm, lr):
    """Several steps of the flat clip and Adam against the per-array ones of
    `reference_step`, from the same parameters and gradients (zeros of both
    signs among them), with clipping firing and not, and Adam blocks that
    split parameters: parameters, moments and norms agree bit for bit."""
    def arrays():
        return [np.array(data.draw(st.lists(_FLOATS, min_size=math.prod(s), max_size=math.prod(s))),
                         dtype=np.float64).reshape(s) for s in shapes]

    cfg = TrainConfig(grad_clip_norm=max_norm)
    flat = _flat(arrays())
    named = [(f"p{i}", Tensor(p.values.copy())) for i, p in enumerate(flat.leaves)]
    ref = SimpleNamespace(named_params=lambda: named)

    def joined(arrays):
        return b"".join(a.tobytes() for a in arrays)

    with mock.patch.object(trn, "ADAM_BLOCK", block):
        opt, ref_opt = Adam(SimpleNamespace(flat=flat), cfg), reference_step.Adam(ref, cfg)
        for _ in range(steps):
            grads = arrays()
            for view, g in zip(opt.grad_views, grads):
                view[...] = g
            ref_grads = {name: g for (name, _), g in zip(named, grads)}
            norm = clip_gradients(opt.grads, opt.grad_views, max_norm)
            assert norm.hex() == reference_step.clip_gradients(ref_grads, max_norm).hex()
            opt.step(lr)
            ref_opt.step(ref, ref_grads, lr)
            assert opt.grads.tobytes() == joined(ref_grads.values())
            assert flat.values.tobytes() == joined(p.values for _, p in named)
            assert opt.m.tobytes() == joined(ref_opt.m.values())
            assert opt.v.tobytes() == joined(ref_opt.v.values())


# ------------------------------------------------------------- training

def test_training_deterministic_under_seed(tmp_path):
    def run():
        model, data = tiny_setup(seed=7)
        sched = ScheduleConfig(peak_lr=2e-3, warmup_steps=5, hold_until=10,
                               decay_until=40, final_lr=2e-4)
        cfg = TrainConfig(batch_size=4, total_steps=12, seed=3, weight_noise_sigma=0.01,
                          weight_noise_start_step=5)
        losses = train_loop(model, data, sched, cfg, out_dir=tmp_path)
        return losses, checkpoint_bytes(model)

    losses_a, bytes_a = run()
    losses_b, bytes_b = run()
    assert losses_a == losses_b
    assert bytes_a == bytes_b


def test_training_reduces_loss_on_fixed_batch(tmp_path):
    wins = 0
    for seed in range(10):
        model, data = tiny_setup(seed=seed, size=4)
        sched = ScheduleConfig(peak_lr=3e-3, warmup_steps=5, hold_until=50,
                               decay_until=100, final_lr=3e-4)
        cfg = TrainConfig(batch_size=4, total_steps=50, seed=seed)
        losses = train_loop(model, data, sched, cfg, out_dir=tmp_path)
        wins += losses[-1] < losses[0]
    assert wins >= 9


def test_non_finite_loss_aborts_with_diagnostics():
    model, data = tiny_setup()
    model.params.joint.out_w.values[...] = 1e6  # saturate to overflow downstream
    model.params.joint.out_b.values[...] = np.inf
    opt = Adam(model, TrainConfig(batch_size=2))
    with pytest.raises(NumericsError, match="step 0"):
        train_step(model, opt, data.utterances[:2], 0, PAPER_SCHEDULE,
                   TrainConfig(batch_size=2), Rng(0))


def test_non_finite_loss_saves_the_last_good_checkpoint(tmp_path):
    """Steps 0 and 1 train; step 2's batch has a NaN feature, so its loss is
    not finite. The loop saves the model as step 1 left it, names the file
    in the error, and the file loads back to the same bytes."""
    model, data = tiny_setup()
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=2, total_steps=6, seed=0)
    bad = data.utterances[5]
    features = bad.features.copy()
    features[0, 0] = np.nan
    data.utterances[5] = Utterance(bad.id, features, bad.labels)
    good, _ = tiny_setup()
    train_loop(good, data, sched, dataclasses.replace(cfg, total_steps=2), out_dir=tmp_path / "good")
    want = checkpoint_bytes(good)
    path = tmp_path / "ckpt_last_good.ttck"
    with pytest.raises(NumericsError, match="step 2") as raised:
        train_loop(model, data, sched, cfg, out_dir=tmp_path)
    assert str(path) in str(raised.value)
    assert path.read_bytes() == want == checkpoint_bytes(model)
    assert checkpoint_bytes(load_checkpoint(path)) == want
    assert not (tmp_path / "ckpt_final.ttck").exists()


def _poke_gradient(monkeypatch, model, value, steps=None):
    """Make `train_step`'s backward write `value` into the first entry of
    one parameter's gradient view (on the given steps only, or on all). The
    wrapped backward still runs first, with the arguments it was given."""
    calls = []

    def poked(root, **kwargs):
        backward(root, **kwargs)
        if steps is None or len(calls) in steps:
            model.params.joint.out_b.grad[0] = value
        calls.append(kwargs)

    monkeypatch.setattr(trn, "backward", poked)
    return calls


def test_non_finite_gradient_raises_before_the_update(monkeypatch):
    """A NaN in the gradient buffer raises in `clip_gradients`, before Adam
    moves anything: parameters, moments and step count keep their bytes."""
    model, data = tiny_setup()
    cfg = TrainConfig(batch_size=2)
    opt = Adam(model, cfg)
    train_step(model, opt, data.utterances[:2], 1, PAPER_SCHEDULE, cfg, Rng(0))
    before = [a.tobytes() for a in (model.flat.values, opt.m, opt.v)] + [opt.t]
    calls = _poke_gradient(monkeypatch, model, np.nan)
    with pytest.raises(NumericsError, match="non-finite gradient reached a leaf tensor"):
        train_step(model, opt, data.utterances[2:4], 2, PAPER_SCHEDULE, cfg, Rng(0))
    assert calls == [{"check_finite": False}]
    assert [a.tobytes() for a in (model.flat.values, opt.m, opt.v)] + [opt.t] == before


def test_non_finite_gradient_saves_the_last_good_checkpoint(monkeypatch, tmp_path):
    """Steps 0 and 1 train; step 2's gradient holds a NaN. The loop saves
    the model as step 1 left it."""
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=2, total_steps=6, seed=0)
    good, data = tiny_setup()
    train_loop(good, data, sched, dataclasses.replace(cfg, total_steps=2), out_dir=tmp_path / "good")
    model, _ = tiny_setup()
    _poke_gradient(monkeypatch, model, np.nan, steps={2})
    with pytest.raises(NumericsError, match="non-finite gradient"):
        train_loop(model, data, sched, cfg, out_dir=tmp_path)
    assert (tmp_path / "ckpt_last_good.ttck").read_bytes() == checkpoint_bytes(good)


@pytest.mark.filterwarnings("error")
def test_finite_gradient_with_an_overflowing_square_clips_to_zero(monkeypatch):
    """A finite 1e200 makes the norm infinite but raises nothing: the step
    is the one that checked every leaf in backward and clipped without a
    finite check, so the whole gradient is scaled to zero."""
    def parent_clip(grads, views, max_norm):
        norm = global_norm(views)
        if norm > max_norm:
            grads *= max_norm / norm
        return norm

    cfg = TrainConfig(batch_size=2)
    results = []
    for parent in (False, True):
        model, data = tiny_setup()
        opt = Adam(model, cfg)
        _poke_gradient(monkeypatch, model, 1e200)
        if parent:
            monkeypatch.setattr(trn, "backward", lambda root, backward=trn.backward, **kwargs: backward(root))
            monkeypatch.setattr(trn, "clip_gradients", parent_clip)
        stats = {}
        loss = train_step(model, opt, data.utterances[:2], 1, PAPER_SCHEDULE, cfg, Rng(0), stats)
        assert stats == {"grad_norm": math.inf, "clipped": True}
        assert not opt.grads.any()
        results.append([loss.hex(), opt.t] + [a.tobytes() for a in (model.flat.values, opt.m, opt.v)])
    assert results[0] == results[1]


def test_train_loop_writes_metrics_and_checkpoints(tmp_path):
    model, data = tiny_setup()
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=4, total_steps=6, seed=0, checkpoint_interval=3)
    train_loop(model, data, sched, cfg, out_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 6
    record = json.loads(lines[2])
    assert record["step"] == 2 and "loss" in record and "lr" in record and "wall_clock" in record
    assert (tmp_path / "ckpt_000003.ttck").exists()
    assert (tmp_path / "ckpt_000006.ttck").exists()
    assert (tmp_path / "ckpt_final.ttck").exists()


def test_metrics_records_hold_the_pre_clip_gradient_norm(tmp_path):
    """Every record carries the step's pre-clip global norm, finite, and
    whether clipping fired; at this threshold it fires on some steps only."""
    model, data = tiny_setup()
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=4, total_steps=6, seed=0, grad_clip_norm=24.0)
    logged = []
    train_loop(model, data, sched, cfg, out_dir=tmp_path, log_fn=logged.append)
    records = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert records == logged and len(records) == cfg.total_steps
    for r in records:
        assert math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0
        assert r["clipped"] == (r["grad_norm"] > cfg.grad_clip_norm)
    assert {r["clipped"] for r in records} == {True, False}


def test_parameters_and_gradients_are_views_of_flat_buffers(tmp_path):
    """After `init_model`, after `load_checkpoint` and after a step, each
    parameter is its slice of the model's parameter buffer, in named order;
    after a step each `.grad` is its slice of the optimizer's gradient
    buffer, in the same layout."""
    def check(array, flat, offset, shape):
        assert np.shares_memory(array, flat) and array.flags.c_contiguous and array.shape == shape
        assert array.ctypes.data == flat.ctypes.data + 8 * offset

    def check_model(model, opt=None):
        offset = 0
        for (_, p), leaf in zip(model.named_params(), model.flat.leaves):
            assert p is leaf
            check(p.values, model.flat.values, offset, p.shape)
            if opt is not None:
                check(p.grad, opt.grads, offset, p.shape)
            offset += p.size
        assert offset == model.flat.values.size

    model, data = tiny_setup(seed=4)
    check_model(model)
    save_checkpoint(model, tmp_path / "m.ttck")
    loaded = load_checkpoint(tmp_path / "m.ttck")
    check_model(loaded)
    cfg = TrainConfig(batch_size=4)
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=1, hold_until=2, decay_until=3, final_lr=1e-4)
    for m in (model, loaded):
        opt = Adam(m, cfg)
        assert opt.grads.size == opt.m.size == opt.v.size == m.flat.values.size
        train_step(m, opt, data.utterances[:4], 1, sched, cfg, Rng(0))
        check_model(m, opt)


def test_in_place_parameter_edits_reach_training(tmp_path):
    """An edit through `p.values[...]` is an edit of the buffer that Adam
    steps: a model edited in place trains like one loaded with the edit."""
    model, data = tiny_setup(seed=4)
    model.params.joint.out_b.values[...] = 0.25
    model.params.label.layers[0].w1.values[0] += 1.0
    path = tmp_path / "edited.ttck"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    cfg = TrainConfig(batch_size=4)
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=1, hold_until=2, decay_until=3, final_lr=1e-4)
    losses = [train_step(m, Adam(m, cfg), data.utterances[:4], 1, sched, cfg, Rng(0))
              for m in (model, loaded)]
    assert losses[0] == losses[1]
    assert checkpoint_bytes(model) == checkpoint_bytes(loaded) != path.read_bytes()
    assert not (model.params.joint.out_b.values == 0.25).any()  # the step moved the edited values


def test_metrics_records_reach_disk_as_written(tmp_path):
    """Each record is on disk, as its JSON line, before the next step runs;
    a run that raises at step 2 leaves the records of steps 0 and 1."""
    model, data = tiny_setup()
    bad = data.utterances[5]
    features = bad.features.copy()
    features[0, 0] = np.nan
    data.utterances[5] = Utterance(bad.id, features, bad.labels)
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=2, total_steps=6, seed=0)
    path = tmp_path / "metrics.jsonl"
    logged, seen = [], []

    def log(record):
        logged.append(record)
        seen.append(path.read_bytes())

    with pytest.raises(NumericsError, match="step 2"):
        train_loop(model, data, sched, cfg, out_dir=tmp_path, log_fn=log)
    lines = [(json.dumps(r) + "\n").encode() for r in logged]
    assert seen == [b"".join(lines[:k + 1]) for k in range(2)]
    assert path.read_bytes() == b"".join(lines)


def test_train_loop_rerun_into_same_dir_keeps_only_its_metrics(tmp_path):
    """A second run into the same directory starts `metrics.jsonl` afresh
    instead of appending to the first run's records."""
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=4, total_steps=3, seed=0)
    for _ in range(2):
        model, data = tiny_setup()
        train_loop(model, data, sched, cfg, out_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == list(range(cfg.total_steps))


def _has_glibc_mallopt() -> bool:
    if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
        return False
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# Runs in a fresh interpreter, so its heap holds nothing but this run.
_FAULTS_PER_STEP = """
import dataclasses, json, resource, sys
from ttkit.config import load_run_config
from ttkit.model import init_model
from ttkit.tasks import SyntheticTaskConfig, gen_synthetic
from ttkit.tensor import Rng
from ttkit.train import train_loop

run = load_run_config(sys.argv[1])
steps = 12
data = gen_synthetic(SyntheticTaskConfig(
    vocab=run.model.vocab_size - 1, label_len=(12, 20), frames_per_label=(3, 6),
    feature_dim=run.model.feature_dim, noise_sigma=0.3, size=4 * steps, seed=0))
cfg = dataclasses.replace(run.train, batch_size=4, total_steps=steps, seed=0)
marks = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
train_loop(init_model(run.model, Rng(0)), data, run.schedule, cfg, sys.argv[2],
           log_fn=lambda record: marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(json.dumps([b - a for a, b in zip(marks, marks[1:])]))
"""


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs glibc's mallopt")
def test_long_train_steps_reuse_freed_heap(tmp_path):
    """After the first steps have grown the heap, a step on long utterances
    (the desk model at batch 4, 12-20 labels, 3-6 frames per label) reuses
    the memory the step before it freed. Were it handed back to the kernel,
    each step would fault in about 1,300 pages again."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", _FAULTS_PER_STEP, str(root / "configs" / "desk.json"), str(tmp_path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    faults = json.loads(out)
    assert len(faults) == 12
    assert np.mean(faults[2:]) < 300, faults


@pytest.mark.parametrize("cdll", [mock.Mock(side_effect=OSError("no C library")),
                                  mock.Mock(side_effect=TypeError("no handle")),
                                  mock.Mock(return_value=object())],
                         ids=["oserror", "typeerror", "no-mallopt"])
def test_train_loop_runs_without_mallopt(cdll, tmp_path):
    """Where the C library cannot be loaded or has no `mallopt`, training
    runs as it does with the heap thresholds set, to the same bits."""
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=1e-4)
    cfg = TrainConfig(batch_size=4, total_steps=3, seed=0)

    def run():
        model, data = tiny_setup(seed=5)
        return train_loop(model, data, sched, cfg, out_dir=tmp_path), checkpoint_bytes(model)

    want = run()
    trn._keep_heap_mapped.cache_clear()
    try:
        with mock.patch.object(trn.ctypes, "CDLL", cdll):
            got = run()
    finally:
        trn._keep_heap_mapped.cache_clear()
    cdll.assert_called_once_with(None)
    assert got == want


def test_long_step_holds_little_when_backward_starts():
    """The memory a step holds when `backward` starts, on a batch shaped
    like perfbench's `train_long` (the desk model at batch 4, 12-20 labels,
    3-6 frames per label, T at least 52, so attention runs in blocks over
    shared windows), stays within what the graph cannot rebuild: the encoder
    layers keep bool dropout masks and no layer-norm outputs, biased queries,
    merged heads or concatenated windows: 5.08 MB, where keeping those held
    7.44 MB."""
    root = Path(__file__).resolve().parent.parent
    run = load_run_config(root / "configs" / "desk.json")
    batch = gen_synthetic(SyntheticTaskConfig(
        vocab=run.model.vocab_size - 1, label_len=(12, 20), frames_per_label=(3, 6),
        feature_dim=run.model.feature_dim, noise_sigma=0.3, size=4, seed=0)).utterances
    mask = run.model.audio.mask
    assert max(u.features.shape[0] for u in batch) >= 2 * (mask.left + mask.right) + att.BANDED_MIN_EXTRA_ROWS
    model = init_model(run.model, Rng(0))
    cfg = dataclasses.replace(run.train, batch_size=4, seed=0)
    opt = Adam(model, cfg)
    held = []

    def measured(root, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return backward(root, **kwargs)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(trn, "backward", measured):
            train_step(model, opt, batch, 0, run.schedule, cfg, Rng(0))
    finally:
        tracemalloc.stop()
    assert held[0] - start < 5.2e6, held[0] - start


# ----------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_byte_identical(tmp_path):
    model, _ = tiny_setup(seed=11)
    p1 = tmp_path / "a.ttck"
    p2 = tmp_path / "b.ttck"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (na, pa), (nb, pb) in zip(model.named_params(), loaded.named_params()):
        assert na == nb
        assert pa.values.tobytes() == pb.values.tobytes()


def test_loaded_checkpoint_trains_like_the_original(tmp_path):
    model, data = tiny_setup(seed=4)
    path = tmp_path / "m.ttck"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert all(p.values.flags.writeable for _, p in loaded.named_params())
    sched = ScheduleConfig(peak_lr=1e-3, warmup_steps=1, hold_until=2, decay_until=3, final_lr=1e-4)
    cfg = TrainConfig(batch_size=4)
    batch = data.utterances[:4]
    losses = [train_step(m, Adam(m, cfg), batch, 1, sched, cfg, Rng(0)) for m in (model, loaded)]
    assert losses[0] == losses[1]
    assert checkpoint_bytes(loaded) == checkpoint_bytes(model)
    assert checkpoint_bytes(loaded) != path.read_bytes()  # the step moved the parameters


def test_checkpoint_is_synced_before_rename(tmp_path, monkeypatch):
    """The file is synced before the rename, and its directory after it."""
    model, _ = tiny_setup()
    calls, synced = [], []
    fsync, replace = os.fsync, os.replace

    def spy(fd):
        calls.append("fsync")
        synced.append(os.fstat(fd))
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    monkeypatch.setattr(os, "replace", lambda a, b: (calls.append("replace"), replace(a, b))[1])
    save_checkpoint(model, tmp_path / "m.ttck")
    assert calls == ["fsync", "replace", "fsync"]
    assert os.path.samestat(synced[-1], os.stat(tmp_path))


def test_checkpoint_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    model, _ = tiny_setup()
    path = tmp_path / "model.ttck"
    save_checkpoint(model, path)
    before = path.read_bytes()

    class Exploding:
        @property
        def values(self):
            raise OSError("serialisation failed")

    named = model.named_params()
    named[0][1].values += 1.0  # a completed save would now write different bytes
    monkeypatch.setattr(model, "named_params", lambda: named[:3] + [("boom", Exploding())] + named[3:])
    with pytest.raises(OSError, match="serialisation failed"):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ttck"]


def test_checkpoint_bad_magic(tmp_path):
    model, _ = tiny_setup()
    path = tmp_path / "m.ttck"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    model, _ = tiny_setup()
    path = tmp_path / "m.ttck"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model, _ = tiny_setup()
    path = tmp_path / "m.ttck"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_mismatched_model_dim_is_shape_error(tmp_path):
    import struct

    model, _ = tiny_setup()
    raw = checkpoint_bytes(model)
    config_len = struct.unpack("<Q", raw[8:16])[0]
    doc = json.loads(raw[16:16 + config_len].decode())
    doc["audio"]["model_dim"] = 16  # config now disagrees with stored tensors
    doc["audio"]["head_dim"] = 8
    doc["audio"]["ff_dim2"] = 16
    doc["joint_dim"] = 16
    new_doc = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    edited = raw[:8] + struct.pack("<Q", len(new_doc)) + new_doc + raw[16 + config_len:]
    path = tmp_path / "m.ttck"
    path.write_bytes(edited)
    with pytest.raises(CheckpointFormatError, match="shape disagreement"):
        load_checkpoint(path)


def test_checkpoint_ff_dim2_mismatch_is_config_error(tmp_path):
    model, _ = tiny_setup()
    raw = checkpoint_bytes(model)
    config_len = struct.unpack("<Q", raw[8:16])[0]
    doc = json.loads(raw[16:16 + config_len].decode())
    doc["label"]["ff_dim2"] = 4  # model_dim stays 8
    new_doc = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "m.ttck"
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new_doc)) + new_doc + raw[16 + config_len:])
    with pytest.raises(CheckpointFormatError,
                       match=r"bad embedded config: ff_dim2 \(4\) must equal model_dim \(8\)"):
        load_checkpoint(path)


def test_checkpoint_zero_ln_eps_is_config_error(tmp_path):
    model, _ = tiny_setup()
    raw = checkpoint_bytes(model)
    config_len = struct.unpack("<Q", raw[8:16])[0]
    doc = json.loads(raw[16:16 + config_len].decode())
    doc["audio"]["ln_eps"] = 0
    new_doc = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "m.ttck"
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new_doc)) + new_doc + raw[16 + config_len:])
    with pytest.raises(CheckpointFormatError,
                       match=r"bad embedded config: ln_eps must be positive and finite, got 0"):
        load_checkpoint(path)


def _with_records(model, edit) -> bytes:
    """`model`'s checkpoint with its list of (name, values) records passed
    through `edit`."""
    raw = checkpoint_bytes(model)
    out = bytearray(raw[:16 + struct.unpack("<Q", raw[8:16])[0]])
    records = edit([(name, p.values) for name, p in model.named_params()])
    out += struct.pack("<Q", len(records))
    for name, a in records:
        out += struct.pack("<Q", len(name)) + name.encode()
        out += struct.pack(f"<{1 + a.ndim}Q", a.ndim, *a.shape) + a.astype("<f8").tobytes()
    return bytes(out)


@pytest.mark.parametrize("edit, message", [
    (lambda r: [("audio.input_x" if n == "audio.input_w" else n, a) for n, a in r],
     "unexpected tensor 'audio.input_x'"),
    (lambda r: r[:1] + r, "duplicate tensor 'audio.input_w'"),
    (lambda r: [(n, a.reshape(2 * a.shape[0], -1) if n == "audio.input_w" else a) for n, a in r],
     r"shape disagreement for 'audio.input_w': file has \(16, 4\), config implies \(8, 8\)"),
], ids=["renamed", "duplicated", "reshaped"])
def test_checkpoint_tensor_record_errors(tmp_path, edit, message):
    model, _ = tiny_setup()
    path = tmp_path / "m.ttck"
    path.write_bytes(_with_records(model, lambda r: r))
    assert path.read_bytes() == checkpoint_bytes(model)
    path.write_bytes(_with_records(model, edit))
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


def test_model_config_dict_roundtrip():
    cfg = desk_config(audio_mask=AttentionMask(10, 2), label_left=2)
    back = model_config_from_dict(asdict(cfg))
    assert asdict(back) == asdict(cfg)
    assert back.audio.mask == cfg.audio.mask


def _with_embedded_config(raw: bytes, edit) -> bytes:
    import struct

    config_len = struct.unpack("<Q", raw[8:16])[0]
    doc = json.loads(raw[16:16 + config_len].decode())
    edit(doc)
    new_doc = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return raw[:8] + struct.pack("<Q", len(new_doc)) + new_doc + raw[16 + config_len:]


def test_checkpoint_non_utf8_tensor_name_is_format_error(tmp_path):
    model, _ = tiny_setup()
    raw = bytearray(checkpoint_bytes(model))
    at = raw.index(b"audio.input_w")
    raw[at] = 0xFF
    path = tmp_path / "m.ttck"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="UTF-8"):
        load_checkpoint(path)


def test_checkpoint_config_larger_than_file_is_rejected_before_allocation(tmp_path):
    model, _ = tiny_setup()

    def huge(doc):  # about 10**11 parameters: allocating them would exhaust memory
        doc["audio"].update(model_dim=10 ** 5, ff_dim1=10 ** 5, ff_dim2=10 ** 5)

    path = tmp_path / "m.ttck"
    path.write_bytes(_with_embedded_config(checkpoint_bytes(model), huge))
    with pytest.raises(CheckpointFormatError, match="shape disagreement"):
        load_checkpoint(path)


def test_checkpoint_config_with_more_layers_than_tensors_is_rejected(tmp_path):
    model, _ = tiny_setup()

    def deep(doc):  # each layer stores tensors, so a file this small cannot hold them
        doc["audio"]["num_layers"] = 10 ** 4

    path = tmp_path / "m.ttck"
    path.write_bytes(_with_embedded_config(checkpoint_bytes(model), deep))
    with pytest.raises(CheckpointFormatError, match="10001 encoder layers"):
        load_checkpoint(path)


def test_checkpoint_negative_relative_offset_is_format_error(tmp_path):
    model, _ = tiny_setup()

    def negative(doc):
        doc["label"]["max_relative_offset"] = -1

    path = tmp_path / "m.ttck"
    path.write_bytes(_with_embedded_config(checkpoint_bytes(model), negative))
    with pytest.raises(CheckpointFormatError, match="max_relative_offset must be >= 0"):
        load_checkpoint(path)


@pytest.mark.parametrize("side", [True, False])
def test_checkpoint_bool_mask_side_is_format_error(tmp_path, side):
    # a bool is an int to isinstance, so `true` would act as a window of 1
    model, _ = tiny_setup()

    def boolean(doc):
        doc["audio"]["mask"]["left"] = side

    path = tmp_path / "m.ttck"
    path.write_bytes(_with_embedded_config(checkpoint_bytes(model), boolean))
    with pytest.raises(CheckpointFormatError, match="mask left must be a non-negative int or None"):
        load_checkpoint(path)


COUNT_CONFIGS = [
    desk_config(),
    desk_config(audio_mask=AttentionMask(10, 2), label_left=2, num_audio_layers=0),
    desk_config(vocab_size=4, feature_dim=3, model_dim=6, num_label_layers=3,
                frontend=FrontendConfig(stack=3, subsample=2), max_relative_offset=0),
]


def parameter_count(config) -> int:
    """Number of values `init_model(config)` allocates, without allocating."""
    return sum(spec.size for _, spec in param_spec(config).named())


@pytest.mark.parametrize("cfg", COUNT_CONFIGS)
def test_parameter_count_matches_init(cfg):
    assert parameter_count(cfg) == sum(p.size for _, p in init_model(cfg, Rng(0)).named_params())


DESK_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.json")


@pytest.mark.parametrize("cfg, digest", zip(COUNT_CONFIGS + [load_run_config(DESK_JSON).model], [
    "67e9d571562b4b0581a70f6d24b99eb924849c0bb726d61c2ee029080d31655e",
    "add956607373ada2e330d0263e96d86526d5bf094228fef4787eebb47682f4f3",
    "9d3a68203dc3e7dfed55ec74e867dd32a72c3a7b58c6075419126f51844eb4e3",
    "462e819dd3caf2a5a00c76bb6e8a02d80d606f6d52731209280a43ecbb334f40",
]), ids=["desk", "lookahead_no_audio_layers", "stacked_three_label_layers", "desk_json"])
def test_init_checkpoint_bytes_pinned(cfg, digest):
    # pins the parameter names, their order and every initial value
    assert hashlib.sha256(checkpoint_bytes(init_model(cfg, Rng(0)))).hexdigest() == digest


def _regularized_run(step_fn=train_step, adam=Adam):
    """Six steps of `step_fn` and its optimizer `adam` with dropout,
    SpecAugment and weight noise all live."""
    task = SyntheticTaskConfig(vocab=4, label_len=(2, 3), frames_per_label=(2, 3),
                               feature_dim=6, noise_sigma=0.1, size=8, seed=2)
    frontend = FrontendConfig(stack=2, subsample=2, freq_mask_width=2, freq_mask_count=1,
                              time_mask_width=1, time_mask_count=1, augment_enabled=True)
    cfg = desk_config(vocab_size=5, feature_dim=6, label_left=2, dropout=0.1, model_dim=8,
                      frontend=frontend)
    model = init_model(cfg, Rng(1))
    sched = ScheduleConfig(peak_lr=2e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=2e-4)
    train = TrainConfig(batch_size=4, total_steps=6, seed=5, weight_noise_sigma=0.01,
                        weight_noise_start_step=2)
    with mock.patch.object(trn, "train_step", step_fn), mock.patch.object(trn, "Adam", adam), \
            tempfile.TemporaryDirectory() as out_dir:
        losses = train_loop(model, gen_synthetic(task), sched, train, out_dir=out_dir)
    return np.array(losses).tobytes() + checkpoint_bytes(model)


def test_regularized_training_bytes_pinned():
    # pins every draw of dropout, SpecAugment and weight noise through a short
    # run of the per-example reference step
    assert hashlib.sha256(_regularized_run(reference_step.train_step, reference_step.Adam)).hexdigest() == (
        "562bd39cb26376c2cd12b0f4bcea289f4b71fa9e2adb20d14436d8b92be04887")


def test_batched_training_bytes_pinned():
    # the same run through the batched step: its rounding differs from the
    # reference's (see test_batched_step_matches_per_example_reference)
    assert hashlib.sha256(_regularized_run()).hexdigest() == (
        "5f8fec473397c4243c4134b76742b1c7ad2b1d281826d6fdf05dc56c1594a22a")


def test_augmented_training_leaves_the_features_unchanged(tmp_path):
    """With no stacking the frontend hands training the features array
    itself; masking and padding write only copies."""
    task = SyntheticTaskConfig(vocab=4, label_len=(2, 3), frames_per_label=(2, 3),
                               feature_dim=6, noise_sigma=0.1, size=8, seed=2)
    data = gen_synthetic(task)
    before = [utt.features.tobytes() for utt in data.utterances]
    frontend = FrontendConfig(freq_mask_width=3, freq_mask_count=2, time_mask_width=2,
                              time_mask_count=2, augment_enabled=True)
    cfg = desk_config(vocab_size=5, feature_dim=6, label_left=2, dropout=0.1, model_dim=8,
                      frontend=frontend)
    model = init_model(cfg, Rng(1))
    assert model.prepare_features(data.utterances[0].features) is data.utterances[0].features
    sched = ScheduleConfig(peak_lr=2e-3, warmup_steps=2, hold_until=4, decay_until=8, final_lr=2e-4)
    train_loop(model, data, sched, TrainConfig(batch_size=4, total_steps=4, seed=5), out_dir=tmp_path)
    assert [utt.features.tobytes() for utt in data.utterances] == before


def test_grid_without_rng_ignores_regularizers():
    task = SyntheticTaskConfig(vocab=4, label_len=(2, 3), frames_per_label=(2, 3),
                               feature_dim=6, noise_sigma=0.1, size=1, seed=3)
    utt = gen_synthetic(task).utterances[0]
    live = FrontendConfig(time_mask_width=2, time_mask_count=1, augment_enabled=True)
    grids = []
    for dropout, frontend in ((0.1, live), (0.0, FrontendConfig())):
        cfg = desk_config(vocab_size=5, feature_dim=6, dropout=dropout, model_dim=8, frontend=frontend)
        grids.append(init_model(cfg, Rng(4)).example_grid(utt.features, utt.labels))
    assert grids[0].log_probs.values.tobytes() == grids[1].log_probs.values.tobytes()


def unbatched_grid(model, features, y) -> LogProbGrid:
    """One example's grid composed from the one-sequence encoders: the
    reference for `example_grid`, a batch of one."""
    stacked = model.prepare_features(features)
    audio = model.encode_audio(stacked)
    labels = model.encode_labels(y)
    model.counters.joint_evals += audio.shape[0] * labels.shape[0]
    return log_prob_grid(audio, labels, model.params.joint)


@settings(max_examples=40, deadline=None)
@given(
    frames=st.integers(1, 120),
    labels=st.integers(0, 4),
    stack=st.integers(1, 3),
    subsample=st.integers(1, 3),
    audio_layers=st.integers(0, 2),
    label_layers=st.integers(0, 2),
    audio_mask=st.sampled_from([AttentionMask(10, 0), AttentionMask(2, 1), AttentionMask(3, 0),
                                AttentionMask(None, None)]),
    label_left=st.sampled_from([None, 1]),
    seed=st.integers(0, 2**16),
)
@example(frames=120, labels=4, stack=1, subsample=1, audio_layers=2, label_layers=2,
         audio_mask=AttentionMask(10, 0), label_left=1, seed=0)
@example(frames=90, labels=3, stack=2, subsample=1, audio_layers=1, label_layers=0,
         audio_mask=AttentionMask(2, 1), label_left=None, seed=1)
def test_example_grid_equals_the_unbatched_composition(frames, labels, stack, subsample, audio_layers,
                                                       label_layers, audio_mask, label_left, seed):
    """`example_grid`, a batch of one, gives the one-sequence composition's
    grid, log-probability, parameter gradients and both counters bit for
    bit, with stacking, in one attention block and in blocks past the
    crossover; SpecAugment and dropout are configured, and skipped without
    an `Rng`."""
    frontend = FrontendConfig(stack=stack, subsample=subsample, freq_mask_width=2, freq_mask_count=1,
                              time_mask_width=1, time_mask_count=1, augment_enabled=True)
    cfg = desk_config(vocab_size=5, feature_dim=3, audio_mask=audio_mask, label_left=label_left,
                      num_audio_layers=audio_layers, num_label_layers=label_layers, model_dim=8,
                      dropout=0.2, frontend=frontend, max_relative_offset=3)
    (utt,) = _random_batch([(frames, labels)], cfg.feature_dim, cfg.vocab_size, Rng(seed))
    results = []
    for grid_fn in (unbatched_grid, lambda m, f, y: m.example_grid(f, y)):
        model = init_model(cfg, Rng(seed + 1))
        grid = grid_fn(model, utt.features, utt.labels)
        values = grid.log_probs.values.tobytes()
        log_prob = rnnt_log_prob(grid, utt.labels)
        backward(log_prob)
        grads = [None if p.grad is None else p.grad.tobytes() for _, p in model.named_params()]
        counts = (model.counters.attention_scores, model.counters.joint_evals)
        results.append((values, log_prob.item().hex(), grads, counts))
    assert results[0] == results[1]


# ------------------------------------------- batched step vs per-example step

def _random_batch(shapes, feature_dim, vocab_size, rng):
    """One utterance per (raw frames, labels) pair."""
    return [Utterance(f"u{i}", rng.substream(f"x{i}").normal((frames, feature_dim)),
                      [int(v) for v in rng.substream(f"y{i}").integers(1, vocab_size, (labels,))])
            for i, (frames, labels) in enumerate(shapes)]


def _regularized_config(stack, subsample, layers, audio_mask, label_left):
    frontend = FrontendConfig(stack=stack, subsample=subsample, freq_mask_width=2, freq_mask_count=1,
                              time_mask_width=1, time_mask_count=1, augment_enabled=True)
    return desk_config(vocab_size=5, feature_dim=3, audio_mask=audio_mask, label_left=label_left,
                       num_audio_layers=layers, num_label_layers=layers, model_dim=8, dropout=0.2,
                       frontend=frontend, max_relative_offset=3)


def _per_example_losses(model, batch, cfg, rng):
    """Each example's loss at step 0, from the reference's own grid and from
    its slice of the batched grid, under the step's weight noise and
    substreams."""
    step_rng = rng.substream("step0")
    fwd = reference_step.noisy_model(model, cfg, 0, step_rng)
    rngs = [step_rng.substream(f"ex{i}") for i in range(len(batch))]
    ref = [-rnnt_log_prob(reference_step.example_grid(fwd, u.features, u.labels, r), u.labels).item()
           for u, r in zip(batch, rngs)]
    grid = fwd.batch_grid([u.features for u in batch], [u.labels for u in batch], rngs)
    got = [-rnnt_log_prob(LogProbGrid(Tensor(grid.log_probs.values[b, :t, :len(u.labels) + 1])),
                          u.labels).item()
           for b, (u, t) in enumerate(zip(batch, grid.frames))]
    return ref, got


@settings(max_examples=30, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 7), st.integers(0, 3)), min_size=1, max_size=5),
    stack=st.integers(1, 3),
    subsample=st.integers(1, 3),
    layers=st.integers(0, 2),
    audio_mask=st.sampled_from([AttentionMask(None, None), AttentionMask(2, 0), AttentionMask(1, 1)]),
    label_left=st.sampled_from([None, 1]),
    seed=st.integers(0, 2**16),
)
@example(shapes=[(1, 0), (7, 3), (2, 1)], stack=2, subsample=3, layers=2,
         audio_mask=AttentionMask(2, 0), label_left=1, seed=0)
@example(shapes=[(40, 3), (1, 0), (23, 2)], stack=1, subsample=1, layers=2,
         audio_mask=AttentionMask(1, 1), label_left=1, seed=0)
@example(shapes=[(75, 3), (52, 2)], stack=2, subsample=2, layers=1,
         audio_mask=AttentionMask(2, 0), label_left=None, seed=3)
def test_batched_step_matches_per_example_reference(shapes, stack, subsample, layers, audio_mask,
                                                    label_left, seed):
    """One step with dropout, SpecAugment and weight noise live: the batched
    step computes the reference's function, example by example, up to the
    rounding of batched against per-example products. Past the crossover
    the batched audio layers attend in blocks, while the reference runs the
    dense attention node."""
    cfg = _regularized_config(stack, subsample, layers, audio_mask, label_left)
    batch = _random_batch(shapes, cfg.feature_dim, cfg.vocab_size, Rng(seed))
    train = TrainConfig(batch_size=len(batch), weight_noise_sigma=0.05, weight_noise_start_step=0,
                        grad_clip_norm=1e30)
    audio_t = -(-max(frames for frames, _ in shapes) // subsample)
    banded = (layers > 0 and audio_mask.is_finite
              and audio_t >= 2 * (audio_mask.left + audio_mask.right) + att.BANDED_MIN_EXTRA_ROWS)
    results = []
    for step_fn, adam in ((reference_step.train_step, reference_step.Adam), (train_step, Adam)):
        model = init_model(cfg, Rng(seed + 1))
        with mock.patch.object(att, "band", wraps=att.band) as spy:
            loss = step_fn(model, adam(model, train), batch, 0, PAPER_SCHEDULE, train, Rng(seed + 2))
        bands = [att.band(*c.args, **c.kwargs) for c in spy.call_args_list]
        assert any(b.n_blocks > 1 for b in bands) == (banded and step_fn is train_step)
        grads = {name: p.grad if p.grad is not None else np.zeros(p.shape)
                 for name, p in model.named_params()}
        counts = (model.counters.attention_scores, model.counters.joint_evals)
        results.append((loss, grads, counts))
    (ref_loss, ref_grads, ref_counts), (loss, grads, counts) = results
    assert counts == ref_counts
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, g in grads.items():
        assert np.max(np.abs(g - ref_grads[name])) <= 1e-10, name

    ref, got = _per_example_losses(init_model(cfg, Rng(seed + 1)), batch, train, Rng(seed + 2))
    for b, (r, v) in enumerate(zip(ref, got)):
        assert abs(v - r) <= 1e-12 * abs(r), (b, shapes[b])


def test_padding_does_not_leak_into_other_examples():
    """Appending a longer example moves the others' losses and encoder rows
    only by rounding."""
    cfg = _regularized_config(stack=2, subsample=1, layers=2, audio_mask=AttentionMask(2, 0),
                              label_left=1)
    model = init_model(cfg, Rng(7))
    batch = _random_batch([(3, 1), (1, 0), (9, 4)], cfg.feature_dim, cfg.vocab_size, Rng(8))
    rngs = [Rng(9).substream(f"ex{i}") for i in range(len(batch))]
    results = []
    for k in (2, 3):
        feats, ys = [u.features for u in batch[:k]], [u.labels for u in batch[:k]]
        grid = model.batch_grid(feats, ys, rngs[:k])
        losses = [rnnt_log_prob(LogProbGrid(Tensor(grid.log_probs.values[b, :t, :len(y) + 1])), y).item()
                  for b, (t, y) in enumerate(zip(grid.frames, ys))]
        stacked, frames = pad([model.prepare_features(f, r) for f, r in zip(feats, rngs)])
        audio = model.encode_audio(stacked, rngs[:k], frames).values
        results.append((losses, [audio[b, :t] for b, t in enumerate(frames)]))
    (short_losses, short_rows), (long_losses, long_rows) = results
    assert len(long_rows[2]) > max(len(rows) for rows in short_rows)
    for b in range(2):
        assert abs(long_losses[b] - short_losses[b]) <= 1e-12 * abs(short_losses[b])
        assert np.max(np.abs(long_rows[b] - short_rows[b])) <= 1e-12


def test_backward_frees_each_node_once_its_gradients_reach_its_parents():
    """After `backward`, every non-leaf's backward closure and gradient are
    gone and its `backward_fn` raises, while the graph keeps its nodes and
    operations and every leaf keeps its gradient (the parameters' are views
    of the optimizer's buffer); a graph built again from the same model and
    draws differentiates again, to the same gradient."""
    cfg = desk_config(vocab_size=5, feature_dim=8, audio_mask=AttentionMask(3, 1), label_left=2,
                      dropout=0.1, model_dim=8)
    model = init_model(cfg, Rng(0))
    opt = Adam(model, TrainConfig())
    batch = _random_batch([(4, 2), (9, 3), (2, 1)], cfg.feature_dim, cfg.vocab_size, Rng(3))
    ys = [u.labels for u in batch]
    grads = []
    for _ in range(2):
        opt.zero_grad()
        root = batch_loss(model.batch_grid([u.features for u in batch], ys,
                                           [Rng(4).substream(f"ex{i}") for i in range(len(batch))]), ys)
        nodes = graph(root)
        ops = [n for n in nodes if n.backward_fn is not None]
        closures = [weakref.ref(n.backward_fn) for n in ops]
        backward(root)
        assert [id(n) for n in graph(root)] == [id(n) for n in nodes]
        assert [n for n in nodes if n.backward_fn is not None] == ops
        assert all(c() is None for c in closures)
        assert all(n.grad is None for n in ops)
        assert all(n.grad is not None for n in nodes if n.backward_fn is None)
        assert all(np.shares_memory(p.grad, opt.grads) for _, p in model.named_params())
        for n in ops:
            with pytest.raises(RuntimeError, match="backward already ran through this node"):
                n.backward_fn(np.ones(n.shape))
        grads.append(opt.grads.copy())
    # the audio stack's input node, two nodes per layer and the final norm;
    # the label stack's embedding lookup, input node, one layer and final
    # norm; the joint grid and the lattice loss
    assert len(ops) == (1 + 2 * 2 + 1) + (2 + 2 + 1) + 2
    assert grads[0].tobytes() == grads[1].tobytes()


def test_train_step_graph_size_is_independent_of_batch(monkeypatch):
    """The same node count whatever the batch, with or without weight
    noise: the noise is added to the stored parameters, not by nodes over
    them."""
    roots = []
    monkeypatch.setattr(trn, "backward", lambda root, **kwargs: (roots.append(root), backward(root, **kwargs))[1])
    cfg = desk_config(vocab_size=5, feature_dim=8, audio_mask=AttentionMask(3, 1), label_left=2,
                      dropout=0.1, model_dim=8)
    sizes = []
    for sigma in (0.0, 0.05):
        train = TrainConfig(batch_size=8, weight_noise_sigma=sigma, weight_noise_start_step=0)
        for shapes in ([(1, 0)], [(4, 2), (9, 3)], [(2, 1)] * 8, [(1, 0), (12, 5)] * 4):
            model = init_model(cfg, Rng(0))
            batch = _random_batch(shapes, cfg.feature_dim, cfg.vocab_size, Rng(len(shapes)))
            train_step(model, Adam(model, train), batch, 0, PAPER_SCHEDULE, train, Rng(1))
            sizes.append(len(graph(roots.pop())))
    # 57 parameter leaves and the features leaf; the audio stack's input
    # node, two residual nodes per layer (attention, the feed-forward block)
    # and the final norm; the label stack's embedding lookup, input node,
    # one layer and final norm; the joint grid and the lattice loss
    assert sizes == [57 + 1 + (1 + 2 * 2 + 1) + (2 + 2 + 1) + 2] * 8
