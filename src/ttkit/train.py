"""Optimization loop: learning-rate schedule, weight noise, adaptive-moment
updates with global-norm clipping, and versioned checkpoints.

A step builds one graph for the whole batch (`TransducerModel.batch_grid`
and `batch_loss`), padded to its longest example, with every example's
SpecAugment and dropout drawn from its own substreams. The schedule ramps
linearly from zero to the peak rate, holds, then decays geometrically to the
final rate. Weight noise is added to the stored parameters in place for a
step's forward and backward and taken off before the update
(`weight_noise`), so gradients land on the stored leaves while updates
point against the perturbed loss; it adds no graph node.
Gradients accumulate into one flat buffer that the optimizer holds, so
clipping scales it in one op and Adam updates parameters and moments in a
few ops per fixed block. The step's finite check rides on the clip norm:
backward skips its per-leaf check, and a non-finite norm over a buffer that
holds a NaN or inf raises `NumericsError` before Adam moves anything.

A training run keeps freed heap mapped for its whole process (glibc's mmap
and trim thresholds): otherwise each step's MBs of grid and backward
temporaries go back to the kernel and the next step faults them in again.
`ttkit decode` and `eval` set the same thresholds before decoding.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .model import TransducerModel, model_config_from_dict, param_spec
from .tasks import BinaryReader, Utterance
from .tensor import NumericsError, Rng, backward, flat_params
from .transducer import batch_loss


# elements per block of an Adam update: its two scratch blocks stay in cache
ADAM_BLOCK = 8192


class CheckpointFormatError(ValueError):
    """Checkpoint file violates the on-disk format."""


@dataclass
class ScheduleConfig:
    peak_lr: float = 2.5e-4
    warmup_steps: int = 4000
    hold_until: int = 30000
    decay_until: int = 200000
    final_lr: float = 2.5e-6

    def __post_init__(self):
        if not 0 < self.warmup_steps <= self.hold_until < self.decay_until:
            raise ValueError(
                f"need 0 < warmup_steps <= hold_until < decay_until, got "
                f"{self.warmup_steps}, {self.hold_until}, {self.decay_until}")
        if not 0 < self.final_lr <= self.peak_lr:
            raise ValueError(f"need 0 < final_lr <= peak_lr, got {self.final_lr}, {self.peak_lr}")


def lr_at(step: int, s: ScheduleConfig) -> float:
    """Linear warmup to the peak, constant hold, geometric decay to the
    final rate, then constant."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if step <= s.warmup_steps:
        return s.peak_lr * step / s.warmup_steps
    if step <= s.hold_until:
        return s.peak_lr
    if step < s.decay_until:
        frac = (step - s.hold_until) / (s.decay_until - s.hold_until)
        return s.peak_lr * (s.final_lr / s.peak_lr) ** frac
    return s.final_lr


@dataclass
class TrainConfig:
    batch_size: int = 8
    total_steps: int = 1000
    seed: int = 0
    weight_noise_sigma: float = 0.0
    weight_noise_start_step: int = 10000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip_norm: float = 5.0
    checkpoint_interval: int = 200

    def __post_init__(self):
        if self.batch_size < 1 or self.total_steps < 0 or self.checkpoint_interval < 1:
            raise ValueError("batch_size/checkpoint_interval must be >= 1 and total_steps >= 0")
        if self.weight_noise_sigma < 0:
            raise ValueError("weight_noise_sigma must be >= 0")
        if self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError(f"adam_beta1 and adam_beta2 must be in [0, 1), got "
                             f"{self.adam_beta1}, {self.adam_beta2}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")


class Adam:
    """Adaptive moment estimation with bias correction over a model's flat
    parameter buffer (`model.flat`). The optimizer holds the gradient buffer
    and both moments, each of the parameters' layout, in one allocation;
    each step runs the per-element update over fixed blocks of them, so its
    scratch is two blocks, not full-size temporaries. Every op is
    elementwise, so the layout changes no bit."""

    def __init__(self, model: TransducerModel, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.values, self.leaves = model.flat
        self.grads, self.m, self.v = np.zeros((3, self.values.size))
        self.grad_views = model.flat.views(self.grads)
        self._scratch = np.empty((2, min(ADAM_BLOCK, self.values.size)))

    def zero_grad(self):
        """Zero the gradient buffer and point each parameter's `.grad` at
        its view of it, so backward accumulates into the buffer in place."""
        self.grads.fill(0.0)
        for p, g in zip(self.leaves, self.grad_views):
            p.grad = g

    def step(self, lr: float):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.adam_beta1 ** self.t
        bc2 = 1.0 - c.adam_beta2 ** self.t
        for lo in range(0, self.values.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            p, g, m, v = self.values[lo:hi], self.grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
            delta, denom = self._scratch[:, :len(p)]
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), in that operand order
            m *= c.adam_beta1
            m += np.multiply(1.0 - c.adam_beta1, g, out=delta)
            v *= c.adam_beta2
            np.multiply(1.0 - c.adam_beta2, g, out=delta)
            v += np.multiply(delta, g, out=delta)
            np.divide(m, bc1, out=delta)
            np.multiply(lr, delta, out=delta)
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += c.adam_eps
            p -= np.divide(delta, denom, out=delta)


def global_norm(grads: Sequence[np.ndarray]) -> float:
    """The gradients' Euclidean norm; inf, without a warning, when a square
    overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def clip_gradients(grads: np.ndarray, views: Sequence[np.ndarray], max_norm: float) -> float:
    """Scale the flat gradient buffer `grads` down so its global norm is at
    most `max_norm`; direction is preserved. The squares are summed over
    `views`, its per-parameter views in named order, one at a time, so the
    norm's additions are those of per-array gradients. Returns the pre-clip
    norm.

    This is `train_step`'s finite check on the gradients: a finite norm
    proves every entry finite, so the buffer is searched only when the norm
    is not, and `NumericsError` is raised, before anything is scaled, when
    it holds a non-finite entry. Finite entries whose squares overflow give
    an infinite norm and clip to zero."""
    norm = global_norm(views)
    if not math.isfinite(norm) and not np.isfinite(grads).all():
        raise NumericsError("non-finite gradient reached a leaf tensor")
    if norm > max_norm:
        grads *= max_norm / norm
    return norm


@contextmanager
def weight_noise(model: TransducerModel, sigma: float, step: int, start_step: int, rng: Rng):
    """Inside the block, the model's parameters are params + N(0, sigma^2),
    once `step` reaches `start_step`: each parameter's draw, in named order
    from the `weight_noise/{step}` substream of `rng`, is added to it in
    place. On exit, however the block ends, the parameter buffer gets back
    the bytes it had on entry, so the noise is never stepped or saved."""
    if sigma == 0.0 or step < start_step:
        yield
        return
    clean = model.flat.values.copy()
    try:
        stream = rng.substream(f"weight_noise/{step}")
        for p in model.flat.leaves:
            p.values += stream.normal(p.shape, sigma=sigma)
        yield
    finally:
        model.flat.values[...] = clean


def train_step(model: TransducerModel, optimizer: Adam, batch: Sequence[Utterance],
               step: int, schedule: ScheduleConfig, cfg: TrainConfig, rng: Rng,
               stats: dict | None = None) -> float:
    """One optimization step over a batch; returns the batch loss, and puts
    the pre-clip gradient norm (`grad_norm`) and whether clipping fired
    (`clipped`) into `stats` when given one.

    Deterministic for a given (seed, step): augmentation, dropout, and noise
    all draw from labeled sub-streams keyed by the step and example index.
    Passing each example its `Rng` is what makes the forward pass a training
    one; each regularizer's own config decides whether it runs. The forward
    and backward run inside `weight_noise`, so the backward reads the
    perturbed values the forward used, and Adam steps the clean ones. Each
    parameter's `.grad` is its view of the optimizer's zeroed gradient
    buffer, so backward accumulates straight into the buffer that clipping
    and Adam update as a whole. Backward skips its per-leaf finite check:
    `clip_gradients` makes it on the norm it computes anyway, and raises
    `NumericsError` before Adam touches the parameters.
    """
    if not batch:
        raise ValueError("train_step needs a non-empty batch")
    lr = lr_at(step, schedule)
    step_rng = rng.substream(f"step{step}")
    optimizer.zero_grad()
    ys = [utt.labels for utt in batch]
    with weight_noise(model, cfg.weight_noise_sigma, step, cfg.weight_noise_start_step, step_rng):
        grid = model.batch_grid([utt.features for utt in batch], ys,
                                [step_rng.substream(f"ex{i}") for i in range(len(batch))])
        loss = batch_loss(grid, ys)
        value = loss.item()
        if not np.isfinite(value):
            ids = [utt.id for utt in batch]
            raise NumericsError(f"non-finite loss {value} at step {step} (examples {ids})")
        backward(loss, check_finite=False)

    norm = clip_gradients(optimizer.grads, optimizer.grad_views, cfg.grad_clip_norm)
    optimizer.step(lr)
    if stats is not None:
        stats.update(grad_norm=norm, clipped=norm > cfg.grad_clip_norm)
    return value


@functools.cache
def _keep_heap_mapped() -> None:
    """Serve arrays up to 32 MiB (glibc's 64-bit cap) from the heap, not from
    mappings that `free` unmaps, and trim the heap only past 64 MiB, where
    glibc's dynamic rule ends up; either alone still left hundreds of faults
    per long step. A no-op without `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def train_loop(model: TransducerModel, dataset, schedule: ScheduleConfig, cfg: TrainConfig,
               out_dir=None, log_fn=None) -> list[float]:
    """Run `total_steps` over the dataset in fixed batch order, optionally
    writing periodic checkpoints and per-step metric records. A non-finite
    loss raises `NumericsError` before the step touches the parameters; with
    an `out_dir`, the model as the last good step left it is first saved to
    `ckpt_last_good.ttck`, and the error names that file. The first call
    sets the heap thresholds for the whole process (`_keep_heap_mapped`), so
    a step reuses the memory the step before it freed."""
    _keep_heap_mapped()
    optimizer = Adam(model, cfg)
    rng = Rng(cfg.seed)
    utts = dataset.utterances
    if not utts:
        raise ValueError("training dataset is empty")
    losses = []
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        open(metrics_path, "w").close()  # this run's records only
    start = time.monotonic()
    for step in range(cfg.total_steps):
        at = (step * cfg.batch_size) % len(utts)
        batch = [utts[(at + k) % len(utts)] for k in range(cfg.batch_size)]
        stats = {}
        try:
            loss = train_step(model, optimizer, batch, step, schedule, cfg, rng, stats)
        except NumericsError as e:
            if out_dir is None:
                raise
            path = os.path.join(out_dir, "ckpt_last_good.ttck")
            save_checkpoint(model, path)
            raise NumericsError(f"{e}; the last good parameters are in {path}") from e
        losses.append(loss)
        record = {"step": step, "loss": loss, **stats, "lr": lr_at(step, schedule),
                  "wall_clock": time.monotonic() - start}
        if metrics_path is not None:
            with open(metrics_path, "a") as f:
                f.write(json.dumps(record) + "\n")
        if log_fn is not None:
            log_fn(record)
        if out_dir is not None and (step + 1) % cfg.checkpoint_interval == 0:
            save_checkpoint(model, os.path.join(out_dir, f"ckpt_{step + 1:06d}.ttck"))
    if out_dir is not None:
        save_checkpoint(model, os.path.join(out_dir, "ckpt_final.ttck"))
    return losses


_MAGIC = b"TTCK"
_VERSION = 1


def checkpoint_bytes(model: TransducerModel) -> bytes:
    config_doc = json.dumps(asdict(model.config),
                            sort_keys=True, separators=(",", ":")).encode("utf-8")
    named = model.named_params()
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    out += struct.pack("<Q", len(config_doc)) + config_doc
    out += struct.pack("<Q", len(named))
    for name, p in named:
        ident = name.encode("utf-8")
        out += struct.pack("<Q", len(ident)) + ident
        out += struct.pack("<Q", p.values.ndim)
        out += struct.pack(f"<{p.values.ndim}Q", *p.values.shape)
        out += np.ascontiguousarray(p.values, dtype="<f8").tobytes()
    return bytes(out)


def save_checkpoint(model: TransducerModel, path):
    """Write to a temporary file beside `path`, then rename it over `path`,
    so a failure part-way leaves any previous checkpoint there intact. The
    file is synced before the rename and, where the platform can open a
    directory (`os.O_DIRECTORY`), the directory after it, so the rename
    itself survives a crash."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(checkpoint_bytes(model))
            f.flush()
            os.fsync(f.fileno())  # on disk before the rename can expose it
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    if hasattr(os, "O_DIRECTORY"):
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_checkpoint(path) -> TransducerModel:
    """Rebuild the model from the embedded config and stored tensors. Tensor
    names and shapes must agree exactly with the config's `param_spec`; each
    stored array is copied into its slice of the model's parameter buffer,
    and nothing is drawn."""
    with open(path, "rb") as f:
        r = BinaryReader(f.read(), CheckpointFormatError, _MAGIC, _VERSION, "checkpoint")
    doc = r.text()
    stored = {}
    for _ in range(r.u64()):
        name = r.text()
        if name in stored:
            raise CheckpointFormatError(f"duplicate tensor {name!r}")
        stored[name] = r.array(tuple(r.u64() for _ in range(r.u64())), "<f8")
    r.finish("tensor")
    try:
        config = model_config_from_dict(json.loads(doc))
        # the schema grows with the layer count, which the file bounds
        layers = config.audio.num_layers + config.label.num_layers
        if layers > len(stored):
            raise ValueError(f"{layers} encoder layers but only {len(stored)} tensors")
        spec = param_spec(config)
        expected = dict(spec.named())
        implied = sum(s.size for s in expected.values())
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointFormatError(f"bad embedded config: {e}") from e
    # compared before anything the config asks for is allocated
    held = sum(a.size for a in stored.values())
    if held != implied:
        raise CheckpointFormatError(f"shape disagreement: file holds {held} values, config implies {implied}")
    if len(stored) != len(expected):
        raise CheckpointFormatError(f"checkpoint has {len(stored)} tensors, config implies {len(expected)}")
    for name, values in stored.items():
        if name not in expected:
            raise CheckpointFormatError(f"unexpected tensor {name!r}")
        if values.shape != expected[name].shape:
            raise CheckpointFormatError(f"shape disagreement for {name!r}: file has {values.shape}, "
                                        f"config implies {expected[name].shape}")
    def copy(name: str, _, out: np.ndarray):
        out[...] = stored[name]  # a read-only view of the file's bytes

    params, flat = flat_params(spec, copy)
    return TransducerModel(config, params, flat=flat)
