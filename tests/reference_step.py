"""The per-example training step, the reference for ttkit's batched one.

Every example gets its own graph here: its encoders run on unpadded rows
through the dense attention node (`reference_ops.multi_head_attention`),
the feed-forward block is composed node by node, the joint grid is a chain
of projections, tanh, output layer and log-softmax nodes, and the batch
loss adds one lattice node per example. That is the arithmetic ttkit
trained with before the batch axis, so this step reproduces its pinned
training bytes exactly, while the batched step agrees with it within
rounding. Randomness is drawn from the same per-example substreams.

Its weight noise is the node-based one ttkit used before perturbing the
stored parameters in place (`noisy_model`): a node over each leaf that adds
that leaf's draw.

Its optimizer is the per-array one ttkit stepped with before the flat
parameter buffer: a gradient dict of per-leaf copies, clipped array by array,
and an `Adam` with one moment array per parameter. It is also the reference
for the flat `ttkit.train.Adam` and `clip_gradients`, which must match it
bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import reference_ops as ops
from ttkit import attention as att
from ttkit import tensor as tt
from ttkit import transducer as tr
from ttkit.model import TransducerModel
from ttkit.tensor import NumericsError, ShapeError, Tensor, backward
from ttkit.train import lr_at


class Adam:
    """Adaptive moment estimation with bias correction, stepping every
    parameter in the fixed named order, one array at a time."""

    def __init__(self, model, cfg):
        self.cfg = cfg
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in model.named_params()}
        self.v = {name: np.zeros_like(p.values) for name, p in model.named_params()}

    def step(self, model, grads: dict[str, np.ndarray], lr: float):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.adam_beta1 ** self.t
        bc2 = 1.0 - c.adam_beta2 ** self.t
        for name, p in model.named_params():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= c.adam_beta1
            m += (1.0 - c.adam_beta1) * g
            v *= c.adam_beta2
            v += (1.0 - c.adam_beta2) * g * g
            p.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + c.adam_eps)


def global_norm(grads) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients down so their global norm is at most `max_norm`;
    direction is preserved. Returns the pre-clip norm."""
    norm = global_norm(list(grads.values()))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def noisy_model(model, cfg, step, step_rng):
    """The model whose forward runs on params + N(0, sigma^2) once `step`
    reaches the start step, as a node over each stored leaf: an add of a
    constant noise leaf, drawn in named order from the step's
    `weight_noise/{step}` substream. Gradients reach the stored leaves
    through those nodes, which leave the stored values as they are. The
    model itself when the noise is off."""
    sigma = cfg.weight_noise_sigma
    if sigma == 0.0 or step < cfg.weight_noise_start_step:
        return model
    stream = step_rng.substream(f"weight_noise/{step}")
    params = model.params.map(lambda _, p: ops.add(p, Tensor(stream.normal(p.shape, sigma=sigma))))
    return TransducerModel(model.config, params, model.counters)


def encoder_layer(x, mask_bool, layer, params, config, rng=None, counters=None):
    """One layer over unpadded rows [T, d], the feed-forward block composed
    of matmul, bias, relu, dropout and residual nodes."""
    eps, ratio = config.ln_eps, config.dropout_ratio
    h = tt.layer_norm(x, layer.ln1_g, layer.ln1_b, eps)
    attn = ops.multi_head_attention(h, layer, params, config, mask_bool, counters)
    x = ops.add(x, ops.dropout(attn, ratio, rng))
    h2 = tt.layer_norm(x, layer.ln2_g, layer.ln2_b, eps)
    f = ops.dropout(ops.relu(ops.add(ops.matmul(h2, layer.w1), layer.b1)), ratio, rng)
    f = ops.dropout(ops.add(ops.matmul(f, layer.w2), layer.b2), ratio, rng)
    return ops.add(x, f)


def encode(x, config, params, rng=None, counters=None):
    h = ops.add(ops.matmul(x, params.input_w), params.input_b)
    mask_bool = ops.build_mask(x.shape[0], config.mask)
    for i, layer in enumerate(params.layers):
        h = encoder_layer(h, mask_bool, layer, params, config,
                          rng.substream(f"layer{i}") if rng else None, counters)
    return att.final_norm(h, config, params)


def joint_logits(audio_t, label_u, params):
    """Combine one audio activation with one label-history activation:
    Linear(audio) + Linear(label) -> tanh -> Linear -> logits over V."""
    if audio_t.shape != (params.audio_w.shape[0],):
        raise ShapeError(f"audio activation shape {audio_t.shape} != ({params.audio_w.shape[0]},)")
    if label_u.shape != (params.label_w.shape[0],):
        raise ShapeError(f"label activation shape {label_u.shape} != ({params.label_w.shape[0]},)")
    pre = ops.add(
        ops.add(ops.matmul(audio_t, params.audio_w), params.audio_b),
        ops.add(ops.matmul(label_u, params.label_w), params.label_b),
    )
    return ops.add(ops.matmul(ops.tanh(pre), params.out_w), params.out_b)


def log_prob_grid(audio_acts, label_acts, params) -> tr.LogProbGrid:
    """`joint_logits` at every (frame, history) pair, as a chain of nodes."""
    T = audio_acts.shape[0]
    u1 = label_acts.shape[0]
    a = ops.add(ops.matmul(audio_acts, params.audio_w), params.audio_b)   # [T, J]
    l = ops.add(ops.matmul(label_acts, params.label_w), params.label_b)  # [U+1, J]
    joint_dim = a.shape[1]
    pre = ops.add(ops.reshape(a, (T, 1, joint_dim)), ops.reshape(l, (1, u1, joint_dim)))
    hid = ops.reshape(ops.tanh(pre), (T * u1, joint_dim))
    logits = ops.add(ops.matmul(hid, params.out_w), params.out_b)
    return tr.LogProbGrid(ops.log_softmax(ops.reshape(logits, (T, u1, params.out_w.shape[1])), axis=-1))


def example_grid(model, features: np.ndarray, y: Sequence[int], rng=None) -> tr.LogProbGrid:
    """One example's grid through its own graph."""
    stacked = model.prepare_features(features, rng)
    audio = encode(Tensor(stacked), model.config.audio, model.params.audio,
                   rng.substream("audio") if rng else None, model.counters)
    tr.check_targets(y, model.config.vocab_size)
    ids = np.array([tr.BLANK_ID] + list(y), dtype=np.intp)
    labels = encode(tt.rows(model.params.label_embedding, ids), model.config.label, model.params.label,
                    rng.substream("label") if rng else None, model.counters)
    model.counters.joint_evals += audio.shape[0] * labels.shape[0]
    return log_prob_grid(audio, labels, model.params.joint)


def batch_loss(items) -> Tensor:
    """Sum of negative log-probabilities over (grid, targets) pairs, one
    lattice node per example, reduced in example order."""
    total = None
    for grid, y in items:
        term = tr.rnnt_log_prob(grid, y)
        total = term if total is None else ops.add(total, term)
    return ops.neg(total)


def train_step(model, optimizer, batch, step, schedule, cfg, rng, stats=None) -> float:
    """`ttkit.train.train_step` with one graph per example, stepping this
    module's `Adam` over a dict of per-leaf gradient copies."""
    lr = lr_at(step, schedule)
    step_rng = rng.substream(f"step{step}")
    named = model.named_params()
    for _, p in named:
        p.grad = None
    fwd = noisy_model(model, cfg, step, step_rng)
    items = [(example_grid(fwd, utt.features, utt.labels, step_rng.substream(f"ex{i}")), utt.labels)
             for i, utt in enumerate(batch)]
    loss = batch_loss(items)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericsError(f"non-finite loss {value} at step {step}")
    backward(loss)
    grads = {name: (p.grad if p.grad is not None else np.zeros_like(p.values)) for name, p in named}
    norm = clip_gradients(grads, cfg.grad_clip_norm)
    optimizer.step(model, grads, lr)
    if stats is not None:
        stats.update(grad_norm=norm, clipped=norm > cfg.grad_clip_norm)
    return value
