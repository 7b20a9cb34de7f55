"""Tensor operations that only the tests use: the primitives that the
composed references (per-head attention, composed layer norm and
log-softmax, the scalar-node lattice, the per-example training step) are
built from. ttkit's own graphs use the fused nodes of `ttkit.tensor` and
its modules; these stay as the independent pieces those nodes are checked
against. `uniform_grid` is the input of the closed-form lattice oracle.
`multi_head_attention` is the dense attention node that scores all T x T
pairs, the reference for ttkit's blocked one, under the [T, T] window of
`build_mask`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ttkit import transducer as tr
from ttkit.tensor import ShapeError, Tensor, flat_rows, unbroadcast


def uniform_grid(T: int, U: int, V: int) -> tr.LogProbGrid:
    """The grid whose every distribution is uniform over the V symbols: the
    input of the closed-form lattice oracle."""
    return tr.LogProbGrid(Tensor(tr._log_softmax(np.zeros((T, U + 1, V)))[0]))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.values - b.values

    def bw(g):
        return unbroadcast(g, a.shape), unbroadcast(-g, b.shape)

    return Tensor(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values

    def bw(g):
        return unbroadcast(g * b.values, a.shape), unbroadcast(g * a.values, b.shape)

    return Tensor(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.values, (a,), lambda g: (-g,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    keep = a.values > 0
    return Tensor(np.where(keep, a.values, 0.0), (a,), lambda g: (g * keep,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.values), (a,), lambda g: (g / a.values,))


def powc(a: Tensor, p: float) -> Tensor:
    """Raise to a constant power."""
    out = np.power(a.values, p)
    return Tensor(out, (a,), lambda g: (g * p * np.power(a.values, p - 1.0),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out, (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def reshape(a: Tensor, shape) -> Tensor:
    out = a.values.reshape(shape)
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.values, axes)
    inv = None if axes is None else np.argsort(axes)
    return Tensor(out, (a,), lambda g: (np.transpose(g, inv),))


def getitem(a: Tensor, key) -> Tensor:
    out = a.values[key]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out, dtype=np.float64)

    def bw(g):
        ga = np.zeros_like(a.values)
        ga[key] += g
        return (ga,)

    return Tensor(out, (a,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(parts)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor(out, tuple(parts), bw)


def gather_cols(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row column gather: out[i, j] = a[i, idx[i, j]] for a 2D tensor."""
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_cols needs 2D operands with equal row counts, got {a.shape} and {idx.shape}")
    out = np.take_along_axis(a.values, idx, axis=1)

    def bw(g):
        ga = np.zeros_like(a.values)
        rows = np.arange(a.shape[0])[:, None]
        np.add.at(ga, (rows, idx), g)
        return (ga,)

    return Tensor(out, (a,), bw)


def apply_mask(a: Tensor, mask: np.ndarray) -> Tensor:
    """Keep entries where `mask` is true, set the rest to -inf.

    The only sanctioned source of infinities in a graph: downstream softmax /
    logsumexp treat -inf as zero probability and propagate zero gradient.
    """
    out = np.where(mask, a.values, -np.inf)
    return Tensor(out, (a,), lambda g: (np.where(mask, g, 0.0),))


def logsumexp(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along one axis.

    Rows of all -inf reduce to -inf with zero gradient. An empty axis is an
    error (the reduction has no identity in log space).
    """
    if a.shape[axis] == 0:
        raise ShapeError(f"logsumexp over empty axis {axis} of shape {a.shape}")
    m = np.max(a.values, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a.values - m_safe)
    s = e.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out_k = m_safe + np.log(s)
    out_k = np.where(np.isfinite(m), out_k, m)  # all -inf rows stay -inf
    out = out_k if keepdims else np.squeeze(out_k, axis=axis)

    def bw(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        with np.errstate(invalid="ignore"):
            w = np.where(s > 0, e / s, 0.0)
        return (gk * w,)

    return Tensor(out, (a,), bw)


def logaddexp(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise log(exp(a) + exp(b)), stable, broadcasting like add."""
    out = np.logaddexp(a.values, b.values)

    def bw(g):
        with np.errstate(invalid="ignore"):
            wa = np.where(np.isneginf(out), 0.0, np.exp(a.values - out))
            wb = np.where(np.isneginf(out), 0.0, np.exp(b.values - out))
        return unbroadcast(g * wa, a.shape), unbroadcast(g * wb, b.shape)

    return Tensor(out, (a, b), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """One node: a - logsumexp(a). The backward is g - softmax * sum(g).

    Non-finite logits give NaN (a +inf entry, a row of all -inf) without
    floating-point warnings; the caller's finiteness checks report them.
    """
    with np.errstate(all="ignore"):
        m = np.max(a.values, axis=axis, keepdims=True)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        lse = m_safe + np.log(np.exp(a.values - m_safe).sum(axis=axis, keepdims=True))
        lse = np.where(np.isfinite(m), lse, m)
        out = a.values - lse

    def bw(g):
        with np.errstate(all="ignore"):
            p = np.where(np.isneginf(lse), 0.0, np.exp(out))
            return (g - p * g.sum(axis=axis, keepdims=True),)

    return Tensor(out, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    return exp(log_softmax(a, axis=axis))


# ------------------------------------------------- the dense attention node

def build_mask(seq_len: int, mask) -> np.ndarray:
    """Boolean [seq_len, seq_len] matrix of an `AttentionMask`; entry (i, j)
    true iff i - left <= j <= i + right, a None side unbounded. The diagonal
    is always true."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    offset = np.arange(seq_len)[:, None] - np.arange(seq_len)  # i - j
    left = seq_len if mask.left is None else mask.left
    right = seq_len if mask.right is None else mask.right
    return (offset <= left) & (offset >= -right)


def batch_mask(window: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """[B, 1, T, T]: the [T, T] `window` joined with each example's key-length
    mask, for a batch padded to T whose example b fills its first lengths[b]
    rows. A padded query keeps its whole window, so its softmax row is never
    empty."""
    valid = np.arange(window.shape[0]) < np.asarray(lengths)[:, None]  # [B, T]
    return (window & (valid[:, None, :] | ~valid[:, :, None]))[:, None]


def multi_head_attention(h, layer, params, config, mask_bool, counters, lengths=None) -> Tensor:
    """All heads of windowed relative-position self-attention as one graph
    node over h [T, d], or over a padded batch [B, T, d] with per-example
    `lengths` and a `batch_mask`, scoring all T x T pairs. Heads run as
    [..., H, T, head_dim] matmuls, and the backward is closed-form over the
    eight parents. A batch counts each example's own T_b^2 scores per head."""
    H, dh, t = config.num_heads, config.head_dim, h.shape[-2]

    def split(a):  # [..., T, H*dh] -> [..., H, T, dh]
        return a.reshape(a.shape[:-1] + (H, dh)).swapaxes(-2, -3)

    def merge(a):  # [..., H, T, dh] -> [..., T, H*dh]
        return a.swapaxes(-2, -3).reshape(a.shape[:-3] + (t, H * dh))

    if counters is not None:
        rows = np.full(h.shape[:-2], t) if lengths is None else np.asarray(lengths)
        counters.attention_scores += H * int((rows * rows).sum())
    wq, wk, wv, wo, rel = (w.values for w in (layer.wq, layer.wk, layer.wv, layer.wo, params.rel_emb))
    q, k, v = (split(h.values @ w) for w in (wq, wk, wv))
    m = config.rel_offset
    idx = np.minimum(np.maximum(np.arange(t)[:, None] - np.arange(t)[None, :], -m), m) + m
    qc = q + params.content_bias.values[:, None, :]
    qp = q + params.pos_bias.values[:, None, :]
    scale = 1.0 / math.sqrt(dh)
    pos = (qp @ rel.transpose(0, 2, 1))[..., np.arange(t)[:, None], idx]
    scores = (qc @ k.swapaxes(-1, -2) + pos) * scale
    if mask_bool is not None:
        scores = np.where(mask_bool, scores, -np.inf)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    weights = e / np.sum(e, axis=-1, keepdims=True)  # [..., H, T, T]
    heads = merge(weights @ v)

    def bw(g):
        d_heads = split(g @ wo.T)
        d_weights = d_heads @ v.swapaxes(-1, -2)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)) * scale
        # each score row's gradient summed into the clipped offsets its columns take
        n_rows, n_off = d_scores.size // t, rel.shape[1]
        slots = (np.arange(n_rows).reshape(*d_scores.shape[:-1], 1) * n_off + idx).ravel()
        d_pos = np.bincount(slots, d_scores.ravel(), n_rows * n_off).reshape(*d_scores.shape[:-1], n_off)
        d_qc, d_qp = d_scores @ k, d_pos @ rel
        d_q = merge(d_qc + d_qp)
        d_k = merge(d_scores.swapaxes(-1, -2) @ qc)
        d_v = merge(weights.swapaxes(-1, -2) @ d_heads)
        hr = flat_rows(h.values)
        return (
            d_q @ wq.T + (d_k @ wk.T + d_v @ wv.T),
            hr.T @ flat_rows(d_q),
            hr.T @ flat_rows(d_k),
            hr.T @ flat_rows(d_v),
            flat_rows(heads).T @ flat_rows(g),
            unbroadcast(d_pos.swapaxes(-1, -2) @ qp, params.rel_emb.shape),
            unbroadcast(d_qc.sum(axis=-2), params.content_bias.shape),
            unbroadcast(d_qp.sum(axis=-2), params.pos_bias.shape),
        )

    parents = (h, layer.wq, layer.wk, layer.wv, layer.wo,
               params.rel_emb, params.content_bias, params.pos_bias)
    return Tensor(heads @ wo, parents, bw)
