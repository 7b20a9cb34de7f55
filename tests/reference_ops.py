"""Tensor operations that only the tests use: the primitives that the
composed references (per-head attention, composed layer norm and
log-softmax, the scalar-node lattice, the per-example training step) are
built from, the generic `add` and `matmul` among them. ttkit's own graphs
use only the fused nodes of `ttkit.tensor` and its modules; these stay as
the independent pieces those nodes are checked against: `add(matmul(x, W),
b)` is the reference for an encoder's input node `ttkit.tensor.linear`. `uniform_grid` is the input of the closed-form lattice oracle.
`multi_head_attention` is the dense attention node that scores all T x T
pairs, the reference for ttkit's blocked one, under the [T, T] window of
`build_mask`. `dropout` draws one site at a time (`dropout_scale`), the
reference for a layer's masks drawn together. `lattice_alpha` and
`lattice_beta` step each lattice diagonal over its own column range, the
bitwise reference for the full-width diagonals of `ttkit.transducer`.
`log_prob_grid` is the joint grid node whose backward makes its two
[..., T, U+1, J] temporaries whole and leaves the saved tanh as it was, the
bitwise reference for the node that writes its backward over the tanh.
`encoder_layer` is a layer composed of five nodes: a layer norm, the
attention node (`attention_node`, ttkit's attention block over a
layer-normed `Tensor`), a dropout, a residual add, and the feed-forward node
with its own layer norm, dropouts and residual (`feed_forward`). It is the
bitwise reference for ttkit's layer of two pre-norm residual nodes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ttkit import attention as att
from ttkit import tensor as tt
from ttkit import transducer as tr
from ttkit.tensor import BatchRng, Rng, ShapeError, Tensor, flat_rows, unbroadcast


def uniform_grid(T: int, U: int, V: int) -> tr.LogProbGrid:
    """The grid whose every distribution is uniform over the V symbols: the
    input of the closed-form lattice oracle."""
    return tr.LogProbGrid(Tensor(tr._log_softmax(np.zeros((T, U + 1, V)))[0]))


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values

    def bw(g):
        return unbroadcast(g, a.shape), unbroadcast(g, b.shape)

    return Tensor(out, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 1-D, 2-D or 3-D left operand (3-D: a batch of
    matrices sharing `b`) with a 1-D or 2-D right one, with the usual vector
    promotion."""
    if a.ndim not in (1, 2, 3) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1D-3D @ 1D/2D operands, got {a.shape} @ {b.shape}")
    ak = a.shape[-1]
    bk = b.shape[0]
    if ak != bk:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    out = a.values @ b.values

    def bw(g):
        av, bv = a.values, b.values
        a2 = flat_rows(av)
        b2 = bv if bv.ndim == 2 else bv[:, None]
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        ga = g2 @ b2.T
        gb = a2.T @ g2
        return ga.reshape(av.shape), gb.reshape(bv.shape)

    return Tensor(out, (a, b), bw)


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


# ------------------------------------------------------ per-site dropout

def batch_uniform(rng: BatchRng, shape) -> np.ndarray:
    """One padded draw of shape [B, T, ...]: each example's own
    [lengths[b], ...] draw stacked, zero past it."""
    out = np.zeros(shape)
    for b, (r, n) in enumerate(zip(rng.rngs, rng.lengths)):
        out[b, :n] = r.uniform((n,) + tuple(shape[2:]))
    return out


def dropout_scale(shape: tuple[int, ...], ratio: float, rng: Rng | BatchRng | None) -> np.ndarray | None:
    """One dropout site's factor per entry of `shape`: 0 for a dropped entry
    and 1/(1-ratio) for a survivor, each dropped with probability `ratio`.
    None when dropout is the identity: without an `rng` or at ratio 0."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if rng is None or ratio == 0.0:
        return None
    keep = (batch_uniform(rng, shape) if isinstance(rng, BatchRng) else rng.uniform(shape)) >= ratio
    return keep / (1.0 - ratio)


def apply_dropout(x: Tensor, scale: np.ndarray | None) -> Tensor:
    """`x` times a dropout factor; the identity for None."""
    if scale is None:
        return x
    return Tensor(x.values * scale, (x,), lambda g: (g * scale,))


def dropout(x: Tensor, ratio: float, rng: Rng | BatchRng | None) -> Tensor:
    """`x` times its `dropout_scale`; without one this is the identity."""
    return apply_dropout(x, dropout_scale(x.shape, ratio, rng))


# ------------------------------------------ the layer composed of five nodes

def attention_node(h: Tensor, layer, params, config, band, counters, lengths=None) -> Tensor:
    """`attention._banded_attention` as one graph node over h and the eight
    tensors it reads."""
    out, bw = att._banded_attention(h.values, layer, params, config, band, counters, lengths)
    parents = (h, layer.wq, layer.wk, layer.wv, layer.wo,
               params.rel_emb, params.content_bias, params.pos_bias)
    return Tensor(out, parents, bw)


def feed_forward(x: Tensor, layer, config, s1: np.ndarray | None, s2: np.ndarray | None) -> Tensor:
    """The feed-forward half of a layer as one graph node over (x, ln2 gain
    and bias, W1, b1, W2, b2): x + D2(D1(relu(LN(x) W1 + b1)) W2 + b2), with
    D1, D2 the dropout factors `s1`, `s2` when given."""
    h2, xhat, inv = tt.layer_norm_forward(x.values, layer.ln2_g.values, layer.ln2_b.values, config.ln_eps)
    pre = h2 @ layer.w1.values + layer.b1.values
    a = np.where(pre > 0, pre, 0.0)
    if s1 is not None:
        a = a * s1
    f = a @ layer.w2.values + layer.b2.values
    if s2 is not None:
        f = f * s2

    def bw(g):
        d_f = g if s2 is None else g * s2
        d_a = d_f @ layer.w2.values.T
        if s1 is not None:
            d_a = d_a * s1
        d_pre = d_a * (pre > 0)
        dx, d_gain, d_bias = tt.layer_norm_backward(d_pre @ layer.w1.values.T, layer.ln2_g.values,
                                                    xhat, inv)
        return (g + dx, d_gain, d_bias,
                flat_rows(h2).T @ flat_rows(d_pre), unbroadcast(d_pre, layer.b1.shape),
                flat_rows(a).T @ flat_rows(d_f), unbroadcast(d_f, layer.b2.shape))

    parents = (x, layer.ln2_g, layer.ln2_b, layer.w1, layer.b1, layer.w2, layer.b2)
    return Tensor(x.values + f, parents, bw)


def encoder_layer(x: Tensor, band, layer, params, config, rng=None, counters=None, lengths=None) -> Tensor:
    """`attention.encoder_layer` as five nodes: layer norm, attention,
    dropout and residual add, then the feed-forward node. The three dropout
    sites draw together as there, in the order attention, feed-forward 1,
    feed-forward 2."""
    h = tt.layer_norm(x, layer.ln1_g, layer.ln1_b, config.ln_eps)
    attn = attention_node(h, layer, params, config, band, counters, lengths)
    shapes = [attn.shape, x.shape[:-1] + (config.ff_dim1,), x.shape]
    s_attn, s1, s2 = tt.dropout_scales(shapes, config.dropout_ratio, rng) or (None,) * 3
    x = add(x, apply_dropout(attn, s_attn))
    return feed_forward(x, layer, config, s1, s2)


# ------------------------------------------- the per-range lattice diagonals

def _diagonal(d: int, T: int, U: int) -> tuple[int, int]:
    """Column range [lo, hi) of the lattice points (d-u, u) on diagonal d."""
    return max(0, d - T + 1), min(d, U) + 1


def lattice_alpha(blank: np.ndarray, emit: np.ndarray, T: int, U: int) -> np.ndarray:
    """`transducer._alpha` with the example axis first, A[b, t+u, u], each
    diagonal stepped over its lattice points only."""
    A = np.full(blank.shape[:1] + (T + U, U + 1), -np.inf)
    A[:, 0, 0] = 0.0
    for d in range(1, T + U):
        lo, hi = _diagonal(d, T, U)
        row = A[:, d - 1, lo:hi] + blank[:, d - 1, lo:hi]  # blank from (t-1, u); -inf at t = 0
        e = max(lo, 1)
        row[:, e - lo:] = np.logaddexp(row[:, e - lo:],
                                       A[:, d - 1, e - 1:hi - 1] + emit[:, d - 1, e - 1:hi - 1])
        A[:, d, lo:hi] = row
    return A


def lattice_beta(blank: np.ndarray, emit: np.ndarray, T: int, U: int, ends: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """`transducer._beta` with the example axis first, B[b, t+u, u] plus a
    -inf column U+1, each diagonal stepped over its lattice points only."""
    n = np.arange(blank.shape[0])
    B = np.full(blank.shape[:1] + (T + U + 1, U + 2), -np.inf)
    B[n, ends, lengths] = 0.0
    for d in range(T + U - 1, -1, -1):
        lo, hi = _diagonal(d, T, U)
        B[:, d, lo:hi] = np.logaddexp(blank[:, d, lo:hi] + B[:, d + 1, lo:hi],         # to (t+1, u)
                                      emit[:, d, lo:hi] + B[:, d + 1, lo + 1:hi + 1])  # to (t, u+1)
        done = ends == d  # restore the end points the recursion just overwrote
        B[n[done], d, lengths[done]] = 0.0
    return B


# -------------------------------------------- the grid with whole temporaries

def log_prob_grid(audio_acts: Tensor, label_acts: Tensor, params: tr.JointParams,
                  frames: np.ndarray | None = None) -> tr.LogProbGrid:
    """`transducer.log_prob_grid` whose backward holds the saved tanh, d_pre
    and 1 - tanh^2, each a whole [..., T, U+1, J] array, and can run again."""
    j = params
    if audio_acts.shape[-1] != j.audio_w.shape[0] or label_acts.shape[-1] != j.label_w.shape[0]:
        raise ShapeError(f"activations {audio_acts.shape} and {label_acts.shape} do not fit joint "
                         f"inputs ({j.audio_w.shape[0]}, {j.label_w.shape[0]})")
    a = audio_acts.values @ j.audio_w.values + j.audio_b.values          # [..., T, J]
    l = label_acts.values @ j.label_w.values + j.label_b.values          # [..., U+1, J]
    hid = a[..., :, None, :] + l[..., None, :, :]                         # [..., T, U+1, J]
    np.tanh(hid, out=hid)
    logits = hid @ j.out_w.values
    logits += j.out_b.values
    out, lse = tr._log_softmax(logits)

    def bw(g):
        # the [..., T, U+1, .] temporaries are reused in place: p becomes
        # d_logits, and one scratch array holds 1 - hid^2
        with np.errstate(all="ignore"):
            p = np.exp(out)
        np.copyto(p, 0.0, where=np.isneginf(lse))
        p *= g.sum(axis=-1, keepdims=True)
        d_logits = np.subtract(g, p, out=p)
        d_pre = d_logits @ j.out_w.values.T
        tanh_slope = np.multiply(hid, hid)
        d_pre *= np.subtract(1.0, tanh_slope, out=tanh_slope)
        d_a = d_pre.sum(axis=-2)                                          # over histories
        d_l = d_pre.sum(axis=-3)                                          # over frames
        return (d_a @ j.audio_w.values.T, d_l @ j.label_w.values.T,
                flat_rows(audio_acts.values).T @ flat_rows(d_a), unbroadcast(d_a, j.audio_b.shape),
                flat_rows(label_acts.values).T @ flat_rows(d_l), unbroadcast(d_l, j.label_b.shape),
                flat_rows(hid).T @ flat_rows(d_logits), unbroadcast(d_logits, j.out_b.shape))

    parents = (audio_acts, label_acts, j.audio_w, j.audio_b, j.label_w, j.label_b, j.out_w, j.out_b)
    return tr.LogProbGrid(Tensor(out, parents, bw), frames)
