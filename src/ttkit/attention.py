"""Transformer encoder stack with windowed attention and relative positions.

The same stack serves audio and label encoding. Each layer sees a left/right
context window (`AttentionMask`), and attention scores carry a learned
relative-position term indexed by the clipped query-key offset plus two
global bias vectors, so scores depend on content and relative offset only.
That offset-only dependence is what makes cached streaming inference exact:
a window's encoding is the same at any absolute position.

`encode` runs one sequence [T, d] or a padded batch [B, T, d] with
per-example lengths through the same code: a layer is two graph nodes
whatever B, T and the head count, each the pre-norm residual rule x +
dropout(block(LN(x))) with a closed-form backward (`_residual`) around a
block of plain arrays: all heads of attention (`_banded_attention`), then
the feed-forward layers (`_feed_forward`). The attention block cuts the
queries into the blocks of a `Band` and scores each block only against the
keys its window reaches, under the window mask joined with each example's
key-length mask. `band` picks the block size once per stack call, from T
and the mask alone: a finite window past the measured crossover
(`BANDED_MIN_EXTRA_ROWS`) gets blocks of left + right rows, so a layer
costs O(T * window) instead of O(T^2); shorter sequences and unbounded
windows get one block of all T rows, which scores all T x T pairs.
A layer keeps for its backward only what the graph cannot rebuild bit for
bit: each node keeps its layer norm's inv and a bool dropout mask, and its
backward rebuilds x̂, LN(x) and the dropout factor from them and the
node's input by the forward's own ops; the attention block keeps its
blocked queries, the key and value chunks that its windows view without
copying (`_windows`) and the softmax weights, and rebuilds the biased
queries and the merged heads; the feed-forward block keeps its
activations after the ReLU.
The streaming `encoder_layer_step` builds no graph and projects nothing:
each input row's query, key and value come from `qkv_row`, computed once
when the row arrives (one call over the stacked `qkv_weights`, three
one-row products), and the step reads its window's keys and values as one
[3, Tk, H*dh] array, in the audio stream a slice of a per-layer buffer. It
attends as one block holding one query; a stack of such rows, each with its
own window, runs the same one-row products in one call. The nodes and the
step run one attention forward (`_attend`) over one cached relative-offset
table (`_offset_index`), one feed-forward block (`_feed_forward`) and one
closing rule (`final_norm`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as tt
from .tensor import BatchRng, ParamSpec, ParamTree, ShapeError, Tensor, flat_rows, unbroadcast


@dataclass(frozen=True)
class AttentionMask:
    """Per-layer context window: position i may attend j iff
    i - left <= j <= i + right. `None` lifts the bound on that side."""

    left: int | None
    right: int | None

    def __post_init__(self):
        for side, value in (("left", self.left), ("right", self.right)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 0):
                raise ValueError(f"mask {side} must be a non-negative int or None, got {value!r}")

    @property
    def is_finite(self) -> bool:
        return self.left is not None and self.right is not None


def _in_window(offset: np.ndarray, mask: AttentionMask) -> np.ndarray:
    """True where a query may attend a key `offset` = i - j rows before it."""
    allowed = np.ones(offset.shape, dtype=bool)
    if mask.left is not None:
        allowed &= offset <= mask.left
    if mask.right is not None:
        allowed &= offset >= -mask.right
    return allowed


@dataclass
class EncoderConfig:
    num_layers: int
    model_dim: int
    ff_dim1: int
    ff_dim2: int
    num_heads: int
    head_dim: int
    mask: AttentionMask
    input_dim: int
    dropout_ratio: float = 0.1
    max_relative_offset: int | None = None  # None: derived as left + right
    ln_eps: float = 1e-5
    final_layer_norm: bool = True

    def __post_init__(self):
        for name in ("model_dim", "ff_dim1", "ff_dim2", "num_heads", "head_dim", "input_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {self.num_layers}")
        if self.max_relative_offset is not None and self.max_relative_offset < 0:
            raise ValueError(f"max_relative_offset must be >= 0, got {self.max_relative_offset}")
        if not 0.0 <= self.dropout_ratio < 1.0:
            raise ValueError(f"dropout_ratio must be in [0, 1), got {self.dropout_ratio}")
        if not 0.0 < self.ln_eps < math.inf:
            raise ValueError(f"ln_eps must be positive and finite, got {self.ln_eps}")
        if self.ff_dim2 != self.model_dim:
            raise ValueError(
                f"ff_dim2 ({self.ff_dim2}) must equal model_dim ({self.model_dim}) for the residual")

    @property
    def rel_offset(self) -> int:
        if self.max_relative_offset is not None:
            return self.max_relative_offset
        if not self.mask.is_finite:
            raise ValueError("max_relative_offset is required with an unbounded mask")
        return self.mask.left + self.mask.right


@dataclass
class LayerParams(ParamTree):
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor


@dataclass
class EncoderParams(ParamTree):
    """Weights for one encoder stack.

    Relative-position parameters (`rel_emb`, per head over clipped offsets,
    plus per-head content/position bias vectors) depend only on the offset
    i - j, never on absolute index.
    """

    input_w: Tensor
    input_b: Tensor
    layers: list[LayerParams]
    rel_emb: Tensor      # [num_heads, 2 * rel_offset + 1, head_dim]
    content_bias: Tensor  # [num_heads, head_dim]
    pos_bias: Tensor      # [num_heads, head_dim]
    final_g: Tensor
    final_b: Tensor


def encoder_param_spec(config: EncoderConfig, stream: tuple[str, ...] = ()) -> EncoderParams:
    """The stack's parameters as `ParamSpec` leaves. Random ones draw from
    substreams of `stream` labeled by their name within the stack."""
    d, H, dh = config.model_dim, config.num_heads, config.head_dim
    hd, ff1, ff2 = H * dh, config.ff_dim1, config.ff_dim2

    def dense(label: str, fan_in: int, fan_out: int) -> ParamSpec:
        return ParamSpec((fan_in, fan_out), 1.0 / math.sqrt(fan_in), stream + (label,))

    return EncoderParams(
        input_w=dense("input_w", config.input_dim, d),
        input_b=ParamSpec((d,)),
        layers=[LayerParams(
            wq=dense(f"layer{i}.wq", d, hd), wk=dense(f"layer{i}.wk", d, hd),
            wv=dense(f"layer{i}.wv", d, hd), wo=dense(f"layer{i}.wo", hd, d),
            w1=dense(f"layer{i}.w1", d, ff1), b1=ParamSpec((ff1,)),
            w2=dense(f"layer{i}.w2", ff1, ff2), b2=ParamSpec((ff2,)),
            ln1_g=ParamSpec((d,), "ones"), ln1_b=ParamSpec((d,)),
            ln2_g=ParamSpec((d,), "ones"), ln2_b=ParamSpec((d,)),
        ) for i in range(config.num_layers)],
        rel_emb=ParamSpec((H, 2 * config.rel_offset + 1, dh), 0.02, stream + ("rel_emb",)),
        content_bias=ParamSpec((H, dh)),
        pos_bias=ParamSpec((H, dh)),
        final_g=ParamSpec((d,), "ones"),
        final_b=ParamSpec((d,)),
    )


class Counters:
    """Evaluation counters for constant-work assertions. Not synchronized;
    meaningful when a single stream or call sequence owns the model."""

    def __init__(self):
        self.attention_scores = 0
        self.joint_evals = 0


def _split(a: np.ndarray, config: EncoderConfig) -> np.ndarray:  # [..., T, H*dh] -> [..., H, T, dh]
    return a.reshape(a.shape[:-1] + (config.num_heads, config.head_dim)).swapaxes(-2, -3)


def _merge(a: np.ndarray) -> np.ndarray:  # [..., H, T, dh] -> [..., T, H*dh]
    return a.swapaxes(-2, -3).reshape(a.shape[:-3] + (a.shape[-2], a.shape[-3] * a.shape[-1]))


def _flat(a: np.ndarray) -> np.ndarray:  # [..., n_blocks, rows, n] -> [..., n_blocks * rows, n]
    return a.reshape(a.shape[:-3] + (a.shape[-3] * a.shape[-2], a.shape[-1]))


@functools.lru_cache(maxsize=128)
def _offset_index(rows: int, front: int, width: int, max_offset: int) -> np.ndarray:
    """[rows, width]: where query row r of a block reads its position score
    for window column w among the block's per-head scores [rows, R], R = 2 *
    max_offset + 1, flattened: r * R + o(r, w) + max_offset, with o(r, w)
    the offset r + front - w clipped to [-max_offset, max_offset].
    Read-only, and shared by every call with the same arguments. The cache
    is bounded: a label state's window grows with its history under
    `label_left` null, and a one-block table is T x T."""
    n_off = 2 * max_offset + 1
    r = np.arange(rows)[:, None]
    idx = r * n_off + np.clip(r + front - np.arange(width), -max_offset, max_offset) + max_offset
    idx.setflags(write=False)
    return idx


def _attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    params: EncoderParams,
    config: EncoderConfig,
    idx: np.ndarray,
    allowed: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed relative-position attention of blocked queries q [..., H,
    n_blocks, rows, dh] against their blocks' windows of keys and values
    k, v [..., H, n_blocks, width, dh].

    Per head, score(r, w) = [(q_r + content_bias) . k_w + (q_r + pos_bias)
    . r_{o(r, w)}] / sqrt(head_dim), with o(r, w) the clipped offset read
    through `idx` (`_offset_index`), the same for every block; only the
    offset enters, so shifting both positions leaves the scores unchanged.
    Scores outside `allowed` get zero weight. Returns the softmax weights
    [..., H, n_blocks, rows, width] and the weighted values with the blocks'
    rows in sequence, [..., H, n_blocks * rows, dh]. The attention block and
    the streaming step both run this forward.
    """
    rel = params.rel_emb.values                            # [H, R, dh]
    qc, qp = _biased(q, params)
    pos = (_flat(qp) @ rel.swapaxes(-1, -2)).reshape(q.shape[:-2] + (-1,))  # [..., H, n_blocks, rows * R]
    scores = qc @ k.swapaxes(-1, -2)
    scores += pos.take(idx, axis=-1)
    scores *= 1.0 / math.sqrt(config.head_dim)
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    weights = e / np.add.reduce(e, axis=-1, keepdims=True)  # [..., H, n_blocks, rows, width]
    return weights, _flat(weights @ v)


def _biased(q: np.ndarray, params: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """`_attend`'s content and position queries of blocked queries q [..., H,
    n_blocks, rows, dh]: q plus each head's content and position bias."""
    return (q + params.content_bias.values[:, None, None, :],
            q + params.pos_bias.values[:, None, None, :])


def _offset_grads(d_scores: np.ndarray, idx: np.ndarray, n_off: int) -> np.ndarray:
    """Sum each score row's gradient into the clipped offsets its columns
    take, through the `_offset_index` table `idx`: [..., n_blocks, rows,
    width] -> [..., n_blocks * rows, n_off]."""
    n_tables = d_scores.size // idx.size  # one per head and block
    table = idx.shape[0] * n_off
    slots = (np.arange(n_tables).reshape(*d_scores.shape[:-2], 1, 1) * table + idx).ravel()
    return np.bincount(slots, d_scores.ravel(), n_tables * table).reshape(*d_scores.shape[:-3], -1, n_off)


# A finite window is cut into blocks once T reaches the 2 * (left + right)
# columns a blocked row scores plus this many; shorter sequences and
# unbounded windows run as one block. It is the measured break-even of the
# two forms' forward plus backward (B = 4, H = 2, head_dim = 16, numpy 2.4
# with one OpenBLAS thread, 2-vCPU x86_64): mask 10/0 at T = 40-50, 2/0 at
# 30-40, 10/2 at 50-56 and 16/4 at 64-72.
BANDED_MIN_EXTRA_ROWS = 32


@dataclass(frozen=True)
class Band:
    """How the attention block cuts T rows into blocks: block b holds query
    rows b*rows .. b*rows + rows - 1, and its window is the `span` chunks of
    `rows` keys from key row b*rows - front on, zero keys standing in past
    either end. `allowed` [..., 1, n_blocks, rows, span * rows] marks the
    window columns each query may attend."""

    rows: int
    n_blocks: int
    span: int
    front: int
    allowed: np.ndarray


def band(t: int, mask: AttentionMask, lengths: Sequence[int] | None = None) -> Band:
    """The `Band` each layer of a stack attends under over T rows, or over a
    batch padded to T whose example b fills its first lengths[b] rows.

    A finite window past the crossover `BANDED_MIN_EXTRA_ROWS` gets blocks
    of C = left + right rows whose windows start `front` = left rows early,
    so a row scores C + left + right keys instead of T. Shorter sequences
    and unbounded windows get one block of all T rows with `front` = 0.
    Query i = b*rows + r meets key j = b*rows + w - front at window column
    w. A valid query may attend its example's keys inside its window. A
    padded query keeps its window, and a query past T (block padding) keeps
    it over the zero keys, so no softmax row is empty."""
    if t < 1:
        raise ValueError(f"seq_len must be >= 1, got {t}")
    if mask.is_finite and t >= 2 * (mask.left + mask.right) + BANDED_MIN_EXTRA_ROWS:
        rows, front = max(mask.left + mask.right, 1), mask.left
        n_blocks, span = -(-t // rows), -(-(rows + mask.left + mask.right) // rows)
    else:
        rows, front, n_blocks, span = t, 0, 1, 1
    r, w = np.arange(rows)[:, None], np.arange(span * rows)
    i = np.arange(n_blocks)[:, None] * rows + np.arange(rows)              # [n_blocks, rows]
    j = (np.arange(n_blocks)[:, None] * rows + w - front)[:, None, :]      # [n_blocks, 1, width]
    n = np.asarray(t if lengths is None else lengths)[..., None, None]
    key_end = np.where(i < n, n, np.where(i < t, t, j.max() + 1))[..., None]
    allowed = (_in_window(r + front - w, mask) & (j >= 0)) & (j < key_end)  # [..., n_blocks, rows, width]
    return Band(rows, n_blocks, span, front, np.expand_dims(allowed, -4))


def _chunks(a: np.ndarray, front: int, n_chunks: int, rows: int) -> np.ndarray:
    """[..., T, n] -> [..., n_chunks, rows, n]: `a` zero-padded with `front`
    rows before it and enough after it, cut into chunks of `rows` rows. A
    view when no padding is needed."""
    shape = a.shape[:-2] + (n_chunks, rows, a.shape[-1])
    if front == 0 and n_chunks * rows == a.shape[-2]:
        return a.reshape(shape)
    out = np.zeros(a.shape[:-2] + (n_chunks * rows, a.shape[-1]))
    out[..., front:front + a.shape[-2], :] = a
    return out.reshape(shape)


def _windows(chunks: np.ndarray, n_blocks: int, span: int) -> np.ndarray:
    """[..., n_blocks + span - 1, C, n] -> [..., n_blocks, span * C, n]: block
    b's window is the `span` chunks from chunk b on. A read-only view that
    steps C rows per block over the chunks' rows, so the windows share rows
    and copy none."""
    if span == 1:
        return chunks
    rows = chunks.shape[-2]
    slides = np.lib.stride_tricks.sliding_window_view(_flat(chunks), span * rows, axis=-2)
    return slides[..., ::rows, :, :].swapaxes(-1, -2)


def _unwindow(d: np.ndarray, span: int) -> np.ndarray:
    """The adjoint of `_windows`, flattened: each window row's gradient
    summed back into the chunk row it was read from, [..., chunk rows, n]."""
    if span == 1:
        return _flat(d)
    n_blocks, rows = d.shape[-3], d.shape[-2] // span
    out = np.zeros(d.shape[:-3] + (n_blocks + span - 1, rows, d.shape[-1]))
    for a in range(span):
        out[..., a:a + n_blocks, :, :] += d[..., a * rows:(a + 1) * rows, :]
    return _flat(out)


def _banded_attention(
    h: np.ndarray,
    layer: LayerParams,
    params: EncoderParams,
    config: EncoderConfig,
    band: Band,
) -> tuple[np.ndarray, Callable]:
    """All heads of windowed relative-position self-attention over h [T, d],
    or over a padded batch [B, T, d] whose key-length masks `band` holds,
    cut into the blocks of `band`: the output and its closed-form backward,
    which takes the upstream gradient and h again.

    The q/k/v projections feed `_attend`: each block of queries against
    the keys and values of its window, and the concatenated heads are
    projected by wo. The offset from a block's query row r to its window
    column w is r + front - w, whatever the block, so all blocks share one
    offset table. Heads run as [..., H, n_blocks, rows, head_dim] matmuls;
    the backward gives the gradients of (h, wq, wk, wv, wo, rel_emb,
    content_bias, pos_bias). It keeps the blocked queries, the keys' and
    values' chunks under their windows (`_windows`) and the softmax weights,
    and rebuilds the biased queries and the merged heads by the forward's
    ops.
    """
    t, rows, n_blocks, span, front = h.shape[-2], band.rows, band.n_blocks, band.span, band.front
    q, k, v = (_split(h @ w.values, config) for w in (layer.wq, layer.wk, layer.wv))
    qb = _chunks(q, 0, n_blocks, rows)
    kb, vb = (_windows(_chunks(a, front, n_blocks + span - 1, rows), n_blocks, span) for a in (k, v))
    idx = _offset_index(rows, front, span * rows, config.rel_offset)
    weights, heads = _attend(qb, kb, vb, params, config, idx, band.allowed)
    rel = params.rel_emb.values
    scale = 1.0 / math.sqrt(config.head_dim)

    def bw(g, h):
        qc, qp = _biased(qb, params)
        merged = _merge(_flat(weights @ vb)[..., :t, :])  # `_attend`'s last product
        d_heads = _chunks(_split(g @ layer.wo.values.T, config), 0, n_blocks, rows)
        d_weights = d_heads @ vb.swapaxes(-1, -2)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)) * scale
        d_pos = _offset_grads(d_scores, idx, rel.shape[1])
        d_k, d_v = (_unwindow(d, span)[..., front:front + t, :]
                    for d in (d_scores.swapaxes(-1, -2) @ qc, weights.swapaxes(-1, -2) @ d_heads))
        # rows past T carry no gradient, so only the queries' gradients are cut to T rows
        d_qc, d_qp = _flat(d_scores @ kb)[..., :t, :], (d_pos @ rel)[..., :t, :]
        d_q, d_k, d_v = _merge(d_qc + d_qp), _merge(d_k), _merge(d_v)
        hr = flat_rows(h)
        return (
            d_q @ layer.wq.values.T + (d_k @ layer.wk.values.T + d_v @ layer.wv.values.T),
            hr.T @ flat_rows(d_q),
            hr.T @ flat_rows(d_k),
            hr.T @ flat_rows(d_v),
            flat_rows(merged).T @ flat_rows(g),
            unbroadcast(d_pos.swapaxes(-1, -2) @ _flat(qp), params.rel_emb.shape),
            unbroadcast(d_qc.sum(axis=-2), params.content_bias.shape),
            unbroadcast(d_qp.sum(axis=-2), params.pos_bias.shape),
        )

    return _merge(heads[..., :t, :]) @ layer.wo.values, bw


def _relu(pre: np.ndarray) -> np.ndarray:
    """max(pre, 0) in place, with the bits of `where(pre > 0, pre, 0.0)`:
    NaN and -0.0 become +0.0, +inf and positive subnormals stay. `fmax`
    alone may keep -0.0; adding +0.0 turns it into +0.0 and changes no
    other value. (A signalling NaN, which no arithmetic op yields, would
    come out NaN.)"""
    np.fmax(pre, 0.0, out=pre)
    pre += 0.0
    return pre


def _feed_forward(h: np.ndarray, layer: LayerParams, keep1: np.ndarray | None = None, ratio: float = 0.0):
    """The feed-forward block over rows h, D1(relu(h W1 + b1)) W2 + b2 with
    D1 the dropout factor of the keep mask `keep1` at `ratio` when given:
    the output and its closed-form backward, which takes the upstream
    gradient and h again, to the gradients of (h, W1, b1, W2, b2). The
    backward masks by `a > 0`, which is `pre > 0` wherever it matters: the
    factor is 0 or at least 1, and where it is 0 the incoming `d_a` times it
    is already ±0 or NaN under either mask."""
    a = _relu(h @ layer.w1.values + layer.b1.values)
    if keep1 is not None:
        a *= tt.dropout_factor(keep1, ratio)

    def bw(d_f, h):
        d_a = d_f @ layer.w2.values.T
        if keep1 is not None:
            d_a *= tt.dropout_factor(keep1, ratio)
        d_pre = d_a * (a > 0)
        return (d_pre @ layer.w1.values.T,
                flat_rows(h).T @ flat_rows(d_pre), unbroadcast(d_pre, layer.b1.shape),
                flat_rows(a).T @ flat_rows(d_f), unbroadcast(d_f, layer.b2.shape))

    return a @ layer.w2.values + layer.b2.values, bw


def _residual(x: Tensor, gain: Tensor, bias: Tensor, config: EncoderConfig, keep: np.ndarray | None,
              block: Callable, weights: Sequence[Tensor]) -> Tensor:
    """A pre-norm residual block, x + D(block(LN(x))), as one graph node over
    (x, gain, bias, *weights): LN the layer norm by `gain` and `bias`, D the
    dropout factor of the keep mask `keep` when given. `block` maps the
    normed rows h to its output and a backward from the upstream gradient
    and h to the gradients of h and `weights`. The node keeps only LN's inv:
    its backward rebuilds x̂ and h from x (`tt.layer_norm_rebuild`) and the
    factor from `keep`, bit for bit."""
    h, inv = tt.layer_norm_forward(x.values, gain.values, bias.values, config.ln_eps)
    out, block_bw = block(h)
    if keep is not None:
        out *= tt.dropout_factor(keep, config.dropout_ratio)

    def bw(g):
        h, xhat = tt.layer_norm_rebuild(x.values, gain.values, bias.values, inv)
        d_out = g if keep is None else g * tt.dropout_factor(keep, config.dropout_ratio)
        d_h, *d_weights = block_bw(d_out, h)
        dx, d_gain, d_bias = tt.layer_norm_backward(d_h, gain.values, xhat, inv)
        return (g + dx, d_gain, d_bias, *d_weights)

    return Tensor(x.values + out, (x, gain, bias, *weights), bw)


def encoder_layer(
    x: Tensor,
    band: Band,
    layer: LayerParams,
    params: EncoderParams,
    config: EncoderConfig,
    rng: BatchRng | None = None,
) -> Tensor:
    """One encoder layer over rows [T, d] or a padded batch [B, T, d]: two
    `_residual` nodes, the first around windowed multi-head attention in
    the blocks of `band` (see `band`), the second around the feed-forward
    block. Training gives a padded batch and its `BatchRng`: the three
    dropouts draw together, in the order attention, feed-forward 1,
    feed-forward 2. It counts nothing: `encode` counts a stack's scores."""
    if x.shape[-1] != config.model_dim:
        raise ShapeError(f"layer input dim {x.shape[-1]} != model_dim {config.model_dim}")
    shapes = [x.shape, x.shape[:-1] + (config.ff_dim1,), x.shape]
    k_attn, k1, k2 = tt.dropout_masks(shapes, config.dropout_ratio, rng) or (None,) * 3
    x = _residual(x, layer.ln1_g, layer.ln1_b, config, k_attn,
                  lambda h: _banded_attention(h, layer, params, config, band),
                  (layer.wq, layer.wk, layer.wv, layer.wo, params.rel_emb, params.content_bias, params.pos_bias))
    return _residual(x, layer.ln2_g, layer.ln2_b, config, k2,
                     lambda h: _feed_forward(h, layer, k1, config.dropout_ratio),
                     (layer.w1, layer.b1, layer.w2, layer.b2))


def final_norm(h: Tensor | np.ndarray, config: EncoderConfig,
               params: EncoderParams) -> Tensor | np.ndarray:
    """The stack's closing LayerNorm, applied with `final_layer_norm` to a
    stack of at least one layer: to a graph `Tensor` in batch `encode`, to a
    plain row in the streaming step."""
    if not (config.final_layer_norm and config.num_layers > 0):
        return h
    if isinstance(h, Tensor):
        return tt.layer_norm(h, params.final_g, params.final_b, config.ln_eps)
    return tt.layer_norm_forward(h, params.final_g.values, params.final_b.values, config.ln_eps)[0]


def encode(
    x: Tensor,
    config: EncoderConfig,
    params: EncoderParams,
    rng: BatchRng | None = None,
    counters: Counters | None = None,
    lengths: Sequence[int] | None = None,
) -> Tensor:
    """Project the input to model_dim (one `linear` node), run the full
    layer stack under the shared mask and close with `final_norm`. `x` is
    one sequence's rows [T, input_dim], or a batch padded to [B, T,
    input_dim] whose example b fills its first lengths[b] rows, as training
    passes it with its `BatchRng`; a padded row never reaches a valid one.
    `counters` gain the stack's attention scores once, L * H * sum(n^2) over
    layers, heads and each example's own length n (T for one sequence)."""
    if x.shape[-1] != config.input_dim:
        raise ShapeError(f"encode input dim {x.shape[-1]} != config input_dim {config.input_dim}")
    t = x.shape[-2]
    h = tt.linear(x, params.input_w, params.input_b)
    blocks = band(t, config.mask, lengths) if params.layers else None
    if counters is not None:
        n = np.full(x.shape[:-2], t) if lengths is None else np.asarray(lengths)
        counters.attention_scores += len(params.layers) * config.num_heads * int((n * n).sum())
    for i, layer in enumerate(params.layers):
        h = encoder_layer(h, blocks, layer, params, config, rng.substream(f"layer{i}") if rng else None)
    return final_norm(h, config, params)


def qkv_weights(layer: LayerParams) -> np.ndarray:
    """`layer`'s query, key and value weights stacked, [3, model_dim,
    num_heads * head_dim]. A copy: build it again after the weights change."""
    return np.stack([layer.wq.values, layer.wk.values, layer.wv.values])


def qkv_row(row: np.ndarray, layer: LayerParams, weights: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """What the streaming step needs of one input row of `layer`, computed
    once when the row arrives: the query, key and value of its ln1 output,
    [3, num_heads * head_dim], from the layer's `qkv_weights`. One call runs
    the three one-row products, each with the shapes of its own weight, so
    each row is bit-identical to the product by that weight alone. A stack
    of rows [K, 1, model_dim] gives [K, 3, num_heads * head_dim] from the
    same one-row products."""
    h = tt.layer_norm_forward(row, layer.ln1_g.values, layer.ln1_b.values, config.ln_eps)[0]
    return h @ weights if h.ndim == 1 else (h[:, None] @ weights)[:, :, 0]


def encoder_layer_step(
    x_row: np.ndarray,
    window: np.ndarray,
    q_local: int,
    layer: LayerParams,
    params: EncoderParams,
    config: EncoderConfig,
    counters: Counters | None = None,
) -> np.ndarray:
    """`encoder_layer`'s output row for the input row `x_row`, without a
    graph. `window` [3, Tk, num_heads * head_dim] holds the `qkv_row`s of
    the inputs that position may attend, `x_row`'s own at index `q_local`;
    scores depend only on offsets, so the work is bounded by the window size
    however much stream history precedes it.

    A stack of K rows [K, 1, model_dim] with windows [K, 3, Tk, num_heads *
    head_dim], each row's own at `q_local`, gives the K output rows [K, 1,
    model_dim]. Every product then runs as [K, ..., 1, n] @ [n, m], whose
    rows equal the one-row products bit for bit on this numpy/OpenBLAS
    build; the rows of a [K, n] @ [n, m] product do not."""
    lead, tk = window.shape[:-3], window.shape[-2]  # lead: () for one row, (K,) for a stack
    if counters is not None:
        counters.attention_scores += config.num_heads * tk * math.prod(lead)
    # one block holding one query, whose heads [H, 1, dh] flatten in order
    q = window[..., 0, q_local, :].reshape(lead + (config.num_heads, 1, 1, config.head_dim))
    kv = _split(window[..., 1:, :, :], config)[..., None, :, :]  # [..., 2, H, 1, Tk, dh]
    idx = _offset_index(1, q_local, tk, config.rel_offset)
    heads = _attend(q, kv[..., 0, :, :, :, :], kv[..., 1, :, :, :, :], params, config, idx, None)[-1]
    x = x_row + heads.reshape(x_row.shape[:-1] + (-1,)) @ layer.wo.values
    h = tt.layer_norm_forward(x, layer.ln2_g.values, layer.ln2_b.values, config.ln_eps)[0]
    return x + _feed_forward(h, layer)[0]


@dataclass(frozen=True)
class ReceptiveField:
    past_frames: float
    future_frames: float
    future_latency_ms: float


def receptive_field(num_layers: int, mask: AttentionMask, frame_ms: float) -> ReceptiveField:
    """Aggregate per-layer context over a stack: each layer extends reach by
    (left, right), so look-ahead latency is num_layers * right * frame_ms.
    Unlimited sides are reported as unbounded (inf); a stack of no layers
    sees only the current row, whatever the mask."""
    def reach(side: int | None) -> float:
        if side is None:
            return math.inf if num_layers else 0
        return num_layers * side

    future = reach(mask.right)
    return ReceptiveField(reach(mask.left), future, future * frame_ms)
