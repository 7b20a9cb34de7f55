"""Transformer encoder stack with windowed attention and relative positions.

The same stack serves audio and label encoding. Each layer sees a left/right
context window (`AttentionMask`), and attention scores carry a learned
relative-position term indexed by the clipped query-key offset plus two
global bias vectors, so scores depend on content and relative offset only.
That offset-only dependence is what makes cached streaming inference exact:
a window's encoding is the same at any absolute position.

All heads of one attention block form a single graph node with a
closed-form backward (`_multi_head_attention`): projections, scores, mask,
softmax, weighted sum and output projection run as [heads, T, head_dim]
numpy matmuls. Batch `encode` runs that node in `encoder_layer`. The
streaming `encoder_layer_step` builds no graph: it takes each input row's
layer-norm and keys/values from `key_value_row`, computed once per row, and
projects only its query row. Both run one attention forward (`_attend`),
one layer-norm forward (`tensor.layer_norm_forward`) and one closing rule
(`final_norm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .tensor import ParamSpec, ParamTree, Rng, ShapeError, Tensor


@dataclass(frozen=True)
class AttentionMask:
    """Per-layer context window: position i may attend j iff
    i - left <= j <= i + right. `None` lifts the bound on that side."""

    left: int | None
    right: int | None

    def __post_init__(self):
        for side, value in (("left", self.left), ("right", self.right)):
            if value is not None and (not isinstance(value, int) or value < 0):
                raise ValueError(f"mask {side} must be a non-negative int or None, got {value!r}")

    @property
    def is_finite(self) -> bool:
        return self.left is not None and self.right is not None


def build_mask(seq_len: int, mask: AttentionMask) -> np.ndarray:
    """Boolean [seq_len, seq_len] matrix; entry (i, j) true iff j is inside
    i's window. The diagonal is always true."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    i = np.arange(seq_len)[:, None]
    j = np.arange(seq_len)[None, :]
    allowed = np.ones((seq_len, seq_len), dtype=bool)
    if mask.left is not None:
        allowed &= j >= i - mask.left
    if mask.right is not None:
        allowed &= j <= i + mask.right
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


def init_encoder_params(config: EncoderConfig, rng: Rng) -> EncoderParams:
    return encoder_param_spec(config).transform(lambda spec: spec.materialize(rng))


class Counters:
    """Evaluation counters for constant-work assertions. Not synchronized;
    meaningful when a single stream or call sequence owns the model."""

    def __init__(self):
        self.attention_scores = 0
        self.joint_evals = 0


def _split(a: np.ndarray, config: EncoderConfig) -> np.ndarray:  # [T, H*dh] -> [H, T, dh]
    return a.reshape(a.shape[0], config.num_heads, config.head_dim).transpose(1, 0, 2)


def _merge(a: np.ndarray) -> np.ndarray:  # [H, T, dh] -> [T, H*dh]
    return a.transpose(1, 0, 2).reshape(a.shape[1], a.shape[0] * a.shape[2])


def _attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    params: EncoderParams,
    config: EncoderConfig,
    q_positions: np.ndarray,
    k_positions: np.ndarray,
    mask_bool: np.ndarray | None,
    counters: Counters | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Windowed relative-position attention over projected heads: queries
    q [H, Tq, dh] against keys and values k, v [H, Tk, dh].

    Per head, score(i, j) = [(q_i + content_bias) . k_j + (q_i + pos_bias)
    . r_{o(i,j)}] / sqrt(head_dim), with o(i, j) the offset i - j clipped to
    [-max_offset, max_offset]; only the offset enters, so shifting both
    position vectors leaves the scores unchanged. Masked scores get zero
    weight. Returns the clipped offset indices into `rel_emb`, the content
    and position queries, the softmax weights [H, Tq, Tk] and the weighted
    values of all heads concatenated, [Tq, H*dh]. The graph node and the
    cached streaming step both run this forward.
    """
    H, m = config.num_heads, config.rel_offset
    tq, tk = q.shape[1], k.shape[1]
    offsets = np.asarray(q_positions)[:, None] - np.asarray(k_positions)[None, :]
    idx = np.minimum(np.maximum(offsets, -m), m) + m
    if counters is not None:
        counters.attention_scores += H * tq * tk
    rel = params.rel_emb.values                            # [H, R, dh]
    qc = q + params.content_bias.values[:, None, :]
    qp = q + params.pos_bias.values[:, None, :]
    scale = 1.0 / math.sqrt(config.head_dim)
    pos = (qp @ rel.transpose(0, 2, 1))[:, np.arange(tq)[:, None], idx]  # [H, Tq, Tk]
    scores = (qc @ k.transpose(0, 2, 1) + pos) * scale
    if mask_bool is not None:
        scores = np.where(mask_bool, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)           # [H, Tq, Tk]
    return idx, qc, qp, weights, _merge(weights @ v)


def _multi_head_attention(
    h: Tensor,
    h_keys: Tensor,
    layer: LayerParams,
    params: EncoderParams,
    config: EncoderConfig,
    q_positions: np.ndarray,
    k_positions: np.ndarray,
    mask_bool: np.ndarray | None,
    counters: Counters | None,
) -> Tensor:
    """All heads of windowed relative-position attention as one graph node.

    h provides queries, h_keys keys/values (batch encoding passes the same
    tensor twice). The q/k/v projections feed `_attend`, and the
    concatenated heads are projected by wo. Heads run as [H, T, head_dim]
    matmuls, and the backward is closed-form over the nine parents.
    """
    H, tq = config.num_heads, h.shape[0]
    q = _split(h.values @ layer.wq.values, config)
    k = _split(h_keys.values @ layer.wk.values, config)
    v = _split(h_keys.values @ layer.wv.values, config)
    idx, qc, qp, weights, heads = _attend(q, k, v, params, config, q_positions, k_positions,
                                          mask_bool, counters)
    rel = params.rel_emb.values
    scale = 1.0 / math.sqrt(config.head_dim)

    def bw(g):
        d_heads = _split(g @ layer.wo.values.T, config)
        d_weights = d_heads @ v.transpose(0, 2, 1)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)) * scale
        # sum the position-score gradient into each row's clipped offsets
        slots = (np.arange(H * tq).reshape(H, tq, 1) * rel.shape[1] + idx).ravel()
        d_pos = np.bincount(slots, d_scores.ravel(), H * tq * rel.shape[1]).reshape(H, tq, -1)
        d_qc = d_scores @ k
        d_qp = d_pos @ rel
        d_q = _merge(d_qc + d_qp)
        d_k = _merge(d_scores.transpose(0, 2, 1) @ qc)
        d_v = _merge(weights.transpose(0, 2, 1) @ d_heads)
        return (
            d_q @ layer.wq.values.T,
            d_k @ layer.wk.values.T + d_v @ layer.wv.values.T,
            h.values.T @ d_q,
            h_keys.values.T @ d_k,
            h_keys.values.T @ d_v,
            heads.T @ g,
            d_pos.transpose(0, 2, 1) @ qp,
            d_qc.sum(axis=1),
            d_qp.sum(axis=1),
        )

    parents = (h, h_keys, layer.wq, layer.wk, layer.wv, layer.wo,
               params.rel_emb, params.content_bias, params.pos_bias)
    return Tensor(heads @ layer.wo.values, parents, bw)


def encoder_layer(
    x: Tensor,
    mask_bool: np.ndarray | None,
    layer: LayerParams,
    params: EncoderParams,
    config: EncoderConfig,
    rng: Rng | None = None,
    counters: Counters | None = None,
) -> Tensor:
    """One encoder layer: pre-norm windowed multi-head attention with a
    residual, then a pre-norm two-dense feed-forward block with a residual.
    Dropout draws from `rng` when one is given (training)."""
    if x.shape[-1] != config.model_dim:
        raise ShapeError(f"layer input dim {x.shape[-1]} != model_dim {config.model_dim}")
    positions = np.arange(x.shape[0])
    eps = config.ln_eps

    h = tt.layer_norm(x, layer.ln1_g, layer.ln1_b, eps)
    attn = _multi_head_attention(h, h, layer, params, config, positions, positions, mask_bool, counters)
    x = tt.add(x, tt.dropout(attn, config.dropout_ratio, rng))

    h2 = tt.layer_norm(x, layer.ln2_g, layer.ln2_b, eps)
    f = tt.dropout(tt.relu(tt.add(tt.matmul(h2, layer.w1), layer.b1)), config.dropout_ratio, rng)
    f = tt.dropout(tt.add(tt.matmul(f, layer.w2), layer.b2), config.dropout_ratio, rng)
    return tt.add(x, f)


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
    rng: Rng | None = None,
    counters: Counters | None = None,
) -> Tensor:
    """Project the input to model_dim, run the full layer stack under the
    shared mask and close with `final_norm`."""
    if x.shape[-1] != config.input_dim:
        raise ShapeError(f"encode input dim {x.shape[-1]} != config input_dim {config.input_dim}")
    h = tt.add(tt.matmul(x, params.input_w), params.input_b)
    mask_bool = build_mask(x.shape[0], config.mask)
    for i, layer in enumerate(params.layers):
        h = encoder_layer(h, mask_bool, layer, params, config,
                          rng.substream(f"layer{i}") if rng else None, counters)
    return final_norm(h, config, params)


def key_value_row(
    row: np.ndarray,
    layer: LayerParams,
    config: EncoderConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the streaming step needs of one input row of `layer`, computed
    once when the row arrives: its ln1 output [model_dim] and its keys and
    values, [num_heads * head_dim] each."""
    h = tt.layer_norm_forward(row, layer.ln1_g.values, layer.ln1_b.values, config.ln_eps)[0]
    return h, h @ layer.wk.values, h @ layer.wv.values


def encoder_layer_step(
    x_row: np.ndarray,
    window: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    q_local: int,
    layer: LayerParams,
    params: EncoderParams,
    config: EncoderConfig,
    counters: Counters | None = None,
) -> np.ndarray:
    """`encoder_layer`'s output row for the input row `x_row`, without a
    graph. `window` holds the `key_value_row`s of the inputs that position
    may attend, `x_row`'s own at index `q_local`; only the query row is
    projected, and scores depend only on offsets, so the work is bounded by
    the window size however much stream history precedes it."""
    q = _split((window[q_local][0] @ layer.wq.values)[None], config)
    k = _split(np.array([kv[1] for kv in window]), config)
    v = _split(np.array([kv[2] for kv in window]), config)
    heads = _attend(q, k, v, params, config, [q_local], np.arange(len(window)), None, counters)[-1]
    x = x_row + heads[0] @ layer.wo.values
    h2 = tt.layer_norm_forward(x, layer.ln2_g.values, layer.ln2_b.values, config.ln_eps)[0]
    f = h2 @ layer.w1.values + layer.b1.values
    return x + (np.where(f > 0, f, 0.0) @ layer.w2.values + layer.b2.values)


@dataclass(frozen=True)
class ReceptiveField:
    past_frames: float
    future_frames: float
    future_latency_ms: float

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.past_frames) and math.isfinite(self.future_frames)


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
