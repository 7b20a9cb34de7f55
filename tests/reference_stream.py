"""The list-window streaming encoder and the clone-per-state label states
built on it, the references for ttkit's.

Each layer keeps, per cached row, a tuple of that row's ln1 output and its
keys and values (`key_value_row`). Every step copies its window's keys and
values into fresh arrays, projects its query row, and recomputes the clipped
relative offsets. ttkit's `decode.IncrementalEncoder` computes each row's
query, key and value once into fixed per-layer buffers and reads its
offset table from a cache; the floating-point operations are the same, so
its rows equal this one's bit for bit.

`LabelState` here gives each new label state its own clone of its parent's
encoder and pushes one row into it. ttkit's `decode.LabelState` carries
only the attention windows of its next step and computes a beam round's
new states together, one stacked step per label layer; its states equal
these bit for bit, and it computes a state for the same contexts, so the
score counts match too.
"""

from __future__ import annotations

import math

import numpy as np

from ttkit import attention as att
from ttkit import tensor as tt
from ttkit.decode import StreamError
from ttkit.transducer import BLANK_ID


def key_value_row(row, layer, config):
    """One input row's ln1 output [model_dim] and its keys and values,
    [num_heads * head_dim] each."""
    h = tt.layer_norm_forward(row, layer.ln1_g.values, layer.ln1_b.values, config.ln_eps)[0]
    return h, h @ layer.wk.values, h @ layer.wv.values


def encoder_layer_step(x_row, window, q_local, layer, params, config, counters=None):
    """`encoder_layer`'s output row for `x_row`, over the `key_value_row`s
    of its window, `x_row`'s own at index `q_local`."""
    if counters is not None:
        counters.attention_scores += config.num_heads * len(window)
    q = att._split((window[q_local][0] @ layer.wq.values)[None], config)
    k = att._split(np.array([kv[1] for kv in window]), config)
    v = att._split(np.array([kv[2] for kv in window]), config)
    m = config.rel_offset
    offsets = np.asarray([q_local])[:, None] - np.arange(len(window))[None, :]
    idx = np.minimum(np.maximum(offsets, -m), m) + m
    qc = q + params.content_bias.values[:, None, :]
    qp = q + params.pos_bias.values[:, None, :]
    pos = (qp @ params.rel_emb.values.transpose(0, 2, 1))[..., np.arange(1)[:, None], idx]
    scores = (qc @ k.swapaxes(-1, -2) + pos) * (1.0 / math.sqrt(config.head_dim))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    heads = att._merge(e / e.sum(axis=-1, keepdims=True) @ v)
    return att._feed_forward_values(x_row + heads[0] @ layer.wo.values, layer, config)[0]


class IncrementalEncoder:
    """One encoder stack fed a row at a time. `rows[l]` keeps the layer-l
    outputs (l=0: projected inputs) that layer l+1 may still attend, and
    `kv[l]`, row for row beside it, their `key_value_row`s for layer l+1."""

    def __init__(self, config, params, counters=None):
        if config.mask.right is None:
            raise ValueError("incremental encoding requires a finite right context")
        self.config = config
        self.params = params
        self.counters = counters
        self.rows = [[] for _ in range(config.num_layers + 1)]
        self.kv = [[] for _ in range(config.num_layers)]
        self.first = [0] * (config.num_layers + 1)
        self.finished = False

    def clone(self):
        other = IncrementalEncoder.__new__(IncrementalEncoder)
        other.config, other.params, other.counters = self.config, self.params, self.counters
        other.rows = [list(rows) for rows in self.rows]
        other.kv = [list(kv) for kv in self.kv]
        other.first = list(self.first)
        other.finished = self.finished
        return other

    def push(self, row):
        if self.finished:
            raise StreamError("push after finish")
        self._append(0, row @ self.params.input_w.values + self.params.input_b.values)
        return self._advance(self.first[0] + len(self.rows[0]))

    def finish(self):
        if self.finished:
            raise StreamError("finish called twice")
        self.finished = True
        end = self.first[0] + len(self.rows[0])
        n_pass = self.config.num_layers * self.config.mask.right
        return [row for k in range(1, n_pass + 1) for row in self._advance(end + k)]

    def _append(self, l, row):
        self.rows[l].append(row)
        if l < self.config.num_layers:
            self.kv[l].append(key_value_row(row, self.params.layers[l], self.config))

    def _advance(self, frontier):
        left, right = self.config.mask.left, self.config.mask.right
        for l, layer in enumerate(self.params.layers, start=1):
            src, kv, base = self.rows[l - 1], self.kv[l - 1], self.first[l - 1]
            below = base + len(src)
            done = self.first[l] + len(self.rows[l])
            for q in range(done, min(below, frontier - l * right)):
                lo = 0 if left is None else max(0, q - left)
                window = kv[lo - base:min(q + right + 1, below) - base]
                self._append(l, encoder_layer_step(
                    src[q - base], window, q - lo, layer, self.params, self.config, self.counters))
            if left is not None:
                stale = max(0, self.first[l] + len(self.rows[l]) - left - base)
                del src[:stale], kv[:stale]
                self.first[l - 1] += stale
        top = self.rows[-1]
        self.rows[-1] = []
        self.first[-1] += len(top)
        return [att.final_norm(row, self.config, self.params) for row in top]


class LabelState:
    """A label history's state on a private `IncrementalEncoder`: `vec`, the
    top activation of the newest position, and `proj`, its joint
    projection. States derived through `advanced` from one root share a
    `memo` of one state per context, the last `num_layers * left + 1` ids;
    a new one clones its parent's encoder and pushes one row. `advance`
    pushes in place and takes the state out of the memo."""

    def __init__(self, model):
        cfg = model.config.label
        past = att.receptive_field(cfg.num_layers, cfg.mask, 0.0).past_frames
        self.model = model
        self.keep = slice(None) if math.isinf(past) else slice(-int(past) - 1, None)
        self.memo = {}
        self.context = (BLANK_ID,)
        self.encoder = IncrementalEncoder(cfg, model.params.label, model.counters)
        self._push(BLANK_ID)

    def advanced(self, label):
        context = (self.context + (label,))[self.keep]
        other = self.memo.get(context)
        if other is None:
            other = LabelState.__new__(LabelState)
            other.model, other.keep, other.memo = self.model, self.keep, self.memo
            other.context = context
            other.encoder = self.encoder.clone()
            other._push(label)
            self.memo[context] = other
        return other

    @staticmethod
    def advanced_all(pairs):
        return [state.advanced(label) for state, label in pairs]

    def advance(self, label):
        if self.memo.get(self.context) is self:
            del self.memo[self.context]
        self.context = (self.context + (label,))[self.keep]
        self._push(label)

    def _push(self, label):
        self.vec = self.encoder.push(self.model.params.label_embedding.values[label])[0]
        self.proj = self.model.project_label(self.vec)
