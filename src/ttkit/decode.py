"""Frame-synchronous decoding: greedy, beam with optional shallow fusion,
and streaming one-step inference over cached encoder state.

Streaming keeps, per encoder layer, the post-layer activations that a later
position of the layer above may still attend. When a row arrives, the layer
above layer-norms it and computes its query, key and value once, in one
call over that layer's stacked q/k/v weights (`attention.qkv_row`), into
one contiguous buffer per layer, so a position's window is a slice of that
buffer and nothing is copied per step. Because attention scores depend only
on content and relative offset, a new position's activation can be
computed from that cached window alone, by `attention.encoder_layer_step`,
so the work per consumed frame is bounded by a constant (window size times
layers) no matter how long the stream has run. Right context makes each layer's frontier lag the layer below by
`right` positions; `flush` drains that look-ahead at end of stream,
reproducing batch behavior exactly on the true final frames.

Beam search shares label-encoder states: a finite label window makes the
label activation a function of the last few ids, so one search computes one
state per distinct context and every hypothesis ending in it holds that same,
never-mutated state. It scores each (frame, state) pair with the joint once,
however many hypotheses hold the state, and each round builds children only
for the scores at or above its `beam_width`-th best. A label id's input row
(embedding times input projection) and its first-layer query, key and value
depend on the id alone, so every decode call computes them once per id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import attention as att
from . import frontend as fe
from . import tensor as tt
from .attention import Counters, EncoderConfig, EncoderParams
from .model import TransducerModel
from .transducer import BLANK_ID


class StreamError(RuntimeError):
    """Streaming protocol violation (e.g. flushing twice)."""


class LmScorer(Protocol):
    """External language-model contract: pure, deterministic, finite scores."""

    def log_prob(self, history: Sequence[int], next_id: int) -> float: ...


@dataclass
class DecodeOptions:
    """The decode settings of a run, with their defaults and range check;
    the decoders' defaults and the CLI flags' defaults are these."""

    beam_width: int = 4
    lm_weight: float = 0.0
    length_bonus: float = 0.0
    max_symbols_per_frame: int = 10

    def __post_init__(self):
        if self.beam_width < 1 or self.max_symbols_per_frame < 1:
            raise ValueError("beam_width and max_symbols_per_frame must be >= 1")


@dataclass
class FusionConfig:
    """Shallow fusion: score += lm_weight * log P_LM(symbol | history)
    + length_bonus, per emitted non-blank symbol."""

    lm_weight: float = 0.0
    length_bonus: float = 0.0
    lm: LmScorer | None = None

    def __post_init__(self):
        if self.lm_weight != 0.0 and self.lm is None:
            raise ValueError("fusion with lm_weight != 0 needs an lm scorer")


class BigramLm:
    """Add-k smoothed bigram scorer over label ids with a start context; the
    bundled scorer for fusion on synthetic-task vocabularies."""

    def __init__(self, num_labels: int, add_k: float = 0.5):
        self.num_labels = num_labels
        self.add_k = add_k
        self.counts = np.zeros((num_labels + 1, num_labels + 1))

    @classmethod
    def fit(cls, sequences, num_labels: int, add_k: float = 0.5) -> "BigramLm":
        lm = cls(num_labels, add_k)
        for seq in sequences:
            prev = 0
            for label in seq:
                lm.counts[prev, label] += 1
                prev = label
        return lm

    def log_prob(self, history: Sequence[int], next_id: int) -> float:
        prev = history[-1] if len(history) else 0
        row = self.counts[prev]
        return math.log((row[next_id] + self.add_k) / (row[1:].sum() + self.add_k * self.num_labels))


# Columns a fresh `IncrementalEncoder` buffer holds; a full one moves its live
# rows to a buffer twice their count, and at least this long.
_MIN_CAPACITY = 16


class IncrementalEncoder:
    """One encoder stack fed a row at a time.

    Layer l may compute position q once layer l-1 holds positions up to
    q + right, so the top frontier lags the input by num_layers * right;
    `finish` closes the gap with end-of-sequence windows. `rows[l]` keeps
    the layer-l outputs (l=0: projected inputs) that layer l+1 may still
    attend, at most left + right + 1 of them with a finite left window;
    `first[l]` is the position of its first row. For l < num_layers, layer
    l+1's `qkv_row` of each row is computed once, when the row arrives, and
    kept row for row beside `rows[l]` from column `start[l]` of the
    contiguous buffer `qkv[l]` [3, capacity, H*dh], so an attention window
    is a column slice of it. The stacked q/k/v weights `weights[l]` are
    copied when the encoder is built and shared by its clones, so an encoder
    built before the parameters change must not be fed after.
    """

    def __init__(self, config: EncoderConfig, params: EncoderParams, counters: Counters | None = None):
        if config.mask.right is None:
            raise ValueError("incremental encoding requires a finite right context")
        self.config = config
        self.params = params
        self.counters = counters
        self.weights = [att.qkv_weights(layer) for layer in params.layers]
        self.rows: list[list[np.ndarray]] = [[] for _ in range(config.num_layers + 1)]
        width = config.num_heads * config.head_dim
        self.qkv = [np.empty((3, _MIN_CAPACITY, width)) for _ in range(config.num_layers)]
        self.start = [0] * config.num_layers
        self.first = [0] * (config.num_layers + 1)
        self.finished = False

    def clone(self) -> "IncrementalEncoder":
        """An independent copy, with room in each buffer for one more row."""
        other = IncrementalEncoder.__new__(IncrementalEncoder)
        other.config, other.params, other.counters = self.config, self.params, self.counters
        other.weights = self.weights
        other.rows = [list(rows) for rows in self.rows]
        other.qkv = [self._moved(l, len(self.rows[l]) + 1) for l in range(self.config.num_layers)]
        other.start = [0] * self.config.num_layers
        other.first = list(self.first)
        other.finished = self.finished
        return other

    def push(self, row: np.ndarray) -> list[np.ndarray]:
        """Feed one input row; returns top-layer rows that became final."""
        return self.push_projected(*self._project(row))

    def push_projected(self, row: np.ndarray, qkv: np.ndarray | None) -> list[np.ndarray]:
        """`push` for a row already through `_project`: the input projection
        and its first layer's `qkv_row` (None for a stack of no layers), so
        a caller that feeds the same rows again computes both once."""
        if self.finished:
            raise StreamError("push after finish")
        self._append(0, row, qkv)
        return self._advance(self.first[0] + len(self.rows[0]))

    def _project(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        row = row @ self.params.input_w.values + self.params.input_b.values
        if not self.config.num_layers:
            return row, None
        return row, att.qkv_row(row, self.params.layers[0], self.weights[0], self.config)

    def finish(self) -> list[np.ndarray]:
        """Signal end of input and drain the per-layer look-ahead."""
        if self.finished:
            raise StreamError("finish called twice")
        self.finished = True
        # one frontier step per pass keeps each layer within left + right + 1 rows
        end = self.first[0] + len(self.rows[0])
        n_pass = self.config.num_layers * self.config.mask.right
        return [row for k in range(1, n_pass + 1) for row in self._advance(end + k)]

    def _moved(self, l: int, capacity: int) -> np.ndarray:
        """Level l's live `qkv_row`s copied to the front of a new buffer."""
        n, at, buf = len(self.rows[l]), self.start[l], self.qkv[l]
        out = np.empty((3, capacity, buf.shape[2]))
        out[:, :n] = buf[:, at:at + n]
        return out

    def _append(self, l: int, row: np.ndarray, qkv: np.ndarray | None = None):
        rows = self.rows[l]
        if l < self.config.num_layers:
            if qkv is None:
                qkv = att.qkv_row(row, self.params.layers[l], self.weights[l], self.config)
            if self.start[l] + len(rows) == self.qkv[l].shape[1]:  # full
                self.qkv[l], self.start[l] = self._moved(l, max(2 * len(rows), _MIN_CAPACITY)), 0
            self.qkv[l][:, self.start[l] + len(rows)] = qkv
        rows.append(row)

    def _advance(self, frontier: int) -> list[np.ndarray]:
        """One pass over layers 1..L in order. Layer l computes the positions
        below both its input's count and frontier - l * right, and then the
        rows of layer l-1 that no later position attends are dropped."""
        left, right = self.config.mask.left, self.config.mask.right
        for l, layer in enumerate(self.params.layers, start=1):
            src, base = self.rows[l - 1], self.first[l - 1]
            qkv, at = self.qkv[l - 1], self.start[l - 1] - base  # position p is column p + at
            below = base + len(src)
            done = self.first[l] + len(self.rows[l])
            for q in range(done, min(below, frontier - l * right)):
                lo = 0 if left is None else max(0, q - left)
                window = qkv[:, lo + at:min(q + right + 1, below) + at]
                self._append(l, att.encoder_layer_step(
                    src[q - base], window, q - lo, layer, self.params, self.config, self.counters))
            if left is not None:
                stale = max(0, self.first[l] + len(self.rows[l]) - left - base)
                del src[:stale]
                self.first[l - 1] += stale
                self.start[l - 1] += stale
        top = self.rows[-1]
        self.rows[-1] = []
        self.first[-1] += len(top)
        return [att.final_norm(row, self.config, self.params) for row in top]


class LabelState:
    """Incrementally encoded label history: one push per emitted label,
    always holding the activation encoding the full history so far, plus its
    joint-network projection (the half of the joint that decoding reuses
    across frames).

    With a finite label window the top activation depends only on the last
    `num_layers * left + 1` ids of the history (start id included): two
    histories ending in the same such `context` see identical windows at
    identical relative offsets. States derived through `advanced` from one
    root therefore share one `memo`, holding one state per context, and
    are never mutated once reached that way; `advance` mutates in place.
    They share `inputs` too: each label id's projected input row and its
    first-layer `qkv_row` (query, key and value), computed on the id's
    first push."""

    def __init__(self, model: TransducerModel):
        cfg = model.config.label
        past = att.receptive_field(cfg.num_layers, cfg.mask, 0.0).past_frames
        self.model = model
        self.keep = slice(None) if math.isinf(past) else slice(-int(past) - 1, None)
        self.memo: dict[tuple[int, ...], LabelState] = {}
        self.inputs: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        self.context = (BLANK_ID,)
        self.encoder = IncrementalEncoder(cfg, model.params.label, model.counters)
        self._push(BLANK_ID)

    def advanced(self, label: int) -> "LabelState":
        """The state one label on, shared by every state of this search
        whose history ends in the same context."""
        context = (self.context + (label,))[self.keep]
        other = self.memo.get(context)
        if other is None:
            other = LabelState.__new__(LabelState)
            other.model, other.keep, other.memo, other.inputs = self.model, self.keep, self.memo, self.inputs
            other.context = context
            other.encoder = self.encoder.clone()
            other._push(label)
            self.memo[context] = other
        return other

    def advance(self, label: int):
        if self.memo.get(self.context) is self:
            del self.memo[self.context]  # its context no longer describes it
        self.context = (self.context + (label,))[self.keep]
        self._push(label)

    def _push(self, label: int):
        entry = self.inputs.get(label)
        if entry is None:
            embedding = self.model.params.label_embedding.values[label]
            entry = self.inputs[label] = self.encoder._project(embedding)
        self.vec = self.encoder.push_projected(*entry)[0]
        self.proj = self.model.project_label(self.vec)


def _batch_encode_audio(model: TransducerModel, features: np.ndarray) -> np.ndarray:
    stacked = model.prepare_features(features)
    if not len(stacked):  # no frames: nothing to attend, no frame to decode
        return np.zeros((0, model.config.audio.model_dim))
    with tt.no_grad():
        return model.encode_audio(stacked).values


def greedy_decode(model: TransducerModel, features: np.ndarray,
                  max_symbols_per_frame: int = DecodeOptions.max_symbols_per_frame) -> list[int]:
    """Frame-synchronous argmax decoding. At each frame, emit the argmax
    symbol (ties to the lowest id) until blank wins or the per-frame cap is
    reached, then advance to the next frame."""
    DecodeOptions(max_symbols_per_frame=max_symbols_per_frame)  # the range check
    enc = _batch_encode_audio(model, features)
    state = LabelState(model)
    out: list[int] = []
    for t in range(enc.shape[0]):
        _greedy_frame(model, enc[t], state, out, max_symbols_per_frame)
    return out


def _greedy_frame(model, enc_row, state: LabelState, out: list[int], cap: int):
    audio_proj = model.project_audio(enc_row)
    for _ in range(cap):
        lp = model.joint_from_projections(audio_proj, state.proj)
        best = int(np.argmax(lp))  # argmax takes the lowest index on ties
        if best == BLANK_ID:
            return
        out.append(best)
        state.advance(best)
    # cap reached: force the frame to close


@dataclass
class Hypothesis:
    """One beam entry: a blank-free label sequence, its accumulated score
    (joint log-probs plus any fusion terms), and the label-encoder state for
    that history, shared with every hypothesis of the search whose history
    ends in the same context and never mutated."""

    labels: tuple[int, ...]
    score: float
    state: LabelState


def beam_decode(model: TransducerModel, features: np.ndarray, beam_width: int,
                fusion: FusionConfig | None = None,
                max_symbols_per_frame: int = DecodeOptions.max_symbols_per_frame) -> list[Hypothesis]:
    """Frame-synchronous beam search.

    Per frame, hypotheses expand until each ends in blank; identical label
    sequences merge by log-sum-exp of their scores. A round ranks every
    child, blank or label, of every active hypothesis by (-score, labels)
    and keeps `beam_width`; only children scoring at or above the
    `beam_width`-th best are built, so no kept child differs from a full
    sort. With beam_width 1 and fusion off the selection at every round is
    the plain argmax, so the result reduces to `greedy_decode`.
    """
    DecodeOptions(beam_width=beam_width, max_symbols_per_frame=max_symbols_per_frame)  # the range check
    fusion = fusion if fusion is not None else FusionConfig()
    enc = _batch_encode_audio(model, features)
    beam = [Hypothesis(labels=(), score=0.0, state=LabelState(model))]
    vocab = model.config.vocab_size

    for t in range(enc.shape[0]):
        audio_proj = model.project_audio(enc[t])
        joint_rows: dict[LabelState, list[float]] = {}  # states are never mutated
        active = beam
        done: dict[tuple[int, ...], Hypothesis] = {}
        for round_i in range(max_symbols_per_frame + 1):
            # every child's score, per hypothesis its blank and then, when
            # emission is allowed, each label; plain floats, since a round
            # holds too few for numpy to pay
            width = vocab if round_i < max_symbols_per_frame else 1
            scores: list[float] = []
            for hyp in active:
                lp = joint_rows.get(hyp.state)
                if lp is None:
                    lp = model.joint_from_projections(audio_proj, hyp.state.proj).tolist()
                    joint_rows[hyp.state] = lp
                scores.append(hyp.score + lp[BLANK_ID])
                if width == 1:
                    continue
                if fusion.lm_weight != 0.0:
                    bonus = [fusion.length_bonus + fusion.lm_weight * fusion.lm.log_prob(hyp.labels, v)
                             for v in range(1, width)]
                    scores += [hyp.score + x + b for x, b in zip(lp[1:], bonus)]
                else:
                    scores += [hyp.score + x + fusion.length_bonus for x in lp[1:]]
            cut = sorted(scores)[-min(beam_width, len(scores))]
            children = []
            for i, score in enumerate(scores):
                if score >= cut:
                    hyp = active[i // width]
                    v = i % width
                    children.append((hyp.labels + (v,) if v else hyp.labels, score, hyp.state, v))
            children.sort(key=lambda c: (-c[1], c[0]))
            active = []
            for labels, score, state, v in children[:beam_width]:
                if v == BLANK_ID:
                    _merge(done, Hypothesis(labels, score, state))
                else:
                    active.append(Hypothesis(labels, score, state.advanced(v)))
            if not active:
                break
        beam = sorted(done.values(), key=lambda h: (-h.score, h.labels))[:beam_width]
    return beam


def _merge(done: dict, hyp: Hypothesis):
    prior = done.get(hyp.labels)
    if prior is None:
        done[hyp.labels] = hyp
    else:
        done[hyp.labels] = Hypothesis(hyp.labels, float(np.logaddexp(prior.score, hyp.score)), prior.state)


class StreamState:
    """Single-owner streaming decoder state.

    Feed raw feature frames with `step`; each call returns the labels emitted
    once enough look-ahead arrived to finalize further encoder positions.
    `flush` signals end of stream and drains the remaining look-ahead so the
    total output matches batch greedy decoding exactly.
    """

    def __init__(self, model: TransducerModel,
                 max_symbols_per_frame: int = DecodeOptions.max_symbols_per_frame,
                 record_activations: bool = False):
        if not model.config.audio.mask.is_finite:
            raise ValueError("streaming requires a finite audio attention window on both sides")
        DecodeOptions(max_symbols_per_frame=max_symbols_per_frame)  # the range check
        self.model = model
        self.max_symbols_per_frame = max_symbols_per_frame
        self.stack = model.config.frontend.stack
        self.subsample = model.config.frontend.subsample
        self.frames: list[np.ndarray] = []  # raw frames from the next row's first frame on
        self.skip = 0  # frames before the next row's first, when subsample > stack
        self.encoder = IncrementalEncoder(model.config.audio, model.params.audio, model.counters)
        self.label_state = LabelState(model)
        self.activations: list[np.ndarray] | None = [] if record_activations else None

    def step(self, frame: np.ndarray) -> list[int]:
        """Consume one raw feature frame; return labels emitted by it."""
        if self.encoder.finished:
            raise StreamError("step after flush")
        if self.skip:
            self.skip -= 1
            return []
        self.frames.append(np.asarray(frame, dtype=np.float64))
        if len(self.frames) < self.stack:
            return []
        # the row `frontend.stack_subsample` makes from these frames
        new = self.encoder.push(np.concatenate(self.frames))
        del self.frames[:self.subsample]
        self.skip = max(0, self.subsample - self.stack)
        return self._decode_rows(new)

    def flush(self) -> list[int]:
        """End of stream: process pending look-ahead as if the right context
        were truncated at the final frame, exactly like a batch encode."""
        if self.encoder.finished:
            raise StreamError("double flush")
        new = []
        if self.frames:  # the tail rows, padded by repeating the final frame
            for row in fe.stack_subsample(np.stack(self.frames), self.stack, self.subsample):
                new.extend(self.encoder.push(row))
        new.extend(self.encoder.finish())
        return self._decode_rows(new)

    def _decode_rows(self, rows: list[np.ndarray]) -> list[int]:
        emitted: list[int] = []
        for row in rows:
            if self.activations is not None:
                self.activations.append(row)
            _greedy_frame(self.model, row, self.label_state, emitted, self.max_symbols_per_frame)
        return emitted

