"""Frame-synchronous decoding: greedy, beam with optional shallow fusion,
and streaming one-step inference over cached encoder state.

Streaming keeps, per encoder layer, the one window of post-layer
activations that a later position of the layer above may still attend:
left + right + 1 rows, in buffers allocated once per stream. When a row
arrives, the layer above layer-norms it and computes its query, key and
value once, in one call over that layer's stacked q/k/v weights
(`attention.qkv_row`), and writes them twice into a buffer two windows
wide, so every position's window is one slice of it and nothing is copied
per step. Because attention scores depend only on content and relative
offset, a new position's activation can be computed from that cached
window alone, by `attention.encoder_layer_step`, so the work and the state
per consumed frame are bounded by constants (window size times layers) no
matter how long the stream has run. Right context makes each layer's
frontier lag the layer below by `right` positions; `flush` drains that
look-ahead at end of stream, reproducing batch behavior exactly on the true
final frames.

The label encoder is causal, so a label state needs no encoder of its own:
it carries, per label layer, the window of query, key and value rows its
newest position attended, and a child extends its parent's windows by its
own row. Moving on builds a child and leaves the parent as it was. Beam
search shares these states: a finite label window makes the label activation
a function of the last few ids, so one search computes one state per
distinct context and every hypothesis ending in it holds that same state. It
scores each (frame, state) pair with the joint once, however many hypotheses
hold the state, and each round builds children only for the scores at or
above its `beam_width`-th best. The round's new states are computed
together, one stacked encoder step per label layer, bit for bit as one at a
time. With no LM and no positive length bonus, the children of a hypothesis
together carry no more probability than it does, so the later rounds of a
frame add to its finished set at most the probability mass of the round's
emitting children; a frame ends once that mass could neither reach its
n-best nor lift an entry it may merge into, which is exact (see
`beam_decode`). A label id's input row (embedding times input projection)
and its first-layer query, key and value depend on the id alone, so every
decode call computes them once per id.
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
    max_symbols_per_frame: int = 10

    def __post_init__(self):
        if self.beam_width < 1 or self.max_symbols_per_frame < 1:
            raise ValueError("beam_width and max_symbols_per_frame must be >= 1")


@dataclass
class FusionConfig:
    """Shallow fusion: score += lm_weight * log P_LM(symbol | history)
    + length_bonus, per emitted non-blank symbol. The defaults are the
    decode command's flag defaults."""

    lm_weight: float = 0.0
    length_bonus: float = 0.0
    lm: LmScorer | None = None

    def __post_init__(self):
        tt.finite_fields(self, "lm_weight", "length_bonus")
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


class IncrementalEncoder:
    """One encoder stack fed a row at a time, in state allocated once.

    Layer l may compute position q once layer l-1 holds positions up to
    q + right, so the top frontier lags the input by num_layers * right;
    `finish` closes the gap with end-of-sequence windows. Level l holds
    layer l's outputs (l=0: the projected inputs), `count[l]` of them so
    far, in a window of W = left + right + 1 slots: position p's row is
    `rows[l][p % W]`. For l < num_layers, layer l+1's `qkv_row` of that row
    is computed once, when the row arrives, and written to both columns
    p % W and p % W + W of `qkv[l]` [3, 2W, H*dh], so the up to W positions
    from lo on are the column slice from lo % W. A pass adds at most one
    row to each level, so layer l's next query trails level l-1's count by
    at most right + 1 and attends only the W newest rows there, the ones the
    window holds. The stacked q/k/v weights `weights[l]` are
    copied when the encoder is built, so an encoder built before the
    parameters change must not be fed after.
    """

    def __init__(self, config: EncoderConfig, params: EncoderParams, counters: Counters | None = None):
        if not config.mask.is_finite:
            raise ValueError("incremental encoding requires a finite attention window on both sides")
        self.config = config
        self.params = params
        self.counters = counters
        self.weights = [att.qkv_weights(layer) for layer in params.layers]
        self.width = config.mask.left + config.mask.right + 1
        self.rows: list[list[np.ndarray | None]] = [[None] * self.width for _ in range(config.num_layers + 1)]
        self.qkv = [np.empty((3, 2 * self.width, config.num_heads * config.head_dim))
                    for _ in range(config.num_layers)]
        self.count = [0] * (config.num_layers + 1)
        self.emitted = 0  # top-level rows returned so far
        self.finished = False

    def push(self, row: np.ndarray) -> list[np.ndarray]:
        """Feed one input row; returns top-layer rows that became final."""
        if self.finished:
            raise StreamError("push after finish")
        self._append(0, row @ self.params.input_w.values + self.params.input_b.values)
        return self._advance(self.count[0])

    def finish(self) -> list[np.ndarray]:
        """Signal end of input and drain the per-layer look-ahead."""
        if self.finished:
            raise StreamError("finish called twice")
        self.finished = True
        # one frontier step per pass keeps each layer within left + right + 1 rows
        end = self.count[0]
        n_pass = self.config.num_layers * self.config.mask.right
        return [row for k in range(1, n_pass + 1) for row in self._advance(end + k)]

    def _append(self, l: int, row: np.ndarray):
        at = self.count[l] % self.width
        self.rows[l][at] = row
        if l < self.config.num_layers:
            qkv = att.qkv_row(row, self.params.layers[l], self.weights[l], self.config)
            self.qkv[l][:, at] = self.qkv[l][:, at + self.width] = qkv
        self.count[l] += 1

    def _advance(self, frontier: int) -> list[np.ndarray]:
        """One pass over layers 1..L in order: layer l computes the positions
        below both its input's count and frontier - l * right. Returns the
        top-level rows not returned before."""
        left, right, w = self.config.mask.left, self.config.mask.right, self.width
        for l, layer in enumerate(self.params.layers, start=1):
            src, qkv, below = self.rows[l - 1], self.qkv[l - 1], self.count[l - 1]
            for q in range(self.count[l], min(below, frontier - l * right)):
                lo = max(0, q - left)
                window = qkv[:, lo % w:lo % w + min(q + right + 1, below) - lo]
                self._append(l, att.encoder_layer_step(
                    src[q % w], window, q - lo, layer, self.params, self.config, self.counters))
        top = [att.final_norm(self.rows[-1][p % w], self.config, self.params)
               for p in range(self.emitted, self.count[-1])]
        self.emitted = self.count[-1]
        return top


class LabelState:
    """The label encoder's state after a history: the top activation of its
    newest position (`vec`), encoding the full history, its joint-network
    projection (`proj`, the half of the joint that decoding reuses across
    frames), and per label layer l the window `windows[l]` [3, n, H*dh]: the
    `qkv_row`s of layer l's inputs at the newest n positions, the newest
    one's own last, which is the window that position attended. The encoder
    is causal, so a new position's rows are final at once: a child's window
    is its parent's plus the child's own new row, less the oldest once the
    parent's spans left + 1 rows. With `label_left` null it is the whole
    history.

    With a finite label window the state depends only on the last
    `num_layers * left + 1` ids of the history (start id included): two
    histories ending in the same such `context` see identical windows at
    identical relative offsets. States derived through `advanced` or
    `advanced_all` from one root therefore share one `memo`, holding one
    state per context; `advance` builds a child outside it. No state
    changes once built. The states of one root share `inputs` too: each
    label id's projected input row and its first-layer `qkv_row` (query, key
    and value), computed on the id's first push; and `weights`, each label
    layer's `qkv_weights`, copied when the root is built, so a root built
    before the parameters change must not be advanced after."""

    def __init__(self, model: TransducerModel):
        cfg = model.config.label
        past = att.receptive_field(cfg.num_layers, cfg.mask, 0.0).past_frames
        self.model = model
        self.keep = slice(None) if math.isinf(past) else slice(-int(past) - 1, None)
        self.memo: dict[tuple[int, ...], LabelState] = {}
        self.inputs: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        self.weights = [att.qkv_weights(layer) for layer in model.params.label.layers]
        self.context = (BLANK_ID,)
        self.windows = [np.empty((3, 0, cfg.num_heads * cfg.head_dim))] * cfg.num_layers  # no positions yet
        self.windows, self.vec, self.proj = _label_steps([(self, BLANK_ID)])[0]

    def advanced(self, label: int) -> "LabelState":
        """The state one label on, shared by every state of this search
        whose history ends in the same context."""
        context = (self.context + (label,))[self.keep]
        other = self.memo.get(context)
        if other is None:
            other = self.memo[context] = self._child(label)
        return other

    @staticmethod
    def advanced_all(pairs: Sequence[tuple["LabelState", int]]) -> list["LabelState"]:
        """`[state.advanced(label) for state, label in pairs]` for states of
        one search, with the states not yet in its memo computed together
        (`_label_steps`)."""
        new: dict[tuple[int, ...], tuple[LabelState, int]] = {}
        for state, label in pairs:
            context = (state.context + (label,))[state.keep]
            if context not in state.memo:
                new.setdefault(context, (state, label))
        if new:
            for (context, (state, label)), step in zip(new.items(), _label_steps(list(new.values()))):
                state.memo[context] = state._child(label, step)
        return [state.advanced(label) for state, label in pairs]

    def advance(self, label: int) -> "LabelState":
        """The state one label on, kept out of the memo: a decoder that drops
        each state as it moves on holds one window."""
        return self._child(label)

    def _child(self, label: int, step: tuple | None = None) -> "LabelState":
        """The state one label on, from its `_label_steps` entry if given."""
        other = LabelState.__new__(LabelState)  # a shallow copy, faster than copy.copy
        other.__dict__.update(self.__dict__)
        other.context = (self.context + (label,))[self.keep]
        other.windows, other.vec, other.proj = _label_steps([(self, label)])[0] if step is None else step
        return other

    def _input(self, label: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The id's projected input row and first-layer `qkv_row` (None for
        a stack of no layers)."""
        entry = self.inputs.get(label)
        if entry is None:
            params, cfg = self.model.params.label, self.model.config.label
            row = self.model.params.label_embedding.values[label] @ params.input_w.values + params.input_b.values
            qkv = att.qkv_row(row, params.layers[0], self.weights[0], cfg) if cfg.num_layers else None
            entry = self.inputs[label] = (row, qkv)
        return entry


def _label_steps(pairs: Sequence[tuple[LabelState, int]]) -> list[tuple[list[np.ndarray], np.ndarray, np.ndarray]]:
    """The `windows`, `vec` and `proj` of the state one label on from each
    (state, label) of one search. The new positions are computed together
    per window length among them: one `encoder_layer_step` per label layer
    over the stack of their rows [K, 1, d] and windows [K, 3, tk, H*dh],
    then one `final_norm` and one `project_label`. A stack runs the one-row
    products of a lone state (see `attention.encoder_layer_step`), so every
    state is bit-identical to one computed alone; a lone state keeps the
    one-row shapes. Window lengths differ only within the first left + 1
    ids, or with no left bound."""
    first = pairs[0][0]
    model = first.model
    cfg, params = model.config.label, model.params.label
    full = None if cfg.mask.left is None else cfg.mask.left + 1
    groups: dict[int, list[int]] = {}
    for i, (state, _) in enumerate(pairs):
        n = state.windows[0].shape[1] if cfg.num_layers else 0
        groups.setdefault(n if n == full else n + 1, []).append(i)
    out: list = [None] * len(pairs)
    for tk, members in groups.items():
        k = len(members)
        lone = k == 1  # one-row shapes: cheaper, and the same bits
        entries = [first._input(pairs[i][1]) for i in members]
        x = entries[0][0] if lone else np.array([row for row, _ in entries])[:, None]
        windows = []
        for l, layer in enumerate(params.layers):
            if l:
                qkv = att.qkv_row(x, layer, first.weights[l], cfg)
            else:
                qkv = entries[0][1] if lone else np.array([qkv for _, qkv in entries])
            window = np.empty((k, 3, tk, qkv.shape[-1]))
            for j, i in enumerate(members):
                parent = pairs[i][0].windows[l]
                window[j, :, :-1] = parent[:, parent.shape[1] - tk + 1:]
            window[:, :, -1] = qkv
            x = att.encoder_layer_step(x, window[0] if lone else window, tk - 1, layer, params, cfg,
                                       model.counters)
            windows.append(window)
        vec = att.final_norm(x, cfg, params)
        proj = model.project_label(vec)
        vec, proj = vec.reshape(k, -1), proj.reshape(k, -1)
        for j, i in enumerate(members):
            out[i] = ([window[j] for window in windows], vec[j], proj[j])
    return out


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
    return _greedy_rows(model, enc, LabelState(model), max_symbols_per_frame)[0]


def _greedy_rows(model, rows, state: LabelState, cap: int) -> tuple[list[int], LabelState]:
    """The labels greedy decoding emits over encoder rows from `state`, and
    the state it reaches: per row, the argmax until blank wins or `cap`
    labels are out."""
    out: list[int] = []
    for row in rows:
        audio_proj = model.project_audio(row)
        for _ in range(cap):
            lp = model.joint_from_projections(audio_proj, state.proj)
            best = int(np.argmax(lp))  # argmax takes the lowest index on ties
            if best == BLANK_ID:
                break
            out.append(best)
            state = state.advance(best)
    return out, state


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

    With no LM and a length bonus of at most 0, a frame ends after the round
    whose blank children settle it (`_settled`). Each joint row is a
    distribution and such a bonus only lowers a label child, so the
    children of a hypothesis scoring s together carry at most exp(s) of
    probability. Every later child of the frame descends from one of the
    round's emitting children, scoring s_1..s_k, and pruning only drops
    children, so the blank children of all later rounds together carry at
    most M = exp(s_1) + ... + exp(s_k), whether it lands in one entry of
    `done` or is spread over many. Each merges only into labels that extend
    (or equal) its emitting ancestor's. So a new entry scores at most
    log M, and an entry that extends an emitting child at most
    logaddexp(its score, log M). When these stay below the `beam_width`-th
    best finished score, the later rounds change none of the frame's
    n-best, its score bits or its order.
    """
    DecodeOptions(beam_width=beam_width, max_symbols_per_frame=max_symbols_per_frame)  # the range check
    fusion = fusion if fusion is not None else FusionConfig()
    enc = _batch_encode_audio(model, features)
    beam = [Hypothesis(labels=(), score=0.0, state=LabelState(model))]
    vocab = model.config.vocab_size
    falling = fusion.lm_weight == 0.0 and fusion.length_bonus <= 0.0  # children share their parent's mass

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
            emitting, pairs = [], []
            for labels, score, state, v in children[:beam_width]:
                if v == BLANK_ID:
                    _merge(done, Hypothesis(labels, score, state))
                else:
                    emitting.append((labels, score))
                    pairs.append((state, v))
            if falling and emitting and _settled(done, emitting, beam_width):
                break  # no later round of this frame changes its n-best
            active = [Hypothesis(labels, score, state)
                      for (labels, score), state in zip(emitting, LabelState.advanced_all(pairs))]
            if not active:
                break
        beam = sorted(done.values(), key=lambda h: (-h.score, h.labels))[:beam_width]
    return beam


def _settled(done: dict, emitting: list, beam_width: int) -> bool:
    """Whether no later round of a frame in which children carry at most
    their parent's probability can change the top `beam_width` of `done`
    (see `beam_decode`), given the round's emitting children as (labels,
    score). `lift` is the log of their total mass. The bar's margin lies far
    above the rounding that the mass argument leaves out: a row's
    exponentials sum to 1 only to a few ulp, and the scores along a path,
    the mass and the merges round too."""
    if len(done) < beam_width or not all(math.isfinite(score) for _, score in emitting):
        return False
    bar = sorted(hyp.score for hyp in done.values())[-beam_width]
    bar -= 1e-9 * (1.0 + abs(bar))
    top = max(score for _, score in emitting)
    lift = top + math.log(math.fsum(math.exp(score - top) for _, score in emitting))
    if not lift < bar:
        return False
    prefixes = {labels for labels, _ in emitting}
    lengths = {len(labels) for labels in prefixes}
    # an entry that extends an emitting child may be merged into (no top
    # entry passes)
    return all(np.logaddexp(hyp.score, lift) < bar for hyp in done.values()
               if any(hyp.labels[:k] in prefixes for k in lengths))


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
                 max_symbols_per_frame: int = DecodeOptions.max_symbols_per_frame):
        DecodeOptions(max_symbols_per_frame=max_symbols_per_frame)  # the range check
        self.model = model
        self.max_symbols_per_frame = max_symbols_per_frame
        self.stack = model.config.frontend.stack
        self.subsample = model.config.frontend.subsample
        self.frames: list[np.ndarray] = []  # raw frames from the next row's first frame on
        self.skip = 0  # frames before the next row's first, when subsample > stack
        self.encoder = IncrementalEncoder(model.config.audio, model.params.audio, model.counters)
        self.label_state = LabelState(model)

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
        out, self.label_state = _greedy_rows(self.model, new, self.label_state, self.max_symbols_per_frame)
        return out

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
        out, self.label_state = _greedy_rows(self.model, new, self.label_state, self.max_symbols_per_frame)
        return out
