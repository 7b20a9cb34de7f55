"""Model container: audio encoder + label encoder + joint network.

Ties the encoder stacks and joint parameters to a vocabulary and frontend so
training, decoding, and checkpointing can treat the whole model as one unit
with a flat named-parameter view. A model made by `init_model` or
`train.load_checkpoint` stores every parameter in one contiguous buffer
(`tensor.FlatParams`), which training updates as a whole.

An `Rng` passed to the forward methods means training: SpecAugment and
dropout draw from its labeled substreams. Without one they are skipped. A
batch runs as one padded graph (`batch_grid`) with one `Rng` per example.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from . import attention as att
from . import frontend as fe
from . import tensor as tt
from . import transducer as tr
from .attention import AttentionMask, Counters, EncoderConfig, EncoderParams
from .frontend import FrontendConfig
from .tensor import BatchRng, FlatParams, ParamSpec, ParamTree, Rng, Tensor, flat_params
from .transducer import JointParams, LogProbGrid


@dataclass
class ModelConfig:
    vocab_size: int               # including blank
    feature_dim: int              # raw features, before stacking
    joint_dim: int
    audio: EncoderConfig
    label: EncoderConfig
    frontend: FrontendConfig

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.joint_dim < 1:
            raise ValueError("joint_dim must be positive")
        stacked = self.feature_dim * self.frontend.stack
        if self.audio.input_dim != stacked:
            raise ValueError(
                f"audio input_dim {self.audio.input_dim} != feature_dim*stack = {stacked}")
        if self.label.mask.right != 0:
            raise ValueError(
                f"label encoder must be causal (right=0), got right={self.label.mask.right}")


@dataclass
class ModelParams(ParamTree):
    audio: EncoderParams
    label: EncoderParams
    label_embedding: Tensor       # [V, label.input_dim]; row 0 doubles as start-of-sequence
    joint: JointParams


def param_spec(config: ModelConfig) -> ModelParams:
    """Every parameter's name (its field path), shape and initializer: the
    one schema that initialization, counting and loading derive from. Each
    group draws from the substream of its own label."""
    return ModelParams(
        audio=att.encoder_param_spec(config.audio, ("audio",)),
        label=att.encoder_param_spec(config.label, ("label",)),
        label_embedding=ParamSpec((config.vocab_size, config.label.input_dim), 1.0, ("embedding",)),
        joint=tr.joint_param_spec(config.audio.model_dim, config.label.model_dim,
                                  config.joint_dim, config.vocab_size, ("joint",)),
    )


class TransducerModel:
    """`flat` is the storage of `params` in a model that trains. A model
    built over some other parameter tree has none."""

    def __init__(self, config: ModelConfig, params: ModelParams, counters: Counters | None = None,
                 flat: FlatParams | None = None):
        self.config = config
        self.params = params
        self.counters = counters if counters is not None else Counters()
        self.flat = flat

    def named_params(self) -> list[tuple[str, Tensor]]:
        return list(self.params.named())

    # ------------------------------------------------------------ forward

    def prepare_features(self, features: np.ndarray, rng: Rng | None = None) -> np.ndarray:
        """Frontend: stacking/subsampling, plus masking when given an `rng`
        and augmentation is on. Without stacking or masking the result is
        `features` itself (as float64), which no caller writes to."""
        fc = self.config.frontend
        out = fe.stack_subsample(features, fc.stack, fc.subsample)
        if rng is not None and fc.augment_enabled:
            out = fe.spec_augment(out, fc, rng.substream("augment"))
        return out

    def encode_audio(self, stacked: np.ndarray, rng: Rng | Sequence[Rng] | None = None,
                     lengths: np.ndarray | None = None) -> Tensor:
        """Audio encoder over prepared (stacked) features: one example's
        [T, F] rows and its `Rng`, or a batch padded to [B, T, F] with its
        examples' frame counts `lengths` and one `Rng` each."""
        return att.encode(Tensor(stacked), self.config.audio, self.params.audio,
                          _substream(rng, "audio", lengths), self.counters, lengths)

    def encode_labels(self, y: Sequence[int] | np.ndarray, rng: Rng | Sequence[Rng] | None = None,
                      lengths: np.ndarray | None = None) -> Tensor:
        """Label encoder over the start token plus the target history; row u
        encodes the first u labels. `y` is one example's targets, or a batch's
        padded [B, U] with its examples' label counts `lengths` (and one
        `Rng` each)."""
        y = np.asarray(y, dtype=np.intp)
        for targets, n in zip(np.atleast_2d(y), [y.shape[-1]] if lengths is None else lengths):
            tr.check_targets(targets[:n], self.config.vocab_size)
        ids = np.concatenate([np.full(y.shape[:-1] + (1,), tr.BLANK_ID), y], axis=-1)
        rows = None if lengths is None else np.asarray(lengths) + 1
        emb = tt.rows(self.params.label_embedding, ids)
        return att.encode(emb, self.config.label, self.params.label,
                          _substream(rng, "label", rows), self.counters, rows)

    def example_grid(self, features: np.ndarray, y: Sequence[int], rng: Rng | None = None) -> LogProbGrid:
        """One example's [T, U+1, V] grid."""
        stacked = self.prepare_features(features, rng)
        audio = self.encode_audio(stacked, rng)
        labels = self.encode_labels(y, rng)
        self.counters.joint_evals += audio.shape[0] * labels.shape[0]
        return tr.log_prob_grid(audio, labels, self.params.joint)

    def batch_grid(self, features: Sequence[np.ndarray], ys: Sequence[Sequence[int]],
                   rngs: Sequence[Rng] | None = None) -> LogProbGrid:
        """A batch's grids as one padded [B, T, U+1, V] graph node. Each
        example is prepared alone (`prepare_features`, with its own `Rng`),
        then the encoders and the joint run once over the padded batch;
        padding adds no attention score or joint evaluation to the counters."""
        stacked, frames = pad([self.prepare_features(f, r)
                               for f, r in zip(features, rngs or repeat(None))])
        targets, label_counts = pad([np.asarray(y, dtype=np.intp) for y in ys])
        audio = self.encode_audio(stacked, rngs, frames)
        labels = self.encode_labels(targets, rngs, label_counts)
        self.counters.joint_evals += int(frames @ (label_counts + 1))
        return tr.log_prob_grid(audio, labels, self.params.joint, frames)

    # Decoding evaluates the joint many times against few distinct encoder
    # activations, so the two linear halves are exposed for caching. They
    # compute `transducer.log_prob_grid` at one (frame, history) pair:
    # tanh((a W_a + b_a) + (l W_l + b_l)) W_o + b_o, then log-softmax.

    def project_audio(self, audio_vec: np.ndarray) -> np.ndarray:
        j = self.params.joint
        return audio_vec @ j.audio_w.values + j.audio_b.values

    def project_label(self, label_vec: np.ndarray) -> np.ndarray:
        j = self.params.joint
        return label_vec @ j.label_w.values + j.label_b.values

    def joint_from_projections(self, audio_proj: np.ndarray, label_proj: np.ndarray) -> np.ndarray:
        self.counters.joint_evals += 1
        j = self.params.joint
        logits = np.tanh(audio_proj + label_proj) @ j.out_w.values + j.out_b.values
        m = logits.max()
        return logits - (m + np.log(np.exp(logits - m).sum()))


def pad(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of different lengths stacked on a new leading batch axis, zero
    past each one's own length, and those lengths."""
    lengths = np.array([len(r) for r in rows])
    out = np.zeros((len(rows), lengths.max()) + rows[0].shape[1:], dtype=rows[0].dtype)
    for b, r in enumerate(rows):
        out[b, :len(r)] = r
    return out, lengths


def _substream(rng: Rng | Sequence[Rng] | None, label: str, lengths) -> Rng | BatchRng | None:
    """The `label` substream of one example's `Rng`, or of each example's
    in a batch padded past `lengths`."""
    if rng is None:
        return None
    return rng.substream(label) if lengths is None else BatchRng(rng, lengths).substream(label)


def init_model(config: ModelConfig, rng: Rng) -> TransducerModel:
    def draw(_, spec: ParamSpec, out: np.ndarray):
        out[...] = spec.materialize(rng).values

    params, flat = flat_params(param_spec(config), draw)
    return TransducerModel(config, params, flat=flat)


def model_config_from_dict(d: dict) -> ModelConfig:
    def encoder(e: dict) -> EncoderConfig:
        return EncoderConfig(**{**e, "mask": AttentionMask(**e["mask"])})

    return ModelConfig(**{**d, "audio": encoder(d["audio"]), "label": encoder(d["label"]),
                          "frontend": FrontendConfig(**d["frontend"])})


def desk_config(
    vocab_size: int = 7,
    feature_dim: int = 16,
    audio_mask: AttentionMask = AttentionMask(None, None),
    label_left: int | None = None,
    num_audio_layers: int = 2,
    num_label_layers: int = 1,
    model_dim: int = 32,
    dropout: float = 0.1,
    frontend: FrontendConfig | None = None,
    max_relative_offset: int = 16,
) -> ModelConfig:
    """Default desk-scale setup: 2 audio layers, 1 label layer, model_dim 32,
    2 heads. Masks and sizes stay configurable up to full-paper shapes."""
    frontend = frontend if frontend is not None else FrontendConfig()
    audio = EncoderConfig(
        num_layers=num_audio_layers, model_dim=model_dim, ff_dim1=2 * model_dim,
        ff_dim2=model_dim, num_heads=2, head_dim=model_dim // 2,
        dropout_ratio=dropout, mask=audio_mask,
        input_dim=feature_dim * frontend.stack,
        max_relative_offset=max_relative_offset,
    )
    label = EncoderConfig(
        num_layers=num_label_layers, model_dim=model_dim, ff_dim1=2 * model_dim,
        ff_dim2=model_dim, num_heads=2, head_dim=model_dim // 2,
        dropout_ratio=dropout, mask=AttentionMask(label_left, 0),
        input_dim=model_dim,
        max_relative_offset=max_relative_offset,
    )
    return ModelConfig(
        vocab_size=vocab_size, feature_dim=feature_dim, joint_dim=model_dim,
        audio=audio, label=label, frontend=frontend,
    )
