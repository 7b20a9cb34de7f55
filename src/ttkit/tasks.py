"""Synthetic utterances with known monotonic alignments, WER, dataset files.

Each utterance renders its label sequence as runs of a fixed per-symbol
template vector plus Gaussian noise, so a non-neural nearest-template decoder
recovers the labels exactly at zero noise. Consecutive labels are always
distinct, which keeps run-length deduplication lossless. Datasets (`.ttds`)
and checkpoints (`.ttck`) share one `BinaryWriter` and one `BinaryReader`.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import Rng
from .transducer import check_targets


class DatasetFormatError(ValueError):
    """Dataset file violates the on-disk format."""


@dataclass
class SyntheticTaskConfig:
    vocab: int                      # non-blank symbols
    label_len: tuple[int, int]      # inclusive range of target lengths
    frames_per_label: tuple[int, int]
    feature_dim: int
    noise_sigma: float
    size: int
    seed: int
    bigram_scale: float = 0.0       # >0 gives labels a seeded bigram structure
    first_index: int = 0            # start utterance index: same seed + disjoint
                                    # index ranges share templates but no data

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError(f"need at least 2 non-blank symbols, got {self.vocab}")
        for name in ("label_len", "frames_per_label"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} range ({lo}, {hi}) is empty or non-positive")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for name in ("noise_sigma", "bigram_scale"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.size < 0 or self.first_index < 0:
            raise ValueError("size and first_index must be >= 0")


@dataclass
class Utterance:
    id: str
    features: np.ndarray           # [T, d] float64
    labels: list[int]              # blank-free, ids in 1..vocab

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError(f"features must be [T>=1, d], got shape {self.features.shape}")


@dataclass
class Dataset:
    num_labels: int                # non-blank symbols
    utterances: list[Utterance] = field(default_factory=list)


def symbol_templates(config: SyntheticTaskConfig) -> np.ndarray:
    """Per-symbol feature templates, unit Gaussian, frozen by the seed.
    Row i-1 is the template of label id i."""
    return Rng(config.seed).substream("templates").normal((config.vocab, config.feature_dim))


def _bigram_table(config: SyntheticTaskConfig) -> np.ndarray:
    """Row-stochastic next-label table (rows: previous label 0=start, 1..V);
    immediate repeats are forbidden so template runs stay unambiguous."""
    rng = Rng(config.seed).substream("bigram")
    logits = rng.normal((config.vocab + 1, config.vocab), sigma=config.bigram_scale)
    np.fill_diagonal(logits[1:], -np.inf)  # label id i is row i, column i - 1
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


def gen_synthetic(config: SyntheticTaskConfig) -> Dataset:
    """Render `size` utterances. Label sequences follow the (possibly flat)
    bigram table; each label occupies a sampled number of consecutive frames
    of its template plus noise. Utterance i's substream draws, in order, its
    label count u, u uniforms for the label chain, u frame counts, then noise."""
    templates = symbol_templates(config)
    cumulative = np.cumsum(_bigram_table(config), axis=1).tolist()
    utts = []
    for i in range(config.first_index, config.first_index + config.size):
        rng = Rng(config.seed).substream(f"utt{i}")
        u = rng.integers(config.label_len[0], config.label_len[1] + 1)
        labels, prev = [], 0
        for r in rng.uniform(u).tolist():
            prev = min(bisect.bisect_left(cumulative[prev], r) + 1, config.vocab)
            labels.append(prev)
        counts = rng.integers(config.frames_per_label[0], config.frames_per_label[1] + 1, u)
        features = templates[np.repeat(np.array(labels) - 1, counts)]
        if config.noise_sigma > 0:
            features = features + rng.normal(features.shape, sigma=config.noise_sigma)
        utts.append(Utterance(id=f"utt{i:05d}", features=features, labels=labels))
    return Dataset(config.vocab, utts)


def edit_distance(ref, hyp) -> int:
    """Levenshtein distance over sequence items."""
    ref, hyp = list(ref), list(hyp)
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1]


def wer(ref, hyp) -> float:
    """(substitutions + insertions + deletions) / |ref|: one pair's `corpus_wer`."""
    return corpus_wer([(ref, hyp)])


def corpus_wer(pairs) -> float:
    """Total edits over total reference length across (ref, hyp) pairs."""
    edits, total = 0, 0
    for ref, hyp in pairs:
        ref = list(ref)
        edits += edit_distance(ref, hyp)
        total += len(ref)
    if total == 0:
        raise ValueError("corpus_wer needs non-empty references")
    return edits / total


_MAGIC = b"TTDS"
_VERSION = 1


def dataset_bytes(dataset: Dataset) -> bytes:
    w = BinaryWriter(_MAGIC, _VERSION)
    w.u64(dataset.num_labels, len(dataset.utterances))
    for utt in dataset.utterances:
        w.text(utt.id)
        t, d = utt.features.shape
        w.u64(t, d)
        w.array(utt.features, "<f8")
        w.u64(len(utt.labels))
        w.array(utt.labels, "<u4")
    return bytes(w)


def write_dataset(dataset: Dataset, path):
    with open(path, "wb") as f:
        f.write(dataset_bytes(dataset))


class BinaryWriter(bytearray):
    """A `.ttds` or `.ttck` file's bytes as `BinaryReader` reads them: magic,
    u32 version, then little-endian u64s, u64-length-prefixed text, arrays."""

    def __init__(self, magic: bytes, version: int):
        super().__init__(magic + struct.pack("<I", version))

    def u64(self, *values: int):
        self.extend(struct.pack(f"<{len(values)}Q", *values))

    def text(self, value: str):
        raw = value.encode("utf-8")
        self.u64(len(raw))
        self.extend(raw)

    def array(self, values, dtype: str):
        self.extend(np.ascontiguousarray(values, dtype=dtype).tobytes())


class BinaryReader:
    """Cursor over one `.ttds` or `.ttck` file. Checks the magic and version
    on construction; every violation of the format raises `error`."""

    def __init__(self, data: bytes, error: type[ValueError], magic: bytes, version: int, kind: str):
        self.data = data
        self.at = 0
        self.error = error
        if self.take(4) != magic:
            raise error(f"bad magic: not a {kind} file")
        found = struct.unpack("<I", self.take(4))[0]
        if found != version:
            raise error(f"unsupported {kind} version {found}")

    def take(self, n: int) -> bytes:
        if self.at + n > len(self.data):
            raise self.error(f"truncated file: needed {n} bytes at offset {self.at}")
        chunk = self.data[self.at:self.at + n]
        self.at += n
        return chunk

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self) -> str:
        """A u64 length, then that many bytes of UTF-8."""
        raw = self.take(self.u64())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"text at offset {self.at - len(raw)} is not UTF-8: {e}") from e

    def array(self, shape: tuple[int, ...], dtype: str) -> np.ndarray:
        raw = self.take(math.prod(shape) * np.dtype(dtype).itemsize)
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as e:
            raise self.error(f"bad array shape {shape}: {e}") from e

    def finish(self, last: str):
        if self.at != len(self.data):
            raise self.error(f"{len(self.data) - self.at} trailing bytes after last {last}")


def read_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        r = BinaryReader(f.read(), DatasetFormatError, _MAGIC, _VERSION, "dataset")
    num_labels = r.u64()
    count = r.u64()
    utts = []
    for _ in range(count):
        ident = r.text()
        features = r.array((r.u64(), r.u64()), "<f8").copy()
        labels = r.array((r.u64(),), "<u4").tolist()
        try:
            check_targets(labels, num_labels + 1)
            utts.append(Utterance(id=ident, features=features, labels=labels))
        except ValueError as e:
            raise DatasetFormatError(f"utterance {ident!r}: {e}") from e
    r.finish("utterance")
    return Dataset(num_labels, utts)
