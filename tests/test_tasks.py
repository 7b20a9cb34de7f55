import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ttkit.tasks import (
    BinaryReader,
    BinaryWriter,
    Dataset,
    Utterance,
    DatasetFormatError,
    SyntheticTaskConfig,
    corpus_wer,
    dataset_bytes,
    edit_distance,
    gen_synthetic,
    read_dataset,
    symbol_templates,
    wer,
    write_dataset,
)
from ttkit.tasks import _bigram_table
from ttkit.tensor import Rng


def task_config(**kw):
    defaults = dict(vocab=5, label_len=(3, 5), frames_per_label=(1, 3),
                    feature_dim=8, noise_sigma=0.1, size=20, seed=100)
    defaults.update(kw)
    return SyntheticTaskConfig(**defaults)


def split(data: Dataset, *sizes: int) -> list[Dataset]:
    """`data` sliced into consecutive subsets of `sizes`; the remainder
    forms a final part."""
    parts, at = [], 0
    for n in sizes:
        parts.append(Dataset(data.num_labels, data.utterances[at:at + n]))
        at += n
    parts.append(Dataset(data.num_labels, data.utterances[at:]))
    return parts


def nearest_template_decode(features: np.ndarray, templates: np.ndarray) -> list[int]:
    """Non-neural reference decoder: classify each frame by nearest template,
    then collapse runs. Exact on noiseless data."""
    d2 = ((features[:, None, :] - templates[None, :, :]) ** 2).sum(axis=2)
    per_frame = d2.argmin(axis=1) + 1
    out = []
    for label in per_frame:
        if not out or out[-1] != label:
            out.append(int(label))
    return out


def test_noiseless_task_is_separable():
    cfg = task_config(noise_sigma=0.0, frames_per_label=(1, 1), size=30)
    data = gen_synthetic(cfg)
    templates = symbol_templates(cfg)
    for utt in data.utterances:
        np.testing.assert_array_equal(utt.features, templates[np.array(utt.labels) - 1])
        assert nearest_template_decode(utt.features, templates) == utt.labels


def test_nearest_template_oracle_recovers_labels_with_runs():
    cfg = task_config(noise_sigma=0.0, frames_per_label=(1, 4), size=50)
    data = gen_synthetic(cfg)
    templates = symbol_templates(cfg)
    for utt in data.utterances:
        assert nearest_template_decode(utt.features, templates) == utt.labels


def test_generation_deterministic():
    cfg = task_config()
    a = dataset_bytes(gen_synthetic(cfg))
    b = dataset_bytes(gen_synthetic(cfg))
    assert a == b


def test_first_index_gives_disjoint_split_of_same_task():
    whole = gen_synthetic(task_config(size=30))
    head = gen_synthetic(task_config(size=20))
    tail = gen_synthetic(task_config(size=10, first_index=20))
    rebuilt = head.utterances + tail.utterances
    assert [u.id for u in rebuilt] == [u.id for u in whole.utterances]
    for a, b in zip(rebuilt, whole.utterances):
        assert a.labels == b.labels and a.features.tobytes() == b.features.tobytes()


def test_label_length_range_respected():
    cfg = task_config(label_len=(3, 5), size=60)
    for utt in gen_synthetic(cfg).utterances:
        assert len(utt.labels) in (3, 4, 5)


def test_labels_within_vocab_and_no_repeats():
    cfg = task_config(size=40, bigram_scale=2.0)
    for utt in gen_synthetic(cfg).utterances:
        assert all(1 <= label <= cfg.vocab for label in utt.labels)
        assert all(a != b for a, b in zip(utt.labels, utt.labels[1:]))


def test_bigram_scale_changes_distribution():
    flat = gen_synthetic(task_config(size=200, bigram_scale=0.0, label_len=(5, 5)))
    biased = gen_synthetic(task_config(size=200, bigram_scale=3.0, label_len=(5, 5)))

    def bigram_counts(data):
        counts = np.zeros((6, 6))
        for utt in data.utterances:
            for a, b in zip(utt.labels, utt.labels[1:]):
                counts[a, b] += 1
        return counts / counts.sum()

    spread_flat = bigram_counts(flat).max()
    spread_biased = bigram_counts(biased).max()
    assert spread_biased > spread_flat * 1.5


@pytest.mark.parametrize("field, value, message", [
    ("noise_sigma", -0.1, "noise_sigma must be >= 0"),
    ("noise_sigma", math.nan, "noise_sigma must be finite, got nan"),
    ("noise_sigma", math.inf, "noise_sigma must be finite, got inf"),
    ("bigram_scale", -1.0, "bigram_scale must be >= 0"),
    ("bigram_scale", math.nan, "bigram_scale must be finite, got nan"),
    ("bigram_scale", math.inf, "bigram_scale must be finite, got inf"),
    ("bigram_scale", -math.inf, "bigram_scale must be finite, got -inf"),
])
def test_task_config_rejects_negative_and_non_finite_floats(field, value, message):
    """Python callers get the range checks that config files and flags get:
    a NaN bigram scale would repeat labels, and a NaN noise level would
    give a noiseless set."""
    with pytest.raises(ValueError) as err:
        task_config(**{field: value})
    assert str(err.value) == message


# ------------------------------------------------------------------- wer

def test_wer_identical_zero():
    assert wer(["a", "b", "c"], ["a", "b", "c"]) == 0.0


def test_wer_single_substitution():
    assert wer(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(1 / 3)


def test_wer_deletion():
    assert wer(["a"], []) == 1.0


def test_wer_empty_reference_errors():
    with pytest.raises(ValueError):
        wer([], ["a"])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8),
       st.lists(st.integers(0, 3), max_size=8),
       st.lists(st.integers(0, 3), max_size=8))
@settings(max_examples=80, deadline=None)
def test_edit_distance_triangle(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    assert edit_distance(a, a) == 0


def test_corpus_wer_pools_edits():
    pairs = [(["a", "b"], ["a", "b"]), (["a"], ["x"])]
    assert corpus_wer(pairs) == pytest.approx(1 / 3)


# ------------------------------------------------------------------ files

def test_dataset_roundtrip_exact(tmp_path):
    data = gen_synthetic(task_config())
    path = tmp_path / "data.ttds"
    write_dataset(data, path)
    loaded = read_dataset(path)
    assert loaded.num_labels == data.num_labels
    assert len(loaded.utterances) == len(data.utterances)
    for a, b in zip(data.utterances, loaded.utterances):
        assert a.id == b.id and a.labels == b.labels
        assert a.features.tobytes() == b.features.tobytes()


def test_dataset_corrupt_magic(tmp_path):
    path = tmp_path / "data.ttds"
    write_dataset(gen_synthetic(task_config(size=2)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="magic"):
        read_dataset(path)


def test_dataset_truncation(tmp_path):
    path = tmp_path / "data.ttds"
    write_dataset(gen_synthetic(task_config(size=3)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(DatasetFormatError, match="truncated"):
        read_dataset(path)


def test_dataset_label_out_of_vocab(tmp_path):
    data = gen_synthetic(task_config(size=1, vocab=3))
    data.utterances[0].labels[0] = 9
    path = tmp_path / "data.ttds"
    write_dataset(data, path)
    with pytest.raises(DatasetFormatError, match="vocab"):
        read_dataset(path)


def test_empty_dataset_roundtrip(tmp_path):
    path = tmp_path / "empty.ttds"
    write_dataset(Dataset(4, []), path)
    loaded = read_dataset(path)
    assert loaded.num_labels == 4 and loaded.utterances == []


def test_split_slices_consecutively():
    data = gen_synthetic(task_config(size=10))
    train, dev, test = split(data, 6, 2)
    assert [len(p.utterances) for p in (train, dev, test)] == [6, 2, 2]
    assert train.utterances[0].id == "utt00000"
    assert test.utterances[-1].id == "utt00009"


def _write_raw_utterance(path, t, d, ident=b"u0"):
    """A one-utterance dataset file with the given header fields."""
    import struct

    body = struct.pack("<Q", len(ident)) + ident + struct.pack("<QQ", t, d)
    body += b"\0" * (8 * t * d) + struct.pack("<Q", 1) + struct.pack("<I", 1)
    path.write_bytes(b"TTDS" + struct.pack("<IQQ", 1, 2, 1) + body)


@pytest.mark.parametrize("t, d, ident, match", [
    (1, 2, b"\xffid", "not UTF-8"),
    (2 ** 62, 0, b"u0", "bad array shape"),
    (2 ** 64 - 1, 0, b"u0", "bad array shape"),
    (0, 3, b"u0", "utterance 'u0'"),
    (0, 0, b"u0", "utterance 'u0'"),
])
def test_dataset_malformed_utterance_is_format_error(tmp_path, t, d, ident, match):
    path = tmp_path / "d.ttds"
    _write_raw_utterance(path, t, d, ident)
    with pytest.raises(DatasetFormatError, match=match):
        read_dataset(path)


def test_dataset_zero_width_features_still_load(tmp_path):
    path = tmp_path / "d.ttds"
    write_dataset(Dataset(2, [Utterance("u0", np.zeros((3, 0)), [1])]), path)
    assert read_dataset(path).utterances[0].features.shape == (3, 0)


def test_dataset_bytes_pinned():
    """A fixed set whose first utterance id is non-ASCII encodes to pinned
    bytes: any change to the `.ttds` encoding shows here."""
    data = gen_synthetic(task_config(size=6))
    data.utterances[0].id = "äußerung-語"
    raw = dataset_bytes(data)
    assert len(raw) == 3570
    assert hashlib.sha256(raw).hexdigest() == "a2f568e6aca8e72d218d6b7ac038d6266204108949d067bf68e20e817e7a2437"


@pytest.mark.parametrize("kw, digest", [
    (dict(bigram_scale=3.0), "9410b4e1547d9f2917396105f7074e1f099ad268e5d57163143fbbe95531f7cb"),
    (dict(noise_sigma=0.0), "a2919e8b7b771d968619be3b575b9166239396c0b3208a6c86d4b772ddee4318"),
    (dict(first_index=1000), "77050384ddfed574eb815131f43f8ddd5d4f8d95c18851e654b773ba8c4de666"),
    (dict(vocab=2), "9b5afd2c5c267e0969bd96fbb0c378b6d9204d287cd39e2a9801ccfaad4f13eb"),
    (dict(label_len=(4, 4), frames_per_label=(2, 2)), "62c67983af4a86ec8f94378a577520c9a36561413c70adaccfab57db9a27dbf9"),
], ids=["bigram", "noiseless", "first-index", "vocab-2", "width-1-ranges"])
def test_generated_bytes_pinned(kw, digest):
    """The generator's draws pinned where `test_dataset_bytes_pinned` does
    not reach: a bigram table, no noise, a later first index, a vocab whose
    every label forces the next, and one-value label and frame ranges."""
    raw = dataset_bytes(gen_synthetic(task_config(size=6, **kw)))
    assert hashlib.sha256(raw).hexdigest() == digest


def per_label_gen_synthetic(config: SyntheticTaskConfig) -> Dataset:
    """`gen_synthetic` drawn one number per call and built from one tile per
    label: the reference its whole-array draws are held to, byte for byte."""
    templates = symbol_templates(config)
    table = _bigram_table(config)
    root = Rng(config.seed)
    utts = []
    for i in range(config.first_index, config.first_index + config.size):
        rng = root.substream(f"utt{i}")
        u = rng.integers(config.label_len[0], config.label_len[1] + 1)
        labels = []
        prev = 0
        for _ in range(u):
            r = rng.uniform()
            label = int(np.searchsorted(np.cumsum(table[prev]), r)) + 1
            label = min(label, config.vocab)
            labels.append(label)
            prev = label
        rows = []
        for label in labels:
            k = rng.integers(config.frames_per_label[0], config.frames_per_label[1] + 1)
            rows.append(np.tile(templates[label - 1], (k, 1)))
        features = np.concatenate(rows, axis=0)
        if config.noise_sigma > 0:
            features = features + rng.normal(features.shape, sigma=config.noise_sigma)
        utts.append(Utterance(id=f"utt{i:05d}", features=features, labels=labels))
    return Dataset(config.vocab, utts)


@st.composite
def synthetic_configs(draw) -> SyntheticTaskConfig:
    label_lo = draw(st.integers(1, 6))
    frames_lo = draw(st.integers(1, 4))
    return SyntheticTaskConfig(
        vocab=draw(st.integers(2, 7)),
        label_len=(label_lo, draw(st.integers(label_lo, 8))),
        frames_per_label=(frames_lo, draw(st.integers(frames_lo, 6))),
        feature_dim=draw(st.integers(1, 6)),
        noise_sigma=draw(st.just(0.0) | st.floats(1e-3, 2.0)),
        size=draw(st.integers(0, 12)),
        seed=draw(st.integers(0, 2**64 - 1)),
        bigram_scale=draw(st.just(0.0) | st.floats(0.0, 4.0)),
        first_index=draw(st.integers(0, 10**6)))


@given(config=synthetic_configs())
@settings(max_examples=150, deadline=None)
def test_gen_synthetic_equals_per_label_reference(config):
    assert dataset_bytes(gen_synthetic(config)) == dataset_bytes(per_label_gen_synthetic(config))


@given(magic=st.binary(min_size=4, max_size=4), version=st.integers(0, 2**32 - 1),
       values=st.lists(st.integers(0, 2**64 - 1), max_size=4), text=st.text(),
       floats=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
       transpose=st.booleans(), labels=st.lists(st.integers(0, 2**32 - 1), max_size=4))
@example(magic=b"TTDS", version=1, values=[0, 2**64 - 1], text="",
         floats=np.array([-0.0, math.inf, -math.inf, math.nan]), transpose=False, labels=[])
@example(magic=b"TTCK", version=1, values=[], text="äußerung-語", floats=np.zeros((0, 3)),
         transpose=True, labels=[1, 2**32 - 1])
@settings(max_examples=200, deadline=None)
def test_writer_fields_read_back_and_match_struct_packing(magic, version, values, text, floats,
                                                          transpose, labels):
    """Each `BinaryWriter` field gives the bytes of the `struct` packing the
    writers are held to, and `BinaryReader` reads it back."""
    floats = floats.T if transpose else floats
    w = BinaryWriter(magic, version)
    w.u64(*values)
    w.text(text)
    w.array(floats, "<f8")
    w.array(labels, "<u4")
    raw = bytes(w)
    ident = text.encode("utf-8")
    assert raw == (magic + struct.pack("<I", version) + struct.pack(f"<{len(values)}Q", *values)
                   + struct.pack("<Q", len(ident)) + ident
                   + struct.pack(f"<{floats.size}d", *floats.ravel().tolist())
                   + struct.pack(f"<{len(labels)}I", *labels))
    r = BinaryReader(raw, DatasetFormatError, magic, version, "test")
    assert [r.u64() for _ in values] == values
    assert r.text() == text
    assert r.array(floats.shape, "<f8").tobytes() == np.ascontiguousarray(floats).tobytes()
    assert r.array((len(labels),), "<u4").tolist() == labels
    r.finish("field")


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """`raw` truncated, with one byte flipped, or with bytes inserted."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.binary(min_size=1, max_size=4)) + raw[at:]


FUZZ_DATASET = dataset_bytes(gen_synthetic(task_config(size=3, feature_dim=2, label_len=(1, 3))))


def _fuzz_checkpoint_bytes():
    from ttkit.attention import AttentionMask
    from ttkit.model import desk_config, init_model
    from ttkit.tensor import Rng
    from ttkit.train import checkpoint_bytes

    cfg = desk_config(vocab_size=4, feature_dim=3, audio_mask=AttentionMask(2, 1), label_left=2,
                      num_audio_layers=1, model_dim=4, max_relative_offset=2)
    return checkpoint_bytes(init_model(cfg, Rng(0)))


FUZZ_CHECKPOINT = _fuzz_checkpoint_bytes()


@given(data=damaged(FUZZ_DATASET))
@settings(max_examples=300, deadline=None)
def test_damaged_dataset_loads_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ttds"
    path.write_bytes(data)
    try:
        read_dataset(path)
    except DatasetFormatError:
        pass


@given(data=damaged(FUZZ_CHECKPOINT))
@settings(max_examples=300, deadline=None)
def test_damaged_checkpoint_loads_or_raises_format_error(tmp_path_factory, data):
    from ttkit.train import CheckpointFormatError, load_checkpoint

    path = tmp_path_factory.getbasetemp() / "fuzz.ttck"
    path.write_bytes(data)
    try:
        load_checkpoint(path)
    except CheckpointFormatError:
        pass
