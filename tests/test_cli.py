import argparse
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from ttkit import cli
from ttkit import decode as dec
from ttkit import train as trn
from ttkit.attention import AttentionMask
from ttkit.cli import build_parser, main
from ttkit.config import ConfigError, load_run_config, parse_run_config, resolved_config_dict
from ttkit.decode import greedy_decode
from ttkit.model import desk_config, init_model
from ttkit.tasks import (Dataset, SyntheticTaskConfig, Utterance, gen_synthetic, read_dataset,
                         write_dataset)
from ttkit.tensor import NumericsError, Rng
from ttkit.train import checkpoint_bytes, load_checkpoint, save_checkpoint


def base_config(**overrides):
    doc = {
        "seed": 3,
        "mask": {"audio_left": 10, "audio_right": 0, "label_left": 2},
        "model": {
            "vocab_size": 5, "feature_dim": 8, "joint_dim": 16,
            "audio": {"num_layers": 1, "model_dim": 16, "ff_dim1": 32, "ff_dim2": 16,
                      "num_heads": 2, "head_dim": 8, "dropout_ratio": 0.0,
                      "max_relative_offset": 12},
            "label": {"num_layers": 1, "model_dim": 16, "ff_dim1": 32, "ff_dim2": 16,
                      "num_heads": 2, "head_dim": 8, "dropout_ratio": 0.0,
                      "max_relative_offset": 12},
        },
        "schedule": {"peak_lr": 2e-3, "warmup_steps": 3, "hold_until": 10,
                     "decay_until": 30, "final_lr": 2e-4},
        "train": {"batch_size": 4, "total_steps": 8, "checkpoint_interval": 4},
    }
    doc.update(overrides)
    return doc


def small_dataset(path, vocab=4, size=12, seed=0, noise=0.05):
    cfg = SyntheticTaskConfig(vocab=vocab, label_len=(2, 3), frames_per_label=(1, 2),
                              feature_dim=8, noise_sigma=noise, size=size, seed=seed)
    data = gen_synthetic(cfg)
    write_dataset(data, path)
    return data


# ------------------------------------------------------------ config parse

def test_parse_valid_config():
    run = parse_run_config(base_config())
    assert run.model.audio.mask.left == 10
    assert run.model.label.mask.right == 0
    assert run.train.seed == 3
    assert run.schedule.peak_lr == 2e-3


def test_unknown_key_names_path():
    doc = base_config()
    doc["model"]["audio"]["typo_key"] = 1
    with pytest.raises(ConfigError, match=r"config\.model\.audio\.typo_key"):
        parse_run_config(doc)


def test_missing_required_key_names_path():
    doc = base_config()
    del doc["model"]["vocab_size"]
    with pytest.raises(ConfigError, match=r"config\.model\.vocab_size"):
        parse_run_config(doc)


def test_unlimited_mask_values():
    doc = base_config()
    doc["mask"] = {"audio_left": "unlimited", "audio_right": None, "label_left": 20}
    doc["model"]["audio"]["max_relative_offset"] = 8
    run = parse_run_config(doc)
    assert run.model.audio.mask.left is None and run.model.audio.mask.right is None


def test_bad_mask_value_names_path():
    doc = base_config()
    doc["mask"]["audio_left"] = -2
    with pytest.raises(ConfigError, match=r"config\.mask\.audio_left"):
        parse_run_config(doc)


def test_table_mask_triples_expressible():
    for left, right, label_left in [(512, 512, 20), (512, 10, 20), (10, 0, 20),
                                    (6, 0, 20), (2, 0, 20), (10, 2, 2), (10, 0, 1)]:
        doc = base_config()
        doc["mask"] = {"audio_left": left, "audio_right": right, "label_left": label_left}
        run = parse_run_config(doc)
        assert run.model.audio.mask.left == left


# ------------------------------------------------------- config behaviour pins
# Literal expectations for what a config resolves to, how it fails and what a
# checkpoint embeds, so the schema can change shape without changing behaviour.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_required_keys_only_yields_dataclass_defaults():
    encoder = {"num_layers": 1, "ff_dim1": 32, "num_heads": 2}
    doc = {"mask": {"audio_left": 4, "audio_right": 1, "label_left": None},
           "model": {"vocab_size": 5, "feature_dim": 8, "joint_dim": 16,
                     "audio": dict(encoder, model_dim=16, ff_dim2=16, head_dim=8),
                     "label": dict(encoder, model_dim=12, ff_dim2=12, head_dim=6,
                                   max_relative_offset=4)}}
    encoder_defaults = {"dropout_ratio": 0.1, "ln_eps": 1e-05, "final_layer_norm": True}
    assert resolved_config_dict(parse_run_config(doc)) == {
        "seed": 0,
        "model": {
            "vocab_size": 5, "feature_dim": 8, "joint_dim": 16,
            "audio": dict(encoder, model_dim=16, ff_dim2=16, head_dim=8, input_dim=8,
                          mask={"left": 4, "right": 1}, max_relative_offset=None,
                          **encoder_defaults),
            "label": dict(encoder, model_dim=12, ff_dim2=12, head_dim=6, input_dim=12,
                          mask={"left": None, "right": 0}, max_relative_offset=4,
                          **encoder_defaults),
            "frontend": {"stack": 1, "subsample": 1, "freq_mask_width": 0,
                         "freq_mask_count": 0, "time_mask_width": 0, "time_mask_count": 0,
                         "augment_enabled": False},
        },
        "schedule": {"peak_lr": 0.00025, "warmup_steps": 4000, "hold_until": 30000,
                     "decay_until": 200000, "final_lr": 2.5e-06},
        "train": {"batch_size": 8, "total_steps": 1000, "weight_noise_sigma": 0.0,
                  "weight_noise_start_step": 10000, "adam_beta1": 0.9, "adam_beta2": 0.999,
                  "adam_eps": 1e-08, "grad_clip_norm": 5.0, "checkpoint_interval": 200},
        "decode": {"beam_width": 4, "max_symbols_per_frame": 10},
        "paths": {},
    }


class _Delete:
    """Marks a case that removes the key instead of setting it.

    The repr is fixed text so the case ids are the same on every run. It is the
    text the ids were first recorded with, when the marker was a bare object()
    whose repr held its memory address.
    """

    def __repr__(self):
        return "<object object at 0x7f6b44d4efe0>"


_DELETE = _Delete()

CONFIG_ERRORS = [
    # (key path to set or delete, new value, exact error text)
    ((), [], "config: expected an object, got list"),
    (("extra",), 1, "config.extra: unknown key"),
    (("seed",), "3", "config.seed: expected an integer, got '3'"),
    (("seed",), True, "config.seed: expected an integer, got True"),
    (("mask",), _DELETE, "config.mask: missing required section"),
    (("mask",), [], "config.mask: expected an object, got list"),
    (("mask", "label_right"), 0, "config.mask.label_right: unknown key"),
    (("mask", "audio_right"), _DELETE, "config.mask.audio_right: missing required key"),
    (("mask", "audio_left"), -2,
     'config.mask.audio_left: expected a non-negative integer or "unlimited", got -2'),
    (("mask", "label_left"), "forever",
     'config.mask.label_left: expected a non-negative integer or "unlimited", got \'forever\''),
    (("model",), _DELETE, "config.model: missing required section"),
    (("model", "vocab_size"), _DELETE, "config.model.vocab_size: missing required key"),
    (("model", "vocab_size"), 1, "config.model: vocab_size must be >= 2, got 1"),
    (("model", "joint_dim"), 0, "config.model: joint_dim must be positive"),
    (("model", "feature_dim"), 8.0, "config.model.feature_dim: expected an integer, got 8.0"),
    (("model", "frontend"), {}, "config.model.frontend: unknown key"),
    (("model", "audio"), _DELETE, "config.model.audio: missing required section"),
    (("model", "audio"), "x", "config.model.audio: expected an object, got str"),
    (("model", "audio", "typo_key"), 1, "config.model.audio.typo_key: unknown key"),
    (("model", "audio", "input_dim"), 8, "config.model.audio.input_dim: unknown key"),
    (("model", "audio", "num_heads"), _DELETE, "config.model.audio.num_heads: missing required key"),
    (("model", "audio", "model_dim"), 1.5, "config.model.audio.model_dim: expected an integer, got 1.5"),
    (("model", "audio", "dropout_ratio"), "0.1",
     "config.model.audio.dropout_ratio: expected a number, got '0.1'"),
    (("model", "audio", "dropout_ratio"), 1.0,
     "config.model.audio: dropout_ratio must be in [0, 1), got 1.0"),
    (("model", "audio", "final_layer_norm"), 1,
     "config.model.audio.final_layer_norm: expected true/false, got 1"),
    (("model", "audio", "max_relative_offset"), None,
     "config.model.audio.max_relative_offset: expected an integer, got None"),
    (("model", "audio", "num_layers"), -1, "config.model.audio: num_layers must be >= 0, got -1"),
    (("model", "audio", "ln_eps"), 0, "config.model.audio: ln_eps must be positive and finite, got 0.0"),
    (("model", "label", "input_dim"), "x", "config.model.label.input_dim: expected an integer, got 'x'"),
    (("model", "label", "input_dim"), 0, "config.model.label: input_dim must be positive, got 0"),
    (("model", "label", "model_dim"), _DELETE, "config.model.label.model_dim: missing required key"),
    (("model", "label", "mask"), {}, "config.model.label.mask: unknown key"),
    (("frontend",), 3, "config.frontend: expected an object, got int"),
    (("frontend",), {"stride": 2}, "config.frontend.stride: unknown key"),
    (("frontend",), {"stack": 0}, "config.frontend: stack and subsample must be >= 1, got 0, 1"),
    (("frontend",), {"augment_enabled": "yes"},
     "config.frontend.augment_enabled: expected true/false, got 'yes'"),
    (("frontend",), {"freq_mask_width": -1}, "config.frontend: freq_mask_width must be >= 0"),
    (("schedule", "warmup_steps"), 0,
     "config.schedule: need 0 < warmup_steps <= hold_until < decay_until, got 0, 10, 30"),
    (("schedule", "final_lr"), 0.1, "config.schedule: need 0 < final_lr <= peak_lr, got 0.1, 0.002"),
    (("schedule", "peak"), 1.0, "config.schedule.peak: unknown key"),
    (("schedule", "peak_lr"), True, "config.schedule.peak_lr: expected a number, got True"),
    (("train",), [], "config.train: expected an object, got list"),
    (("train", "batch_size"), 0,
     "config.train: batch_size/checkpoint_interval must be >= 1 and total_steps >= 0"),
    (("train", "seed"), 3, "config.train.seed: unknown key"),
    (("train", "grad_clip_norm"), 0.0, "config.train: grad_clip_norm must be positive"),
    (("train", "weight_noise_sigma"), -0.1, "config.train: weight_noise_sigma must be >= 0"),
    (("train", "adam_beta1"), 1.0,
     "config.train: adam_beta1 and adam_beta2 must be in [0, 1), got 1.0, 0.999"),
    (("train", "adam_beta1"), -0.1,
     "config.train: adam_beta1 and adam_beta2 must be in [0, 1), got -0.1, 0.999"),
    (("train", "adam_beta2"), 1.5,
     "config.train: adam_beta1 and adam_beta2 must be in [0, 1), got 0.9, 1.5"),
    (("train", "adam_eps"), 0.0, "config.train: adam_eps must be positive, got 0.0"),
    (("train", "adam_eps"), -1e-08, "config.train: adam_eps must be positive, got -1e-08"),
    (("decode",), {"beam_width": 0},
     "config.decode: beam_width and max_symbols_per_frame must be >= 1"),
    (("decode",), {"max_symbols_per_frame": 0},
     "config.decode: beam_width and max_symbols_per_frame must be >= 1"),
    (("decode",), {"beam": 2}, "config.decode.beam: unknown key"),
    (("decode",), {"lm_weight": 0.3}, "config.decode.lm_weight: unknown key"),
    (("decode",), {"length_bonus": 0.0}, "config.decode.length_bonus: unknown key"),
    (("paths",), {"dataset": 5}, "config.paths.dataset: expected a string, got 5"),
    (("paths",), {"dataset": "a.ttds", "test": "b.ttds"}, "config.paths.test: unknown key"),
    (("paths",), "data", "config.paths: expected an object, got str"),
    (("train", "grad_clip_norm"), math.nan, "config.train.grad_clip_norm: expected a finite number, got nan"),
    (("schedule", "peak_lr"), math.inf, "config.schedule.peak_lr: expected a finite number, got inf"),
    (("schedule", "final_lr"), -math.inf, "config.schedule.final_lr: expected a finite number, got -inf"),
]


@pytest.mark.parametrize("path, value, message", CONFIG_ERRORS,
                         ids=[".".join(p) + f"={v!r}" for p, v, _ in CONFIG_ERRORS])
def test_config_error_text(path, value, message):
    doc = base_config()
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    with pytest.raises(ConfigError) as info:
        parse_run_config(doc)
    assert str(info.value) == message
    assert info.value.path == message.split(": ", 1)[0]


RESOLVED_DESK = (
    '{"decode": {"beam_width": 4, "max_symbols_per_frame": 10}, '
    '"model": {"audio": {"dropout_ratio": 0.1, "ff_dim1": 64, "ff_dim2": 32, "final_layer_norm": true, '
    '"head_dim": 16, "input_dim": 16, "ln_eps": 1e-05, "mask": {"left": 10, "right": 0}, '
    '"max_relative_offset": 16, "model_dim": 32, "num_heads": 2, "num_layers": 2}, "feature_dim": 16, '
    '"frontend": {"augment_enabled": false, "freq_mask_count": 0, "freq_mask_width": 0, "stack": 1, '
    '"subsample": 1, "time_mask_count": 0, "time_mask_width": 0}, "joint_dim": 32, '
    '"label": {"dropout_ratio": 0.1, "ff_dim1": 64, "ff_dim2": 32, "final_layer_norm": true, '
    '"head_dim": 16, "input_dim": 32, "ln_eps": 1e-05, "mask": {"left": 2, "right": 0}, '
    '"max_relative_offset": 16, "model_dim": 32, "num_heads": 2, "num_layers": 1}, "vocab_size": 7}, '
    '"paths": {"dataset": "data/train.ttds"}, '
    '"schedule": {"decay_until": 500, "final_lr": 0.0003, "hold_until": 170, "peak_lr": 0.003, '
    '"warmup_steps": 50}, "seed": 0, '
    '"train": {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-08, "batch_size": 8, '
    '"checkpoint_interval": 100, "grad_clip_norm": 5.0, "total_steps": 500, "weight_noise_sigma": 0.0, '
    '"weight_noise_start_step": 10000}}'
)

RESOLVED_PAPER = (
    '{"decode": {"beam_width": 8, "max_symbols_per_frame": 10}, '
    '"model": {"audio": {"dropout_ratio": 0.1, "ff_dim1": 2048, "ff_dim2": 512, "final_layer_norm": true, '
    '"head_dim": 64, "input_dim": 512, "ln_eps": 1e-05, "mask": {"left": 10, "right": 0}, '
    '"max_relative_offset": 32, "model_dim": 512, "num_heads": 8, "num_layers": 18}, "feature_dim": 128, '
    '"frontend": {"augment_enabled": true, "freq_mask_count": 2, "freq_mask_width": 50, "stack": 4, '
    '"subsample": 3, "time_mask_count": 10, "time_mask_width": 30}, "joint_dim": 512, '
    '"label": {"dropout_ratio": 0.1, "ff_dim1": 2048, "ff_dim2": 512, "final_layer_norm": true, '
    '"head_dim": 64, "input_dim": 512, "ln_eps": 1e-05, "mask": {"left": 20, "right": 0}, '
    '"max_relative_offset": 32, "model_dim": 512, "num_heads": 8, "num_layers": 2}, "vocab_size": 7}, '
    '"paths": {"dataset": "data/train.ttds"}, '
    '"schedule": {"decay_until": 200000, "final_lr": 2.5e-06, "hold_until": 30000, "peak_lr": 0.00025, '
    '"warmup_steps": 4000}, "seed": 0, '
    '"train": {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-08, "batch_size": 16, '
    '"checkpoint_interval": 1000, "grad_clip_norm": 5.0, "total_steps": 200000, '
    '"weight_noise_sigma": 0.01, "weight_noise_start_step": 10000}}'
)


@pytest.mark.parametrize("name, expected", [("desk.json", RESOLVED_DESK),
                                            ("paper.json", RESOLVED_PAPER)])
def test_resolved_config_of_shipped_configs(name, expected):
    run = load_run_config(CONFIGS / name)
    # the same rendering `ttkit train` prints as its "resolved config" line
    assert json.dumps(resolved_config_dict(run), sort_keys=True) == expected


def test_checkpoint_embedded_config():
    raw = checkpoint_bytes(init_model(desk_config(audio_mask=AttentionMask(10, 2), label_left=2), Rng(0)))
    length = struct.unpack("<Q", raw[8:16])[0]
    assert raw[16:16 + length].decode() == (
        '{"audio":{"dropout_ratio":0.1,"ff_dim1":64,"ff_dim2":32,"final_layer_norm":true,'
        '"head_dim":16,"input_dim":16,"ln_eps":1e-05,"mask":{"left":10,"right":2},'
        '"max_relative_offset":16,"model_dim":32,"num_heads":2,"num_layers":2},"feature_dim":16,'
        '"frontend":{"augment_enabled":false,"freq_mask_count":0,"freq_mask_width":0,"stack":1,'
        '"subsample":1,"time_mask_count":0,"time_mask_width":0},"joint_dim":32,'
        '"label":{"dropout_ratio":0.1,"ff_dim1":64,"ff_dim2":32,"final_layer_norm":true,'
        '"head_dim":16,"input_dim":32,"ln_eps":1e-05,"mask":{"left":2,"right":0},'
        '"max_relative_offset":16,"model_dim":32,"num_heads":2,"num_layers":1},"vocab_size":7}')


# ------------------------------------------------------------------- train

def test_cli_train_writes_outputs(tmp_path, capsys):
    data_path = tmp_path / "train.ttds"
    small_dataset(data_path)
    doc = base_config(paths={"dataset": str(data_path)})
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 0
    assert "seed: 3" in err and "resolved config" in err
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 8
    assert (tmp_path / "run" / "ckpt_final.ttck").exists()


def test_cli_train_same_seed_identical_checkpoints(tmp_path):
    data_path = tmp_path / "train.ttds"
    small_dataset(data_path)
    doc = base_config(paths={"dataset": str(data_path)})
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "ckpt_final.ttck").read_bytes()
    b = (tmp_path / "b" / "ckpt_final.ttck").read_bytes()
    assert a == b


def test_cli_train_non_finite_loss_exits_3_naming_last_good_checkpoint(tmp_path, capsys, monkeypatch):
    """A loss that turns non-finite at step 5 exits 3, and the message names
    the checkpoint holding the parameters steps 0-4 left."""
    data_path = tmp_path / "train.ttds"
    small_dataset(data_path)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(base_config(paths={"dataset": str(data_path)})))
    train_step = trn.train_step
    snapshots = []

    def diverging_step(model, optimizer, batch, step, *rest):
        if step == 5:
            snapshots.append(checkpoint_bytes(model))
            raise NumericsError(f"non-finite loss nan at step {step}")
        return train_step(model, optimizer, batch, step, *rest)

    monkeypatch.setattr(trn, "train_step", diverging_step)
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 3
    path = tmp_path / "run" / "ckpt_last_good.ttck"
    assert f"error: non-finite loss nan at step 5; the last good parameters are in {path}" in capsys.readouterr().err
    assert path.read_bytes() == snapshots[0]
    assert not (tmp_path / "run" / "ckpt_final.ttck").exists()


def test_cli_train_missing_dataset_key_exits_2(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(base_config()))
    code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "paths.dataset" in capsys.readouterr().err


def test_cli_train_removed_decode_key_exits_2_before_reading_data(tmp_path, capsys):
    """Fusion settings are decode flags; a run config that still sets one
    is rejected by name before the dataset, here missing, is opened."""
    doc = base_config(paths={"dataset": str(tmp_path / "missing.ttds")})
    doc["decode"] = {"beam_width": 4, "lm_weight": 0.3}
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: config.decode.lm_weight: unknown key\n"
    assert not (tmp_path / "out").exists()


def test_cli_train_invalid_config_exits_2(tmp_path, capsys):
    doc = base_config()
    doc["train"]["batch_size"] = 0
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config.train" in capsys.readouterr().err


@pytest.mark.parametrize("key, literal, message", [
    ("grad_clip_norm", "NaN", "expected a finite number, got nan"),
    ("peak_lr", "Infinity", "expected a finite number, got inf"),
    ("peak_lr", "-Infinity", "expected a finite number, got -inf"),
    ("peak_lr", "9" * 400, "int too large to convert to float"),
], ids=["nan", "infinity", "minus-infinity", "400-digit-int"])
def test_cli_train_non_finite_config_number_exits_2(tmp_path, capsys, key, literal, message):
    """JSON's NaN and Infinity, and an integer no float holds, are refused by
    key path before a run starts, with a valid dataset to train on."""
    data_path = tmp_path / "d.ttds"
    small_dataset(data_path, size=4)
    doc = base_config(paths={"dataset": str(data_path)})
    section = "train" if key == "grad_clip_norm" else "schedule"
    doc[section][key] = "@value@"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(doc).replace('"@value@"', literal))
    code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: config.{section}.{key}: {message}\n"
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------- decode / eval

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_trained")
    data_path = tmp / "train.ttds"
    small_dataset(data_path, size=24)
    doc = base_config(paths={"dataset": str(data_path)})
    doc["train"]["total_steps"] = 30
    config_path = tmp / "run.json"
    config_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config_path), "--out", str(tmp / "run")]) == 0
    return {"ckpt": str(tmp / "run" / "ckpt_final.ttck"), "data": str(data_path), "tmp": tmp}


def test_cli_decode_greedy_stream_identical(trained, capsys):
    assert main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                 "--mode", "greedy"]) == 0
    greedy_out = capsys.readouterr().out
    assert main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                 "--mode", "stream"]) == 0
    stream_out = capsys.readouterr().out
    assert greedy_out == stream_out
    assert len(greedy_out.splitlines()) == 24


def test_cli_decode_beam_width_1_equals_greedy(trained, capsys):
    assert main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                 "--mode", "greedy"]) == 0
    greedy_out = capsys.readouterr().out
    assert main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                 "--mode", "beam", "--beam-width", "1"]) == 0
    beam_out = capsys.readouterr().out
    assert greedy_out == beam_out


@pytest.mark.parametrize("command", ["decode", "eval"])
def test_cli_decode_and_eval_keep_the_heap_mapped(trained, capsys, monkeypatch, command):
    """Both commands set the heap thresholds a training run sets, once,
    before the first utterance is decoded."""
    calls = []
    monkeypatch.setattr(trn, "_keep_heap_mapped", lambda: calls.append("heap"))
    monkeypatch.setattr(cli, "_decode", lambda *args: (calls.append("decode"), [])[1])
    assert main([command, "--checkpoint", trained["ckpt"], "--dataset", trained["data"]]) == 0
    assert calls == ["heap"] + ["decode"] * 24


def test_cli_decode_output_file_and_ordering(trained, tmp_path):
    out = tmp_path / "hyp.txt"
    assert main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                 "--output", str(out)]) == 0
    ids = [line.split("\t")[0] for line in out.read_text().splitlines()]
    assert ids == sorted(ids)


def test_cli_decode_prints_each_label_as_s_id(trained, capsys):
    model, data = load_checkpoint(trained["ckpt"]), read_dataset(trained["data"])
    expected = "".join(f"{utt.id}\t" + " ".join(f"s{l}" for l in greedy_decode(model, utt.features)) + "\n"
                       for utt in sorted(data.utterances, key=lambda u: u.id))
    assert main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"]]) == 0
    assert capsys.readouterr().out == expected


PATH_ERRORS = {  # case: the flags that name a path the run cannot use
    "gen-data-out-missing-dir": ["gen-data", "--out", "{tmp}/missing/d.ttds", "--size", "2"],
    "decode-output-missing-dir": ["decode", "--checkpoint", "{ckpt}", "--dataset", "{data}",
                                  "--output", "{tmp}/missing/hyp.txt"],
    "train-out-is-file": ["train", "--config", "{config}", "--out", "{file}"],
    "train-config-is-dir": ["train", "--config", "{tmp}", "--out", "{tmp}/run"],
    "decode-checkpoint-is-dir": ["decode", "--checkpoint", "{tmp}", "--dataset", "{data}"],
    "decode-dataset-is-dir": ["decode", "--checkpoint", "{ckpt}", "--dataset", "{tmp}"],
}


@pytest.mark.parametrize("case", PATH_ERRORS)
def test_cli_path_errors_exit_2(trained, tmp_path, capsys, case):
    (tmp_path / "file").write_text("")
    paths = {"tmp": tmp_path, "file": tmp_path / "file", "ckpt": trained["ckpt"],
             "data": trained["data"], "config": trained["tmp"] / "run.json"}
    assert main([arg.format(**paths) for arg in PATH_ERRORS[case]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: [Errno")
    assert str(tmp_path) in captured.err.splitlines()[-1]


def test_cli_decode_output_path_checked_before_decoding(trained, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(dec, "greedy_decode", lambda *a, **kw: calls.append(a) or [])
    code = main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                 "--output", str(tmp_path / "missing" / "hyp.txt")])
    assert code == 2
    assert calls == []
    assert "missing" in capsys.readouterr().err


def test_cli_decode_unreadable_checkpoint_exits_2(trained, tmp_path, capsys):
    bad = tmp_path / "bad.ttck"
    bad.write_bytes(b"garbage")
    code = main(["decode", "--checkpoint", str(bad), "--dataset", trained["data"]])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_cli_decode_malformed_dataset_exits_2(trained, tmp_path, capsys):
    raw = bytearray(Path(trained["data"]).read_bytes())
    raw[32] = 0xFF  # first byte of the first utterance id
    bad = tmp_path / "bad.ttds"
    bad.write_bytes(bytes(raw))
    code = main(["decode", "--checkpoint", trained["ckpt"], "--dataset", str(bad)])
    assert code == 2
    assert "bad dataset file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decode", "--max-symbols-per-frame", "0"],
    ["decode", "--max-symbols-per-frame", "-1"],
    ["decode", "--mode", "beam", "--beam-width", "0"],
    ["eval", "--mode", "beam", "--beam-width", "0"],
], ids=["decode-cap-0", "decode-cap-neg", "decode-beam-0", "eval-beam-0"])
def test_cli_decode_options_out_of_range_exit_2(trained, capsys, argv):
    code = main(argv + ["--checkpoint", trained["ckpt"], "--dataset", trained["data"]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: beam_width and max_symbols_per_frame must be >= 1" in captured.err


@pytest.mark.parametrize("mode", ["greedy", "stream"])
@pytest.mark.parametrize("flag", ["--lm-weight", "--length-bonus"])
def test_cli_decode_fusion_flags_outside_beam_exit_2(trained, tmp_path, capsys, monkeypatch, mode, flag):
    """A fusion flag only beam search reads is refused before the checkpoint
    loads, with nothing written."""
    loads = []
    monkeypatch.setattr(cli, "_load_checkpoint_or_exit", lambda path: loads.append(path))
    out = tmp_path / "hyp.txt"
    code = main(["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"], "--mode", mode,
                 flag, "0.5", "--lm-dataset", trained["data"], "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and loads == [] and not out.exists()
    assert captured.err.splitlines()[0].startswith("resolved config: ")
    assert captured.err.splitlines()[-1] == "error: --lm-weight and --length-bonus apply only to --mode beam"


def test_negative_max_relative_offset_is_config_error():
    doc = base_config()
    doc["model"]["label"]["max_relative_offset"] = -1
    with pytest.raises(ConfigError, match=r"^config\.model\.label: max_relative_offset must be >= 0, got -1$"):
        parse_run_config(doc)


def test_cli_stream_mode_rejects_unlimited_mask(tmp_path, capsys):
    data_path = tmp_path / "d.ttds"
    small_dataset(data_path, size=4)
    doc = base_config(paths={"dataset": str(data_path)})
    doc["mask"]["audio_left"] = "unlimited"
    doc["model"]["audio"]["max_relative_offset"] = 8
    doc["train"]["total_steps"] = 1
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    code = main(["decode", "--checkpoint", str(tmp_path / "run" / "ckpt_final.ttck"),
                 "--dataset", str(data_path), "--mode", "stream"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


EDGE_INPUTS = {  # case: (exit code, text on stderr)
    "train-zero-steps": (0, "trained 0 steps"),
    "train-empty-dataset": (2, "holds no utterances"),
    "eval-stream-unbounded-mask": (2, "error: stream mode requires a finite audio attention window"),
    "eval-no-reference-labels": (2, "has no reference labels"),
}


@pytest.mark.parametrize("case", EDGE_INPUTS)
def test_cli_edge_inputs_exit_cleanly(tmp_path, capsys, case):
    """Inputs that once ended in a traceback; the eval cases score the
    checkpoint of a 1-step run."""
    data, run = tmp_path / "d.ttds", tmp_path / "run"
    assert main(["gen-data", "--out", str(data), "--vocab", "4", "--feature-dim", "8",
                 "--size", "0" if case == "train-empty-dataset" else "4"]) == 0
    doc = base_config(paths={"dataset": str(data)})
    doc["train"]["total_steps"] = 0 if case == "train-zero-steps" else 1
    if case == "eval-stream-unbounded-mask":
        doc["mask"]["audio_left"] = "unlimited"
    (tmp_path / "run.json").write_text(json.dumps(doc))
    argv = ["train", "--config", str(tmp_path / "run.json"), "--out", str(run)]
    if case.startswith("eval"):
        assert main(argv) == 0
        if case == "eval-no-reference-labels":
            write_dataset(Dataset(4, [Utterance("u0", np.zeros((3, 8)), [])]), data)
        argv = ["eval", "--mode", "stream", "--checkpoint", str(run / "ckpt_final.ttck"),
                "--dataset", str(data)]
    capsys.readouterr()
    code, message = EDGE_INPUTS[case]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    if code == 0:
        assert (run / "ckpt_final.ttck").exists()
    else:
        assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "decode", "eval"])
def test_cli_dataset_feature_dim_mismatch_exits_2(trained, tmp_path, capsys, command):
    """A 16-dim dataset against the 8-dim model: exit 2 before any step."""
    data = tmp_path / "wide.ttds"
    assert main(["gen-data", "--out", str(data), "--vocab", "4", "--feature-dim", "16",
                 "--size", "4"]) == 0
    if command == "train":
        (tmp_path / "run.json").write_text(json.dumps(base_config(paths={"dataset": str(data)})))
        argv = ["train", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "run")]
    else:
        argv = [command, "--checkpoint", trained["ckpt"], "--dataset", str(data)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "has feature dim 16, the model takes 8" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "decode", "eval"])
def test_cli_dataset_non_finite_features_exit_2(trained, tmp_path, capsys, command):
    """One NaN feature, or all-inf features, exit 2 naming the utterance,
    where decode and eval reported transcripts and train a non-finite loss."""
    data = tmp_path / "nonfinite.ttds"
    nan_one = np.ones((4, 8))
    nan_one[2, 5] = np.nan
    write_dataset(Dataset(4, [Utterance("u-nan", nan_one, [1, 2]),
                              Utterance("u-inf", np.full((3, 8), np.inf), [3])]), data)
    if command == "train":
        (tmp_path / "run.json").write_text(json.dumps(base_config(paths={"dataset": str(data)})))
        argv = ["train", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "run")]
    else:
        argv = [command, "--checkpoint", trained["ckpt"], "--dataset", str(data)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"dataset {data}: utterance u-nan has non-finite features" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["lm-dataset", "eval"])
def test_cli_labels_beyond_model_vocab_exit_2(trained, tmp_path, capsys, case):
    """Label ids 5..9 against the checkpoint's 4 labels: exit 2, where the
    bigram fit raised IndexError and eval scored them as errors."""
    wide = tmp_path / "vocab9.ttds"
    assert main(["gen-data", "--out", str(wide), "--vocab", "9", "--feature-dim", "8",
                 "--size", "20"]) == 0
    if case == "eval":
        argv = ["eval", "--checkpoint", trained["ckpt"], "--dataset", str(wide)]
    else:
        argv = ["decode", "--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                "--mode", "beam", "--lm-weight", "0.5", "--lm-dataset", str(wide)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "beyond the model's 4 labels" in captured.err
    assert captured.out == ""


def test_cli_train_ff_dim2_mismatch_exits_2(tmp_path, capsys):
    """The residual needs ff_dim2 == model_dim; the config parse says so,
    where training used to die with a ShapeError at step 0."""
    data = tmp_path / "d.ttds"
    assert main(["gen-data", "--out", str(data), "--vocab", "6", "--size", "8"]) == 0
    doc = json.loads((CONFIGS / "desk.json").read_text())
    doc["model"]["audio"]["ff_dim2"] = 16
    doc["paths"]["dataset"] = str(data)
    (tmp_path / "run.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "run")]) == 2
    assert ("error: config.model.audio: ff_dim2 (16) must equal model_dim (32) for the residual"
            in capsys.readouterr().err)


def test_cli_eval_reports_wer(trained, capsys):
    assert main(["eval", "--checkpoint", trained["ckpt"], "--dataset", trained["data"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["wer"]
    assert len(report["utterances"]) == 24
    assert {"id", "ref", "hyp", "errors", "ref_len"} <= set(report["utterances"][0])


def test_cli_eval_blank_only_model_scores_all_deletions(tmp_path, capsys):
    data_path = tmp_path / "d.ttds"
    small_dataset(data_path, size=6)
    cfg = desk_config(vocab_size=5, feature_dim=8, dropout=0.0, model_dim=16)
    model = init_model(cfg, Rng(0))
    model.params.joint.out_b.values[0] += 10.0  # blank everywhere
    ckpt = tmp_path / "blank.ttck"
    save_checkpoint(model, ckpt)
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["wer"] == 1.0
    assert all(r["hyp"] == [] for r in report["utterances"])


def test_cli_eval_perfect_handcrafted_model_scores_zero(tmp_path, capsys):
    from test_decode import handcrafted_model

    # the handcrafted model emits exactly [1] on [+1, -1] feature tracks
    model = handcrafted_model()
    utts = [Utterance(id=f"u{i}", features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                      labels=[1]) for i in range(3)]
    data_path = tmp_path / "perfect.ttds"
    write_dataset(Dataset(1, utts), data_path)
    ckpt = tmp_path / "perfect.ttck"
    save_checkpoint(model, ckpt)
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["wer"] == 0.0
    assert all(r["hyp"] == r["ref"] for r in report["utterances"])


def test_cli_eval_scores_utterances_sharing_an_id_against_their_own_labels(tmp_path, capsys):
    feats = Rng(1).normal((4, 8))
    refs = [[1, 2, 1, 4, 2], [1, 2, 3, 4, 1, 2, 3, 4]]
    data_path = tmp_path / "dup.ttds"
    write_dataset(Dataset(4, [Utterance(id="dup", features=feats, labels=y) for y in refs]), data_path)
    model = init_model(desk_config(vocab_size=5, feature_dim=8, dropout=0.0, model_dim=16), Rng(0))
    model.params.joint.out_b.values[0] += 10.0  # blank everywhere: every label is a deletion
    ckpt = tmp_path / "blank.ttck"
    save_checkpoint(model, ckpt)
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["ref"] for r in report["utterances"]] == refs
    assert [(r["ref_len"], r["errors"]) for r in report["utterances"]] == [(5, 5), (8, 8)]


# --------------------------------------------------------------- selftest

def test_cli_selftest_passes(capsys):
    import time

    start = time.monotonic()
    assert main(["selftest"]) == 0
    assert time.monotonic() - start < 300.0
    out = capsys.readouterr().out
    for name in ("oracle-equivalence", "gradient-check", "streaming-equivalence", "lr-schedule"):
        assert f"{name:<24} PASS" in out


def test_cli_selftest_perturbed_dp_fails_oracle(capsys):
    assert main(["selftest", "--perturb-dp"]) == 1
    out = capsys.readouterr().out
    assert "oracle-equivalence       FAIL" in out
    import ttkit.transducer as tr
    assert tr.dp_perturbation == 0.0  # hook restored


# --------------------------------------------------------------- gen-data

def test_cli_gen_data_roundtrip(tmp_path):
    out = tmp_path / "gen.ttds"
    assert main(["gen-data", "--out", str(out), "--vocab", "4", "--size", "10",
                 "--seed", "5"]) == 0
    data = read_dataset(out)
    assert data.num_labels == 4 and len(data.utterances) == 10


@pytest.mark.parametrize("flags, message", [
    (["--feature-dim", "-1"], "feature_dim must be >= 1, got -1"),
    (["--feature-dim", "0"], "feature_dim must be >= 1, got 0"),
    (["--bigram-scale", "-1"], "bigram_scale must be >= 0"),
], ids=["feature-dim-neg", "feature-dim-0", "bigram-scale-neg"])
def test_cli_gen_data_out_of_range_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "gen.ttds"
    assert main(["gen-data", "--out", str(out), "--size", "2"] + flags) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()



@pytest.mark.parametrize("argv", [
    ["gen-data", "--noise", "nan"],
    ["gen-data", "--noise", "inf"],
    ["gen-data", "--bigram-scale", "nan"],
    ["gen-data", "--bigram-scale", "inf"],
    ["decode", "--mode", "beam", "--length-bonus", "nan"],
    ["decode", "--mode", "beam", "--lm-weight", "nan"],
    ["decode", "--mode", "beam", "--length-bonus", "inf"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_cli_non_finite_float_flags_exit_2(trained, tmp_path, capsys, argv):
    """A NaN or infinite float flag is a usage error before anything is read
    or written."""
    flag, value = argv[-2:]
    out = tmp_path / "out"
    if argv[0] == "gen-data":
        argv = argv + ["--out", str(out), "--size", "2"]
    else:
        argv = argv + ["--checkpoint", trained["ckpt"], "--dataset", trained["data"],
                       "--lm-dataset", trained["data"], "--output", str(out)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"argument {flag}: invalid finite_float value: '{value}'" in captured.err


# ------------------------------------------------------- records and flags

CLI_FLAGS = {  # every option of every subcommand, with its default
    "train": {"--config": None, "--out": None},
    "decode": {"--checkpoint": None, "--dataset": None, "--mode": "greedy", "--beam-width": 4,
               "--lm-weight": 0.0, "--length-bonus": 0.0, "--lm-dataset": None,
               "--max-symbols-per-frame": 10, "--output": None},
    "eval": {"--checkpoint": None, "--dataset": None, "--mode": "greedy", "--beam-width": 4,
             "--max-symbols-per-frame": 10},
    "selftest": {"--perturb-dp": False},
    "gen-data": {"--out": None, "--vocab": 6, "--min-labels": 3, "--max-labels": 5,
                 "--min-frames": 1, "--max-frames": 3, "--feature-dim": 16, "--noise": 0.1,
                 "--size": 200, "--seed": 0, "--bigram-scale": 0.0, "--first-index": 0},
}


def test_cli_flags_and_defaults_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {option: action.default for action in p._actions if action.dest != "help"
                  for option in action.option_strings}
           for name, p in sub.choices.items()}
    assert got == CLI_FLAGS


RECORD_BASE = {  # path values are file names in the test's directory
    "decode": {"--checkpoint": "a.ttck", "--dataset": "a.ttds", "--mode": "beam", "--lm-dataset": "a.ttds"},
    "eval": {"--checkpoint": "a.ttck", "--dataset": "a.ttds"},
    "gen-data": {"--out": "gen.ttds", "--size": "4"},
}
PATH_FLAGS = {"--checkpoint", "--dataset", "--lm-dataset", "--output", "--out"}
RECORD_CASES = [  # (command, flag, one value, another value)
    ("decode", "--checkpoint", "a.ttck", "b.ttck"),
    ("decode", "--dataset", "a.ttds", "b.ttds"),
    ("decode", "--mode", "greedy", "stream"),
    ("decode", "--beam-width", "4", "2"),
    ("decode", "--max-symbols-per-frame", "10", "1"),
    ("decode", "--lm-weight", "0.0", "0.5"),
    ("decode", "--length-bonus", "0.0", "0.5"),
    ("decode", "--lm-dataset", "a.ttds", "b.ttds"),
    ("decode", "--output", "a.txt", "b.txt"),
    ("eval", "--checkpoint", "a.ttck", "b.ttck"),
    ("eval", "--dataset", "a.ttds", "b.ttds"),
    ("eval", "--mode", "greedy", "stream"),
    ("eval", "--beam-width", "4", "2"),
    ("eval", "--max-symbols-per-frame", "10", "1"),
    ("gen-data", "--out", "gen.ttds", "other.ttds"),
    ("gen-data", "--vocab", "6", "5"),
    ("gen-data", "--min-labels", "3", "2"),
    ("gen-data", "--max-labels", "5", "6"),
    ("gen-data", "--min-frames", "1", "2"),
    ("gen-data", "--max-frames", "3", "4"),
    ("gen-data", "--feature-dim", "16", "8"),
    ("gen-data", "--noise", "0.1", "0.2"),
    ("gen-data", "--size", "4", "5"),
    ("gen-data", "--seed", "0", "1"),
    ("gen-data", "--bigram-scale", "0.0", "0.5"),
    ("gen-data", "--first-index", "0", "100"),
]


def _argv(command, flags, tmp_path):
    argv = [command]
    for flag, value in flags.items():
        argv += [flag, str(tmp_path / value) if flag in PATH_FLAGS else value]
    return argv


def _record(argv, capsys):
    """Run `argv` and return its record: every stderr line but gen-data's
    closing count."""
    capsys.readouterr()
    assert main(argv) == 0
    return [line for line in capsys.readouterr().err.splitlines() if not line.startswith("wrote ")]


@pytest.fixture
def record_files(trained, tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.ttck").write_bytes(Path(trained["ckpt"]).read_bytes())
        (tmp_path / f"{name}.ttds").write_bytes(Path(trained["data"]).read_bytes())
    return tmp_path


@pytest.mark.parametrize("command, flag, value, other", RECORD_CASES,
                         ids=[f"{c}{f}" for c, f, _, _ in RECORD_CASES])
def test_cli_record_changes_with_each_flag(record_files, capsys, command, flag, value, other):
    """Two runs that differ in one flag print different records, so equal
    records mean equal settings."""
    records = [_record(_argv(command, dict(RECORD_BASE[command], **{flag: v}), record_files), capsys)
               for v in (value, other)]
    assert records[0] != records[1]


@pytest.mark.parametrize("command", RECORD_BASE)
def test_cli_record_holds_every_flag(record_files, capsys, command):
    """The record of decode, eval and gen-data is one JSON line holding the
    command and each parsed flag's effective value, defaults included."""
    argv = _argv(command, RECORD_BASE[command], record_files)
    record = _record(argv, capsys)
    assert len(record) == 1 and record[0].startswith("resolved config: ")
    parsed = vars(build_parser().parse_args(argv))
    del parsed["fn"]
    assert json.loads(record[0][len("resolved config: "):]) == parsed
