"""Run configuration: one JSON document with nested sections, validated
strictly. Unknown keys are hard errors naming the offending key path, and
every value failure points at its path, so mask typos cannot pass silently.

The config dataclasses are the schema: each section accepts one key per
field, typed by the field's annotation and defaulting to the field's
default. Only the mask windows, the derived fields and `paths`, whose one
key is the training `dataset`, are read by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .attention import AttentionMask, EncoderConfig
from .decode import DecodeOptions
from .frontend import FrontendConfig
from .model import ModelConfig
from .train import ScheduleConfig, TrainConfig


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class _Section:
    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def get(self, key: str, cast, default=MISSING):
        self.seen.add(key)
        if key not in self.data:
            if default is MISSING:
                raise ConfigError(f"{self.path}.{key}", "missing required key")
            return default
        try:
            return cast(self.data[key])
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"{self.path}.{key}", str(e)) from e

    def section(self, key: str, required: bool = True) -> "_Section":
        """The nested object at `key`; a missing optional one reads as empty."""
        self.seen.add(key)
        if required and key not in self.data:
            raise ConfigError(f"{self.path}.{key}", "missing required section")
        return _Section(self.data.get(key, {}), f"{self.path}.{key}")

    def finish(self):
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigError(f"{self.path}.{unknown[0]}", "unknown key")


def _int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _float(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    return finite_float(x)


def finite_float(x) -> float:
    """`float(x)`, refusing NaN and the infinities: config and flag floats."""
    if not math.isfinite(value := float(x)):
        raise ValueError(f"expected a finite number, got {x!r}")
    return value


def _bool(x):
    if not isinstance(x, bool):
        raise ValueError(f"expected true/false, got {x!r}")
    return x


def _str(x):
    if not isinstance(x, str):
        raise ValueError(f"expected a string, got {x!r}")
    return x


def _mask_side(x):
    """Window bound: "unlimited" and null lift it; any other value must be
    a side `AttentionMask` accepts, reported in the config's own terms."""
    side = None if x is None or x == "unlimited" else x
    try:
        AttentionMask(side, None)
    except ValueError:
        raise ValueError(f'expected a non-negative integer or "unlimited", got {x!r}') from None
    return side


@dataclass
class RunConfig:
    seed: int
    model: ModelConfig
    schedule: ScheduleConfig
    train: TrainConfig
    decode: DecodeOptions
    paths: dict = field(default_factory=dict)


# A JSON null never stands for None: leaving the key out selects the default.
_CASTS = {"int": _int, "int | None": _int, "float": _float, "bool": _bool}


def _build(cls, sec: _Section, **derived):
    """One `cls` from one section: a key per field not in `derived`, cast by
    the field's annotation, defaulting to the field's default."""
    kw = dict(derived)
    for f in fields(cls):
        if f.name not in kw:
            kw[f.name] = sec.get(f.name, _CASTS[f.type], f.default)
    sec.finish()
    try:
        return cls(**kw)
    except ValueError as e:
        raise ConfigError(sec.path, str(e)) from e


def parse_run_config(document: dict) -> RunConfig:
    root = _Section(document, "config")
    seed = root.get("seed", _int, TrainConfig.seed)

    mask_sec = root.section("mask")
    audio_mask = AttentionMask(mask_sec.get("audio_left", _mask_side),
                               mask_sec.get("audio_right", _mask_side))
    label_mask = AttentionMask(mask_sec.get("label_left", _mask_side), 0)
    mask_sec.finish()

    frontend = _build(FrontendConfig, root.section("frontend", required=False))

    model_sec = root.section("model")
    feature_dim = model_sec.get("feature_dim", _int)
    audio = _build(EncoderConfig, model_sec.section("audio"),
                   mask=audio_mask, input_dim=feature_dim * frontend.stack)
    label_sec = model_sec.section("label")
    label_input_dim = label_sec.get("input_dim", _int, None)
    if label_input_dim is None:
        label_input_dim = label_sec.get("model_dim", _int)  # embeddings default to model width
    label = _build(EncoderConfig, label_sec, mask=label_mask, input_dim=label_input_dim)
    model = _build(ModelConfig, model_sec, audio=audio, label=label, frontend=frontend)

    schedule = _build(ScheduleConfig, root.section("schedule", required=False))
    train = _build(TrainConfig, root.section("train", required=False), seed=seed)
    decode = _build(DecodeOptions, root.section("decode", required=False))

    paths_sec = root.section("paths", required=False)
    paths = {"dataset": paths_sec.get("dataset", _str)} if "dataset" in paths_sec.data else {}
    paths_sec.finish()

    root.finish()
    return RunConfig(seed=seed, model=model, schedule=schedule, train=train,
                     decode=decode, paths=paths)


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as f:
            document = json.load(f)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON: {e}")
    return parse_run_config(document)


def resolved_config_dict(cfg: RunConfig) -> dict:
    """Canonical view of every effective setting, for run logging. The train
    seed is the run seed, so it appears once, at the top."""
    resolved = asdict(cfg)
    del resolved["train"]["seed"]
    return resolved
