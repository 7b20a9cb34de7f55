"""Feature pipeline: frame stacking/subsampling and spectrogram masking.

Operates on plain [frames x channels] float arrays before anything enters a
differentiation graph. Waveform and filterbank handling are out of scope; the
toolkit consumes precomputed or synthetic feature matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Rng


@dataclass
class FrontendConfig:
    stack: int = 1
    subsample: int = 1
    freq_mask_width: int = 0
    freq_mask_count: int = 0
    time_mask_width: int = 0
    time_mask_count: int = 0
    augment_enabled: bool = False

    def __post_init__(self):
        if self.stack < 1 or self.subsample < 1:
            raise ValueError(f"stack and subsample must be >= 1, got {self.stack}, {self.subsample}")
        for name in ("freq_mask_width", "freq_mask_count", "time_mask_width", "time_mask_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def stack_subsample(frames: np.ndarray, stack: int, subsample: int) -> np.ndarray:
    """Concatenate `stack` consecutive frames per output row, striding by
    `subsample`. Rows needing frames past the end repeat the final frame.
    Output length is ceil(n / subsample). With neither stacking nor
    subsampling that is the input itself (as float64), not a copy."""
    frames = np.asarray(frames, dtype=np.float64)
    n, d = frames.shape
    if stack == subsample == 1:
        return frames
    m = math.ceil(n / subsample)
    idx = np.arange(m)[:, None] * subsample + np.arange(stack)[None, :]
    idx = np.minimum(idx, n - 1)  # edge padding by last-frame repetition
    return frames[idx].reshape(m, stack * d)


def sample_mask_regions(n: int, d: int, config: FrontendConfig, rng: Rng) -> tuple[list, list]:
    """Draw the masked channel bands and time spans for one utterance.

    Widths are uniform over [0, width] (clamped to the axis extent); starts
    are uniform over the valid range. Kept separate from application so tests
    can replay the coordinates from the same stream.
    """
    regions = ([], [])
    for out, count, width, extent in ((regions[0], config.freq_mask_count, config.freq_mask_width, d),
                                      (regions[1], config.time_mask_count, config.time_mask_width, n)):
        for _ in range(count):
            w = rng.integers(0, min(width, extent) + 1)
            out.append((rng.integers(0, extent - w + 1), w))
    return regions


def spec_augment(features: np.ndarray, config: FrontendConfig, rng: Rng) -> np.ndarray:
    """Zero out random frequency bands and time spans (training only).

    Returns the input untouched when augmentation is disabled; otherwise a
    masked copy. Deterministic for a given stream.
    """
    if not config.augment_enabled:
        return features
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    out = features.copy()
    freq_regions, time_regions = sample_mask_regions(n, d, config, rng)
    for start, w in freq_regions:
        out[:, start:start + w] = 0.0
    for start, w in time_regions:
        out[start:start + w, :] = 0.0
    return out
