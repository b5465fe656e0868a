"""Deterministic synthetic multimodal dataset.

Each sample carries a discrete class label and a continuous style vector.
Modality m renders both linearly, x_m = A_m.onehot(y) + B_m.style + noise,
with per-config mixing matrices A_m, B_m drawn once from seeded normals.
Class content is recoverable from any single modality by a linear model,
which lets an independent least-squares probe certify learnability without
trusting anything trained downstream.

Every random quantity comes from its own counter-based stream keyed on
(seed, purpose, sample index, modality), so generation is order-independent:
sample i is the same whether generated alone or as part of the full set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConfigError, require_integer, require_number

DEFAULT_MODALITY_DIMS = (20, 16, 12)


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int = 2000
    n_classes: int = 10
    modality_dims: tuple[int, ...] = DEFAULT_MODALITY_DIMS
    style_dim: int = 4
    noise_sigma: float | tuple[float, ...] = 0.05
    seed: int = 0
    train_fraction: float = 0.8
    label_modality: bool = False

    def __post_init__(self):
        for key in ("n_samples", "n_classes", "style_dim", "seed"):
            require_integer(key, getattr(self, key))
        if not isinstance(self.modality_dims, (tuple, list)):
            raise ConfigError("modality_dims", f"must be a list of integers, got {self.modality_dims!r}")
        for d in self.modality_dims:
            require_integer("modality_dims", d)
        object.__setattr__(self, "modality_dims", tuple(int(d) for d in self.modality_dims))
        if self.n_classes < 2:
            raise ConfigError("n_classes", "need at least 2 classes")
        if len(self.modality_dims) < 2:
            raise ConfigError("modality_dims", "need at least 2 modalities")
        if any(d < 1 for d in self.modality_dims):
            raise ConfigError("modality_dims", "dimensions must be positive")
        if self.style_dim < 0:
            raise ConfigError("style_dim", "must be non-negative")
        require_number("train_fraction", self.train_fraction, positive=True, below=1.0)
        if not isinstance(self.label_modality, bool):
            raise ConfigError("label_modality", f"must be true or false, got {self.label_modality!r}")
        sigmas = self.noise_sigma if isinstance(self.noise_sigma, (tuple, list)) else (self.noise_sigma,)
        for s in sigmas:
            require_number("noise_sigma", s)
        self.sigmas()  # rejects a list whose length differs from modality_dims
        if self.n_samples < 2 or int(self.n_samples * self.train_fraction) < 1:
            raise ConfigError("n_samples", "split leaves an empty train or test set")
        if int(self.n_samples * self.train_fraction) >= self.n_samples:
            raise ConfigError("train_fraction", "split leaves an empty test set")

    def sigmas(self) -> tuple[float, ...]:
        """Noise level per modality (scalar configs broadcast)."""
        if isinstance(self.noise_sigma, (int, float)):
            return (float(self.noise_sigma),) * len(self.modality_dims)
        sig = tuple(float(s) for s in self.noise_sigma)
        if len(sig) != len(self.modality_dims):
            raise ConfigError("noise_sigma", "one value per modality required")
        return sig

    def effective_dims(self) -> tuple[int, ...]:
        """Modality widths including the optional appended label modality."""
        if self.label_modality:
            return self.modality_dims + (self.n_classes,)
        return self.modality_dims


@dataclass
class MultimodalDataset:
    """Generated samples plus split markers.

    `modalities[m]` is (n, dim_m); `complete` is the column-concatenation of
    all modalities, sample-aligned by construction. `is_train[i]` marks the
    deterministic train split.
    """

    modalities: list[np.ndarray]
    labels: np.ndarray
    is_train: np.ndarray
    complete: np.ndarray = field(repr=False)
    config: SynthConfig | None = None

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def modality_count(self) -> int:
        return len(self.modalities)

    def _mask(self, split: str) -> np.ndarray:
        if split == "train":
            return self.is_train
        if split == "test":
            return ~self.is_train
        if split == "all":
            return np.ones_like(self.is_train)
        raise ConfigError("split", f"unknown split {split!r}")

    def modality(self, m: int, split: str = "all") -> np.ndarray:
        return self.modalities[m][self._mask(split)]

    def complete_view(self, split: str = "all") -> np.ndarray:
        return self.complete[self._mask(split)]

    def labels_view(self, split: str = "all") -> np.ndarray:
        return self.labels[self._mask(split)]


def class_templates(config: SynthConfig) -> list[np.ndarray]:
    """The A_m matrices (dim_m x C); column y is the clean rendering of class y."""
    out = []
    for m, dim in enumerate(config.modality_dims):
        a = rng.stream(config.seed, rng.CLASS_TEMPLATE, m).standard_normal((dim, config.n_classes))
        out.append(a / np.sqrt(dim))
    if config.label_modality:
        out.append(np.eye(config.n_classes))
    return out


def style_mixers(config: SynthConfig) -> list[np.ndarray]:
    """The B_m matrices (dim_m x style_dim)."""
    out = []
    for m, dim in enumerate(config.modality_dims):
        b = rng.stream(config.seed, rng.STYLE_MIXER, m).standard_normal((dim, config.style_dim))
        out.append(b / np.sqrt(dim))
    if config.label_modality:
        out.append(np.zeros((config.n_classes, config.style_dim)))
    return out


def generate(config: SynthConfig) -> MultimodalDataset:
    n, c = config.n_samples, config.n_classes
    templates = class_templates(config)
    mixers = style_mixers(config)
    sigmas = config.sigmas()
    if config.label_modality:
        sigmas = sigmas + (0.0,)  # the label modality renders the exact one-hot

    labels = np.array(rng.per_index(config.seed, rng.LABEL, n, "integers", c), dtype=np.int64)
    styles = np.stack(rng.per_index(config.seed, rng.STYLE, n, "standard_normal", config.style_dim))

    modalities = []
    for m, dim in enumerate(config.effective_dims()):
        clean = templates[m][:, labels].T + styles @ mixers[m].T
        if sigmas[m] > 0.0:
            noise = np.stack(rng.per_index(config.seed, rng.NOISE, n, "standard_normal", dim, b=m))
            clean = clean + sigmas[m] * noise
        modalities.append(clean)

    is_train = np.arange(n) < int(n * config.train_fraction)
    return MultimodalDataset(
        modalities=modalities,
        labels=labels,
        is_train=is_train,
        complete=np.concatenate(modalities, axis=1),
        config=config,
    )
