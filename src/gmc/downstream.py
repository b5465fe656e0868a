"""Missing-modality robustness probe.

A small classifier is trained on complete-pathway latents only, then scored
on the test split through every pathway without retraining. The probe sees
nothing but s-dimensional vectors, so any accuracy gap between pathways is
attributable to the geometry of the latent space, not to the probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, ShapeError, require_integer
from .model import (
    EncoderSpec,
    GmcModel,
    ParameterSet,
    check_loop_config,
    fit,
    init_mlp_params,
    mlp_forward,
)
from .tensor import Tensor, softmax_cross_entropy


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    hidden: tuple[int, ...] = (256, 128)
    seed: int = 0
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for h in self.hidden:
            require_integer("hidden", h)
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        check_loop_config(self)
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden", "hidden widths must be positive")


class ProbeClassifier(ParameterSet):
    """ReLU MLP over latents: s -> hidden widths -> C logits."""

    def __init__(self, latent_dim: int, n_classes: int, hidden=(256, 128), seed: int = 0):
        if n_classes < 2:
            raise ConfigError("n_classes", "need at least 2 classes")
        self.spec = EncoderSpec(
            (int(latent_dim), *(int(h) for h in hidden), int(n_classes)),
            ("relu",) * len(tuple(hidden)),
        )
        self.seed = int(seed)
        self._init_parameters(init_mlp_params(self.spec, self.seed, rng.PROBE_INIT, 0, "probe"))
        self.training_losses: list[float] = []

    @property
    def latent_dim(self) -> int:
        return self.spec.input_dim

    @property
    def n_classes(self) -> int:
        return self.spec.output_dim

    def logits(self, z) -> Tensor:
        t = self._check_input("probe_logits", z, self.latent_dim)
        return mlp_forward(self.spec, self._params, "probe", t)

    def predict(self, z) -> np.ndarray:
        return np.argmax(self.logits(z).data, axis=1)

    def accuracy(self, z, y) -> float:
        """Exact empirical frequency of correct predictions."""
        y = np.asarray(y)
        pred = self.predict(z)
        if pred.shape != y.shape:
            raise ShapeError("probe_accuracy", pred.shape, y.shape)
        return float(np.mean(pred == y))


def cross_entropy(logits: Tensor, y: np.ndarray) -> Tensor:
    """Mean cross-entropy from raw (B, C) logits and integer labels, as one
    tape node (`tensor.softmax_cross_entropy`)."""
    b, c = logits.shape
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (b,):
        raise ShapeError("cross_entropy", logits.shape, y.shape)
    if y.min() < 0 or y.max() >= c:
        raise ConfigError("labels", "class index out of range")
    # the one-hot rows directly: an identity would cost C x C floats per step
    onehot = np.zeros((b, c))
    onehot[np.arange(b), y] = 1.0
    return softmax_cross_entropy(logits, onehot)


def train_probe(
    z_train, y_train, n_classes: int | None = None, config: ProbeConfig = ProbeConfig()
) -> ProbeClassifier:
    """Fit a fresh probe on complete-pathway latents.

    Per-epoch mean losses land in `probe.training_losses`.
    """
    z_train = np.asarray(z_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    if z_train.ndim != 2 or z_train.shape[0] != y_train.shape[0]:
        raise ShapeError("train_probe", z_train.shape, y_train.shape)
    if n_classes is None:
        n_classes = int(y_train.max()) + 1
    probe = ProbeClassifier(z_train.shape[1], n_classes, config.hidden, config.seed)

    def loss_fn(idx):
        return cross_entropy(probe.logits(z_train[idx]), y_train[idx])

    epochs = fit(probe, loss_fn, z_train.shape[0], config, rng.PROBE_SHUFFLE, 1, "probe loss")
    probe.training_losses = [float(np.mean([value for value, _ in steps])) for steps in epochs]
    return probe


@dataclass
class RobustnessTable:
    """Test accuracy per input pathway; keys "complete", "modality_1".."modality_M"."""

    accuracies: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.accuracies[key]

    @property
    def complete(self) -> float:
        return self.accuracies["complete"]

    def modality(self, m: int) -> float:
        """1-based, matching the reporting convention."""
        return self.accuracies[f"modality_{m}"]

    def worst_modality(self) -> float:
        return min(v for k, v in self.accuracies.items() if k != "complete")


def evaluate_robustness(
    model: GmcModel, probe: ProbeClassifier, dataset, split: str = "test"
) -> RobustnessTable:
    """Score the probe through every pathway without retraining it."""
    if probe.latent_dim != model.s:
        raise ShapeError("evaluate_robustness", ("latent", probe.latent_dim), ("latent", model.s))
    y = dataset.labels_view(split)
    table = {"complete": probe.accuracy(model.encode_complete(dataset.complete_view(split)).data, y)}
    for m in range(model.modality_count):
        z = model.encode_modality(m, dataset.modality(m, split)).data
        table[f"modality_{m + 1}"] = probe.accuracy(z, y)
    return RobustnessTable(table)
