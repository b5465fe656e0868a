"""Missing-modality robustness probe.

A small classifier is trained on complete-pathway latents only, then scored
on the test split through every pathway without retraining. The probe sees
nothing but s-dimensional vectors, so any accuracy gap between pathways is
attributable to the geometry of the latent space, not to the probe.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, DataError, ShapeError, require_integer
from .model import EncoderSpec, GmcModel, LoopConfig, ParameterSet, fit, init_mlp_params
from .tensor import mlp_backward, mlp_forward, softmax_cross_entropy_backward, softmax_cross_entropy_forward


@dataclass(frozen=True)
class ProbeConfig(LoopConfig):
    epochs: int = 50
    hidden: tuple[int, ...] = (256, 128)

    def __post_init__(self):
        if not isinstance(self.hidden, (tuple, list)):
            raise ConfigError("hidden", f"must be a list of integers, got {self.hidden!r}")
        for h in self.hidden:
            require_integer("hidden", h)
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        super().__post_init__()
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden", "hidden widths must be positive")


class ProbeClassifier(ParameterSet):
    """ReLU MLP over latents: s -> hidden widths -> C logits."""

    def __init__(self, latent_dim: int, n_classes: int, hidden=ProbeConfig.hidden, seed: int = 0):
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

    def logits(self, z) -> np.ndarray:
        z = self._check_input("probe_logits", z, self.latent_dim)
        hs, _ = mlp_forward(z, self._mlp_arrays("probe", self.spec)[0], self.spec.activations)
        return hs[-1]

    def predict(self, z) -> np.ndarray:
        return np.argmax(self.logits(z), axis=1)

    def accuracy(self, z, y) -> float:
        """Exact empirical frequency of correct predictions."""
        y = np.asarray(y)
        pred = self.predict(z)
        if pred.shape != y.shape:
            raise ShapeError("probe_accuracy", pred.shape, y.shape)
        return float(np.mean(pred == y))


class ProbeLoss:
    """`fit`'s loss for a probe: the mean softmax cross-entropy of a batch's
    logits, with the whole ReLU MLP, as one (value, backward) pair.

    The step computes with `tensor.mlp_forward`/`mlp_backward` and the
    softmax cross-entropy functions, in the order per-layer tape nodes
    would, so it yields the bytes of one node per layer followed by a
    cross-entropy node (kept in tests/_oracles.py). Like the GMC step, it
    allocates its batch-sized arrays afresh and writes the parameter
    gradients straight into the probe's gradient buffer. Labels are checked
    once, here.
    """

    def __init__(self, probe: ProbeClassifier, z: np.ndarray, y: np.ndarray):
        z = np.asarray(z, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if z.ndim != 2 or z.shape[1] != probe.latent_dim or y.shape != z.shape[:1]:
            raise ShapeError("probe_loss", z.shape, y.shape)
        if y.size and (y.min() < 0 or y.max() >= probe.n_classes):
            raise ConfigError("labels", "class index out of range")
        self.probe, self.z, self.y = probe, z, y

    def __call__(self, idx: np.ndarray) -> tuple[float, Callable[[], None]]:
        spec = self.probe.spec
        weights, grads = self.probe._mlp_arrays("probe", spec)
        onehot = np.zeros((idx.size, spec.output_dim))
        onehot[np.arange(idx.size), self.y[idx]] = 1.0
        hs, layers = mlp_forward(self.z[idx], weights, spec.activations)
        value, ce_saved = softmax_cross_entropy_forward(hs[-1], onehot)

        def backward() -> None:
            mlp_backward(softmax_cross_entropy_backward(1.0, onehot, ce_saved), hs, layers, grads)

        return value, backward


def train_probe(
    z_train, y_train, n_classes: int | None = None, config: ProbeConfig = ProbeConfig()
) -> ProbeClassifier:
    """Fit a fresh probe on complete-pathway latents.

    The class count is taken from the labels unless `n_classes` is given.
    Per-epoch mean losses land in `probe.training_losses`.
    """
    z_train = np.asarray(z_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    if z_train.ndim != 2 or z_train.shape[0] != y_train.shape[0]:
        raise ShapeError("train_probe", z_train.shape, y_train.shape)
    if n_classes is None:
        n_classes = int(y_train.max()) + 1
        if n_classes < 2:
            raise DataError("the train split's labels are all 0; a probe needs at least 2 classes")
    probe = ProbeClassifier(z_train.shape[1], n_classes, config.hidden, config.seed)
    loss_fn = ProbeLoss(probe, z_train, y_train)
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
    table = {"complete": probe.accuracy(model.encode_complete(dataset.complete_view(split)), y)}
    for m in range(model.modality_count):
        table[f"modality_{m + 1}"] = probe.accuracy(model.encode_modality(m, dataset.modality(m, split)), y)
    return RobustnessTable(table)
