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
from .model import EncoderSpec, GmcModel, LoopConfig, ParameterSet, fit, init_mlp_params
from .tensor import (
    Tensor,
    _record,
    mlp_backward,
    mlp_forward,
    softmax_cross_entropy_backward,
    softmax_cross_entropy_forward,
)


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

    def logits(self, z) -> Tensor:
        t = self._check_input("probe_logits", z, self.latent_dim)
        hs, _ = mlp_forward(t.data, self._mlp_arrays("probe", self.spec)[0], self.spec.activations)
        return Tensor._from_owned(hs[-1])

    def predict(self, z) -> np.ndarray:
        return np.argmax(self.logits(z).data, axis=1)

    def accuracy(self, z, y) -> float:
        """Exact empirical frequency of correct predictions."""
        y = np.asarray(y)
        pred = self.predict(z)
        if pred.shape != y.shape:
            raise ShapeError("probe_accuracy", pred.shape, y.shape)
        return float(np.mean(pred == y))


class _Workspace:
    """Every array one probe step of `batch` rows writes, allocated once."""

    def __init__(self, batch: int, spec: EncoderSpec):
        classes = spec.output_dim
        self.x = np.empty((batch, spec.input_dim))
        self.labels = np.empty(batch, dtype=np.int64)
        self.rows = np.arange(batch)
        self.onehot = np.zeros((batch, classes))
        self.h = [np.empty((batch, width)) for width in spec.widths[1:]]  # each layer's output
        self.gh = [None] + [np.empty((batch, width)) for width in spec.widths[1:-1]]  # dL/d(each layer's input)
        self.e = np.empty((classes, batch))
        self.colsum = np.empty(batch)
        self.glogits = np.empty((batch, classes))
        self.scratch = np.empty((classes, batch))


class ProbeLoss:
    """`fit`'s loss for a probe: the mean softmax cross-entropy of a batch's
    logits, with the whole ReLU MLP, as one tape node over every parameter.

    The node computes with `tensor.mlp_forward`/`mlp_backward` and the
    softmax cross-entropy functions, in the order per-layer nodes would, so
    it yields the bytes of one node per layer followed by a cross-entropy
    node (kept in tests/_oracles.py). It writes the parameter gradients
    straight into the probe's gradient buffer, and every activation, logit
    and gradient array into a workspace kept per batch size: a step
    allocates nothing parameter-sized, only a few batch-sized temporaries
    (relu masks, the picked logits).
    Labels are checked once, here.
    """

    def __init__(self, probe: ProbeClassifier, z: np.ndarray, y: np.ndarray):
        z = np.asarray(z, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if z.ndim != 2 or z.shape[1] != probe.latent_dim or y.shape != z.shape[:1]:
            raise ShapeError("probe_loss", z.shape, y.shape)
        if y.size and (y.min() < 0 or y.max() >= probe.n_classes):
            raise ConfigError("labels", "class index out of range")
        self.probe, self.z, self.y = probe, z, y
        self._workspaces: dict[int, _Workspace] = {}

    def __call__(self, idx: np.ndarray) -> Tensor:
        probe, spec = self.probe, self.probe.spec
        ws = self._workspaces.get(idx.size)
        if ws is None:
            ws = self._workspaces[idx.size] = _Workspace(idx.size, spec)
        weights, grads = probe._mlp_arrays("probe", spec)
        onehot = ws.onehot
        onehot.fill(0.0)
        onehot[ws.rows, np.take(self.y, idx, out=ws.labels)] = 1.0
        hs, layers = mlp_forward(np.take(self.z, idx, axis=0, out=ws.x), weights, spec.activations, ws.h)
        value, ce_saved = softmax_cross_entropy_forward(hs[-1], onehot, ws.e, ws.colsum)

        def bwd(g: np.ndarray):
            g = softmax_cross_entropy_backward(g, onehot, ce_saved, ws.glogits, ws.scratch)
            mlp_backward(g, hs, layers, grads, gh=ws.gh, overwrite_g=True)
            return grads

        return _record(Tensor._from_owned(np.asarray(value)), tuple(probe._params.values()), bwd)


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
    table = {"complete": probe.accuracy(model.encode_complete(dataset.complete_view(split)).data, y)}
    for m in range(model.modality_count):
        z = model.encode_modality(m, dataset.modality(m, split)).data
        table[f"modality_{m + 1}"] = probe.accuracy(z, y)
    return RobustnessTable(table)
