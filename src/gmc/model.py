"""Two-level multimodal encoder with a shared projection head.

M modality-specific base encoders and one complete encoder (fed the
concatenated observation tuple) map their inputs to a common intermediate
width d; a single projection head, shared by every pathway, maps d to the
latent width s. Latents are not re-normalized on output: everything
downstream is cosine-based, so scale carries no information.

Training minimizes the multimodal contrastive loss over all pathways with
Adam (default) or plain SGD. Parameter init and epoch shuffles come from
counter-based streams keyed on their seeds, so runs reproduce bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, NumericError, ShapeError, require_integer
from .loss import RepresentationBatch, mnt_xent, mnt_xent_ablated
from .tensor import Tape, Tensor, add, matmul, relu, swish

_ACTIVATIONS = {"relu": relu, "swish": swish}


@dataclass(frozen=True)
class EncoderSpec:
    """MLP shape: widths[0] -> ... -> widths[-1].

    `activations` holds one name per hidden layer; the final layer is always
    linear, the usual projection pattern.
    """

    widths: tuple[int, ...]
    activations: tuple[str, ...] | None = None

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 2:
            raise ConfigError("widths", "an encoder needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ConfigError("widths", "all widths must be positive")
        acts = self.activations
        if acts is None:
            acts = ("swish",) * (len(widths) - 2)
        acts = tuple(acts)
        object.__setattr__(self, "activations", acts)
        if len(acts) != len(widths) - 2:
            raise ConfigError("activations", "need one activation per hidden layer")
        for a in acts:
            if a not in _ACTIVATIONS:
                raise ConfigError("activations", f"unknown activation {a!r}")

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def layer_count(self) -> int:
        return len(self.widths) - 1

    def parameter_count(self) -> int:
        return sum(w_in * w_out + w_out for w_in, w_out in zip(self.widths, self.widths[1:]))


def init_mlp_params(
    spec: EncoderSpec, seed: int, purpose: int, index: int, prefix: str
) -> dict[str, Tensor]:
    """Fresh gradient-tracked parameters for one MLP.

    Weights are N(0, 1/fan_in), biases zero; layer l draws from the stream
    keyed (seed, purpose, index, l) so inits never depend on creation order.
    """
    params = {}
    for layer in range(spec.layer_count):
        fan_in, fan_out = spec.widths[layer], spec.widths[layer + 1]
        gen = rng.stream(seed, purpose, index, layer)
        w = gen.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
        params[f"{prefix}/w{layer}"] = Tensor(w, requires_grad=True)
        params[f"{prefix}/b{layer}"] = Tensor(np.zeros(fan_out), requires_grad=True)
    return params


def mlp_forward(spec: EncoderSpec, params: Mapping[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    h = x
    for layer in range(spec.layer_count):
        h = add(matmul(h, params[f"{prefix}/w{layer}"]), params[f"{prefix}/b{layer}"])
        if layer < spec.layer_count - 1:
            h = _ACTIVATIONS[spec.activations[layer]](h)
    return h


class ParameterSet:
    """Named gradient-tracked parameters: the unit `fit` trains.

    Subclasses fill `_params` in their constructor; holding, counting,
    swapping and input-shape checks live here.
    """

    _params: dict[str, Tensor]

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def replace_parameters(self, values: Mapping[str, object]) -> None:
        """Swap in new parameter values (any subset of names).

        Each replacement becomes a fresh gradient-tracked leaf, so stale
        gradients never leak across optimizer steps.
        """
        staged = {}
        for name, value in values.items():
            if name not in self._params:
                raise ConfigError("parameters", f"unknown parameter {name!r}")
            arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
            if arr.shape != self._params[name].shape:
                raise ShapeError(f"replace_parameters[{name}]", self._params[name].shape, arr.shape)
            staged[name] = Tensor(arr, requires_grad=True)
        self._params.update(staged)

    def _check_input(self, op: str, x, expected: int) -> Tensor:
        t = x if isinstance(x, Tensor) else Tensor(x)
        if t.data.ndim != 2 or t.shape[1] != expected:
            raise ShapeError(op, t.shape, ("batch", expected))
        return t


class GmcModel(ParameterSet):
    """Parameter container for the M+1 base encoders and the shared head.

    `base_specs` lists the M modality encoders followed by the complete
    encoder, whose input width must equal the sum of the modality widths
    (the complete pathway consumes the concatenated tuple). A single head
    serves every pathway; that sharing is the architectural point.
    """

    def __init__(self, base_specs: Sequence[EncoderSpec], head_spec: EncoderSpec, seed: int = 0):
        base_specs = tuple(base_specs)
        if len(base_specs) < 2:
            raise ConfigError("base_specs", "need at least one modality encoder plus the complete encoder")
        d = base_specs[0].output_dim
        for spec in base_specs:
            if spec.output_dim != d:
                raise ConfigError("base_specs", "all base encoders must share the intermediate width")
        modality_input = sum(spec.input_dim for spec in base_specs[:-1])
        if base_specs[-1].input_dim != modality_input:
            raise ConfigError(
                "base_specs",
                f"complete encoder input width {base_specs[-1].input_dim} != "
                f"sum of modality widths {modality_input}",
            )
        if head_spec.input_dim != d:
            raise ConfigError("head_spec", f"head input width must equal d={d}")
        self.base_specs = base_specs
        self.head_spec = head_spec
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}
        for enc_index, (name, spec) in enumerate(self._named_specs()):
            self._params.update(init_mlp_params(spec, self.seed, rng.PARAM_INIT, enc_index, name))

    @classmethod
    def build(
        cls,
        modality_dims: Sequence[int],
        d: int = 64,
        s: int = 64,
        hidden: int = 64,
        activation: str = "swish",
        seed: int = 0,
    ) -> "GmcModel":
        """Desk-scale default: every encoder is [input -> hidden -> out]."""
        dims = tuple(int(x) for x in modality_dims)
        specs = [EncoderSpec((dim, hidden, d), (activation,)) for dim in dims]
        specs.append(EncoderSpec((sum(dims), hidden, d), (activation,)))
        head = EncoderSpec((d, hidden, s), (activation,))
        return cls(specs, head, seed=seed)

    def _named_specs(self):
        m = self.modality_count
        for i in range(m):
            yield f"enc{i}", self.base_specs[i]
        yield "enc_complete", self.base_specs[-1]
        yield "head", self.head_spec

    @property
    def modality_count(self) -> int:
        return len(self.base_specs) - 1

    @property
    def modality_dims(self) -> tuple[int, ...]:
        return tuple(spec.input_dim for spec in self.base_specs[:-1])

    @property
    def d(self) -> int:
        return self.base_specs[0].output_dim

    @property
    def s(self) -> int:
        return self.head_spec.output_dim

    # --- forward ------------------------------------------------------------

    def _mlp(self, name: str, spec: EncoderSpec, x: Tensor) -> Tensor:
        return mlp_forward(spec, self._params, name, x)

    def encode_modality(self, m: int, x, return_intermediate: bool = False):
        """z_m = g(f_m(x_m)) for a batch of modality-m rows; optionally also h_m."""
        if not 0 <= m < self.modality_count:
            raise ConfigError("modality", f"no modality {m}; model has {self.modality_count}")
        t = self._check_input("encode_modality", x, self.base_specs[m].input_dim)
        h = self._mlp(f"enc{m}", self.base_specs[m], t)
        z = self._mlp("head", self.head_spec, h)
        return (z, h) if return_intermediate else z

    def encode_complete(self, x, return_intermediate: bool = False):
        """z = g(f(x)) for a batch of concatenated complete observations."""
        t = self._check_input("encode_complete", x, self.base_specs[-1].input_dim)
        h = self._mlp("enc_complete", self.base_specs[-1], t)
        z = self._mlp("head", self.head_spec, h)
        return (z, h) if return_intermediate else z

    def encode_pathway(self, pathway, x, return_intermediate: bool = False):
        """Dispatch on pathway: an integer modality index or "complete"."""
        if pathway == "complete":
            return self.encode_complete(x, return_intermediate)
        return self.encode_modality(int(pathway), x, return_intermediate)


def encode_batch(model: GmcModel, modality_arrays: Sequence, complete_array) -> RepresentationBatch:
    """Push one sample-aligned batch through every pathway."""
    per_modality = [model.encode_modality(m, x) for m, x in enumerate(modality_arrays)]
    if len(per_modality) != model.modality_count:
        raise ConfigError("modalities", "one array per modality required")
    return RepresentationBatch(per_modality, model.encode_complete(complete_array))


def batch_loss(model: GmcModel, modality_arrays, complete_array, tau, variant: str = "full") -> Tensor:
    batch = encode_batch(model, modality_arrays, complete_array)
    if variant == "full":
        return mnt_xent(batch, tau)
    if variant == "ablated":
        return mnt_xent_ablated(batch, tau)
    raise ConfigError("loss_variant", f"unknown variant {variant!r}")


# --- training -----------------------------------------------------------------


def check_loop_config(config) -> None:
    """Validation shared by the configs that drive `fit`."""
    for key in ("epochs", "batch_size", "seed"):
        require_integer(key, getattr(config, key))
    if config.epochs < 1:
        raise ConfigError("epochs", "must be positive")
    if config.batch_size < 1:
        raise ConfigError("batch_size", "must be positive")
    if config.learning_rate < 0:
        raise ConfigError("learning_rate", "must be non-negative")
    if config.optimizer not in ("adam", "sgd"):
        raise ConfigError("optimizer", f"unknown optimizer {config.optimizer!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    tau: float = 0.1
    seed: int = 0
    loss_variant: str = "full"
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        check_loop_config(self)
        if self.batch_size < 2:
            raise ConfigError("batch_size", "contrastive batches need at least 2 samples")
        if not self.tau > 0:
            raise ConfigError("tau", "must be positive")
        if self.loss_variant not in ("full", "ablated"):
            raise ConfigError("loss_variant", f"unknown variant {self.loss_variant!r}")


@dataclass
class TrainResult:
    """Per-epoch traces; losses are the raw double-sum values, term means
    divide by the M*B positive-term count for batch-size-free reading."""

    epoch_losses: list[float]
    epoch_term_means: list[float]
    steps: int
    config: TrainConfig


def _grad(p: Tensor) -> np.ndarray:
    return p.grad if p.grad is not None else np.zeros_like(p.data)


class _Sgd:
    def __init__(self, config):
        self.lr = config.learning_rate

    def step(self, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
        return {name: p.data - self.lr * _grad(p) for name, p in params.items()}


class _Adam:
    def __init__(self, config):
        self.lr = config.learning_rate
        self.b1, self.b2, self.eps = config.adam_beta1, config.adam_beta2, config.adam_eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
        self.t += 1
        updated = {}
        for name, p in params.items():
            grad = _grad(p)
            m = self.b1 * self.m.get(name, 0.0) + (1.0 - self.b1) * grad
            v = self.b2 * self.v.get(name, 0.0) + (1.0 - self.b2) * grad * grad
            self.m[name], self.v[name] = m, v
            m_hat = m / (1.0 - self.b1**self.t)
            v_hat = v / (1.0 - self.b2**self.t)
            updated[name] = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return updated


def fit(
    params: ParameterSet,
    loss_fn: Callable[[np.ndarray], Tensor],
    n: int,
    config,
    purpose: int,
    min_batch: int,
    what: str,
) -> list[list[tuple[float, int]]]:
    """Minimize `loss_fn` over minibatches of n samples; mutates `params`.

    Each epoch draws a permutation from the stream (config.seed, purpose,
    epoch) and steps once per batch of config.batch_size indices; a trailing
    batch smaller than `min_batch` is dropped. `loss_fn` maps the batch
    indices to a scalar loss recorded on the tape. A non-finite loss or a
    domain error aborts with a NumericError that names `what` failed, the
    epoch, the step and the shuffle seed. Returns, per epoch, the (loss,
    batch size) of every step taken.
    """
    optimizer = _Adam(config) if config.optimizer == "adam" else _Sgd(config)
    epochs = []
    step = 0
    for epoch in range(config.epochs):
        perm = rng.stream(config.seed, purpose, epoch).permutation(n)
        steps = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            if idx.size < min_batch:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    with Tape() as tape:
                        loss = loss_fn(idx)
                    value = float(loss.data)
                    if not math.isfinite(value):
                        raise NumericError(
                            f"non-finite {what} {value!r} (shuffle stream seed={config.seed})",
                            epoch=epoch,
                            step=step,
                        )
                    tape.backward(loss)
                except DomainError as err:
                    raise NumericError(
                        f"{what} computation failed: {err} (shuffle stream seed={config.seed})",
                        epoch=epoch,
                        step=step,
                    ) from err
            if config.learning_rate > 0:
                params.replace_parameters(optimizer.step(params.parameters()))
            steps.append((value, idx.size))
            step += 1
        epochs.append(steps)
    return epochs


def train(model: GmcModel, dataset, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Fit the model on the dataset's train split; mutates `model` in place.

    A trailing batch with fewer than 2 samples is dropped: the loss has no
    negatives there.
    """
    if dataset.modality_count != model.modality_count:
        raise ConfigError(
            "dataset",
            f"dataset has {dataset.modality_count} modalities, model expects {model.modality_count}",
        )
    xs = [dataset.modality(m, "train") for m in range(model.modality_count)]
    xc = dataset.complete_view("train")
    n = xc.shape[0]
    if n < 2:
        raise ConfigError("dataset", "train split needs at least 2 samples")

    def loss_fn(idx):
        return batch_loss(model, [x[idx] for x in xs], xc[idx], config.tau, config.loss_variant)

    epochs = fit(model, loss_fn, n, config, rng.SHUFFLE, 2, "loss")
    m = model.modality_count
    return TrainResult(
        [float(np.mean([value for value, _ in steps])) for steps in epochs],
        [float(np.mean([value / (m * b) for value, b in steps])) for steps in epochs],
        sum(len(steps) for steps in epochs),
        config,
    )
