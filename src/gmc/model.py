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
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, NumericError, ShapeError, require_integer, require_number
from .loss import RepresentationBatch, contrastive_loss
from .tensor import ACTIVATIONS, Tape, Tensor, _record, mlp_backward, mlp_forward


@dataclass(frozen=True)
class ModelConfig:
    """The architecture `GmcModel.build` makes: every base encoder is
    [input -> hidden -> d], the shared head [d -> hidden -> s], each with
    `activation` on its hidden layer; `seed` keys the parameter init."""

    d: int = 64
    s: int = 64
    hidden: int = 64
    activation: str = "swish"
    seed: int = 0

    def __post_init__(self):
        for key in ("d", "s", "hidden", "seed"):
            require_integer(key, getattr(self, key))
        for key in ("d", "s", "hidden"):
            if getattr(self, key) < 1:
                raise ConfigError(key, f"must be positive, got {getattr(self, key)!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError("activation", f"unknown activation {self.activation!r}")


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
            acts = (ModelConfig.activation,) * (len(widths) - 2)
        acts = tuple(acts)
        object.__setattr__(self, "activations", acts)
        if len(acts) != len(widths) - 2:
            raise ConfigError("activations", "need one activation per hidden layer")
        for a in acts:
            if a not in ACTIVATIONS:
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
) -> dict[str, np.ndarray]:
    """Fresh parameter values for one MLP, in declaration order.

    Weights are N(0, 1/fan_in), biases zero; layer l draws from the stream
    keyed (seed, purpose, index, l) so inits never depend on creation order.
    """
    params = {}
    for layer in range(spec.layer_count):
        fan_in, fan_out = spec.widths[layer], spec.widths[layer + 1]
        gen = rng.stream(seed, purpose, index, layer)
        params[f"{prefix}/w{layer}"] = gen.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
        params[f"{prefix}/b{layer}"] = np.zeros(fan_out)
    return params


class ParameterSet:
    """Named gradient-tracked parameters: the unit `fit` trains.

    The parameters are read-only views of one contiguous float64 buffer,
    laid out in declaration order; a checkpoint payload is that buffer's
    bytes. A training step writes their gradients into a second buffer with
    the same layout. Subclasses call `_init_parameters` in their constructor;
    holding, counting, swapping and input-shape checks live here.
    """

    _params: dict[str, Tensor]

    def _init_parameters(self, values: Mapping[str, np.ndarray]) -> None:
        self._layout = []  # (name, start, stop, shape) per parameter
        start = 0
        for name, value in values.items():
            stop = start + np.size(value)
            self._layout.append((name, start, stop, np.shape(value)))
            start = stop
        self._bind(np.concatenate([np.ravel(v) for v in values.values()], dtype=np.float64))

    def _bind(self, flat: np.ndarray) -> None:
        # Every parameter becomes a fresh gradient-tracked leaf over `flat`,
        # and gets a view of the same place in a new gradient buffer.
        flat.setflags(write=False)
        self._flat = flat
        self._grad = np.empty(flat.size)
        self._params = {}
        self._grad_views = {}
        for name, start, stop, shape in self._layout:
            self._params[name] = Tensor._from_owned(flat[start:stop].reshape(shape), requires_grad=True)
            self._grad_views[name] = self._grad[start:stop].reshape(shape)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def parameter_count(self) -> int:
        return self._flat.size

    def flat_parameters(self) -> np.ndarray:
        """Every parameter value in one read-only buffer, in declaration order."""
        return self._flat

    def gradients(self) -> np.ndarray:
        """Every parameter's gradient in one buffer laid out like
        `flat_parameters()`, which the backward of a training step's node
        writes; a parameter's `grad` is its view of the buffer."""
        return self._grad

    def _mlp_arrays(self, prefix: str, spec: EncoderSpec) -> tuple[list, list]:
        """One MLP's w0, b0, w1, b1, ... arrays and their gradient views."""
        names = [f"{prefix}/{kind}{layer}" for layer in range(spec.layer_count) for kind in "wb"]
        return [self._params[n].data for n in names], [self._grad_views[n] for n in names]

    def clear_gradients(self) -> None:
        for p in self._params.values():
            p.grad = None

    def replace_parameters(self, values) -> None:
        """Swap in new parameter values.

        `values` is either a whole new buffer, a 1-D float64 array laid out
        like `flat_parameters()` that the set takes over and makes read-only,
        or a mapping from any subset of names to arrays or tensors, copied.
        """
        if isinstance(values, np.ndarray):
            if values.dtype != np.float64 or values.shape != self._flat.shape:
                raise ShapeError("replace_parameters", self._flat.shape, values.shape)
            self._bind(values)
            return
        staged = {}
        for name, value in values.items():
            if name not in self._params:
                raise ConfigError("parameters", f"unknown parameter {name!r}")
            arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
            if arr.shape != self._params[name].shape:
                raise ShapeError(f"replace_parameters[{name}]", self._params[name].shape, arr.shape)
            staged[name] = arr
        flat = self._flat.copy()
        for name, start, stop, _ in self._layout:
            if name in staged:
                flat[start:stop] = staged[name].reshape(-1)
        self._bind(flat)

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
        values = {}
        for enc_index, (name, spec) in enumerate(self._named_specs()):
            values.update(init_mlp_params(spec, self.seed, rng.PARAM_INIT, enc_index, name))
        self._init_parameters(values)

    @classmethod
    def build(cls, modality_dims: Sequence[int], config: ModelConfig = ModelConfig(), **fields) -> "GmcModel":
        """The model `config` describes, for these modality widths; keyword
        arguments replace fields of `config` (`build(dims, d=8, seed=1)`)."""
        c = replace(config, **fields)
        dims = tuple(int(x) for x in modality_dims)
        specs = [EncoderSpec((dim, c.hidden, c.d), (c.activation,)) for dim in dims]
        specs.append(EncoderSpec((sum(dims), c.hidden, c.d), (c.activation,)))
        head = EncoderSpec((c.d, c.hidden, c.s), (c.activation,))
        return cls(specs, head, seed=c.seed)

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

    def _mlps(self) -> list[tuple]:
        """(spec, weights, gradient views) per base encoder in pathway order, then the head's."""
        return [(spec, *self._mlp_arrays(name, spec)) for name, spec in self._named_specs()]

    def _pathway(self, p: int, x, mlps: list) -> tuple:
        """The `mlp_forward` passes of pathway p (M: complete), its base encoder's and the head's."""
        (spec, weights, _), (head_spec, head_weights, _) = mlps[p], mlps[-1]
        op = "encode_modality" if p < self.modality_count else "encode_complete"
        base = mlp_forward(self._check_input(op, x, spec.input_dim).data, weights, spec.activations)
        return base, mlp_forward(base[0][-1], head_weights, head_spec.activations)

    def encode_modality(self, m: int, x) -> Tensor:
        """z_m = g(f_m(x_m)) for a batch of modality-m rows."""
        if not 0 <= m < self.modality_count:
            raise ConfigError("modality", f"no modality {m}; model has {self.modality_count}")
        _, (hs, _) = self._pathway(m, x, self._mlps())
        return Tensor._from_owned(hs[-1])

    def encode_complete(self, x) -> Tensor:
        """z = g(f(x)) for a batch of concatenated complete observations."""
        _, (hs, _) = self._pathway(self.modality_count, x, self._mlps())
        return Tensor._from_owned(hs[-1])

    def encode_pathway(self, pathway, x) -> Tensor:
        """Dispatch on pathway: an integer modality index or "complete"."""
        if pathway == "complete":
            return self.encode_complete(x)
        return self.encode_modality(int(pathway), x)


def batch_loss(model: GmcModel, modality_arrays, complete_array, tau, variant: str = "full") -> Tensor:
    """The contrastive loss of one batch as one tape node over every
    parameter of `model`, whose backward writes the model's gradient buffer.

    The backward runs the loss backward, then the complete pathway and
    modalities M-1 down to 0, each through the head and its base encoder:
    the head's gradients are summed in the order `Tape.backward` summed
    them over one node per layer, which keeps that path's bytes.
    """
    if variant not in ("full", "ablated"):
        raise ConfigError("loss_variant", f"unknown variant {variant!r}")
    m = model.modality_count
    if len(modality_arrays) != m:
        raise ConfigError("modalities", "one array per modality required")
    mlps = model._mlps()
    passes = [model._pathway(p, x, mlps) for p, x in enumerate([*modality_arrays, complete_array])]
    zs = [Tensor._from_owned(hs[-1]) for _, (hs, _) in passes]
    value, loss_backward = contrastive_loss(RepresentationBatch(zs[:m], zs[m]), tau, variant == "ablated")
    grads = tuple(model._grad_views.values())

    def bwd(g: np.ndarray):
        g_zs = loss_backward(g)
        for p in range(m, -1, -1):
            (base_hs, base_layers), (head_hs, head_layers) = passes[p]
            g_h = mlp_backward(g_zs[p], head_hs, head_layers, mlps[-1][2], need_gx=True, add=p < m)
            mlp_backward(g_h, base_hs, base_layers, mlps[p][2])
        return grads

    return _record(Tensor._from_owned(np.asarray(value)), tuple(model._params.values()), bwd)


# --- training -----------------------------------------------------------------


@dataclass(frozen=True)
class LoopConfig:
    """The fields, and their checks, of every config that drives `fit`;
    each subclass sets its own default number of epochs."""

    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for key in ("epochs", "batch_size", "seed"):
            require_integer(key, getattr(self, key))
        if self.epochs < 1:
            raise ConfigError("epochs", "must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be positive")
        require_number("learning_rate", self.learning_rate)
        require_number("adam_beta1", self.adam_beta1, below=1.0)
        require_number("adam_beta2", self.adam_beta2, below=1.0)
        require_number("adam_eps", self.adam_eps, positive=True)
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError("optimizer", f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class TrainConfig(LoopConfig):
    epochs: int = 100
    tau: float = 0.1
    loss_variant: str = "full"

    def __post_init__(self):
        super().__post_init__()
        if self.batch_size < 2:
            raise ConfigError("batch_size", "contrastive batches need at least 2 samples")
        require_number("tau", self.tau, positive=True)
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


class _Sgd:
    """p - lr * g, written over p; g is spent."""

    def __init__(self, config):
        self.lr = config.learning_rate

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        np.multiply(grad, self.lr, out=grad)
        np.subtract(params, grad, out=params)


class _Adam:
    """Adam (arXiv 1412.6980) over flat buffers, updated in place.

    The elementwise operations keep the textbook order, so every rounding
    matches the per-parameter formula:
        m = b1 * m + (1 - b1) * g
        v = b2 * v + ((1 - b2) * g) * g
        p - (lr * (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps)
    The new values overwrite `params`. Once v is updated the gradient is
    spent, and its buffer holds the denominator, so a step touches five
    parameter-sized arrays: params, grad, m, v and one scratch.
    """

    def __init__(self, config, size: int):
        self.lr = config.learning_rate
        self.b1, self.b2, self.eps = config.adam_beta1, config.adam_beta2, config.adam_eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._s = np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        m, v, s = self.m, self.v, self._s
        np.multiply(m, self.b1, out=m)
        np.multiply(grad, 1.0 - self.b1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, self.b2, out=v)
        np.multiply(grad, 1.0 - self.b2, out=s)
        np.multiply(s, grad, out=s)
        np.add(v, s, out=v)
        correction = 1.0 - self.b1**self.t
        if correction == 1.0:  # from t = 356 at b1 = 0.9; x / 1.0 == x for every double
            np.multiply(m, self.lr, out=s)
        else:
            np.divide(m, correction, out=s)
            np.multiply(s, self.lr, out=s)
        np.divide(v, 1.0 - self.b2**self.t, out=grad)
        np.sqrt(grad, out=grad)
        np.add(grad, self.eps, out=grad)
        np.divide(s, grad, out=s)
        np.subtract(params, s, out=params)


def fit(
    params: ParameterSet,
    loss_fn: Callable[[np.ndarray], Tensor],
    n: int,
    config: LoopConfig,
    purpose: int,
    min_batch: int,
    what: str,
) -> list[list[tuple[float, int]]]:
    """Minimize `loss_fn` over minibatches of n samples; mutates `params`.

    Each epoch draws a permutation from the stream (config.seed, purpose,
    epoch) and steps once per batch of config.batch_size indices; a trailing
    batch smaller than `min_batch` is dropped. `loss_fn` maps the batch
    indices to a scalar loss, one tape node that writes `gradients()`. A
    non-finite loss or a domain error aborts with a NumericError that names
    `what` failed, the epoch, the step and the shuffle seed. Returns, per
    epoch, the (loss, batch size) of every step taken.

    The parameters are bound once, over a copy of their buffer that the
    optimizer then updates in place through the writable original while the
    set holds a read-only view: tensors taken from `params` before the call
    keep their values, and those bound here change with every step.
    """
    flat = params.flat_parameters().copy()
    params.replace_parameters(flat.view())
    optimizer = _Adam(config, flat.size) if config.optimizer == "adam" else _Sgd(config)
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
                optimizer.step(flat, params.gradients())
            params.clear_gradients()
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
