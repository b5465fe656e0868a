"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: a `Tensor` wraps a read-only numpy array,
nodes compute with numpy and append a backward closure to the active
`Tape`, and `Tape.backward` walks the recorded operations once in reverse
order, accumulating gradients additively across fan-out.

A tensor's data is read-only to everyone who holds it. The one exception
is a parameter that `model.fit` is training: it is a view of the buffer
that the optimizer updates in place after each step. Every other tensor
keeps the values it was created with, so a tape and the tensors it
references can be shared with readers on other threads once the forward
pass is done, as long as no fit is updating the parameters they view.

The arithmetic of a dense layer, of an MLP's layer loop and of the softmax
cross-entropy lives in plain array functions (`dense_forward`, `mlp_forward`,
`softmax_cross_entropy_forward` and their backwards). The one-node GMC and
probe steps (`model.batch_loss`, `downstream.ProbeLoss`) call them, so each
float operation is written, and ordered, in one place.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError, ShapeError

_ACTIVE_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "gmc_active_tape", default=None
)


class Tensor:
    """A read-only float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @classmethod
    def _from_owned(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        # Internal fast path: `arr` is freshly computed, or a view of a
        # buffer no one writes to any more.
        # ascontiguousarray would promote 0-d scalars to 1-d, so avoid it
        # unless the layout actually needs fixing.
        t = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Tape:
    """Records primitives so gradients can be replayed in reverse order.

    One tape belongs to one logical thread for the duration of its forward
    and backward pass. Distinct tapes over distinct tensors are independent.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._token = None

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPE.reset(self._token)
        self._token = None

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(leaf) into every requires_grad leaf.

        `root` must be a single-element tensor produced on this tape.
        Repeated calls add into existing grad buffers.
        """
        if root.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        produced = {id(n.out) for n in self._nodes}
        if id(root) not in produced:
            raise ContractError("backward root was not produced on this tape")

        grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
        holders: dict[int, Tensor] = {id(root): root}
        for node in reversed(self._nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            holders.pop(id(node.out), None)
            for t, ig in zip(node.inputs, node.bwd(g)):
                if ig is None or not t.requires_grad:
                    continue
                tid = id(t)
                if tid in grads:
                    grads[tid] = grads[tid] + ig
                else:
                    grads[tid] = ig
                    holders[tid] = t
        # Whatever was never popped is a leaf (no recorded producer).
        for tid, g in grads.items():
            leaf = holders[tid]
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._nodes.append(_Node(out, inputs, bwd))
    return out


# --- layers and nodes ------------------------------------------------------


ACTIVATIONS = ("relu", "swish")


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str | None = None, out=None):
    """act((x @ w) + b) on arrays, written into `out` when it is given.

    Returns the output and what `dense_backward` needs of the activation: a
    relu's output, which is positive exactly where its input is, or a
    swish's input and sigmoid. A relu or linear layer allocates nothing
    when `out` is given.
    """
    pre = np.matmul(x, w, out=out)
    pre += b
    if activation == "relu":
        out = np.maximum(pre, 0.0, out=pre)
        return out, out
    if activation == "swish":
        sig = 1.0 / (1.0 + np.exp(-pre))
        return pre * sig, (pre, sig)
    return pre, None


def dense_backward(g, x, w, activation, saved, need_gx=True, gx=None, gw=None, gb=None, overwrite_g=False):
    """(dL/dx, dL/dw, dL/db) of a `dense_forward` layer from g = dL/d(output).

    Each gradient is written into its buffer when one is given. dL/dx is
    skipped (None) unless `need_gx`: it is never formed for a network's
    input layer. A relu masks g in place when `overwrite_g` allows it.
    """
    if activation == "relu":
        # Subgradient at exactly zero is zero.
        g = np.multiply(g, saved > 0.0, out=g if overwrite_g else None)
    elif activation == "swish":
        pre, sig = saved
        g = g * (sig * (1.0 + pre * (1.0 - sig)))
    gx = np.matmul(g, w.T, out=gx) if need_gx else None
    return gx, np.matmul(x.T, g, out=gw), g.sum(axis=0, out=gb)


def mlp_forward(x: np.ndarray, weights, activations, out=None):
    """An MLP's forward pass over arrays, one `dense_forward` per layer.

    `weights` holds w0, b0, w1, b1, ... and `activations` one name per
    hidden layer; the last layer is linear. Layer l writes its output into
    out[l] when `out` is given. Returns the outputs, x first, and per layer
    what `mlp_backward` needs.
    """
    hs, layers = [x], []
    for layer, activation in enumerate((*activations, None)):
        w, b = weights[2 * layer], weights[2 * layer + 1]
        h, saved = dense_forward(hs[-1], w, b, activation, None if out is None else out[layer])
        hs.append(h)
        layers.append((w, activation, saved))
    return hs, layers


def mlp_backward(g, hs, layers, grads, need_gx=False, gh=None, add=False, overwrite_g=False):
    """Backpropagate g = dL/d(output) through an `mlp_forward` pass.

    Layer l's dL/dw and dL/db are written into grads[2l] and grads[2l + 1],
    or added into them when `add` is set: a network shared by several
    pathways sums its gradients over them. dL/d(input of layer l) goes into
    gh[l] when `gh` is given, and g is spent when `overwrite_g` allows it.
    Returns dL/dx, or None unless `need_gx`.
    """
    for layer in reversed(range(len(layers))):
        w, activation, saved = layers[layer]
        args = (g, hs[layer], w, activation, saved, layer > 0 or need_gx, None if gh is None else gh[layer])
        gw, gb = grads[2 * layer], grads[2 * layer + 1]
        if add:
            g, dw, db = dense_backward(*args, overwrite_g=overwrite_g)
            np.add(gw, dw, out=gw)
            np.add(gb, db, out=gb)
        else:
            g, _, _ = dense_backward(*args, gw=gw, gb=gb, overwrite_g=overwrite_g)
    return g


def softmax_cross_entropy_forward(logits: np.ndarray, onehot: np.ndarray, e=None, colsum=None):
    """Mean cross-entropy of (B, C) raw logits against (B, C) one-hot rows.

    Returns the value and (e, colsum), which the backward needs; `e` (C, B)
    and `colsum` (B,) are written into the buffers given. Each row's
    log-sum-exp is shifted by the row maximum, which changes no value. The
    exponentials are taken in the (C, B) transpose and summed down its
    columns: that layout fixes the order of every summation, and with it
    the trained bytes.
    """
    if logits.ndim != 2 or onehot.shape != logits.shape:
        raise ShapeError("softmax_cross_entropy", logits.shape, onehot.shape)
    b = logits.shape[0]
    shifts = logits.max(axis=1)
    if e is None:
        e = np.array(logits.T, order="C")
    else:
        np.copyto(e, logits.T)
    e -= shifts
    np.exp(e, out=e)
    colsum = e.sum(axis=0, out=colsum)
    if not (colsum > 0.0).all():
        raise DomainError(f"softmax_cross_entropy: non-positive exponential sum (min {colsum.min()})")
    lse_total = float(np.log(colsum).sum()) + float(shifts.sum())
    picked = float((logits * onehot).sum())
    return (lse_total + picked * -1.0) * (1.0 / b), (e, colsum)


def softmax_cross_entropy_backward(g, onehot: np.ndarray, saved, out=None, scratch=None) -> np.ndarray:
    """dL/dlogits = g * (softmax - onehot) / B, computed in the forward's
    (C, B) layout; `out` (B, C) and `scratch` (C, B) are written when given."""
    e, colsum = saved
    s = g * (1.0 / colsum.shape[0])
    gl = np.multiply(onehot, float(s * -1.0), out=out)
    return np.add(gl, np.multiply(e, s / colsum, out=scratch).T, out=gl)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-6) -> float:
    """Worst relative disagreement between tape and central-difference gradients.

    Relative error for element k is |analytic_k - numeric_k| / max(1, |analytic_k|).
    Returns inf when any probed evaluation is non-finite. `f` must be
    deterministic and must not mutate its argument.
    """
    if step <= 0.0:
        raise ContractError("grad_check step must be positive")
    probe = Tensor(x.data, requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if y.size != 1:
        raise ContractError(f"grad_check target must be scalar, got shape {y.shape}")
    tape.backward(y)
    analytic = probe.grad if probe.grad is not None else np.zeros(x.shape)

    flat = x.data.reshape(-1)
    numeric = np.empty(flat.shape[0])
    for k in range(flat.shape[0]):
        bumped = flat.copy()
        bumped[k] = flat[k] + step
        hi = f(Tensor(bumped.reshape(x.shape))).item()
        bumped[k] = flat[k] - step
        lo = f(Tensor(bumped.reshape(x.shape))).item()
        numeric[k] = (hi - lo) / (2.0 * step)
    if not (np.all(np.isfinite(numeric)) and np.all(np.isfinite(analytic))):
        return math.inf
    a = analytic.reshape(-1)
    rel = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
    return float(rel.max()) if rel.size else 0.0
