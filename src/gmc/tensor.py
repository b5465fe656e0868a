"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: a `Tensor` wraps an immutable numpy
array, primitives compute with numpy and append a backward closure to the
active `Tape`, and `Tape.backward` walks the recorded operations once in
reverse order, accumulating gradients additively across fan-out.

Tensors are immutable after creation except for their `grad` buffer, so a
tape and the tensors it references can be shared freely with readers on
other threads once the forward pass is done.
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
    """An immutable float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @classmethod
    def _from_owned(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        # Internal fast path: `arr` is freshly computed and not aliased.
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


# --- primitives ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, *, transpose_a: bool = False, transpose_b: bool = False) -> Tensor:
    """2-D matrix product, with optional transposes applied on the fly."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul", a.shape, b.shape)
    A = a.data.T if transpose_a else a.data
    B = b.data.T if transpose_b else b.data
    if A.shape[1] != B.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = Tensor._from_owned(A @ B)

    def bwd(g: np.ndarray):
        ga = g @ B.T
        gb = A.T @ g
        return (ga.T if transpose_a else ga, gb.T if transpose_b else gb)

    return _record(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias added to each row of a matrix."""
    bias = a.data.ndim == 2 and b.data.ndim == 1 and b.shape[0] == a.shape[1]
    if not bias and a.shape != b.shape:
        raise ShapeError("add", a.shape, b.shape)
    out = Tensor._from_owned(a.data + b.data)

    def bwd(g: np.ndarray):
        return (g, g.sum(axis=0) if bias else g)

    return _record(out, (a, b), bwd)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a Python number."""
    f = float(factor)
    out = Tensor._from_owned(x.data * f)
    return _record(out, (x,), lambda g: (g * f,))


def relu(x: Tensor) -> Tensor:
    out = Tensor._from_owned(np.maximum(x.data, 0.0))
    # Subgradient at exactly zero is zero.
    return _record(out, (x,), lambda g: (g * (x.data > 0.0),))


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x), the unit-beta swish."""
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor._from_owned(x.data * sig)

    def bwd(g: np.ndarray):
        return (g * (sig * (1.0 + x.data * (1.0 - sig))),)

    return _record(out, (x,), bwd)


def exp(x: Tensor) -> Tensor:
    out = Tensor._from_owned(np.exp(x.data))
    return _record(out, (x,), lambda g: (g * out.data,))


def log(x: Tensor) -> Tensor:
    if not np.all(x.data > 0.0):
        raise DomainError(f"log: non-positive input (min {x.data.min() if x.size else 'empty'})")
    out = Tensor._from_owned(np.log(x.data))
    return _record(out, (x,), lambda g: (g / x.data,))


def sum(x: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - op vocabulary
    if axis is not None and not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError("sum", x.shape, (axis,))
    out = Tensor._from_owned(np.sum(x.data, axis=axis))

    def bwd(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _record(out, (x,), bwd)


def row_normalize(x: Tensor) -> tuple[Tensor, np.ndarray]:
    """Each row of a 2-D tensor divided by its Euclidean norm.

    Returns the output and the row norms, so the caller can reject rows too
    short to have a direction. A zero row comes out as a zero row, without
    a division by zero.
    """
    if x.data.ndim != 2:
        raise ShapeError("row_normalize", x.shape)
    norms = np.sqrt(np.sum(x.data * x.data, axis=1))
    safe = np.where(norms > 0.0, norms, 1.0)
    # exp(-log n), not 1/n: the two differ in the last bit, and this is the
    # rounding every recorded checkpoint and loss trace was trained with.
    inv = np.exp(-np.log(safe))
    out = Tensor._from_owned(x.data * inv[:, None])

    def bwd(g: np.ndarray):
        g_norm = ((np.sum(g * x.data, axis=1) * inv) * -1.0) / safe
        return (g * inv[:, None] + (g_norm / safe)[:, None] * x.data,)

    return _record(out, (x,), bwd), norms


def dot(u: Tensor, v: Tensor) -> Tensor:
    """Inner product of two same-shape tensors (flattened)."""
    if u.shape != v.shape:
        raise ShapeError("dot", u.shape, v.shape)
    out = Tensor._from_owned(np.asarray(float(np.sum(u.data * v.data))))

    def bwd(g: np.ndarray):
        gf = float(g)
        return (gf * v.data, gf * u.data)

    return _record(out, (u, v), bwd)


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
