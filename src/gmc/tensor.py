"""The plain array functions that both trained networks run on, and the
one-step record the benchmark counts.

The arithmetic of a dense layer, of an MLP's layer loop and of the softmax
cross-entropy lives here (`dense_forward`, `mlp_forward`,
`softmax_cross_entropy_forward` and their backwards). A training step of
either network (`model.batch_loss`, `downstream.ProbeLoss`) is one
`(value, backward)` pair over these functions, so each float operation is
written, and ordered, in one place.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError


class Tape:
    """`fit`'s record of one training step: it holds the step's backward,
    which `backward()` runs, and counts as one node.

    It exists only because the benchmark's tracer (`perfbench/`) counts
    training steps through calls of `Tape.backward` and reads `len(tape)` as
    the nodes of a step. It goes once the tracer counts steps another way.
    """

    __slots__ = ("_backward",)

    def __init__(self, backward: Callable[[], None]):
        self._backward = backward

    def __len__(self) -> int:
        return 1

    def backward(self) -> None:
        self._backward()


# --- layers -----------------------------------------------------------------


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
