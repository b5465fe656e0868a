"""Brute-force reference implementations used only by the test suite.

Everything here is written with explicit loops over Python floats,
independent of the package's tensor engine and numpy formulations, so the
production code and these oracles can only agree by computing the same
mathematics. The exceptions are references that production code must match
bit for bit, so they keep the straightforward arithmetic it reproduces:
`knn_edges_loops` (k-NN edges on ties and near-ties, one numpy distance row
per point) and, at the end of this file, the tape primitives, chains, dict
optimizers, the per-layer GMC and probe training, the functions only tests
call and the CSV reader and writer that the fused and flat versions
replaced.
"""

import math
import numbers
from fractions import Fraction
from pathlib import Path

import numpy as np

from gmc import rng
from gmc.dca import _pooled_scores, score_components
from gmc.downstream import ProbeClassifier
from gmc.errors import ConfigError, ContractError, DataError, DegenerateVectorError, DomainError, ShapeError
from gmc.loss import RepresentationBatch, mnt_xent, mnt_xent_ablated
from gmc.tensor import ACTIVATIONS, Tape, Tensor, _record, dense_backward, dense_forward


def cos_loops(u, v):
    uu = vv = uv = 0.0
    for k in range(len(u)):
        uu += u[k] * u[k]
        vv += v[k] * v[k]
        uv += u[k] * v[k]
    c = uv / (math.sqrt(uu) * math.sqrt(vv))
    return max(-1.0, min(1.0, c))


def sim_loops(u, v, tau):
    return math.exp(cos_loops(u, v) / tau)


def mnt_xent_loops(zs, zc, tau):
    """Triple-loop total loss. zs: per-modality lists of sample vectors."""
    m_count, b = len(zs), len(zc)
    total = 0.0
    for m in range(m_count):
        for i in range(b):
            omega = 0.0
            for j in range(b):
                if j == i:
                    continue
                omega += sim_loops(zs[m][i], zc[j], tau)
                omega += sim_loops(zs[m][i], zs[m][j], tau)
                omega += sim_loops(zc[i], zc[j], tau)
            total += -math.log(sim_loops(zs[m][i], zc[i], tau) / omega)
    return total


def mnt_xent_ablated_loops(zs, zc, tau):
    m_count, b = len(zs), len(zc)
    total = 0.0
    for m in range(m_count):
        for i in range(b):
            omega = 0.0
            for j in range(b):
                if j != i:
                    omega += sim_loops(zc[i], zc[j], tau)
            total += -math.log(sim_loops(zs[m][i], zc[i], tau) / omega)
    return total


# --- graph alignment oracle -------------------------------------------------


def knn_edges_loops(points, k):
    """Sorted edges of the symmetric k-NN graph, one full distance row per
    point: each point joins its k nearest others by (squared distance,
    index)."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    edges = set()
    for i in range(n):
        diff = pts - pts[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        # lexsort's last key is primary: sort by distance, then index
        order = np.lexsort((np.arange(n), d2))
        for j in order[:k]:
            edges.add((min(i, int(j)), max(i, int(j))))
    return tuple(sorted(edges))


def components_bfs(n, edges):
    """Connected components by breadth-first search over an adjacency list.

    Returns a component id per vertex; ids are assigned by ascending
    smallest member, matching no particular production convention beyond
    being canonical.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    next_id = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        queue = [start]
        comp[start] = next_id
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if comp[w] == -1:
                    comp[w] = next_id
                    queue.append(w)
        next_id += 1
    return comp


def dca_scores_fractions(n, edges, is_eval, comp=None):
    """Exact rational alignment scores for one labeled graph.

    `comp` is the graph's `components_bfs(n, edges)`, computed here if not
    given; a caller scoring many labelings of one graph passes it in.
    Returns a dict with per-component tuples and the network-level values,
    all as Fractions (or exact ints where natural).
    """
    if comp is None:
        comp = components_bfs(n, edges)
    k = max(comp) + 1 if n else 0
    n_ref = [0] * k
    n_ev = [0] * k
    e_rr = [0] * k
    e_ee = [0] * k
    e_re = [0] * k
    for v in range(n):
        if is_eval[v]:
            n_ev[comp[v]] += 1
        else:
            n_ref[comp[v]] += 1
    for u, v in edges:
        c = comp[u]
        if is_eval[u] and is_eval[v]:
            e_ee[c] += 1
        elif not is_eval[u] and not is_eval[v]:
            e_rr[c] += 1
        else:
            e_re[c] += 1

    def cons(r, e):
        return 1 - Fraction(abs(r - e), r + e)

    def qual(rr, ee, re):
        tot = rr + ee + re
        if tot < 1:
            return Fraction(0)
        return 1 - Fraction(rr + ee, tot)

    comp_c = [cons(n_ref[c], n_ev[c]) for c in range(k)]
    comp_q = [qual(e_rr[c], e_ee[c], e_re[c]) for c in range(k)]
    fundamental = [c for c in range(k) if comp_c[c] > 0 and comp_q[c] > 0]

    tot_ref = sum(n_ref)
    tot_ev = sum(n_ev)
    net_c = cons(tot_ref, tot_ev)
    net_q = qual(sum(e_rr), sum(e_ee), sum(e_re))

    f_ref = sum(n_ref[c] for c in fundamental)
    f_ev = sum(n_ev[c] for c in fundamental)
    precision = Fraction(f_ev, tot_ev)
    recall = Fraction(f_ref, tot_ref)
    if precision > 0 and recall > 0 and net_q > 0:
        harmonic = 3 / (1 / precision + 1 / recall + 1 / net_q)
    else:
        harmonic = Fraction(0)
    return {
        "component_consistency": comp_c,
        "component_quality": comp_q,
        "fundamental": fundamental,
        "network_consistency": net_c,
        "network_quality": net_q,
        "precision": precision,
        "recall": recall,
        "harmonic": harmonic,
        "components": comp,
    }


# --- replaced implementations, kept as bit-identity references ----------------


def matmul(a, b, *, transpose_a=False, transpose_b=False):
    """2-D matrix product, with optional transposes applied on the fly."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul", a.shape, b.shape)
    A = a.data.T if transpose_a else a.data
    B = b.data.T if transpose_b else b.data
    if A.shape[1] != B.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = Tensor._from_owned(A @ B)

    def bwd(g):
        ga = g @ B.T
        gb = A.T @ g
        return (ga.T if transpose_a else ga, gb.T if transpose_b else gb)

    return _record(out, (a, b), bwd)


def add(a, b):
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError("add", a.shape, b.shape)
    out = Tensor._from_owned(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def scale(x, factor):
    """Multiply by a Python number."""
    f = float(factor)
    out = Tensor._from_owned(x.data * f)
    return _record(out, (x,), lambda g: (g * f,))


def exp(x):
    out = Tensor._from_owned(np.exp(x.data))
    return _record(out, (x,), lambda g: (g * out.data,))


def log(x):
    if not np.all(x.data > 0.0):
        raise DomainError(f"log: non-positive input (min {x.data.min() if x.size else 'empty'})")
    out = Tensor._from_owned(np.log(x.data))
    return _record(out, (x,), lambda g: (g / x.data,))


def tsum(x, axis=None):
    if axis is not None and not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError("sum", x.shape, (axis,))
    out = Tensor._from_owned(np.sum(x.data, axis=axis))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _record(out, (x,), bwd)


def row_normalize(x):
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

    def bwd(g):
        g_norm = ((np.sum(g * x.data, axis=1) * inv) * -1.0) / safe
        return (g * inv[:, None] + (g_norm / safe)[:, None] * x.data,)

    return _record(out, (x,), bwd), norms


def dot(u, v):
    """Inner product of two same-shape tensors (flattened)."""
    if u.shape != v.shape:
        raise ShapeError("dot", u.shape, v.shape)
    out = Tensor._from_owned(np.asarray(float(np.sum(u.data * v.data))))

    def bwd(g):
        gf = float(g)
        return (gf * v.data, gf * u.data)

    return _record(out, (u, v), bwd)


def _unit_rows(z, label):
    out, norms = row_normalize(z)
    bad = np.flatnonzero(norms <= 1e-12)
    if bad.size:
        raise DegenerateVectorError(label, int(bad[0]))
    return out


def mnt_xent_chain(batch, tau, ablated=False):
    """The total contrastive loss as 5 + 19 M tape nodes (full) or 5 + 8 M
    (ablated). Tape.backward sums fan-in gradients in reverse record order,
    so the order of the calls below fixes the bytes."""
    finite = isinstance(tau, numbers.Real) and not isinstance(tau, bool) and math.isfinite(tau)
    if not (finite and tau > 0):
        raise ContractError(f"temperature must be a positive finite number, got {tau!r}")
    t = float(tau)
    b = batch.batch_size
    diag_shift = Tensor(np.where(np.eye(b, dtype=bool), -math.inf, 0.0))
    eye = Tensor(np.eye(b))

    def row_mass(cos):
        """sum_{j != i} exp(cos(i, j) / tau) for every row i."""
        return tsum(exp(scale(add(cos, diag_shift), 1.0 / t)), axis=1)

    zc = _unit_rows(batch.complete, "complete")
    cc_mass = row_mass(matmul(zc, zc, transpose_b=True))
    total = None
    for m, z in enumerate(batch.per_modality):
        zm = _unit_rows(z, f"modality_{m + 1}")
        cos_mc = matmul(zm, zc, transpose_b=True)
        if ablated:
            omega = cc_mass
        else:
            mc_mass = row_mass(cos_mc)
            mm_mass = row_mass(matmul(zm, zm, transpose_b=True))
            omega = add(add(mc_mass, mm_mass), cc_mass)
        # sum_i log Omega_m(i) - (1/tau) * sum_i cos(z_m^i, z_c^i)
        positives = dot(cos_mc, eye)
        part = add(tsum(log(omega)), scale(positives, -1.0 / t))
        total = part if total is None else add(total, part)
    return total


def dense(x, w, b, activation=None):
    """One MLP layer as one node: act((x @ w) + b).

    `activation` is "relu", "swish" (x * sigmoid(x)) or None for a linear
    layer. The backward returns exactly the arrays a matmul, bias-add and
    activation chain would, and skips g @ w.T when x needs no gradient.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError("dense", x.shape, w.shape, b.shape)
    if activation is not None and activation not in ACTIVATIONS:
        raise ContractError(f"unknown activation {activation!r}")
    out, saved = dense_forward(x.data, w.data, b.data, activation)

    def bwd(g):
        return dense_backward(g, x.data, w.data, activation, saved, need_gx=x.requires_grad)

    return _record(Tensor._from_owned(out), (x, w, b), bwd)


def mlp_dense_nodes(spec, params, prefix, x):
    """One `dense` node per layer; the last layer is linear."""
    h = x
    last = spec.layer_count - 1
    for layer in range(spec.layer_count):
        activation = spec.activations[layer] if layer < last else None
        h = dense(h, params[f"{prefix}/w{layer}"], params[f"{prefix}/b{layer}"], activation)
    return h


def batch_loss_nodes(model, xs, xc, tau, variant="full", params=None, mlp=None, loss=None):
    """`model.batch_loss` as one tape node per layer and one for the loss:
    4 (M + 1) + 1 nodes, 17 at M = 3. Each pathway runs `mlp` through its
    base encoder and the shared head over the leaves `params` (the model's
    own by default); `mlp` and `loss` swap in the chains instead."""
    params = model.parameters() if params is None else params
    mlp = mlp_dense_nodes if mlp is None else mlp

    def pathway(name, spec, x):
        return mlp(model.head_spec, params, "head", mlp(spec, params, name, Tensor(x)))

    zs = [pathway(f"enc{m}", model.base_specs[m], x) for m, x in enumerate(xs)]
    batch = RepresentationBatch(zs, pathway("enc_complete", model.base_specs[-1], xc))
    if loss is not None:
        return loss(batch, tau, variant == "ablated")
    return mnt_xent_ablated(batch, tau) if variant == "ablated" else mnt_xent(batch, tau)


def bias_add(a, b):
    """(B, n) + (n,) on the tape; the bias gradient is the column sum."""
    out = Tensor._from_owned(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g.sum(axis=0)))


def relu_node(x):
    out = Tensor._from_owned(np.maximum(x.data, 0.0))
    return _record(out, (x,), lambda g: (g * (x.data > 0.0),))


def swish_node(x):
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor._from_owned(x.data * sig)
    return _record(out, (x,), lambda g: (g * (sig * (1.0 + x.data * (1.0 - sig))),))


def dense_chain(x, w, b, activation):
    """One layer as three tape nodes: matmul, bias add, activation."""
    h = bias_add(matmul(x, w), b)
    if activation == "relu":
        return relu_node(h)
    if activation == "swish":
        return swish_node(h)
    return h


def mlp_chain(spec, params, prefix, x):
    h = x
    for layer in range(spec.layer_count):
        act = spec.activations[layer] if layer < spec.layer_count - 1 else None
        h = dense_chain(h, params[f"{prefix}/w{layer}"], params[f"{prefix}/b{layer}"], act)
    return h


def cross_entropy_chain(logits, y):
    """Mean cross-entropy as eleven tape nodes, in the (C, B) layout reached
    through an identity-matrix product."""
    b, c = logits.shape
    shifts = logits.data.max(axis=1)
    transposed = matmul(Tensor(np.eye(c)), logits, transpose_b=True)
    shifted = bias_add(transposed, Tensor(-shifts))
    log_norms = log(tsum(exp(shifted), axis=0))
    lse_total = add(tsum(log_norms), Tensor(shifts.sum()))
    picked = dot(logits, Tensor(np.eye(c)[y]))
    return scale(add(lse_total, scale(picked, -1.0)), 1.0 / b)


def _grad(p):
    return p.grad if p.grad is not None else np.zeros_like(p.data)


class SgdDict:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params):
        return {name: p.data - self.lr * _grad(p) for name, p in params.items()}


class AdamDict:
    """Adam as one update per named parameter."""

    def __init__(self, lr, b1, b2, eps):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params):
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


def softmax_cross_entropy(logits, onehot):
    """Mean cross-entropy of (B, C) logits against one-hot rows as one tape
    node, written out before its arithmetic moved into plain functions."""
    if logits.data.ndim != 2 or onehot.shape != logits.shape:
        raise ShapeError("softmax_cross_entropy", logits.shape, onehot.shape)
    b = logits.shape[0]
    shifts = logits.data.max(axis=1)
    e = np.array(logits.data.T, order="C")
    e += -shifts
    np.exp(e, out=e)
    colsum = np.sum(e, axis=0)
    if not np.all(colsum > 0.0):
        raise DomainError(f"softmax_cross_entropy: non-positive exponential sum (min {colsum.min()})")
    lse_total = np.sum(np.log(colsum)) + shifts.sum()
    picked = np.asarray(float(np.sum(logits.data * onehot)))
    out = Tensor._from_owned((lse_total + picked * -1.0) * (1.0 / b))

    def bwd(g):
        s = g * (1.0 / b)
        return (float(s * -1.0) * onehot + (e * (s / colsum)).T,)

    return _record(out, (logits,), bwd)


def cross_entropy(logits, y):
    """Mean cross-entropy from raw logits and integer labels, checked and
    turned into one-hot rows on every call."""
    b, c = logits.shape
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (b,):
        raise ShapeError("cross_entropy", logits.shape, y.shape)
    if y.min() < 0 or y.max() >= c:
        raise ConfigError("labels", "class index out of range")
    onehot = np.zeros((b, c))
    onehot[np.arange(b), y] = 1.0
    return softmax_cross_entropy(logits, onehot)


def fit_fresh(params, loss_fn, n, config, purpose, min_batch):
    """`model.fit` before it trained in place: every step makes a fresh
    parameter buffer, with fresh leaves over it, through the dict
    optimizers. Returns, per epoch, the (loss, batch size) of every step."""
    lr = config.learning_rate
    if config.optimizer == "adam":
        optimizer = AdamDict(lr, config.adam_beta1, config.adam_beta2, config.adam_eps)
    else:
        optimizer = SgdDict(lr)
    epochs = []
    for epoch in range(config.epochs):
        perm = rng.stream(config.seed, purpose, epoch).permutation(n)
        steps = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            if idx.size < min_batch:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                with Tape() as tape:
                    loss = loss_fn(idx)
                tape.backward(loss)
            if lr > 0:
                params.replace_parameters(optimizer.step(params.parameters()))
            steps.append((float(loss.data), idx.size))
        epochs.append(steps)
    return epochs


def train_nodes(model, dataset, config):
    """`model.train` as one tape node per layer and one for the loss, each
    step (`batch_loss_nodes`), trained by `fit_fresh`. Returns the epoch
    losses and epoch term means."""
    xs = [dataset.modality(m, "train") for m in range(model.modality_count)]
    xc = dataset.complete_view("train")

    def loss_fn(idx):
        return batch_loss_nodes(model, [x[idx] for x in xs], xc[idx], config.tau, config.loss_variant)

    epochs = fit_fresh(model, loss_fn, xc.shape[0], config, rng.SHUFFLE, 2)
    m = model.modality_count
    return (
        [float(np.mean([value for value, _ in steps])) for steps in epochs],
        [float(np.mean([value / (m * b) for value, b in steps])) for steps in epochs],
    )


def train_probe_4_nodes(z, y, n_classes, config):
    """`downstream.train_probe` as four tape nodes a step: the three dense
    nodes of `mlp_dense_nodes` and `cross_entropy`, trained by `fit_fresh`."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    probe = ProbeClassifier(z.shape[1], n_classes, config.hidden, config.seed)

    def loss_fn(idx):
        return cross_entropy(mlp_dense_nodes(probe.spec, probe.parameters(), "probe", Tensor(z[idx])), y[idx])

    epochs = fit_fresh(probe, loss_fn, z.shape[0], config, rng.PROBE_SHUFFLE, 1)
    probe.training_losses = [float(np.mean([value for value, _ in steps])) for steps in epochs]
    return probe


def network_scores(graph, is_reference):
    """(c, q) of the whole graph: same formulas, pooled counts."""
    mask = np.asarray(is_reference, dtype=bool)
    if mask.shape != (graph.n_vertices,):
        raise ShapeError("network_scores", (graph.n_vertices,), mask.shape)
    return _pooled_scores(score_components(graph, mask))


def positive_term_count(batch):
    """Number of positive-pair terms the total loss sums over: M * B."""
    return batch.modality_count * batch.batch_size


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv_cells(path, header, rows):
    """One `format(x, ".17g")` per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv_cells(path):
    """One Python `float()` per cell."""
    text = Path(path).read_text(encoding="utf-8").strip("\n")
    lines = text.split("\n")
    if not lines or not lines[0]:
        raise DataError(f"empty CSV: {path}")
    header = lines[0].split(",")

    def raise_if_ragged():
        for r, line in enumerate(lines[1:], 1):
            cells = line.count(",") + 1
            if cells != len(header):
                raise DataError(
                    f"ragged CSV {path}: data row {r} has {cells} cells vs {len(header)} header fields"
                )

    try:
        data = np.array(
            [[float(cell) for cell in line.split(",")] for line in lines[1:]], dtype=np.float64
        )
    except ValueError as err:
        raise_if_ragged()
        raise DataError(f"non-numeric cell in {path}: {err}") from err
    if lines[1:] and data.shape[1] != len(header):
        raise_if_ragged()
    if not np.all(np.isfinite(data)):
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"non-finite cell in {path}: data row {row + 1}, column {header[col]}")
    return header, data
