"""Multimodal temperature-scaled contrastive loss.

For a batch of B samples seen through M modality encoders plus one
complete-observation encoder, each modality projection z_m^i is pulled
toward the complete projection z_c^i of the same sample and pushed away
from three groups of negatives indexed by the other samples j != i:
modality-vs-complete, modality-vs-modality, and complete-vs-complete.

With s_{a,b}(i,j) = exp(cos(z_a^i, z_b^j) / tau), the per-pair loss is

    l_m(i) = -log( s_{m,c}(i,i) / Omega_m(i) ),
    Omega_m(i) = sum_{j != i} s_{m,c}(i,j) + s_{m,m}(i,j) + s_{c,c}(i,j),

and the total is the raw double sum over m and i (no batch averaging; a
per-term mean is reported separately where traces need comparability).
The ablated variant replaces Omega_m(i) by the complete-vs-complete mass
alone, Omega*(i) = sum_{j != i} s_{c,c}(i,j), which is independent of m.

The loss is one (value, backward) pair over arrays, `contrastive_loss`,
which the GMC step (`model.batch_loss`) runs inside its own backward. Each
pathway's rows are normalized once, and only the
(m,c), (m,m), and (c,c) similarity blocks are materialized, so cost stays
linear in M. The j = i terms drop out through a -inf diagonal, which is
exact for every tau.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ContractError, DegenerateVectorError, DomainError, ShapeError

_NORM_EPS = 1e-12


class RepresentationBatch:
    """Projections of one batch through every pathway.

    `per_modality[m]` and `complete` are (B, s) float64 arrays from the
    shared projection head. Rows are not required to be unit norm; every
    score in this module is cosine-based and scale-invariant.
    """

    def __init__(self, per_modality: list[np.ndarray], complete: np.ndarray):
        if len(per_modality) < 1:
            raise ContractError("batch needs at least one modality")
        mats = [np.asarray(z, dtype=np.float64) for z in (*per_modality, complete)]
        for z in mats:
            if z.ndim != 2:
                raise ShapeError("representation_batch", z.shape)
        b, s = mats[-1].shape
        for z in mats:
            if z.shape != (b, s):
                raise ShapeError("representation_batch", mats[-1].shape, z.shape)
        if b < 2:
            raise ContractError("batch size must be >= 2: no negatives available")
        self.per_modality = mats[:-1]
        self.complete = mats[-1]

    @property
    def batch_size(self) -> int:
        return self.complete.shape[0]

    @property
    def modality_count(self) -> int:
        return len(self.per_modality)


def _unit_rows(x: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of x over their norms: (unit rows, 1 / norms, norms).

    Rows too short to have a direction are rejected before any division.
    1 / n is taken as exp(-log n): the two differ in the last bit, and this
    is the rounding every recorded checkpoint and loss trace was trained with.
    """
    norms = np.sqrt(np.sum(x * x, axis=1))
    bad = np.flatnonzero(norms <= _NORM_EPS)
    if bad.size:
        raise DegenerateVectorError(label, int(bad[0]))
    inv = np.exp(-np.log(norms))
    return x * inv[:, None], inv, norms


def _unit_rows_backward(g: np.ndarray, x: np.ndarray, inv: np.ndarray, norms: np.ndarray) -> np.ndarray:
    g_norm = ((np.sum(g * x, axis=1) * inv) * -1.0) / norms
    return g * inv[:, None] + (g_norm / norms)[:, None] * x


def contrastive_loss(batch: RepresentationBatch, tau, ablated: bool):
    """The total loss and its backward: backward(g) returns g * dL/dz for
    every modality, then for the complete pathway.

    The forward and backward repeat, operation for operation, the float
    arithmetic of the loss written as a chain of generic reverse-mode
    primitives (row normalization, matmul, add, scale, exp, sum, log, dot),
    in the order a reverse-mode tape replays that chain: fan-in gradients
    are summed in reverse record order. That order fixes the trained bytes;
    the chain and the tape are kept in tests/_oracles.py as the reference.
    """
    finite = isinstance(tau, numbers.Real) and not isinstance(tau, bool) and math.isfinite(tau)
    if not (finite and tau > 0):
        raise ContractError(f"temperature must be a positive finite number, got {tau!r}")
    t = float(tau)
    f, neg_f = 1.0 / t, -1.0 / t
    b = batch.batch_size
    eye = np.eye(b)
    zs, zc = batch.per_modality, batch.complete
    uc, inv_c, n_c = _unit_rows(zc, "complete")
    rows = [_unit_rows(z, f"modality_{m + 1}") for m, z in enumerate(zs)]

    def row_mass(cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp(cos(i, j) / tau) with a zero diagonal, and its row sums."""
        e = cos * f
        np.fill_diagonal(e, -np.inf)  # exp(-inf) is exactly zero for every tau
        np.exp(e, out=e)
        return e, np.sum(e, axis=1)

    e_cc, cc_mass = row_mass(uc @ uc.T)
    saved = []
    total = None
    for um, _, _ in rows:
        cos_mc = um @ uc.T
        if ablated:
            e_mc = e_mm = None
            omega = cc_mass
        else:
            e_mc, mc_mass = row_mass(cos_mc)
            e_mm, mm_mass = row_mass(um @ um.T)
            omega = (mc_mass + mm_mass) + cc_mass
        if not np.all(omega > 0.0):
            raise DomainError(f"log: non-positive input (min {omega.min()})")
        # sum_i log Omega_m(i) - (1/tau) * sum_i cos(z_m^i, z_c^i)
        part = float(np.sum(np.log(omega))) + float(np.sum(cos_mc * eye)) * neg_f
        total = part if total is None else total + part
        saved.append((omega, e_mc, e_mm))

    def bwd(g: np.ndarray):
        gf = float(g * neg_f)
        grads = [None] * len(rows)
        r_cc = g_uc = None
        for m in reversed(range(len(rows))):
            um, inv, norms = rows[m]
            omega, e_mc, e_mm = saved[m]
            r = g / omega
            r_cc = r if r_cc is None else r_cc + r
            g_mc = gf * eye
            if ablated:
                g_um = g_mc @ uc
            else:
                g_mc = g_mc + (r[:, None] * e_mc) * f
                g_mm = (r[:, None] * e_mm) * f
                g_um = (g_mm @ um + (um.T @ g_mm).T) + g_mc @ uc
            grads[m] = _unit_rows_backward(g_um, zs[m], inv, norms)
            g_b = (um.T @ g_mc).T
            g_uc = g_b if g_uc is None else g_uc + g_b
        g_cc = (r_cc[:, None] * e_cc) * f
        g_uc = g_uc + g_cc @ uc
        g_uc = g_uc + (uc.T @ g_cc).T
        grads.append(_unit_rows_backward(g_uc, zc, inv_c, n_c))
        return grads

    return total, bwd

