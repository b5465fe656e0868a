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

Each pathway's rows are normalized once with one `row_normalize` call, and
only the (m,c), (m,m), and (c,c) similarity blocks are materialized, so cost
stays linear in M. The j = i terms drop out through a -inf diagonal shift,
which is exact for every tau.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import tensor as T
from .errors import ContractError, DegenerateVectorError, ShapeError
from .tensor import Tensor

_NORM_EPS = 1e-12
# Added to the cosine diagonal before exp: exp(-inf) is exactly zero for every
# tau, which removes the j = i terms from row sums without touching their
# gradient (the true gradient of an excluded term is zero).
_DIAG_SHIFT = -math.inf


class RepresentationBatch:
    """Projections of one batch through every pathway.

    `per_modality[m]` and `complete` are (B, s) tensors from the shared
    projection head. Rows are not required to be unit norm; every score in
    this module is cosine-based and scale-invariant.
    """

    def __init__(self, per_modality: list[Tensor], complete: Tensor):
        if len(per_modality) < 1:
            raise ContractError("batch needs at least one modality")
        mats = list(per_modality) + [complete]
        for z in mats:
            if z.data.ndim != 2:
                raise ShapeError("representation_batch", z.shape)
        b, s = complete.shape
        for z in mats:
            if z.shape != (b, s):
                raise ShapeError("representation_batch", complete.shape, z.shape)
        if b < 2:
            raise ContractError("batch size must be >= 2: no negatives available")
        self.per_modality = list(per_modality)
        self.complete = complete

    @property
    def batch_size(self) -> int:
        return self.complete.shape[0]

    @property
    def modality_count(self) -> int:
        return len(self.per_modality)


def positive_term_count(batch: RepresentationBatch) -> int:
    """Number of positive-pair terms the total loss sums over: M * B."""
    return batch.modality_count * batch.batch_size


def _unit_rows(z: Tensor, label: str) -> Tensor:
    out, norms = T.row_normalize(z)
    bad = np.flatnonzero(norms <= _NORM_EPS)
    if bad.size:
        raise DegenerateVectorError(label, int(bad[0]))
    return out


def _total_loss(batch: RepresentationBatch, tau, ablated: bool) -> Tensor:
    # Tape.backward sums fan-in gradients in reverse record order, so the
    # order of the calls below fixes the trained bytes.
    finite = isinstance(tau, numbers.Real) and not isinstance(tau, bool) and math.isfinite(tau)
    if not (finite and tau > 0):
        raise ContractError(f"temperature must be a positive finite number, got {tau!r}")
    t = float(tau)
    b = batch.batch_size
    diag_shift = Tensor(np.where(np.eye(b, dtype=bool), _DIAG_SHIFT, 0.0))
    eye = Tensor(np.eye(b))

    def row_mass(cos: Tensor) -> Tensor:
        """sum_{j != i} exp(cos(i, j) / tau) for every row i."""
        return T.sum(T.exp(T.scale(T.add(cos, diag_shift), 1.0 / t)), axis=1)

    zc = _unit_rows(batch.complete, "complete")
    cc_mass = row_mass(T.matmul(zc, zc, transpose_b=True))
    total: Tensor | None = None
    for m, z in enumerate(batch.per_modality):
        zm = _unit_rows(z, f"modality_{m + 1}")
        cos_mc = T.matmul(zm, zc, transpose_b=True)
        if ablated:
            omega = cc_mass
        else:
            mc_mass = row_mass(cos_mc)
            mm_mass = row_mass(T.matmul(zm, zm, transpose_b=True))
            omega = T.add(T.add(mc_mass, mm_mass), cc_mass)
        # sum_i log Omega_m(i) - (1/tau) * sum_i cos(z_m^i, z_c^i)
        positives = T.dot(cos_mc, eye)
        part = T.add(T.sum(T.log(omega)), T.scale(positives, -1.0 / t))
        total = part if total is None else T.add(total, part)
    return total


def mnt_xent(batch: RepresentationBatch, tau) -> Tensor:
    """Total contrastive loss: sum over modalities and samples of l_m(i)."""
    return _total_loss(batch, tau, ablated=False)


def mnt_xent_ablated(batch: RepresentationBatch, tau) -> Tensor:
    """Ablated total: every pathway contrasts only against complete-vs-complete
    negatives, so modality-side repulsion is gone. Individual terms may be
    negative (the positive similarity can exceed the shrunken mass)."""
    return _total_loss(batch, tau, ablated=True)
