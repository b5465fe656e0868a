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

The differentiable path normalizes each pathway's rows with one
`row_normalize` call, materializes only the (m,c), (m,m), and (c,c)
similarity blocks, so cost stays linear in M, and drops the j = i terms
with a -inf diagonal shift, which is exact for every tau. A literal float path
(`negative_mass`, `pair_loss`) mirrors the formulas term by term for
inspection and cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DegenerateVectorError, ShapeError
from .tensor import Tensor

_NORM_EPS = 1e-12
# Added to the cosine diagonal before exp: exp(-inf) is exactly zero for every
# tau, which removes the j = i terms from row sums without touching their
# gradient (the true gradient of an excluded term is zero).
_DIAG_SHIFT = -math.inf


@dataclass(frozen=True)
class Temperature:
    """Softmax temperature; must be positive and finite."""

    tau: float = 0.1

    def __post_init__(self):
        if not (isinstance(self.tau, (int, float)) and math.isfinite(self.tau) and self.tau > 0):
            raise ContractError(f"temperature must be a positive finite number, got {self.tau!r}")


def _tau_value(tau) -> float:
    if isinstance(tau, Temperature):
        return float(tau.tau)
    return Temperature(float(tau)).tau


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

    @property
    def latent_dim(self) -> int:
        return self.complete.shape[1]

    def pathway_label(self, index: int) -> str:
        return "complete" if index == self.modality_count else f"modality_{index + 1}"


# --- literal float path -----------------------------------------------------


def cosine_similarity(u, v) -> float:
    """cos(u, v) clamped to [-1, 1]; rejects near-zero-norm inputs."""
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    if ua.ndim != 1 or va.ndim != 1 or ua.shape != va.shape:
        raise ShapeError("cosine_similarity", ua.shape, va.shape)
    nu = math.sqrt(float(ua @ ua))
    nv = math.sqrt(float(va @ va))
    if nu <= _NORM_EPS:
        raise DegenerateVectorError("u")
    if nv <= _NORM_EPS:
        raise DegenerateVectorError("v")
    c = float(ua @ va) / (nu * nv)
    return min(1.0, max(-1.0, c))


def similarity(z_a, z_b, tau) -> float:
    """exp(cos(z_a, z_b) / tau); degrades to inf when tau is small enough
    to overflow float64 (around tau < 1.4e-3 for aligned vectors)."""
    try:
        return math.exp(cosine_similarity(z_a, z_b) / _tau_value(tau))
    except OverflowError:
        return math.inf


def _check_indices(batch: RepresentationBatch, m: int, i: int) -> None:
    if not 0 <= m < batch.modality_count:
        raise ContractError(f"modality index {m} outside [0, {batch.modality_count})")
    if not 0 <= i < batch.batch_size:
        raise ContractError(f"sample index {i} outside [0, {batch.batch_size})")


def negative_mass(batch: RepresentationBatch, m: int, i: int, tau) -> float:
    """Omega_m(i), written exactly as the formula reads."""
    _check_indices(batch, m, i)
    zm = batch.per_modality[m].data
    zc = batch.complete.data
    total = 0.0
    for j in range(batch.batch_size):
        if j == i:
            continue
        total += similarity(zm[i], zc[j], tau)
        total += similarity(zm[i], zm[j], tau)
        total += similarity(zc[i], zc[j], tau)
    return total


def ablated_negative_mass(batch: RepresentationBatch, i: int, tau) -> float:
    """Omega*(i): complete-vs-complete mass only; the same for every modality."""
    _check_indices(batch, 0, i)
    zc = batch.complete.data
    return float(
        sum(similarity(zc[i], zc[j], tau) for j in range(batch.batch_size) if j != i)
    )


def pair_loss(batch: RepresentationBatch, m: int, i: int, tau) -> float:
    """l_m(i) = -log(positive similarity / Omega_m(i))."""
    _check_indices(batch, m, i)
    pos = similarity(batch.per_modality[m].data[i], batch.complete.data[i], tau)
    return -math.log(pos / negative_mass(batch, m, i, tau))


def ablated_pair_loss(batch: RepresentationBatch, m: int, i: int, tau) -> float:
    _check_indices(batch, m, i)
    pos = similarity(batch.per_modality[m].data[i], batch.complete.data[i], tau)
    return -math.log(pos / ablated_negative_mass(batch, i, tau))


def loss_term_values(batch: RepresentationBatch, tau, variant: str = "full") -> np.ndarray:
    """All M x B per-pair losses through the literal path."""
    if variant not in ("full", "ablated"):
        raise ContractError(f"unknown loss variant {variant!r}")
    fn = pair_loss if variant == "full" else ablated_pair_loss
    out = np.empty((batch.modality_count, batch.batch_size))
    for m in range(batch.modality_count):
        for i in range(batch.batch_size):
            out[m, i] = fn(batch, m, i, tau)
    return out


def positive_term_count(batch: RepresentationBatch) -> int:
    """Number of positive-pair terms the total loss sums over: M * B."""
    return batch.modality_count * batch.batch_size


# --- differentiable path ----------------------------------------------------


class _SimilarityBlocks:
    """Lazy per-pathway-pair similarity blocks for one batch.

    Pathways are indexed 0..M-1 for modalities and M for complete. Only the
    blocks a caller asks for are built; the full loss touches (m, c), (m, m),
    and (c, c), never cross-modality pairs, keeping the term accounting
    linear in M.
    """

    def __init__(self, batch: RepresentationBatch, tau: float):
        self._batch = batch
        self._tau = tau
        self._tensors = list(batch.per_modality) + [batch.complete]
        self._normalized: dict[int, Tensor] = {}
        self._cos: dict[tuple[int, int], Tensor] = {}
        self._masked_exp: dict[tuple[int, int], Tensor] = {}
        b = batch.batch_size
        self._diag_shift = Tensor(np.where(np.eye(b, dtype=bool), _DIAG_SHIFT, 0.0))

    def normalized(self, a: int) -> Tensor:
        got = self._normalized.get(a)
        if got is not None:
            return got
        out, norms = T.row_normalize(self._tensors[a])
        bad = np.flatnonzero(norms <= _NORM_EPS)
        if bad.size:
            raise DegenerateVectorError(self._batch.pathway_label(a), int(bad[0]))
        self._normalized[a] = out
        return out

    def cos(self, a: int, b: int) -> Tensor:
        key = (a, b)
        got = self._cos.get(key)
        if got is None:
            got = T.matmul(self.normalized(a), self.normalized(b), transpose_b=True)
            self._cos[key] = got
        return got

    def masked_exp(self, a: int, b: int) -> Tensor:
        """exp(cos / tau) with the diagonal forced to (numerical) zero."""
        key = (a, b)
        got = self._masked_exp.get(key)
        if got is None:
            shifted = T.add(self.cos(a, b), self._diag_shift)
            got = T.exp(T.scale(shifted, 1.0 / self._tau))
            self._masked_exp[key] = got
        return got


def _total_loss(batch: RepresentationBatch, tau, ablated: bool) -> Tensor:
    t = _tau_value(tau)
    blocks = _SimilarityBlocks(batch, t)
    m_count = batch.modality_count
    c = m_count  # complete pathway index
    eye = Tensor(np.eye(batch.batch_size))

    cc_mass = T.sum(blocks.masked_exp(c, c), axis=1)
    total: Tensor | None = None
    for m in range(m_count):
        if ablated:
            omega = cc_mass
        else:
            omega = T.add(
                T.add(
                    T.sum(blocks.masked_exp(m, c), axis=1),
                    T.sum(blocks.masked_exp(m, m), axis=1),
                ),
                cc_mass,
            )
        # sum_i log Omega_m(i) - (1/tau) * sum_i cos(z_m^i, z_c^i)
        positives = T.dot(blocks.cos(m, c), eye)
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
