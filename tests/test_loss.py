import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    Tape,
    Tensor,
    TensorBatch,
    cos_loops,
    grad_check,
    mnt_xent,
    mnt_xent_ablated,
    mnt_xent_ablated_loops,
    mnt_xent_loops,
    positive_term_count,
)
from gmc import loss as L
from gmc.errors import ContractError, DegenerateVectorError, DomainError, ShapeError


def full(batch, tau):
    """The full loss's value; `L.contrastive_loss` returns (value, backward)."""
    return L.contrastive_loss(batch, tau, False)[0]


def ablated(batch, tau):
    return L.contrastive_loss(batch, tau, True)[0]


def make_batch(rng, b, m_count, s, scale=1.0):
    zs = [rng.normal(scale=scale, size=(b, s)) for _ in range(m_count)]
    zc = rng.normal(scale=scale, size=(b, s))
    return L.RepresentationBatch(zs, zc)


def orthogonal_batch(b, tau_dim=None):
    """B samples, M=1; z_1^i == z_c^i == e_i, so all cross-sample cosines are 0."""
    s = tau_dim or b
    basis = np.eye(b, s)
    return L.RepresentationBatch([basis], basis.copy())


def to_lists(batch):
    zs = [[list(row) for row in z] for z in batch.per_modality]
    zc = [list(row) for row in batch.complete]
    return zs, zc


# --- cosine ------------------------------------------------------------------


def test_cosine_identical_vectors():
    # z_1^i == z_c^i up to scale and the two samples are orthogonal, so every
    # positive cosine is 1 and every negative one 0: l(i) = log 3 - 1/tau.
    z = np.array([[0.6, 0.8], [-2.4, 1.8]])
    batch = L.RepresentationBatch([z * 3.0], z)
    assert abs(full(batch, 0.5) - 2.0 * (math.log(3.0) - 2.0)) < 1e-12


def test_cosine_orthogonal():
    # positives orthogonal (cos 0); only the m-m negative is aligned (cos 1)
    zc = np.eye(2, 3)
    zm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    batch = L.RepresentationBatch([zm], zc)
    assert abs(full(batch, 1.0) - 2.0 * math.log(2.0 + math.e)) < 1e-12


def test_cosine_matches_scalar_loop_oracle():
    # the positive cosine of ([1, 2], [2, 1]) is 0.8; the ablated loss reads it
    # off as log Omega*(i) - cos / tau with Omega* from the c-c block alone
    zm = [[1.0, 2.0], [3.0, -1.0]]
    zc = [[2.0, 1.0], [-1.0, 0.5]]
    batch = L.RepresentationBatch([zm], zc)
    got = ablated(batch, 1.0)
    log_omega = 2.0 * cos_loops(zc[0], zc[1])
    assert abs(cos_loops(zm[0], zc[0]) - 0.8) < 1e-15
    assert abs(got - (log_omega - 0.8 - cos_loops(zm[1], zc[1]))) < 1e-12


def test_temperature_validation():
    batch = orthogonal_batch(2)
    for tau in (0.0, -1.0, math.nan, math.inf, True):
        with pytest.raises(ContractError, match="temperature"):
            full(batch, tau)
    assert full(batch, np.float64(1.0)) == full(batch, 1)


# --- batch construction -----------------------------------------------------


def test_batch_rejects_small_or_ragged():
    one = np.ones((1, 3))
    with pytest.raises(ContractError, match="no negatives"):
        L.RepresentationBatch([one], np.ones((1, 3)))
    with pytest.raises(ShapeError):
        L.RepresentationBatch([np.ones((2, 3))], np.ones((2, 4)))
    with pytest.raises(ShapeError):
        L.RepresentationBatch([np.ones((3, 3))], np.ones((2, 3)))
    with pytest.raises(ContractError):
        L.RepresentationBatch([], np.ones((2, 3)))


# --- negative mass ----------------------------------------------------------


def test_negative_mass_orthogonal_is_three():
    # positives cancel in full - ablated, leaving sum_i log(Omega(i) / Omega*(i))
    batch = orthogonal_batch(2)
    diff = full(batch, 1.0) - ablated(batch, 1.0)
    assert abs(diff - 2.0 * math.log(3.0)) < 1e-12


@pytest.mark.parametrize("b", [2, 3, 5, 8])
def test_negative_mass_orthogonal_fillers_scale(b):
    # Omega(i) = 3 (B - 1) exp(0), positive cosine 1
    batch = orthogonal_batch(b)
    expect = b * (math.log(3.0 * (b - 1)) - 1.0)
    assert abs(full(batch, 1.0) - expect) < 1e-10


def test_negative_mass_hand_specified_brute_force():
    # B=2, M=1, hand-picked 2-d vectors; enumerate the three terms directly.
    zm = [[1.0, 1.0], [2.0, -1.0]]
    zc = [[0.5, 2.0], [-1.0, 0.25]]
    tau = 0.7
    batch = L.RepresentationBatch([zm], zc)
    expect = 0.0
    for i, j in ((0, 1), (1, 0)):
        omega = (
            math.exp(cos_loops(zm[i], zc[j]) / tau)
            + math.exp(cos_loops(zm[i], zm[j]) / tau)
            + math.exp(cos_loops(zc[i], zc[j]) / tau)
        )
        expect += math.log(omega) - cos_loops(zm[i], zc[i]) / tau
    assert abs(full(batch, tau) - expect) < 1e-12


# --- pair loss --------------------------------------------------------------


def test_pair_loss_orthogonal_closed_form():
    # both pairs of the B=2 orthogonal batch carry l(i) = log 3 - 1/tau
    batch = orthogonal_batch(2)
    assert abs(full(batch, 0.1) - 2.0 * (math.log(3.0) - 10.0)) < 1e-10


def test_pair_loss_matches_oracle_on_random_batches():
    rng = np.random.default_rng(42)
    for _ in range(25):
        b, m_count, s = rng.integers(2, 7), rng.integers(1, 4), rng.integers(2, 8)
        tau = float(rng.uniform(0.05, 1.0))
        batch = make_batch(rng, b, m_count, s)
        zs, zc = to_lists(batch)
        assert abs(full(batch, tau) - mnt_xent_loops(zs, zc, tau)) < 1e-10


# --- total loss -------------------------------------------------------------


def test_mnt_xent_orthogonal_closed_form():
    batch = orthogonal_batch(2)
    got = full(batch, 1.0)
    assert abs(got - 2.0 * (math.log(3.0) - 1.0)) < 1e-12


def test_mnt_xent_matches_oracle_and_term_count():
    rng = np.random.default_rng(0)
    batch = make_batch(rng, 4, 3, 6)
    zs, zc = to_lists(batch)
    # at tau = 1e9 the masked diagonal must still drop out exactly
    for tau in (0.2, 1e9):
        got = full(batch, tau)
        assert abs(got - mnt_xent_loops(zs, zc, tau)) < 1e-10
    assert positive_term_count(batch) == 12


def test_mnt_xent_permutation_invariant():
    rng = np.random.default_rng(3)
    batch = make_batch(rng, 5, 2, 4)
    perm = np.array([3, 0, 4, 2, 1])
    permuted = L.RepresentationBatch(
        [z[perm] for z in batch.per_modality], batch.complete[perm]
    )
    a = full(batch, 0.3)
    b = full(permuted, 0.3)
    assert abs(a - b) < 1e-9


def test_mnt_xent_ablated_closed_form_is_negative():
    batch = orthogonal_batch(2)
    got = ablated(batch, 1.0)
    assert abs(got - (-2.0)) < 1e-12  # per-term -log(e/1) = -1, M*B = 2 terms


def test_ablated_negative_mass_independent_of_modality():
    rng = np.random.default_rng(9)
    batch = make_batch(rng, 4, 3, 5)
    zs, zc = to_lists(batch)
    tau = 0.5
    # sum_i log Omega*(i), from the c-c block alone
    log_omega = sum(
        math.log(sum(math.exp(cos_loops(zc[i], zc[j]) / tau) for j in range(4) if j != i))
        for i in range(4)
    )
    # each single-modality ablated loss plus its positives gives the same mass
    for m in range(3):
        single = L.RepresentationBatch([batch.per_modality[m]], batch.complete)
        positives = sum(cos_loops(zs[m][i], zc[i]) for i in range(4))
        got = ablated(single, tau) + positives / tau
        assert abs(got - log_omega) < 1e-10


def test_mnt_xent_ablated_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        batch = make_batch(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)), 5)
        zs, zc = to_lists(batch)
        for tau in (float(rng.uniform(0.05, 1.0)), 1e9):
            got = ablated(batch, tau)
            assert abs(got - mnt_xent_ablated_loops(zs, zc, tau)) < 1e-10


# --- differentiability ------------------------------------------------------


def test_mnt_xent_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    b, m_count, s = 4, 2, 3
    base = [rng.normal(size=(b, s)) for _ in range(m_count + 1)]

    def loss_with(pathway, data):
        mats = [Tensor(a) for a in base]
        mats[pathway] = data if isinstance(data, Tensor) else Tensor(data)
        return mnt_xent(TensorBatch(mats[:m_count], mats[m_count]), 0.4)

    for pathway in range(m_count + 1):
        err = grad_check(lambda t, p=pathway: loss_with(p, t), Tensor(base[pathway]))
        assert err < 1e-5, f"pathway {pathway}: {err}"


def test_ablated_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    base = [rng.normal(size=(3, 4)) for _ in range(3)]

    def f(t):
        return mnt_xent_ablated(TensorBatch([Tensor(base[0]), t], Tensor(base[2])), 0.3)

    assert grad_check(f, Tensor(base[1])) < 1e-5


def test_loss_value_identical_with_and_without_tape():
    # the bare (value, backward) pair, and the same pair recorded as a node
    rng = np.random.default_rng(8)
    batch = make_batch(rng, 4, 2, 5)
    bare = full(batch, 0.25)
    tracked_batch = TensorBatch(
        [Tensor(z, requires_grad=True) for z in batch.per_modality],
        Tensor(batch.complete, requires_grad=True),
    )
    with Tape() as tape:
        tracked = mnt_xent(tracked_batch, 0.25).item()
    assert len(tape) == 1
    assert bare == tracked


# --- invariants -------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 50.0), st.integers(0, 3), st.integers(0, 2))
def test_scaling_one_vector_leaves_loss_unchanged(lam, row, pathway):
    rng = np.random.default_rng(17)
    mats = [rng.normal(size=(4, 3)) for _ in range(3)]
    base = L.RepresentationBatch([mats[0], mats[1]], mats[2])
    scaled = [m.copy() for m in mats]
    scaled[pathway][row] *= lam
    bumped = L.RepresentationBatch([scaled[0], scaled[1]], scaled[2])
    a = full(base, 0.2)
    b = full(bumped, 0.2)
    assert abs(a - b) < 1e-12


def test_minimization_pressure_toward_positive():
    # Fixed orthogonal negatives; slide z_1^0 toward z_c^0 and watch the loss fall.
    b, s = 3, 4
    basis = np.eye(b, s)
    target = basis[0]
    start = np.array([0.0, 0.0, 0.0, 1.0])
    losses = []
    for t in np.linspace(0.0, 0.9, 7):
        zm = basis.copy()
        zm[0] = (1 - t) * start + t * target
        batch = L.RepresentationBatch([zm], basis)
        losses.append(full(batch, 0.5))
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_degenerate_row_raises_in_both_paths():
    z = np.ones((3, 4))
    z[1] = 0.0
    batch = L.RepresentationBatch([z], np.ones((3, 4)))
    with pytest.raises(DegenerateVectorError) as info:
        full(batch, 0.1)
    assert info.value.where == "modality_1"
    assert info.value.index == 1
    with pytest.raises(DegenerateVectorError) as info:
        ablated(L.RepresentationBatch([np.ones((3, 4))], z), 0.1)
    assert info.value.where == "complete"
    assert info.value.index == 1


def test_vanishing_negative_mass_is_a_domain_error():
    # every negative cosine is -1, so at tau = 1e-3 each exp(-1000) underflows
    # to zero and Omega(i) = 0 in both variants
    z = np.array([[1.0, 0.0], [-1.0, 0.0]])
    for loss in (full, ablated):
        with pytest.raises(DomainError, match=r"^log: non-positive input \(min 0\.0\)$"):
            loss(L.RepresentationBatch([z], z.copy()), 1e-3)
