"""The fused and flat code paths against the code they replaced, byte for byte.

The plain dense-layer and softmax cross-entropy functions, the contrastive
loss, the GMC and probe steps (one (value, backward) pair each) and the
trainings around them, the in-place optimizers, the bulk CSV reader and
writer, the binary CSV twin and `rng.per_index` each promise the exact bytes
of a longer path kept in `tests/_oracles.py`, recorded on its reference
tape. Every comparison here is on `tobytes()`, so a single changed rounding
fails.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import (
    AdamDict,
    SgdDict,
    Tape,
    Tensor,
    TensorBatch,
    batch_loss_nodes,
    cross_entropy,
    cross_entropy_chain,
    dense,
    dense_chain,
    dot,
    leaves,
    mlp_chain,
    mlp_dense_nodes,
    mnt_xent,
    mnt_xent_ablated,
    mnt_xent_chain,
    named_gradients,
    read_matrix_csv_cells,
    train_nodes,
    train_probe_4_nodes,
    write_csv_cells,
)
from gmc import rng
from gmc import tensor as T
from gmc.downstream import ProbeClassifier, ProbeConfig, ProbeLoss, train_probe
from gmc.errors import DataError, DegenerateVectorError, DomainError, NumericError, ShapeError
from gmc.model import GmcModel, TrainConfig, _Adam, _Sgd, batch_loss, train
from gmc.synthdata import MultimodalDataset
from gmc.persist import _read_twin, read_matrix_csv, twin_path, write_csv


def _bytes(a):
    return None if a is None else (a.shape, a.tobytes())


# --- dense ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    batch=st.integers(1, 70),
    n_in=st.integers(1, 9),
    n_out=st.integers(1, 9),
    activation=st.sampled_from(["relu", "swish", None]),
    x_grad=st.booleans(),
    integral=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_matches_matmul_add_activation_chain(batch, n_in, n_out, activation, x_grad, integral, seed):
    gen = np.random.default_rng(seed)
    if integral:  # small integers put exact zeros at the relu kink
        x, w, b = (gen.integers(-2, 3, size).astype(float) for size in ((batch, n_in), (n_in, n_out), n_out))
    else:
        x, w, b = gen.normal(size=(batch, n_in)), gen.normal(size=(n_in, n_out)), gen.normal(size=n_out)
    upstream = Tensor(gen.normal(size=(batch, n_out)))

    def run(layer):
        xt, wt, bt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = layer(xt, wt, bt, activation)
            loss = dot(out, upstream)
        tape.backward(loss)
        return [_bytes(a) for a in (out.data, xt.grad, wt.grad, bt.grad)]

    assert run(dense) == run(dense_chain)


# --- cross-entropy -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    batch=st.integers(1, 70),
    classes=st.integers(2, 12),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_entropy_matches_eleven_node_chain(batch, classes, log_scale, seed):
    """The plain forward and backward functions against the chain and the
    one-node cross-entropy they replaced."""
    gen = np.random.default_rng(seed)
    logits = gen.normal(size=(batch, classes)) * 10.0**log_scale
    y = gen.integers(classes, size=batch)
    onehot = np.zeros((batch, classes))
    onehot[np.arange(batch), y] = 1.0

    def run(loss_fn):
        t = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            loss = loss_fn(t, y)
        tape.backward(loss)
        return _bytes(loss.data), _bytes(t.grad)

    def plain():
        value, saved = T.softmax_cross_entropy_forward(logits, onehot)
        grad = T.softmax_cross_entropy_backward(np.ones(()), onehot, saved)
        return _bytes(np.asarray(value)), _bytes(grad)

    reference = run(cross_entropy_chain)
    assert run(cross_entropy) == reference
    assert plain() == reference


# --- contrastive loss ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    modalities=st.integers(1, 4),
    batch=st.integers(2, 69),
    width=st.integers(1, 8),
    log_tau=st.floats(np.log10(1.6e-3), np.log10(30.0)),
    log_scale=st.floats(-3.0, 3.0),
    ablated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_contrastive_node_matches_chain(modalities, batch, width, log_tau, log_scale, ablated, seed, data):
    gen = np.random.default_rng(seed)
    mats = [gen.normal(size=(batch, width)) * 10.0**log_scale for _ in range(modalities + 1)]
    short = []
    if data.draw(st.integers(0, 3)) == 0:  # a quarter of the cases: rows too short to normalize
        rows = st.tuples(st.integers(0, modalities), st.integers(0, batch - 1))
        short = data.draw(st.lists(rows, min_size=1, max_size=2))
    for pathway, row in short:
        mats[pathway][row] *= data.draw(st.sampled_from([0.0, -1e-300]))
    tau = 10.0**log_tau
    fused = mnt_xent_ablated if ablated else mnt_xent

    def run(loss_fn):
        ts = [Tensor(a, requires_grad=True) for a in mats]
        try:
            with Tape() as tape:
                loss = loss_fn(TensorBatch(ts[:-1], ts[-1]), tau)
        except DegenerateVectorError as err:
            return ("degenerate", err.where, err.index)
        tape.backward(loss)
        return [_bytes(loss.data)] + [_bytes(t.grad) for t in ts]

    got = run(fused)
    assert got == run(lambda b, t: mnt_xent_chain(b, t, ablated))
    assert (got[0] == "degenerate") == bool(short)


# --- whole networks --------------------------------------------------------------


@pytest.mark.parametrize("batch", [64, 5])
def test_gmc_step_matches_chain_with_1_node(batch):
    """One default step as one (value, backward) pair, as the 17 nodes of
    dense layers and the one-node loss, as the 78 of dense layers and the
    loss chain, and as the 102 of matmul, bias-add and activation chains and
    the loss chain."""
    gen = np.random.default_rng(batch)
    model = GmcModel.build((20, 16, 12), seed=4)
    xs = [gen.normal(size=(batch, d)) for d in (20, 16, 12)]
    xc = np.concatenate(xs, axis=1)
    value, backward = batch_loss(model, xs, xc, 0.1)
    backward()
    grads = named_gradients(model)

    for mlp, loss_fn, nodes in ((None, None, 17), (None, mnt_xent_chain, 78), (mlp_chain, mnt_xent_chain, 102)):
        old = leaves(model.parameters())
        with Tape() as old_tape:
            old_loss = batch_loss_nodes(model, xs, xc, 0.1, params=old, mlp=mlp, loss=loss_fn)
        old_tape.backward(old_loss)
        assert len(old_tape) == nodes
        assert np.float64(value).tobytes() == old_loss.data.tobytes()
        for name in grads:
            assert _bytes(grads[name]) == _bytes(old[name].grad), (nodes, name)


@pytest.mark.parametrize("batch", [64, 5])
def test_probe_step_matches_chain_with_1_node(batch):
    """One default probe step as one (value, backward) pair, as the 4 nodes
    of dense layers and the cross-entropy node, and as the 19 of matmul,
    bias-add, activation and cross-entropy chains."""
    gen = np.random.default_rng(9)
    probe = ProbeClassifier(64, 10, seed=2)
    z, y = gen.normal(size=(70, 64)), gen.integers(10, size=70)
    idx = gen.permutation(70)[:batch]
    value, backward = ProbeLoss(probe, z, y)(idx)
    backward()
    grads = named_gradients(probe)

    for (mlp, ce), nodes in (((mlp_dense_nodes, cross_entropy), 4), ((mlp_chain, cross_entropy_chain), 19)):
        old = leaves(probe.parameters())
        with Tape() as old_tape:
            old_loss = ce(mlp(probe.spec, old, "probe", Tensor(z[idx])), y[idx])
        old_tape.backward(old_loss)
        assert len(old_tape) == nodes
        assert np.float64(value).tobytes() == old_loss.data.tobytes()
        for name in grads:
            assert _bytes(grads[name]) == _bytes(old[name].grad), (nodes, name)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    epochs=st.integers(1, 3),
    batch_size=st.one_of(st.just(1), st.just(64), st.integers(2, 63)),
    n=st.integers(1, 150),
    latent=st.integers(1, 6),
    classes=st.integers(2, 5),
    hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    optimizer=st.sampled_from(["adam", "sgd"]),
    learning_rate=st.sampled_from([0.0, 1e-3, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
# 390 Adam steps: past t = 356, where 1 - 0.9**t rounds to 1.0
@example(
    epochs=3, batch_size=1, n=130, latent=3, classes=3, hidden=[4, 3], optimizer="adam", learning_rate=1e-3, seed=0
)
def test_train_probe_matches_4_node_path(
    epochs, batch_size, n, latent, classes, hidden, optimizer, learning_rate, seed
):
    """Whole probe trainings, the trailing partial batch included: one node
    a step and in-place updates against four nodes a step and a fresh
    parameter buffer a step."""
    gen = np.random.default_rng(seed)
    z, y = gen.normal(size=(n, latent)), gen.integers(classes, size=n)
    config = ProbeConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        hidden=tuple(hidden),
        seed=seed % 1000,
        optimizer=optimizer,
    )
    new = train_probe(z, y, classes, config)
    old = train_probe_4_nodes(z, y, classes, config)
    assert new.flat_parameters().tobytes() == old.flat_parameters().tobytes()
    assert np.array(new.training_losses).tobytes() == np.array(old.training_losses).tobytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    modalities=st.sampled_from([2, 3, 4]),
    batch_size=st.integers(2, 64),
    full_batches=st.integers(1, 3),
    trailing=st.one_of(st.just(0), st.just(1), st.integers(2, 63)),
    epochs=st.integers(1, 3),
    variant=st.sampled_from(["full", "ablated"]),
    activation=st.sampled_from(["swish", "relu"]),
    tau=st.sampled_from([0.05, 0.1, 1.0]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    learning_rate=st.sampled_from([0.0, 1e-3, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
@example(3, 64, 3, 1, 2, "full", "swish", 0.1, "adam", 1e-3, 0)  # the default model's shape, a dropped batch of 1
@example(4, 5, 2, 3, 3, "ablated", "relu", 0.05, "sgd", 0.05, 1)
def test_train_matches_17_node_path(
    modalities, batch_size, full_batches, trailing, epochs, variant, activation, tau, optimizer, learning_rate, seed
):
    """Whole GMC trainings, the trailing partial batch included: one node a
    step and in-place updates against a node per layer and one for the loss
    a step (17 at M = 3) and a fresh parameter buffer a step."""
    gen = np.random.default_rng(seed)
    remainder = min(trailing, batch_size - 1)  # 1 is dropped, 2 or more is a step
    n = full_batches * batch_size + remainder
    dims = [int(d) for d in gen.integers(1, 6, size=modalities)]
    mats = [gen.normal(size=(n, d)) for d in dims]
    dataset = MultimodalDataset(mats, np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool), np.concatenate(mats, axis=1))
    config = TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        tau=tau,
        seed=seed % 1000,
        loss_variant=variant,
        optimizer=optimizer,
    )
    # 24 hidden units keep an all-zero relu row, which has no direction, rare
    new, old = (GmcModel.build(dims, d=6, s=5, hidden=24, activation=activation, seed=seed % 997) for _ in "ab")

    def outcome(run):
        try:
            return run()
        except DomainError as err:  # the per-layer path raises the loss's own error
            return ("error", type(err), str(err))
        except NumericError as err:  # `fit` wraps it, naming the step
            return ("error", type(err.__cause__), str(err.__cause__))

    result = outcome(lambda: train(new, dataset, config))
    expected = outcome(lambda: train_nodes(old, dataset, config))
    if isinstance(expected, tuple) and expected[0] == "error":
        assert result == expected
        return
    assert result.steps == epochs * (full_batches + (remainder >= 2))
    assert new.flat_parameters().tobytes() == old.flat_parameters().tobytes()
    assert np.array(result.epoch_losses).tobytes() == np.array(expected[0]).tobytes()
    assert np.array(result.epoch_term_means).tobytes() == np.array(expected[1]).tobytes()


# --- optimizers ------------------------------------------------------------------

_GRAD_KINDS = ("missing", "zero", "negative_zero", "normal")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    optimizer=st.sampled_from(["adam", "sgd"]),
    lr=st.floats(1e-5, 1.0),
    b1=st.floats(0.0, 0.99),
    b2=st.floats(0.0, 0.9999),
    eps=st.floats(1e-12, 1e-2),
    steps=st.integers(5, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_optimizers_match_dict_optimizers(optimizer, lr, b1, b2, eps, steps, seed):
    """The in-place optimizers over the set's gradient buffer, stepped as
    `fit` steps them, against one update per named parameter. A missing
    gradient is zeros in the buffer."""
    gen = np.random.default_rng(seed)
    config = ProbeConfig(learning_rate=lr, adam_beta1=b1, adam_beta2=b2, adam_eps=eps, optimizer=optimizer)
    probe = ProbeClassifier(3, 4, hidden=(5,), seed=seed % 1000)
    size = probe.parameter_count()
    flat = _Adam(config, size) if optimizer == "adam" else _Sgd(config)
    reference = AdamDict(lr, b1, b2, eps) if optimizer == "adam" else SgdDict(lr)
    values = {name: p.copy() for name, p in probe.parameters().items()}
    trained = probe.flat_parameters().copy()
    probe.replace_parameters(trained.view())
    buffer = probe.gradients()
    for _ in range(steps):
        old = {name: Tensor(v) for name, v in values.items()}
        start = 0
        for name, p in probe.parameters().items():
            view = buffer[start : start + p.size].reshape(p.shape)
            start += p.size
            view[...] = 0.0
            kind = _GRAD_KINDS[gen.integers(len(_GRAD_KINDS))]
            if kind == "missing":
                continue
            grad = np.zeros(p.shape)
            if kind == "negative_zero":
                grad = -grad
            elif kind == "normal":
                grad = gen.normal(size=p.shape) * 10.0 ** gen.integers(-8, 3)
                grad[gen.random(p.shape) < 0.2] = -0.0
            view[...] = old[name].grad = grad
        values = reference.step(old)
        assert flat.step(trained, probe.gradients()) is None
        for name, p in probe.parameters().items():
            assert p.tobytes() == values[name].tobytes(), name


def test_flat_parameters_are_views_of_one_read_only_buffer():
    model = GmcModel.build((4, 3), d=3, s=3, hidden=4)
    flat = model.flat_parameters()
    assert flat.size == model.parameter_count() and not flat.flags.writeable
    views = list(model.parameters().values())
    assert all(np.shares_memory(p, flat) and not p.flags.writeable for p in views)
    assert np.concatenate([p.ravel() for p in views]).tobytes() == flat.tobytes()
    # a subset swap builds a new buffer and leaves the old arrays untouched
    before = views[0].copy()
    model.replace_parameters({"enc0/w0": np.zeros(views[0].shape)})
    assert views[0].tobytes() == before.tobytes()
    assert not np.any(model.parameters()["enc0/w0"])
    with pytest.raises(ShapeError):
        model.replace_parameters(np.zeros(flat.size - 1))


# --- CSV -------------------------------------------------------------------------

_special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])
_doubles = st.one_of(st.floats(allow_nan=True, allow_infinity=True, width=64), _special)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(1, 5), data=st.data())
def test_bulk_writer_matches_cell_writer(rows, cols, data):
    mat = np.array(data.draw(st.lists(_doubles, min_size=rows * cols, max_size=rows * cols)), dtype=np.float64)
    mat = mat.reshape(rows, cols)
    header = [f"c{j}" for j in range(cols)]
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "bulk.csv", header, mat)
        write_csv_cells(Path(tmp) / "cells.csv", header, mat)
        assert (Path(tmp) / "bulk.csv").read_bytes() == (Path(tmp) / "cells.csv").read_bytes()


_cells = st.one_of(
    _doubles.map(lambda x: format(x, ".17g")),
    st.sampled_from(["", " ", "1 ", " -2", "+3", ".5", "5.", "1e5", "1E-5", "inf", "-Infinity", "NaN", "x", "#", "1#2", "0x1", "1d5", "\r", "2\r"]),
)


def _outcome(reader, path):
    try:
        header, mat = reader(path)
    except DataError as err:
        return ("error", str(err))
    return header, mat.shape, mat.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
    lines=st.lists(st.lists(_cells, min_size=1, max_size=4), max_size=5),
    trailing=st.sampled_from(["", "\n", "\n\n"]),
)
def test_bulk_reader_matches_cell_reader(header, lines, trailing):
    text = "\n".join([",".join(header)] + [",".join(cells) for cells in lines]) + trailing
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(read_matrix_csv, path) == _outcome(read_matrix_csv_cells, path)


_finite_specials = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(0, 7),
    cols=st.integers(1, 5),
    non_finite=st.booleans(),
    data=st.data(),
)
def test_twin_matches_parse_and_cell_reader(rows, cols, non_finite, data):
    """write_csv, then read with the twin, without it and cell by cell: the
    same header, shape and bytes, or the same error. Only a twin of finite
    values with a row is trusted; a 0-row array gets no twin."""
    cells = st.floats(allow_nan=False, allow_infinity=False, width=64) | _finite_specials
    if non_finite:
        cells = cells | st.sampled_from([np.inf, -np.inf, np.nan])
    mat = np.array(data.draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)), dtype=np.float64)
    mat = mat.reshape(rows, cols)
    header = [f"c{j}" for j in range(cols)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        written = write_csv(path, header, mat)
        assert list(written) == ([path, twin_path(path)] if rows else [path])
        raw = path.read_bytes()
        trusted = _read_twin(path, raw, hashlib.sha256(raw).digest()) is not None
        assert trusted == (rows > 0 and bool(np.all(np.isfinite(mat))))
        with_twin = _outcome(read_matrix_csv, path)
        if rows:
            twin_path(path).unlink()
        assert with_twin == _outcome(read_matrix_csv, path) == _outcome(read_matrix_csv_cells, path)
        if trusted:
            assert with_twin == (header, mat.shape, mat.tobytes())


@pytest.mark.parametrize(
    "body, message",
    [
        ("1_0,2\n", "non-numeric cell"),
        ("1,2\n\n3,4\n", "data row 2 has 1 cells"),
        ("1,2\n# 3,4\n", "non-numeric cell"),
        ("1,2#3\n", "non-numeric cell"),
    ],
)
def test_underscores_blank_lines_and_comments_are_rejected(tmp_path, body, message):
    (tmp_path / "m.csv").write_text("a,b\n" + body)
    with pytest.raises(DataError, match=message):
        read_matrix_csv(tmp_path / "m.csv")


# --- random streams --------------------------------------------------------------


@pytest.mark.parametrize(
    "purpose, method, args, b",
    [(rng.LABEL, "integers", (10,), 0), (rng.STYLE, "standard_normal", (4,), 0), (rng.NOISE, "standard_normal", (20,), 2)],
)
def test_per_index_draws_equal_fresh_streams(purpose, method, args, b):
    for seed in (0, 7, 2**64 - 1):
        fresh = [getattr(rng.stream(seed, purpose, i, b), method)(*args) for i in range(3400)]
        rekeyed = rng.per_index(seed, purpose, 3400, method, *args, b=b)
        assert [_bytes(np.asarray(v)) for v in rekeyed] == [_bytes(np.asarray(v)) for v in fresh]
