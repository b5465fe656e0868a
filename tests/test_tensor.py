"""The tape engine and the plain layer functions.

The tests that name `dense`, `matmul`, `add`, `scale`, `exp`, `log`, `sum`,
`dot`, `row_normalize` or `softmax_cross_entropy` check the tape nodes in
`tests/_oracles.py`. They make up the per-layer paths and chains that the
one-node GMC step, contrastive loss and probe step must match byte for
byte, so those references are themselves held to scalar loops and central
differences.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import add, dense, dot, exp, log, matmul, row_normalize, scale, softmax_cross_entropy, tsum
from gmc import tensor as T
from gmc.errors import ContractError, DomainError, ShapeError
from gmc.loss import RepresentationBatch, mnt_xent
from gmc.tensor import Tape, Tensor, grad_check


def loop_dot(u, v):
    # Independent scalar-loop oracle.
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _total(h: Tensor) -> Tensor:
    """The sum of a 2-D tensor's entries as a (1, 1) tensor, through two
    `dense` nodes with all-ones weights."""
    b, n = h.shape
    col_sums = dense(Tensor(np.ones((1, b))), h, Tensor(np.zeros(n)))
    return dense(col_sums, Tensor(np.ones((n, 1))), Tensor(np.zeros(1)))


def test_dot_matches_scalar_loop():
    u, v = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
    out = dot(Tensor(u), Tensor(v))
    assert out.item() == loop_dot(u, v) == 32.0


def test_matmul_identity_roundtrip():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 5))
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


@pytest.mark.parametrize("ta,tb", [(False, False), (True, False), (False, True), (True, True)])
def test_matmul_transpose_flags(ta, tb):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 3) if ta else (3, 4))
    b = rng.normal(size=(5, 4) if tb else (4, 5))
    out = matmul(Tensor(a), Tensor(b), transpose_a=ta, transpose_b=tb)
    expect = (a.T if ta else a) @ (b.T if tb else b)
    assert np.allclose(out.data, expect, atol=0, rtol=0)


def _identity_layer(x: Tensor, activation):
    """dense with an identity weight and zero bias: the bare activation."""
    n = x.shape[1]
    return dense(x, Tensor(np.eye(n)), Tensor(np.zeros(n)), activation)


def test_swish_at_zero_is_zero():
    assert _identity_layer(Tensor([[0.0]]), "swish").data[0, 0] == 0.0


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([[0.0, -1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        y = _total(_identity_layer(x, "relu"))
    tape.backward(y)
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        y = tsum(x)
    tape.backward(y)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_dot_self_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = dot(x, x)
    tape.backward(y)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_fanout_gradients_accumulate():
    # x enters the first node twice (input and weight) and the second once
    # more: y = (x * x) * x, so dy/dx = 3x^2.
    x = Tensor([[3.0]], requires_grad=True)
    zero = Tensor([0.0])
    with Tape() as tape:
        y = dense(dense(x, x, zero), x, zero)
    tape.backward(y)
    assert np.array_equal(x.grad, [[27.0]])
    # A second backward adds on top instead of resetting.
    with Tape() as tape:
        y = dense(x, Tensor([[1.0]]), zero)
    tape.backward(y)
    assert np.array_equal(x.grad, [[28.0]])


def test_bias_add_gradient_sums_rows():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        y = _total(dense(x, Tensor(np.eye(3)), b))
    tape.backward(y)
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])
    assert np.array_equal(x.grad, np.ones((4, 3)))


def test_dense_skips_input_gradient_it_does_not_need():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with Tape() as tape:
        y = _total(dense(Tensor(np.ones((4, 3))), w, Tensor(np.zeros(2)), "relu"))
    gx, gw, gb = tape._nodes[0].bwd(np.ones((4, 2)))
    assert gx is None and gw.shape == (3, 2) and gb.shape == (2,)
    tape.backward(y)
    assert np.array_equal(w.grad, np.full((3, 2), 4.0))


def test_grad_check_sum_is_at_rounding_noise():
    # In exact arithmetic the error would be 0; in float64 the central
    # difference of a sum rounds at roughly ulp(x)/step, around 1e-10.
    x = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
    assert grad_check(_total, x) < 1e-9


_SCALAR_CASES = {
    "matmul": lambda t: tsum(matmul(t, Tensor(np.linspace(-1, 1, 12).reshape(4, 3)))),
    "matmul_t": lambda t: tsum(matmul(t, Tensor(np.linspace(-2, 1, 12).reshape(3, 4)), transpose_b=True)),
    "add": lambda t: tsum(add(t, Tensor(np.ones((3, 4))))),
    "bias": lambda t: _total(dense(Tensor(np.ones((5, 2))), Tensor(np.ones((2, 4))), tsum(t, axis=0))),
    "scale": lambda t: tsum(scale(t, -1.7)),
    "relu": lambda t: _total(_identity_layer(t, "relu")),
    "swish": lambda t: _total(_identity_layer(t, "swish")),
    "dense_w": lambda t: _total(dense(Tensor(np.linspace(-1, 1, 6).reshape(2, 3)), t, Tensor(np.ones(4)), "swish")),
    "exp": lambda t: tsum(exp(t)),
    "sum_axis": lambda t: tsum(scale(tsum(t, axis=0), 0.5)),
    "dot": lambda t: dot(t, Tensor(np.linspace(1, 2, 12).reshape(3, 4))),
    "row_normalize": lambda t: dot(row_normalize(t)[0], Tensor(np.linspace(-1, 2, 12).reshape(3, 4))),
    "softmax_cross_entropy": lambda t: softmax_cross_entropy(t, np.eye(4)[[2, 0, 3]]),
    "contrastive": lambda t: mnt_xent(RepresentationBatch([t], Tensor(np.linspace(-1, 2, 12).reshape(3, 4))), 0.5),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_primitive_gradients_match_central_differences(name, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    # Keep relu inputs away from its kink so central differences are clean.
    x = np.where(np.abs(x) < 1e-3, 0.25, x)
    err = grad_check(_SCALAR_CASES[name], Tensor(x), step=1e-6)
    assert err < 1e-6, f"{name}: relative error {err}"


def test_log_gradient_on_positive_inputs():
    x = np.abs(np.random.default_rng(3).normal(size=(2, 5))) + 0.5
    err = grad_check(lambda t: tsum(log(t)), Tensor(x))
    assert err < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_swish_gradient_anywhere(values):
    err = grad_check(lambda t: _total(_identity_layer(t, "swish")), Tensor([values]))
    assert err < 1e-5


def test_shape_error_names_primitive_and_shapes():
    with pytest.raises(ShapeError) as info:
        dense(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    assert "dense" in str(info.value)
    assert "(2, 3)" in str(info.value)
    with pytest.raises(ShapeError, match="dense"):
        dense(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="softmax_cross_entropy"):
        T.softmax_cross_entropy_forward(np.ones((2, 3)), np.eye(3))
    with pytest.raises(ShapeError, match="matmul"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        dot(Tensor([1.0]), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError):
        row_normalize(Tensor([3.0, 4.0]))


def test_log_rejects_non_positive_input():
    with pytest.raises(DomainError):
        log(Tensor([1.0, 0.0]))


def test_backward_contract_checks():
    x = Tensor(np.ones((1, 3)), requires_grad=True)
    with Tape() as tape:
        y = dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    with pytest.raises(ContractError):
        tape.backward(y)  # not scalar
    loose = _total(Tensor(np.ones((1, 2)), requires_grad=True))
    with pytest.raises(ContractError):
        tape.backward(loose)  # produced outside this tape


def test_forward_identical_with_and_without_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))

    def pipeline(xt, wt):
        return _total(dense(xt, wt, Tensor(np.zeros(2)), "swish"))

    plain = pipeline(Tensor(x), Tensor(w))
    with Tape():
        tracked = pipeline(Tensor(x), Tensor(w, requires_grad=True))
    assert plain.data.tobytes() == tracked.data.tobytes()


def test_tensor_data_is_read_only():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_tapes_are_independent_across_threads():
    results = {}

    def work(tag, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        bias = Tensor(np.linspace(-1, 1, 8))
        for _ in range(20):
            with Tape() as tape:
                y = _total(dense(x, x, bias, "swish"))
            x.grad = None
            tape.backward(y)
            results[(tag, "grad")] = x.grad.copy()
        results[(tag, "x")] = x

    threads = [threading.Thread(target=work, args=(i, i + 10)) for i in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for i in range(4):
        x = results[(i, "x")]
        expect = grad_check(
            lambda t: _total(dense(t, t, Tensor(np.linspace(-1, 1, 8)), "swish")), Tensor(x.data)
        )
        assert expect < 1e-5
        assert np.all(np.isfinite(results[(i, "grad")]))


def test_grad_check_reports_non_finite_as_inf():
    x = Tensor([[700.0, 710.0]])
    w = Tensor([[1e306], [1e306]])
    with np.errstate(over="ignore", invalid="ignore"):
        err = grad_check(lambda t: _total(dense(t, w, Tensor([0.0]))), x)
    assert err == math.inf
