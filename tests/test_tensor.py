import math
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from bgcapsule import tensor as T
from bgcapsule.errors import ContractError, DimensionError

from conftest import inner
from oracles import finite_difference


def f64(arr):
    return T.Tensor(np.asarray(arr), dtype=np.float64)


def test_matmul_identity():
    eye = T.Tensor(np.eye(2))
    m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_hand_product():
    a = T.Tensor([[1.0, 2.0]])
    b = T.Tensor([[3.0], [4.0]])
    npt.assert_array_equal(T.matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(T.zeros((2, 3)), T.zeros((2, 3)))
    assert "(2, 3)" in str(err.value)


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    with T.Tape() as tape:
        at, bt = f64(a), f64(b)
        tape.watch(at, bt)
        loss = inner(T.matmul(at, bt), 1)
        tape.backward(loss)
        ga, gb = tape.grad(at).data, tape.grad(bt).data

    na = finite_difference(lambda x: (x @ b).sum(), a)
    nb = finite_difference(lambda x: (a @ x).sum(), b)
    assert T.error_stats(ga, na)[2] < 1e-4
    assert T.error_stats(gb, nb)[2] < 1e-4


def test_selu_published_constants():
    # lambda * x for positive x, cross-checked against a direct evaluation
    expected = 1.0507009873554805 * 1.0
    assert math.isclose(T.selu(f64(1.0)).item(), expected, rel_tol=1e-12)
    neg = 1.0507009873554805 * 1.6732632423543772 * (math.exp(-2.0) - 1.0)
    assert math.isclose(T.selu(f64(-2.0)).item(), neg, rel_tol=1e-10)


def test_elementwise_shape_error():
    with pytest.raises(DimensionError, match=r"\(2, 3\) and \(2,\)"):
        T.add_bias(T.zeros((2, 3)), T.zeros((2,)))
    with pytest.raises(DimensionError, match="extent mismatch"):
        T.einsum2("ab,ab->", T.zeros((2, 3)), T.zeros((2, 4)))
    with pytest.raises(DimensionError, match="off axis 1"):
        T.concat([T.zeros((2, 3)), T.zeros((3, 1))], axis=1)


def test_softmax_uniform_and_shift_invariance():
    npt.assert_allclose(T.softmax(T.Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3, rtol=1e-6)
    big = T.softmax(T.Tensor([1000.0, 1000.0])).data
    npt.assert_allclose(big, [0.5, 0.5])
    assert np.all(np.isfinite(big))


def test_softmax_direct_evaluation():
    # frozen from exp-normalize computed by hand
    out = T.softmax(f64([1.0, 2.0, 3.0])).data
    e = np.exp([1.0, 2.0, 3.0])
    npt.assert_allclose(out, e / e.sum(), rtol=1e-12)
    npt.assert_allclose(out, [0.0900, 0.2447, 0.6652], atol=5e-5)


@pytest.mark.parametrize("seed", range(6))
def test_softmax_slices_sum_to_one_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(4, 7))
    y = T.softmax(T.Tensor(x), axis=1).data
    npt.assert_allclose(y.sum(axis=1), np.ones(4), atol=1e-6)
    shifted = T.softmax(T.Tensor(x + 3.25), axis=1).data
    npt.assert_allclose(y, shifted, atol=1e-6)


def test_structural_round_trips():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3))
    t = T.Tensor(x)

    r = T.reshape(T.reshape(t, (6,)), (2, 3))
    npt.assert_array_equal(r.data, t.data)

    joined = T.concat([T.Tensor([1.0, 2.0]), T.Tensor([3.0])], axis=0)
    npt.assert_array_equal(joined.data, [1.0, 2.0, 3.0])


def test_reshape_preserves_row_major_order():
    t = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    npt.assert_array_equal(T.reshape(t, (6,)).data, np.arange(6))


def test_axis_out_of_range():
    with pytest.raises(DimensionError, match="axis 5"):
        T.softmax(T.zeros((2, 2)), axis=5)
    with pytest.raises(DimensionError, match="axis -3"):
        T.concat([T.zeros((2, 2))], axis=-3)


def test_backward_sum_gives_ones():
    with T.Tape() as tape:
        x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        tape.watch(x)
        tape.backward(inner(x, 1))
        npt.assert_array_equal(tape.grad(x).data, np.ones((2, 3)))


def test_backward_quadratic():
    with T.Tape() as tape:
        x = T.Tensor([1.0, 2.0])
        tape.watch(x)
        loss = inner(x)
        tape.backward(loss)
        npt.assert_allclose(tape.grad(x).data, [2.0, 4.0])


def test_backward_requires_scalar_loss():
    with T.Tape() as tape:
        x = T.Tensor([1.0, 2.0])
        tape.watch(x)
        with pytest.raises(ContractError):
            tape.backward(x)


def test_untouched_tensor_gets_zero_gradient():
    with T.Tape() as tape:
        x = T.Tensor([1.0, 2.0])
        unused = T.Tensor([5.0])
        tape.watch(x, unused)
        tape.backward(inner(x, 1))
        npt.assert_array_equal(tape.grad(unused).data, [0.0])


def test_needs_grad_only_for_watched_or_recorded_tensors_on_a_tape():
    x, const = T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0])
    assert not T.needs_grad(x)
    with T.Tape() as tape:
        tape.watch(x)
        y = T.add_bias(x, const)
        assert T.needs_grad(x) and T.needs_grad(y)
        assert not T.needs_grad(const)
    assert not T.needs_grad(x)


def test_watch_after_an_op_consumed_the_tensor_raises():
    with T.Tape() as tape:
        x, late = T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0])
        tape.watch(x)
        T.add_bias(x, late)
        tape.watch(T.Tensor([5.0]))  # not consumed yet: fine
        with pytest.raises(ContractError, match="watch"):
            tape.watch(late)


def test_watch_after_an_unrecorded_op_consumed_the_tensor_raises():
    # relu of a constant leaves no node, and a later watch could not reach it
    with T.Tape() as tape:
        x = T.Tensor([1.0, -2.0])
        T.relu(x)
        assert tape.nodes == []
        with pytest.raises(ContractError, match="watch"):
            tape.watch(x)


def test_backward_replay_is_deterministic():
    rng = np.random.default_rng(3)
    with T.Tape() as tape:
        x = T.Tensor(rng.normal(size=(4, 4)))
        tape.watch(x)
        y = T.softmax(T.matmul(x, x), axis=1)
        loss = inner(y)
        tape.backward(loss)
        first = tape.grad(x).data.copy()
        tape.backward(loss)
        npt.assert_array_equal(first, tape.grad(x).data)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("selu", T.selu),
        ("softmax", lambda t: T.softmax(t, axis=0)),
    ],
)
def test_gradients_of_pointwise_ops(name, fn):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rng.normal(size=(5,))
    report = T.grad_check(lambda t: inner(fn(t)), f64(x), name=name)
    assert report.passed, report.line()


def test_relu_gradient_off_kink():
    x = np.array([-2.0, -0.5, 0.7, 1.5])
    report = T.grad_check(lambda t: inner(T.relu(t)), f64(x))
    assert report.passed, report.line()


@pytest.mark.parametrize("seed", range(20))
def test_gradients_random_shapes_many_ops(seed):
    """Every differentiable op vs central differences on random shapes."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 5))
    cols = int(rng.integers(1, 5))
    x = rng.normal(size=(rows, cols))
    w = rng.normal(size=(cols, 3))
    b = rng.normal(size=(3,))
    wt, bt = f64(w), f64(b)

    def composite(t):
        h = T.add_bias(T.matmul(t, wt), bt)
        h = T.selu(h)
        s = T.softmax(h, axis=1)
        flat = T.reshape(s, (3 * rows,))
        col_norms = T.einsum2("ab,ab->b", s, s)
        both = T.concat([col_norms, flat], axis=0)
        return inner(both)

    report = T.grad_check(composite, f64(x), name=f"composite-{seed}")
    assert report.passed, report.line()


def test_add_bias_gradient():
    rng = np.random.default_rng(11)
    x = f64(rng.normal(size=(4, 3)))
    b = rng.normal(size=(3,))
    report = T.grad_check(lambda t: inner(T.add_bias(x, t)), f64(b))
    assert report.passed, report.line()


def test_einsum2_matches_numpy_and_gradients():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(5, 4, 6))
    out = T.einsum2("nid,jde->njie", T.Tensor(a), T.Tensor(w))
    npt.assert_allclose(out.data, np.einsum("nid,jde->njie", a, w), rtol=1e-5)

    wt = f64(w)
    report = T.grad_check(
        lambda t: inner(T.einsum2("nid,jde->njie", t, wt)),
        f64(a),
        name="einsum2",
    )
    assert report.passed, report.line()


def test_einsum2_rejects_bad_specs():
    a, b = T.zeros((2, 2)), T.zeros((2, 2))
    with pytest.raises(DimensionError):
        T.einsum2("ii,jk->k", a, b)
    with pytest.raises(DimensionError):
        T.einsum2("ij,jk->q", a, b)
    with pytest.raises(DimensionError):
        T.einsum2("ij,jk->ik", T.zeros((2, 3)), T.zeros((4, 5)))


def test_grad_check_selu_against_analytic_derivative():
    # independent oracle: selu'(x) = lambda * alpha * e^x for x < 0
    x = -0.3
    with T.Tape() as tape:
        xt = f64(x)
        tape.watch(xt)
        tape.backward(T.selu(xt))
        analytic = tape.grad(xt).item()
    assert math.isclose(analytic, 1.0507009873554805 * 1.6732632423543772 * math.exp(x),
                        rel_tol=1e-12)
    report = T.grad_check(T.selu, f64(x), name="selu-scalar")
    assert report.passed and report.max_rel_err < 1e-6


def test_check_finite_flag():
    was = T._check_finite
    T.set_check_finite(True)
    try:
        with pytest.raises(FloatingPointError):
            T.relu(T.Tensor([np.nan]))
    finally:
        T.set_check_finite(was)


def test_no_tape_means_no_recording():
    x = T.Tensor([1.0])
    y = T.relu(x)
    assert y.node_id is None


def test_grad_check_restores_x_bitwise_and_needs_float64():
    x = f64(np.random.default_rng(12).normal(size=(3, 4)))
    before = x.data.copy()
    report = T.grad_check(lambda t: inner(T.selu(t), t), x)
    assert report.passed, report.line()
    assert x.data.tobytes() == before.tobytes()
    with pytest.raises(ContractError, match="float64"):
        T.grad_check(lambda t: inner(t, 1), T.Tensor(np.ones(3, dtype=np.float32)))
