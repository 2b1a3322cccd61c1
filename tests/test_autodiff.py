import numpy as np
import pytest

import ggrnet.autodiff as ad
from ggrnet.autodiff import Graph, Tensor
from ggrnet.errors import NumericalError, ShapeError


def total(graph, t):
    """Sum of all entries as a recorded [1, 1] tensor, from two matmuls."""
    rows = ad.constant(np.ones((1, t.rows)))
    cols = ad.constant(np.ones((t.cols, 1)))
    return ad.matmul(graph, ad.matmul(graph, rows, t), cols)


def fd_gradient_check(build, leaves, step=1e-5, tol=1e-5):
    """Compare backward() against central differences of build(None)."""
    graph = Graph()
    loss = build(graph)
    ad.backward(graph, loss)
    for t in leaves:
        for idx in np.ndindex(t.values.shape):
            orig = t.values[idx]
            t.values[idx] = orig + step
            hi = build(None).item()
            t.values[idx] = orig - step
            lo = build(None).item()
            t.values[idx] = orig
            numeric = (hi - lo) / (2 * step)
            analytic = t.grad[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            assert err < tol, f"{t.name}[{idx}]: analytic {analytic} vs numeric {numeric}"


# ---------------------------------------------------------------------------
# tensor basics


def test_tensor_coerces_vectors_to_columns():
    t = Tensor([1.0, 2.0, 3.0])
    assert t.shape == (3, 1)
    assert Tensor(4.0).shape == (1, 1)


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericalError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericalError):
        Tensor([np.inf])


def test_tensor_rejects_3d():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))


def test_parameter_has_grad_buffer():
    p = ad.parameter(np.ones((2, 3)))
    assert p.grad.shape == (2, 3)
    assert ad.constant(np.ones((2, 3))).grad is None


# ---------------------------------------------------------------------------
# linear


def test_linear_identity():
    w = ad.constant(np.eye(2))
    b = ad.constant(np.zeros((2, 1)))
    x = ad.constant([3.0, -1.0])
    out = ad.linear(None, w, b, x)
    assert np.array_equal(out.values, [[3.0], [-1.0]])


def test_linear_hand_case():
    w = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([1.0, 1.0])
    x = ad.constant([1.0, 1.0])
    out = ad.linear(None, w, b, x)
    assert np.array_equal(out.values, [[4.0], [8.0]])


def test_linear_zero_weights_returns_bias():
    w = ad.constant(np.zeros((1, 3)))
    b = ad.constant([5.0])
    x = ad.constant([7.0, -2.0, 0.5])
    assert ad.linear(None, w, b, x).values[0, 0] == 5.0


def test_linear_shape_error_names_both_shapes():
    w = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 1)))
    x = ad.constant(np.zeros((4, 1)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 1\)"):
        ad.linear(None, w, b, x)


def test_linear_gradients():
    rng = np.random.default_rng(0)
    w = ad.parameter(rng.uniform(-2, 2, (3, 4)), "w")
    b = ad.parameter(rng.uniform(-2, 2, (3, 1)), "b")
    x = ad.parameter(rng.uniform(-2, 2, (4, 2)), "x")
    fd_gradient_check(lambda g: total(g, ad.linear(g, w, b, x)), [w, b, x])


# ---------------------------------------------------------------------------
# concat / slice


def test_concat_rows_examples():
    a = ad.constant([1.0, 2.0])
    b = ad.constant([3.0])
    out = ad.concat_rows(None, [a, b])
    assert np.array_equal(out.values, [[1.0], [2.0], [3.0]])
    single = ad.concat_rows(None, [a])
    assert np.array_equal(single.values, a.values)


def test_concat_empty_list_is_error():
    with pytest.raises(ShapeError, match="empty"):
        ad.concat_rows(None, [])


def test_concat_then_slice_round_trip():
    a = ad.constant([1.0, 2.0])
    b = ad.constant([3.0, 4.0, 5.0])
    joined = ad.concat_rows(None, [a, b])
    back_a = ad.slice_rows(None, joined, 0, 2)
    back_b = ad.slice_rows(None, joined, 2, 5)
    assert np.array_equal(back_a.values, a.values)
    assert np.array_equal(back_b.values, b.values)


def test_concat_backward_scatters_slices():
    a = ad.parameter([1.0, 2.0], "a")
    b = ad.parameter([3.0], "b")
    g = Graph()
    joined = ad.concat_rows(g, [a, b])
    weights = ad.constant([[1.0, 10.0, 100.0]])
    loss = ad.matmul(g, weights, joined)
    ad.backward(g, loss)
    assert np.array_equal(a.grad, [[1.0], [10.0]])
    assert np.array_equal(b.grad, [[100.0]])


def test_slice_rows_bounds_error():
    a = ad.constant(np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        ad.slice_rows(None, a, 1, 5)


# ---------------------------------------------------------------------------
# elementwise


def test_elementwise_point_values():
    zero = ad.constant([0.0])
    assert ad.sigmoid(None, zero).values[0, 0] == 0.5
    assert ad.tanh(None, zero).values[0, 0] == 0.0
    assert ad.relu(None, ad.constant([-1.0])).values[0, 0] == 0.0


def test_hadamard_hand_case():
    out = ad.hadamard(None, ad.constant([2.0, 3.0]), ad.constant([4.0, 5.0]))
    assert np.array_equal(out.values, [[8.0], [15.0]])


def test_hadamard_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.hadamard(None, ad.constant(np.zeros((2, 1))), ad.constant(np.zeros((3, 1))))


def test_sigmoid_symmetry():
    x = ad.constant(np.random.default_rng(1).uniform(-6, 6, (50, 1)))
    neg = ad.scale(None, x, -1.0)
    total = ad.add(None, ad.sigmoid(None, x), ad.sigmoid(None, neg))
    assert np.allclose(total.values, 1.0, atol=1e-15)


def test_sigmoid_extreme_inputs_do_not_overflow():
    x = ad.constant([[800.0], [-800.0]])
    out = ad.sigmoid(None, x)
    assert out.values[0, 0] == pytest.approx(1.0)
    assert out.values[1, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh])
def test_smooth_unary_gradients(op):
    x = ad.parameter(np.random.default_rng(2).uniform(-2, 2, (4, 3)), "x")
    fd_gradient_check(lambda g: total(g, op(g, x)), [x])


def test_relu_gradients_away_from_kink():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.05, 2.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
    x = ad.parameter(vals, "x")
    fd_gradient_check(lambda g: total(g, ad.relu(g, x)), [x])


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.hadamard])
def test_binary_gradients(op):
    rng = np.random.default_rng(4)
    a = ad.parameter(rng.uniform(-2, 2, (3, 2)), "a")
    b = ad.parameter(rng.uniform(-2, 2, (3, 2)), "b")
    fd_gradient_check(lambda g: total(g, op(g, a, b)), [a, b])


def test_scale_transpose_matmul_gradients():
    rng = np.random.default_rng(5)
    a = ad.parameter(rng.uniform(-2, 2, (3, 4)), "a")
    b = ad.parameter(rng.uniform(-2, 2, (4, 2)), "b")

    def build(g):
        prod = ad.matmul(g, a, b)
        return total(g, ad.scale(g, ad.transpose(g, prod), 0.7))

    fd_gradient_check(build, [a, b])


def test_matmul_shape_error():
    with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(2, 3\)"):
        ad.matmul(None, ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))


def test_op_reports_non_finite_output():
    big = ad.constant(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="scale"):
        ad.scale(None, big, 10.0)


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = ad.parameter(np.random.default_rng(6).normal(size=(3, 4)), "x")
    g = Graph()
    ad.backward(g, total(g, x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_half_square_norm_gives_x():
    x = ad.parameter(np.random.default_rng(7).normal(size=(5, 1)), "x")
    g = Graph()
    loss = ad.scale(g, total(g, ad.hadamard(g, x, x)), 0.5)
    ad.backward(g, loss)
    assert np.allclose(x.grad, x.values, atol=1e-15)


@pytest.mark.parametrize("name, message", [
    ("w", r"^non-finite gradient of 'w' in backward rule of op 'matmul'$"),
    ("", r"^non-finite gradient in backward rule of op 'matmul'$"),
])
def test_a_non_finite_gradient_names_its_op_and_a_named_input(name, message):
    # w x is 1, and the scale gives it an adjoint of 1e300, so w's gradient,
    # 1e300 x, overflows
    w = ad.parameter([[1e-300]], name)
    g = Graph()
    loss = ad.scale(g, ad.matmul(g, w, ad.constant([[1e300]])), 1e300)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match=message):
        ad.backward(g, loss)


def test_backward_requires_scalar_loss():
    x = ad.parameter(np.ones((2, 2)), "x")
    g = Graph()
    y = ad.scale(g, x, 2.0)
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(g, y)


def test_gradient_accumulation_double_use():
    x = ad.parameter([1.5], "x")
    g = Graph()
    y = ad.add(g, x, x)
    ad.backward(g, total(g, y))
    assert x.grad[0, 0] == 2.0


def test_gradient_accumulation_three_uses():
    x = ad.parameter([2.0], "x")
    g = Graph()
    y = ad.add(g, ad.add(g, x, x), x)
    ad.backward(g, total(g, y))
    assert x.grad[0, 0] == 3.0


def test_grad_accumulates_across_backward_calls():
    x = ad.parameter([1.0], "x")
    for _ in range(2):
        g = Graph()
        ad.backward(g, total(g, x))
    assert x.grad[0, 0] == 2.0
    ad.zero_grads([x])
    assert x.grad[0, 0] == 0.0


def test_forward_and_backward_are_deterministic():
    def run():
        rng = np.random.default_rng(8)
        a = ad.parameter(rng.normal(size=(6, 5)), "a")
        b = ad.parameter(rng.normal(size=(5, 3)), "b")
        g = Graph()
        out = ad.tanh(g, ad.matmul(g, a, b))
        loss = total(g, ad.hadamard(g, out, out))
        ad.backward(g, loss)
        return loss.item(), a.grad.copy(), b.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# ---------------------------------------------------------------------------
# clipping


def _param_with_grad(grad):
    p = ad.parameter(np.zeros_like(np.asarray(grad, dtype=float)))
    p.grad[:] = np.asarray(grad, dtype=float).reshape(p.grad.shape)
    return p


def test_clip_below_threshold_is_identity():
    p = _param_with_grad([[3.0], [4.0]])
    assert ad.clip_global_norm([p], 10.0) == 5.0
    assert np.array_equal(p.grad, [[3.0], [4.0]])


def test_clip_rescales_above_threshold():
    p = _param_with_grad([[30.0], [40.0]])
    assert ad.clip_global_norm([p], 10.0) == 50.0
    assert np.allclose(p.grad, [[6.0], [8.0]])


def test_clip_zero_gradients():
    p = _param_with_grad([[0.0], [0.0]])
    assert ad.clip_global_norm([p], 10.0) == 0.0
    assert np.array_equal(p.grad, np.zeros((2, 1)))


def test_clip_requires_positive_max_norm():
    with pytest.raises(ValueError):
        ad.clip_global_norm([_param_with_grad([[1.0]])], 0.0)


def test_post_clip_norm_bounded():
    rng = np.random.default_rng(9)
    for trial in range(20):
        params = [_param_with_grad(rng.normal(size=(4, 3)) * 10) for _ in range(3)]
        pre = ad.clip_global_norm(params, 2.5)
        post = ad.global_grad_norm(params)
        assert post <= 2.5 + 1e-12
        if pre <= 2.5:
            assert post == pre
