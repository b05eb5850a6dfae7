"""Autodiff engine tests: forward oracles, hand-checked gradients,
finite-difference verification, graph bookkeeping, and the optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

import leaf.tensor as T
from leaf.tensor import Tensor
from oracles import cosine_similarity


RNG = np.random.default_rng(7)


def finite_diff(f, params, h=1e-6):
    """Central differences on every coordinate of every parameter."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for c in range(flat.size):
            orig = flat[c]
            with T.no_grad():
                flat[c] = orig + h
                up = float(f().data)
                flat[c] = orig - h
                down = float(f().data)
                flat[c] = orig
            gflat[c] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_match(f, params, tol=1e-6):
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    numeric = finite_diff(f, params)
    for p, num in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        err = np.abs(analytic - num) / np.maximum(1.0, np.abs(num))
        assert err.max() <= tol, f"max rel grad error {err.max():.3e}"


# ---------------------------------------------------------------- forward


def test_matmul_matches_triple_loop():
    a = RNG.normal(size=(4, 5))
    b = RNG.normal(size=(5, 3))
    out = T.matmul(Tensor(a), Tensor(b)).data
    ref = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                ref[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_matmul_batched():
    a = RNG.normal(size=(2, 4, 5))
    b = RNG.normal(size=(5, 3))
    out = T.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(out, a @ b, atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(T.ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


@pytest.mark.parametrize("a_shape,b_shape", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,)),
                                             ((), (2, 2))])
def test_matmul_rejects_operand_below_2_dims(a_shape, b_shape):
    with pytest.raises(T.ShapeError, match="at least 2 dims"):
        T.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


def test_softmax_hand_value():
    # softmax([0.9, 0.5]): e^0.9/(e^0.9+e^0.5) computed independently
    e = np.exp([0.9, 0.5])
    expected = e / e.sum()
    out = T.softmax(Tensor(np.array([0.9, 0.5]))).data
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


def test_nan_input_raises_numerical_error():
    x = Tensor(np.array([0.0, np.nan]))
    with pytest.raises(T.NumericalError):
        T.softmax(x)
    with pytest.raises(T.NumericalError):
        T.log_softmax(x)


def test_softmax_shift_invariance():
    x = RNG.normal(size=(3, 6))
    np.testing.assert_allclose(
        T.softmax(Tensor(x)).data, T.softmax(Tensor(x + 1000.0)).data, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = RNG.normal(size=(4, 5))
    np.testing.assert_allclose(
        T.log_softmax(Tensor(x)).data, np.log(T.softmax(Tensor(x)).data), atol=1e-12)


def test_logsumexp_oracle():
    x = RNG.normal(size=7) * 50  # large values: naive exp would overflow float32
    expected = np.log(np.sum(np.exp(x - x.max()))) + x.max()
    out = float(T.logsumexp(Tensor(x)).data)
    assert abs(out - expected) <= 1e-12


def test_layer_norm_oracle():
    x = RNG.normal(size=(3, 8))
    gain = RNG.normal(size=8)
    bias = RNG.normal(size=8)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    ref = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
    out = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_cosine_similarity_oracle():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0])
    expected = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    out = float(cosine_similarity(Tensor(u), Tensor(v)).data)
    assert abs(out - expected) <= 1e-12


def test_cosine_similarity_rejects_zero_vector():
    with pytest.raises(T.DegenerateVectorError):
        cosine_similarity(Tensor(np.zeros(3)), Tensor(np.ones(3)))


def test_gelu_erf_reference():
    from scipy.special import erf
    x = np.linspace(-3, 3, 11)
    ref = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(T.gelu(Tensor(x)).data, ref, atol=1e-12)


def test_take_gathers_along_axis():
    a = Tensor(np.arange(10.0).reshape(2, 5))
    np.testing.assert_array_equal(T.take(a, [3, 1], axis=1).data, [[3.0, 1.0], [8.0, 6.0]])
    np.testing.assert_array_equal(T.take(a, [1], axis=0).data, [[5.0, 6.0, 7.0, 8.0, 9.0]])


def test_embedding_lookup():
    table = Tensor(RNG.normal(size=(10, 4)), requires_grad=True)
    ids = np.array([[1, 1, 7], [0, 9, 2]])
    out = T.take(table, ids)
    np.testing.assert_allclose(out.data, table.data[ids], atol=1e-15)


# ---------------------------------------------------------------- gradients


def test_grad_add_mul_broadcast():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    assert_grads_match(lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), [a, b])


def test_grad_matmul():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    assert_grads_match(lambda: T.tsum(T.matmul(a, b)), [a, b])


def test_grad_softmax_hand_derived():
    # For f = softmax(x)[0] with x = [0.9, 0.5]: df/dx = p0*(1-p0), -p0*p1
    x = Tensor(np.array([0.9, 0.5]), requires_grad=True)
    out = T.take(T.softmax(x), 0)
    out.backward()
    e = np.exp([0.9, 0.5])
    p = e / e.sum()
    np.testing.assert_allclose(x.grad, [p[0] * (1 - p[0]), -p[0] * p[1]], atol=1e-12)


def test_grad_log_softmax_and_embedding():
    table = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([[2, 2, 5]])

    def f():
        emb = T.take(table, ids)
        return T.tsum(T.log_softmax(T.tsum(emb, axis=1), axis=-1))

    assert_grads_match(f, [table])


def test_grad_layer_norm():
    x = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    gain = Tensor(RNG.normal(size=5), requires_grad=True)
    bias = Tensor(RNG.normal(size=5), requires_grad=True)
    assert_grads_match(
        lambda: T.tsum(T.mul(T.layer_norm(x, gain, bias), T.layer_norm(x, gain, bias))),
        [x, gain, bias], tol=1e-5)


def test_grad_gelu_exp_log_sqrt_div():
    x = Tensor(np.abs(RNG.normal(size=6)) + 0.5, requires_grad=True)
    y = Tensor(np.abs(RNG.normal(size=6)) + 0.5, requires_grad=True)

    def f():
        out = T.gelu(x)
        out = T.add(out, T.gelu(T.mul(y, -1.0)))
        out = T.add(out, T.div(T.exp(T.mul(x, 0.1)), y))
        out = T.add(out, T.log(T.add(x, 1.0)))
        out = T.add(out, T.sqrt(y))
        return T.tsum(T.mul(out, out))

    assert_grads_match(f, [x, y], tol=1e-5)


def test_grad_cosine_and_take():
    u = Tensor(RNG.normal(size=4), requires_grad=True)
    v = Tensor(RNG.normal(size=4), requires_grad=True)

    def f():
        picked = T.take(u, [0, 2, 2, 3])  # a repeated index accumulates
        return T.add(cosine_similarity(u, v),
                     T.tsum(T.mul(picked, v)))

    assert_grads_match(f, [u, v], tol=1e-5)


# Random shapes: every property checks the analytic gradient of a weighted
# sum of the op's output (so each output element has its own weight) by
# central differences.


def weighted_sum(out: Tensor, seed: int) -> Tensor:
    w = np.random.default_rng(seed).normal(size=out.shape)
    return T.tsum(T.mul(out, Tensor(w)))


def random_param(shape, seed: int, away_from_zero: bool = False) -> Tensor:
    x = np.random.default_rng(seed).normal(size=shape)
    if away_from_zero:
        x = np.sign(x) * (0.5 + np.abs(x)) + (x == 0)
    return Tensor(x, requires_grad=True)


@settings(max_examples=60)
@given(shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3),
       op=st.sampled_from(["add", "mul", "div"]), seed=st.integers(0, 2**16))
def test_grad_elementwise_under_broadcasting(shapes, op, seed):
    a_shape, b_shape = shapes.input_shapes
    a = random_param(a_shape, seed)
    b = random_param(b_shape, seed + 1, away_from_zero=op == "div")
    fn = getattr(T, op)
    out = fn(a, b)
    assert out.shape == shapes.result_shape
    assert T.grad_check(lambda: weighted_sum(fn(a, b), seed), [a, b]) <= 1e-6
    assert a.grad is None and b.grad is None


@settings(max_examples=40)
@given(batch=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=2, max_side=3),
       mkn=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**16))
def test_grad_batched_matmul_with_broadcast_batch(batch, mkn, seed):
    m, k, n = mkn
    a_batch, b_batch = batch.input_shapes
    a = random_param(a_batch + (m, k), seed)
    b = random_param(b_batch + (k, n), seed + 1)
    out = T.matmul(a, b)
    np.testing.assert_allclose(out.data, a.data @ b.data, rtol=0.0, atol=1e-12)
    assert out.shape == batch.result_shape + (m, n)
    assert T.grad_check(lambda: weighted_sum(T.matmul(a, b), seed), [a, b]) <= 1e-6


@st.composite
def take_cases(draw):
    """(shape, axis, indices): axis may be negative; indices are an int, a
    1-D list with a repeat, or an N-D integer array."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    n = shape[axis]
    kind = draw(st.sampled_from(["int", "repeated", "nd"]))
    if kind == "int":
        return shape, axis, draw(st.integers(0, n - 1))
    if kind == "repeated":
        head = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        return shape, axis, head + [head[0]]
    idx_shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=int(np.prod(idx_shape)),
                         max_size=int(np.prod(idx_shape))))
    return shape, axis, np.asarray(flat).reshape(idx_shape)


@settings(max_examples=60)
@given(case=take_cases(), seed=st.integers(0, 2**16))
def test_take_matches_np_take_and_grad(case, seed):
    shape, axis, idx = case
    a = random_param(shape, seed)
    out = T.take(a, idx, axis=axis)
    np.testing.assert_array_equal(out.data, np.take(a.data, idx, axis=axis))
    assert T.grad_check(lambda: weighted_sum(T.take(a, idx, axis=axis), seed), [a]) <= 1e-6


def test_grad_check_utility_on_composite():
    w = Tensor(RNG.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=5), requires_grad=True)
    x = RNG.normal(size=(3, 4))

    def f():
        logits = T.add(T.matmul(Tensor(x), T.transpose(w)), b)
        return T.mul(T.tsum(T.log_softmax(logits, axis=-1)), -1.0)

    assert T.grad_check(f, [w, b]) <= 1e-6


def test_grad_check_rejects_bad_h():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError):
        T.grad_check(lambda: T.tsum(x), [x], h=1e-2)


# ---------------------------------------------------------------- graph


def test_no_grad_records_nothing():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, 2.0)
    assert y._parents == () and y._backward_fn is None


def test_no_graph_when_inputs_need_no_grad():
    y = T.mul(Tensor(np.ones(3)), Tensor(np.ones(3)))
    assert y._parents == ()


def test_backward_accumulates_through_shared_node():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = T.mul(x, x)          # x appears twice
    y.backward()
    assert abs(float(x.grad) - 4.0) <= 1e-12


def test_double_backward_raises():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = T.mul(x, x)
    y.backward()
    with pytest.raises(T.GraphError):
        y.backward()


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.mul(x, 2.0).backward()


def test_float64_everywhere():
    x = Tensor(np.array([1, 2, 3], dtype=np.int64))
    assert x.data.dtype == np.float64
    assert T.softmax(x).data.dtype == np.float64


# ---------------------------------------------------------------- optimizer


def test_adam_first_step_oracle():
    # After one step from zero moments: update = lr * g / (|g| + eps)
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = np.array([0.3, -0.7])
    opt = T.Adam([p], lr=0.01)
    p.grad = g.copy()
    opt.step()
    expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, atol=1e-12)
    assert p.grad is None  # step() consumes gradients


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(3)
    p = Tensor(rng.normal(size=5), requires_grad=True)
    ref = p.data.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    opt = T.Adam([p], lr=0.05)
    for t in range(1, 6):
        g = rng.normal(size=5)
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.data, ref, atol=1e-12)


def test_adam_decoupled_weight_decay_only_on_marked_params():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    opt = T.Adam([a, b], lr=0.1, weight_decay=0.5, decay=[a])
    a.grad = np.zeros(1)
    b.grad = np.zeros(1)
    opt.step()
    # zero gradient: only the decay term moves a; b must not move
    np.testing.assert_allclose(a.data, [1.0 - 0.1 * 0.5 * 1.0], atol=1e-12)
    np.testing.assert_allclose(b.data, [1.0], atol=1e-12)


def test_adam_skips_params_without_grad():
    a = Tensor(np.array([1.0]), requires_grad=True)
    opt = T.Adam([a], lr=0.1)
    opt.step()
    np.testing.assert_allclose(a.data, [1.0], atol=1e-15)


def test_adam_replace_param():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    opt = T.Adam([a], lr=0.1)
    opt.replace_param(a, b)
    b.grad = np.array([1.0])
    opt.step()
    assert b.data[0] != 2.0
    a.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(a.data, [1.0], atol=1e-15)  # a no longer managed
