"""Autodiff engine tests: forward oracles, hand-checked gradients,
finite-difference verification, graph bookkeeping, and the optimizer."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

import leaf.tensor as T
import oracles
from leaf.tensor import Tensor
from oracles import (cosine_similarity, div, exp, log, log_softmax, matmul, mul, reshape,
                     sqrt, transpose, tsum)


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

# `matmul`, `transpose`, `reshape`, `exp` and `log` are the test-side nodes
# (oracles.py) that the compositions replaced by fused nodes are built from.


def test_matmul_matches_triple_loop():
    a = RNG.normal(size=(4, 5))
    b = RNG.normal(size=(5, 3))
    out = matmul(Tensor(a), Tensor(b)).data
    ref = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                ref[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_matmul_batched():
    a = RNG.normal(size=(2, 4, 5))
    b = RNG.normal(size=(5, 3))
    out = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(out, a @ b, atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(T.ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


@pytest.mark.parametrize("a_shape,b_shape", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,)),
                                             ((), (2, 2))])
def test_matmul_rejects_operand_below_2_dims(a_shape, b_shape):
    with pytest.raises(T.ShapeError, match="at least 2 dims"):
        matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


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
        log_softmax(x)
    q = Tensor(np.array([[[0.0, np.nan]]]))
    with pytest.raises(T.NumericalError):
        T.attention(q, q, q, np.zeros((1, 1, 1, 1)), 1)


def test_softmax_shift_invariance():
    x = RNG.normal(size=(3, 6))
    np.testing.assert_allclose(
        T.softmax(Tensor(x)).data, T.softmax(Tensor(x + 1000.0)).data, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    x = RNG.normal(size=(4, 5))
    np.testing.assert_allclose(
        log_softmax(Tensor(x)).data, np.log(T.softmax(Tensor(x)).data), atol=1e-12)


def test_logsumexp_oracle():
    x = RNG.normal(size=7) * 50  # large values: naive exp would overflow float32
    expected = np.log(np.sum(np.exp(x - x.max()))) + x.max()
    out = float(oracles.logsumexp(Tensor(x)).data)
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


def test_erf_is_scipys_byte_for_byte():
    """`T.erf`, loaded from SciPy's one extension module, against the
    package's export: edge values, then 10⁶ normal draws per scale."""
    from scipy.special import erf
    edges = np.array([0.0, -0.0, 1.0, -1.0, 8.0, -8.0, np.inf, -np.inf, np.nan, 5e-324,
                      -5e-324, 30.0, -30.0, 1e300, -1e300])
    rng = np.random.default_rng(27)
    for x in (edges, *(scale * rng.standard_normal(10**6) for scale in (0.5, 2.0, 10.0))):
        np.testing.assert_array_equal(T.erf(x).view(np.int64), erf(x).view(np.int64))


def test_erf_loader_falls_back_to_the_package_import(tmp_path, monkeypatch):
    import importlib
    import sys

    import scipy.special
    # a directory without the extension
    assert T._load_erf([str(tmp_path)]) is scipy.special.erf
    # an extension without `erf`, loaded as the process's first copy
    (tmp_path / "_special_ufuncs.py").write_text("")
    importlib.invalidate_caches()
    monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs")
    assert T._load_erf([str(tmp_path)]) is scipy.special.erf
    assert sys.modules["scipy.special._special_ufuncs"].__file__ == str(
        tmp_path / "_special_ufuncs.py")


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
    assert_grads_match(lambda: tsum(mul(T.add(a, b), T.add(a, b))), [a, b])


def test_grad_matmul():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    assert_grads_match(lambda: tsum(matmul(a, b)), [a, b])


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
        return tsum(log_softmax(tsum(emb, axis=1), axis=-1))

    assert_grads_match(f, [table])


def test_grad_layer_norm():
    x = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    gain = Tensor(RNG.normal(size=5), requires_grad=True)
    bias = Tensor(RNG.normal(size=5), requires_grad=True)
    assert_grads_match(
        lambda: tsum(mul(T.layer_norm(x, gain, bias), T.layer_norm(x, gain, bias))),
        [x, gain, bias], tol=1e-5)


def test_grad_gelu_exp_log_sqrt_div():
    x = Tensor(np.abs(RNG.normal(size=6)) + 0.5, requires_grad=True)
    y = Tensor(np.abs(RNG.normal(size=6)) + 0.5, requires_grad=True)

    def f():
        out = T.gelu(x)
        out = T.add(out, T.gelu(mul(y, -1.0)))
        out = T.add(out, div(exp(mul(x, 0.1)), y))
        out = T.add(out, log(T.add(x, 1.0)))
        out = T.add(out, sqrt(y))
        return tsum(mul(out, out))

    assert_grads_match(f, [x, y], tol=1e-5)


def test_grad_cosine_and_take():
    u = Tensor(RNG.normal(size=4), requires_grad=True)
    v = Tensor(RNG.normal(size=4), requires_grad=True)

    def f():
        picked = T.take(u, [0, 2, 2, 3])  # a repeated index accumulates
        return T.add(cosine_similarity(u, v),
                     tsum(mul(picked, v)))

    assert_grads_match(f, [u, v], tol=1e-5)


# Random shapes: every property checks the analytic gradient of a weighted
# sum of the op's output (so each output element has its own weight) by
# central differences.


def weighted_sum(out: Tensor, seed: int) -> Tensor:
    w = np.random.default_rng(seed).normal(size=out.shape)
    return tsum(mul(out, Tensor(w)))


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
    fn = {"add": T.add, "mul": mul, "div": div}[op]
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
    out = matmul(a, b)
    np.testing.assert_allclose(out.data, a.data @ b.data, rtol=0.0, atol=1e-12)
    assert out.shape == batch.result_shape + (m, n)
    assert T.grad_check(lambda: weighted_sum(matmul(a, b), seed), [a, b]) <= 1e-6


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


@settings(max_examples=40)
@given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 5)), seed=st.integers(0, 2**16))
def test_linear_matches_unfused_and_grad(lead, dims, seed):
    d_in, d_out = dims
    x = random_param(tuple(lead) + (d_in,), seed)
    w = random_param((d_out, d_in), seed + 1)
    b = random_param((d_out,), seed + 2)
    unfused = T.add(matmul(x, transpose(w)), b)
    assert np.array_equal(T.linear(x, w, b).data, unfused.data)
    assert T.grad_check(lambda: weighted_sum(T.linear(x, w, b), seed), [x, w, b]) <= 1e-6


def unfused_attention(q, k, v, key_bias, heads):
    """The composition of primitives that T.attention replaces."""
    bsz, q_len, d = q.shape
    hd = d // heads

    def split(t):
        return transpose(reshape(t, (bsz, t.shape[1], heads, hd)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = mul(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    att = T.softmax(T.add(scores, Tensor(key_bias)), axis=-1)
    return reshape(transpose(matmul(att, vh), (0, 2, 1, 3)), (bsz, q_len, d))


@st.composite
def attention_cases(draw):
    """(B, query rows, key rows, heads, head dim, real key lengths): the
    query has one row (the encoder's last block) or one per key; the first
    row always has padded keys."""
    bsz, seq = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    q_len = draw(st.sampled_from([1, seq]))
    heads, hd = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lengths = [draw(st.integers(1, seq - 1))]
    lengths += draw(st.lists(st.integers(1, seq), min_size=bsz - 1, max_size=bsz - 1))
    return bsz, q_len, seq, heads, hd, lengths


@settings(max_examples=40)
@given(case=attention_cases(), seed=st.integers(0, 2**16))
def test_attention_matches_unfused_and_grad(case, seed):
    bsz, q_len, seq, heads, hd, lengths = case
    real = np.arange(seq)[None, :] < np.asarray(lengths)[:, None]
    key_bias = np.where(real, 0.0, T.MASK_BIAS)[:, None, None, :]
    q = random_param((bsz, q_len, heads * hd), seed)
    k, v = (random_param((bsz, seq, heads * hd), seed + i) for i in (1, 2))
    out = T.attention(q, k, v, key_bias, heads)
    assert np.array_equal(out.data, unfused_attention(q, k, v, key_bias, heads).data)
    assert T.grad_check(lambda: weighted_sum(T.attention(q, k, v, key_bias, heads), seed),
                        [q, k, v]) <= 1e-6


def values_and_grads(build, params, seed):
    """build()'s value and the gradients of a weighted sum of it."""
    for p in params:
        p.grad = None
    out = build()
    weighted_sum(out, seed).backward()
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return out.data, grads


def assert_bit_identical(fused, composed, params, seed):
    """Same value and the same gradient for every parameter, bit for bit."""
    value, grads = values_and_grads(fused, params, seed)
    ref_value, ref_grads = values_and_grads(composed, params, seed)
    assert np.array_equal(value, ref_value)
    for p, g, ref in zip(params, grads, ref_grads):
        assert g is not None and ref is not None and g.shape == p.shape
        assert np.array_equal(g, ref)


@st.composite
def lora_cases(draw):
    """(N, S, M, r, d, mix shape): one mix weight per row [N, M] or per
    position [N, S, M]; S = 1 is the last block's [CLS] row."""
    n, s, M = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r, d = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    return n, s, M, r, d, draw(st.sampled_from([(n, M), (n, s, M)]))


@settings(max_examples=40)
@given(case=lora_cases(), seed=st.integers(0, 2**16))
def test_lora_matches_composition_and_grad(case, seed):
    n, s, M, r, d, mix_shape = case
    x = random_param((n, s, d), seed)
    A, B = random_param((M, d, r), seed + 1), random_param((M, r, d), seed + 2)
    mix = random_param(mix_shape, seed + 3)
    pool = SimpleNamespace(A=A, B=B)
    assert_bit_identical(lambda: T.lora(x, A, B, mix),
                         lambda: oracles.pool_delta(pool, x, mix), [x, A, B, mix], seed)
    assert T.grad_check(lambda: weighted_sum(T.lora(x, A, B, mix), seed),
                        [x, A, B, mix]) <= 1e-6


def test_lora_rejects_mismatched_shapes():
    x, mix = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 2)))
    with pytest.raises(T.ShapeError, match="lora shapes"):
        T.lora(x, Tensor(np.ones((2, 4, 3))), Tensor(np.ones((2, 4, 3))), mix)
    with pytest.raises(T.ShapeError, match="lora shapes"):
        T.lora(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4, 3))),
               Tensor(np.ones((2, 3, 4))), mix)


@settings(max_examples=40)
@given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 5)), seed=st.integers(0, 2**16))
def test_scores_matches_composition_and_grad(lead, dims, seed):
    d, n = dims
    x = random_param(tuple(lead) + (d,), seed)
    w = random_param((n, d), seed + 1)
    assert_bit_identical(lambda: T.scores(x, w), lambda: oracles.scores(x, w), [x, w], seed)
    assert T.grad_check(lambda: weighted_sum(T.scores(x, w), seed), [x, w]) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 200), n=st.integers(1, 40), d=st.sampled_from([4, 16, 64]),
       seed=st.integers(0, 2**16))
def test_scores_rows_do_not_depend_on_the_batch(rows, n, d, seed):
    """Each row's scores are its single-row scores, byte for byte."""
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=(rows, d)), rng.normal(size=(n, d))
    batch = T.scores(x, w).data
    assert batch.shape == (rows, n)
    for i in range(rows):
        assert T.scores(x[i:i + 1], w).data.tobytes() == batch[i].tobytes(), i


@settings(max_examples=60)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 5)),
       op=st.sampled_from(["softmax", "logsumexp"]), masked=st.booleans(),
       seed=st.integers(0, 2**16))
def test_masked_softmax_and_logsumexp_match_compositions_and_grad(shape, op, masked, seed):
    """A bias of -1e30 masks entries out, as routing and the label loss do;
    every row keeps at least one entry."""
    rng = np.random.default_rng(seed)
    keep = rng.random(shape) < 0.5
    keep[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] = True
    bias = np.where(keep, 0.0, T.MASK_BIAS) if masked else None
    a = random_param(shape, seed)
    fused, composed = {"softmax": (T.softmax, oracles.softmax),
                       "logsumexp": (oracles.logsumexp, oracles.composed_logsumexp)}[op]
    assert_bit_identical(lambda: fused(a, axis=-1, bias=bias),
                         lambda: composed(a, axis=-1, bias=bias), [a], seed)
    assert T.grad_check(lambda: weighted_sum(fused(a, axis=-1, bias=bias), seed), [a]) <= 1e-6


def test_grad_check_utility_on_composite():
    w = Tensor(RNG.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=5), requires_grad=True)
    x = RNG.normal(size=(3, 4))

    def f():
        logits = T.add(matmul(Tensor(x), transpose(w)), b)
        return mul(tsum(log_softmax(logits, axis=-1)), -1.0)

    assert T.grad_check(f, [w, b]) <= 1e-6


def test_grad_check_raises_on_non_finite_gradient_or_difference():
    """A NaN analytic gradient at one coordinate, or a NaN difference at a
    perturbed point, fails the check instead of dropping out of the max."""
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    bad = np.array([2.0, np.nan, 2.0])

    def nan_gradient():
        return tsum(T._node(2.0 * x.data, (x,), lambda g: x.accumulate_grad(g * bad)))

    with pytest.raises(T.NumericalError, match="gradient nan"):
        T.grad_check(nan_gradient, [x])
    y = Tensor(np.array([1.0, 1e-6]), requires_grad=True)  # sqrt(1e-6 - h) is NaN
    with np.errstate(invalid="ignore"), pytest.raises(T.NumericalError, match="difference nan"):
        T.grad_check(lambda: tsum(sqrt(y)), [y])


def test_grad_check_rejects_bad_h():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError):
        T.grad_check(lambda: tsum(x), [x], h=1e-2)


# ---------------------------------------------------------------- graph


def test_no_grad_records_nothing():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = mul(x, 2.0)
    assert y._parents == () and y._backward_fn is None


def test_no_graph_when_inputs_need_no_grad():
    y = mul(Tensor(np.ones(3)), Tensor(np.ones(3)))
    assert y._parents == ()


@pytest.mark.parametrize("op", ["add", "mul", "div", "matmul", "linear", "scores", "lora",
                                "attention", "layer_norm"])
def test_backward_skips_operands_that_need_no_grad(op):
    """Only the operand that requires grad receives one; constants get none."""
    x = Tensor(RNG.normal(size=(2, 3, 4)) + 3.0, requires_grad=True)
    consts = [Tensor(RNG.normal(size=s) + 3.0)
              for s in [(4, 4), (4,), (2, 3, 4), (2, 4, 3), (2, 2)]]
    call = {
        "add": lambda: T.add(x, consts[1]),
        "mul": lambda: mul(consts[1], x),
        "div": lambda: div(x, consts[1]),
        "matmul": lambda: matmul(x, consts[0]),
        "linear": lambda: T.linear(x, consts[0], consts[1]),
        "scores": lambda: T.scores(x, consts[0]),
        "lora": lambda: T.lora(x, consts[3], consts[2], consts[4]),
        "attention": lambda: T.attention(consts[2], x, consts[2], np.zeros((2, 1, 1, 3)), 2),
        "layer_norm": lambda: T.layer_norm(x, consts[1], consts[1]),
    }[op]
    tsum(call()).backward()
    assert x.grad is not None and x.grad.shape == x.shape
    assert all(c.grad is None for c in consts)


def test_backward_accumulates_through_shared_node():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = mul(x, x)          # x appears twice
    y.backward()
    assert abs(float(x.grad) - 4.0) <= 1e-12


def test_double_backward_raises():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = mul(x, x)
    y.backward()
    with pytest.raises(T.GraphError):
        y.backward()


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(T.ShapeError):
        mul(x, 2.0).backward()


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


def test_adam_refuses_a_param_without_grad():
    """A missing gradient raises before the step count, a value (decay
    included) or a moment moves."""
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0]), requires_grad=True)
    opt = T.Adam([a, b], lr=0.1, weight_decay=0.5, decay=[a])
    a.grad, b.grad = np.array([0.5, -1.0]), np.array([2.0])
    opt.step()
    before = [opt.step_count, a.data.copy(), b.data.copy(), opt._m.copy(), opt._v.copy()]
    a.grad = np.array([1.0, 1.0])
    with pytest.raises(T.GraphError, match=r"parameter 1 \(shape \(1,\)\) has no gradient"):
        opt.step()
    assert opt.step_count == before[0]
    for got, want in zip([a.data, b.data, opt._m, opt._v], before[1:]):
        assert np.array_equal(got, want)


def test_adam_replace_param():
    """`set_params` with a's place taken by b: b is managed, a is not."""
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    opt = T.Adam([a], lr=0.1)
    opt.set_params([b])
    b.grad = np.array([1.0])
    opt.step()
    assert b.data[0] != 2.0
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(a.data, [1.0], atol=1e-15)  # a no longer managed


def reference_adam_step(p, g, m, v, t, lr, decay=0.0):
    """One step of the per-parameter update as it was written before the flat
    buffers, including its order of operations."""
    if decay > 0.0:
        p -= lr * decay * p
    m[...] = 0.9 * m + (1.0 - 0.9) * g
    v[...] = 0.999 * v + (1.0 - 0.999) * g * g
    p -= lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)


@pytest.mark.parametrize("block", [3, 5, None], ids=["block-3", "block-5", "default"])
def test_flat_adam_matches_per_parameter_reference_bit_for_bit(block, monkeypatch):
    """Decay on "d"; "idle" has an all-zero gradient until step 5, as a
    single expert's routing row has, so it keeps its value and zero moments
    until then; "head" is replaced at step 3 through
    `set_params`, as head growth does: the grown head starts from zero
    moments, the other parameters keep theirs, and "d" keeps its decay.
    Updated in blocks of 3 or 5 elements, block edges fall inside a
    parameter and next to the idle one."""
    if block is not None:
        monkeypatch.setattr(T, "ADAM_BLOCK", block)
    rng = np.random.default_rng(11)
    shapes = {"w": (3, 4), "d": (5,), "idle": (2, 2), "head": (2, 3)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)] for k, p in params.items()}
    opt = T.Adam(list(params.values()), lr=0.05, weight_decay=0.3, decay=[params["d"]])
    for t in range(1, 6):
        if t == 3:
            grown = Tensor(np.concatenate([params["head"].data, rng.normal(size=(1, 3))]),
                           requires_grad=True)
            params["head"] = grown
            opt.set_params(params.values())
            ref["head"] = [grown.data.copy(), np.zeros((3, 3)), np.zeros((3, 3))]
        for name, p in params.items():
            p.grad = np.zeros(p.shape) if name == "idle" and t < 5 else rng.normal(size=p.shape)
            ref_p, m, v = ref[name]
            reference_adam_step(ref_p, p.grad, m, v, t, 0.05, 0.3 if name == "d" else 0.0)
        opt.step()
        for name, p in params.items():
            assert np.array_equal(p.data, ref[name][0]), (name, t)
            assert p.grad is None


def test_adam_sees_in_place_writes_to_param_data():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = T.Adam([p], lr=0.01)
    p.data[...] = [5.0, -5.0]
    g = np.array([0.3, -0.7])
    p.grad = g.copy()
    opt.step()
    expected = np.array([5.0, -5.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, atol=1e-12)
