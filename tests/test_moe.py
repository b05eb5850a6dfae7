"""Expert pools and routing: top-K oracle, combination weights,
delta computation, and the router loss."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leaf.moe as moe
import leaf.tensor as T
import oracles
from leaf.tensor import Tensor
from oracles import mul, tsum


RNG = np.random.default_rng(11)


def make_pool(M=4, d=6, r=2, rng=None):
    rng = rng or np.random.default_rng(0)
    return moe.init_pools(1, d, M, r, rng)[(0, "q")]


# ---------------------------------------------------------------- pools


def test_init_pools_shapes_and_zero_B():
    pools = moe.init_pools(2, 8, 4, 3, np.random.default_rng(0))
    assert set(pools) == {(0, "q"), (0, "v"), (1, "q"), (1, "v")}
    # the stacked draw is the per-expert draw stream: for each pool in
    # order, one [d_out, r] A per expert, then the routing rows
    rng = np.random.default_rng(0)
    for key in [(0, "q"), (0, "v"), (1, "q"), (1, "v")]:
        pool = pools[key]
        assert pool.A.shape == (4, 8, 3)
        assert pool.B.shape == (4, 3, 8)
        assert pool.routing.shape == (4, 8)
        np.testing.assert_array_equal(pool.B.data, 0.0)
        for m in range(4):
            np.testing.assert_array_equal(pool.A.data[m], rng.normal(0.0, moe.INIT_SD, (8, 3)))
        np.testing.assert_array_equal(pool.routing.data, rng.normal(0.0, moe.INIT_SD, (4, 8)))


def test_init_pools_rejects_oversized_rank():
    with pytest.raises(ValueError):
        moe.init_pools(1, 4, 2, 5, np.random.default_rng(0))


def test_copy_pools_is_detached_deep_copy():
    pools = moe.init_pools(1, 6, 3, 2, np.random.default_rng(0))
    copied = moe.copy_pools(pools)
    src = pools[(0, "q")]
    dup = copied[(0, "q")]
    np.testing.assert_array_equal(src.routing.data, dup.routing.data)
    assert not dup.routing.requires_grad
    assert not dup.A.requires_grad and not dup.B.requires_grad
    dup.A.data[0] = 99.0
    dup.B.data[0] = 99.0
    assert not np.any(src.A.data == 99.0) and not np.any(src.B.data == 99.0)


def test_pool_params_order_is_stable():
    pools = moe.init_pools(2, 4, 2, 2, np.random.default_rng(0))
    params = moe.pool_params(pools)
    # 2 layers x 2 tags x (stacked A, stacked B, routing)
    assert len(params) == 2 * 2 * 3
    assert params is not moe.pool_params(pools)
    assert [id(p) for p in params] == [id(p) for p in moe.pool_params(pools)]


# ---------------------------------------------------------------- top-K


def exhaustive_best_subset(s, K):
    """Oracle: the size-K index set with maximal score sum (ties: the
    lexicographically smallest sorted index tuple)."""
    best = None
    best_sum = -np.inf
    for combo in itertools.combinations(range(len(s)), K):
        total = sum(s[i] for i in combo)
        if total > best_sum + 1e-15:
            best, best_sum = combo, total
    return list(best)


def test_select_topk_matches_exhaustive_on_random_vectors():
    rng = np.random.default_rng(42)
    for _ in range(50):
        M = int(rng.integers(2, 9))
        s = rng.normal(size=M)
        for K in range(1, M + 1):
            assert np.flatnonzero(moe.select_topk(s, K)).tolist() == exhaustive_best_subset(s, K)


def test_select_topk_tie_breaks_to_lower_index():
    assert moe.select_topk(np.array([0.5, 0.5, 0.5]), 2).tolist() == [True, True, False]
    assert moe.select_topk(np.array([0.1, 0.5, 0.5]), 1).tolist() == [False, True, False]


def test_select_topk_output_sorted_and_validated():
    # one boolean mask per row, rows selected independently
    got = moe.select_topk(np.array([[0.1, 0.9, 0.5], [0.7, 0.2, 0.3]]), 2)
    assert got.tolist() == [[False, True, True], [True, False, True]]
    with pytest.raises(ValueError):
        moe.select_topk(np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError):
        moe.select_topk(np.array([1.0, 2.0]), 0)


# ---------------------------------------------------------------- weights


def test_combine_weights_softmax_oracle():
    pool = make_pool(M=3, d=3, r=1)
    pool.routing.data[...] = np.eye(3)  # scores = cls exactly
    mix, records = moe.route_instance({(0, "q"): pool}, np.array([[0.9, 0.1, 0.5]]), K=2)
    assert records[0]["selected"].tolist() == [[True, False, True]]
    e = np.exp([0.9, 0.5])
    np.testing.assert_allclose(mix[(0, "q")].data[0], [e[0] / e.sum(), 0.0, e[1] / e.sum()],
                               atol=1e-12)


def test_route_instance_entries():
    pools = moe.init_pools(2, 6, 4, 2, np.random.default_rng(0))
    cls = RNG.normal(size=(3, 6))
    mix, records = moe.route_instance(pools, cls, K=2)
    assert set(mix) == set(pools)
    assert [r["key"] for r in records] == sorted(pools)
    for record in records:
        key = record["key"]
        assert mix[key].shape == (3, 4)
        assert record["selected"].sum(axis=-1).tolist() == [2, 2, 2]
        np.testing.assert_allclose(mix[key].data.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(mix[key].data[~record["selected"]], 0.0)
        expected = cls @ pools[key].routing.data.T
        np.testing.assert_allclose(record["scores"].data, expected, atol=1e-12)


def test_instance_mix_weights_scatter():
    pools = moe.init_pools(1, 6, 4, 2, np.random.default_rng(0))
    cls = RNG.normal(size=(2, 6))
    mix, records = moe.route_instance(pools, cls, K=2)
    row_mix = mix[(0, "q")].data
    assert row_mix.shape == (2, 4)
    for b in range(2):
        s = pools[(0, "q")].routing.data @ cls[b]
        idx = exhaustive_best_subset(s, 2)
        e = np.exp(s[idx] - s[idx].max())
        np.testing.assert_allclose(row_mix[b, idx], e / e.sum(), atol=1e-12)
        off = [m for m in range(4) if m not in idx]
        np.testing.assert_array_equal(row_mix[b, off], 0.0)


# ---------------------------------------------------------------- deltas


def live_pool(M=3, d=5, r=2):
    pool = make_pool(M=M, d=d, r=r)
    pool.B.data[:] = RNG.normal(size=pool.B.shape)  # init is zero
    return pool


def pool_delta_oracle(pool, x, mix):
    """Per-row, per-expert loop: mix weight times (x B_m^T) A_m^T."""
    ref = np.zeros(x.shape[:-1] + (pool.A.shape[1],))
    for b in range(x.shape[0]):
        for m in range(pool.A.shape[0]):
            w = mix[b, ..., m, None]  # scalar per instance, [S, 1] per token
            ref[b] += w * (x[b] @ pool.B.data[m].T @ pool.A.data[m].T)
    return ref


def test_pool_delta_matches_numpy_reference():
    pool = live_pool(M=3, d=5, r=2)
    x = RNG.normal(size=(2, 4, 5))
    for mix_shape in [(2, 3), (2, 4, 3)]:  # per instance, per token
        mix = RNG.random(size=mix_shape)
        mix[..., 1] = 0.0  # an expert no row selected
        out = moe.pool_delta(pool, Tensor(x), Tensor(mix)).data
        np.testing.assert_allclose(out, pool_delta_oracle(pool, x, mix), atol=1e-12)


@pytest.mark.parametrize("mix_shape", [(2, 3), (2, 4, 3)])
def test_pool_delta_gradcheck(mix_shape):
    pool = live_pool(M=3, d=5, r=2)
    x = Tensor(RNG.normal(size=(2, 4, 5)))
    mix = Tensor(RNG.random(size=mix_shape), requires_grad=True)
    probe = RNG.normal(size=(2, 4, 5))

    def f():
        return tsum(mul(moe.pool_delta(pool, x, mix), Tensor(probe)))

    err = T.grad_check(f, [pool.A, pool.B, mix], rng=np.random.default_rng(0))
    assert err < 1e-7


def test_pool_delta_zero_when_B_zero():
    pool = make_pool(M=2, d=4, r=2)
    x = RNG.normal(size=(1, 3, 4))
    mix = np.array([[0.5, 0.5]])
    out = moe.pool_delta(pool, Tensor(x), Tensor(mix)).data
    np.testing.assert_array_equal(out, 0.0)


def test_record_key_is_the_pools_dict_key():
    """A pool's identity is its (layer, tag) key in the pools dict alone: the
    same tensors under another key route under that key."""
    pool = make_pool()  # built as the (0, "q") pool
    moved = {(1, "v"): moe.ExpertPool(A=pool.A, B=pool.B, routing=pool.routing)}
    _, records = moe.route_instance(moved, RNG.normal(size=(2, 6)), K=2)
    assert [record["key"] for record in records] == [(1, "v")]
    assert moe.copy_pools(moved).keys() == moved.keys()


def test_token_mix_weights_shape_and_selection():
    pool = make_pool(M=4, d=5, r=2)
    x = Tensor(RNG.normal(size=(2, 3, 5)))
    mix, record = moe.token_mix_weights(pool, x, K=2)
    assert mix.shape == (2, 3, 4)
    sel = record["selected"]
    assert sel.sum(axis=-1).min() == 2 and sel.sum(axis=-1).max() == 2
    np.testing.assert_allclose(mix.data.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(mix.data[~sel], 0.0)


# ---------------------------------------------------------------- router loss


def test_router_loss_oracle():
    pools = moe.init_pools(1, 6, 4, 2, np.random.default_rng(0))
    cls = RNG.normal(size=(3, 6))
    _, records = moe.route_instance(pools, cls, K=2)
    loss = float(moe.router_loss(records).data)
    expected = 0.0
    for key in sorted(pools):
        for b in range(3):
            s = pools[key].routing.data @ cls[b]
            expected += s[exhaustive_best_subset(s, 2)].sum()
    expected *= -1.0 / (3 * 2)  # 3 instances, 2 pools
    assert abs(loss - expected) <= 1e-12


def test_router_loss_gradient_raises_selected_scores():
    pools = moe.init_pools(1, 6, 4, 2, np.random.default_rng(0))
    cls = RNG.normal(size=(1, 6))
    _, records = moe.route_instance(pools, cls, K=2)
    loss = moe.router_loss(records)
    loss.backward()
    routing = pools[(0, "q")].routing
    g = routing.grad
    idx = np.flatnonzero(records[0]["selected"][0])
    # gradient descent on -sum(selected) increases selected scores only
    for m in range(4):
        if m in idx:
            assert np.any(g[m] != 0.0)
        else:
            np.testing.assert_array_equal(g[m], 0.0)


def test_router_loss_refuses_mask_of_another_shape():
    """A [B, S] token mask on a [B, 1, M] selection would broadcast to
    [B, S, M] and weigh the one routed row S times."""
    pools = moe.init_pools(1, 6, 4, 2, np.random.default_rng(0))
    _, record = moe.token_mix_weights(pools[(0, "q")], Tensor(RNG.normal(size=(2, 1, 6))), 2)
    record["key"], record["mask"] = (0, "q"), np.ones((2, 3))  # as the encoder sets them
    with pytest.raises(T.ShapeError, match=r"\(0, 'q'\).*\(2, 3\).*\(2, 1\)"):
        moe.router_loss([record])
    record["mask"] = np.ones((2, 1))
    assert np.isfinite(float(moe.router_loss([record]).data))


def test_router_loss_empty():
    assert float(moe.router_loss([]).data) == 0.0


# ---------------------------------------------------------------- properties


def _row_oracle(s, K):
    """Per-row reference: exhaustive top-K, then softmax over the selected
    scores, scattered into a length-M row."""
    idx = exhaustive_best_subset(s, K)
    sel = s[idx]
    soft = np.exp(sel - sel.max())
    row = np.zeros(len(s))
    row[idx] = soft / soft.sum()
    return idx, row


@settings(max_examples=200)
@given(data=st.data())
def test_batched_router_matches_per_row_oracle(data):
    B = data.draw(st.integers(1, 6), label="B")
    M = data.draw(st.integers(1, 6), label="M")
    K = data.draw(st.integers(1, M), label="K")
    # a few coarse values, so rows carry ties and non-positive scores
    scores = np.array(data.draw(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                                                  min_size=M, max_size=M),
                                         min_size=B, max_size=B), label="scores"))
    pool = make_pool(M=M, d=M, r=1)
    pool.routing.data[...] = np.eye(M)  # scores = cls exactly
    mix, records = moe.route_instance({(0, "q"): pool}, scores, K)
    for b in range(B):
        idx, row = _row_oracle(scores[b], K)
        assert np.flatnonzero(records[0]["selected"][b]).tolist() == idx
        np.testing.assert_allclose(mix[(0, "q")].data[b], row, rtol=0.0, atol=1e-12)


def _values_and_grads(loss_fn, params):
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return loss.data, grads


@settings(max_examples=60)
@given(data=st.data(), kind=st.sampled_from(["instance", "token", "cls-row"]),
       seed=st.integers(0, 2**16))
def test_routed_pool_delta_matches_compositions_bit_for_bit(data, kind, seed):
    """Routing, pool delta and router loss give the value and every gradient
    of the compositions the fused nodes replaced, bit for bit: an instance
    mix [B, M] from [CLS] rows, a token mix [B, S, M] with padded positions,
    and the last block's [B, 1, d] row with its own row of the token mix."""
    B, S = data.draw(st.integers(1, 3), label="B"), data.draw(st.integers(1, 4), label="S")
    M = data.draw(st.integers(1, 4), label="M")
    K = data.draw(st.integers(1, M), label="K")
    d = data.draw(st.integers(1, 5), label="d")
    r = data.draw(st.integers(1, min(3, d)), label="r")
    rng = np.random.default_rng(seed)
    pool = moe.init_pools(1, d, M, r, rng)[(0, "q")]
    pool.B.data[...] = rng.normal(0.0, 0.5, pool.B.shape)
    pool.routing.data[...] = rng.normal(0.0, 1.0, pool.routing.shape)
    x = Tensor(rng.normal(size=(B, S, d)), requires_grad=True)
    cls = Tensor(rng.normal(size=(B, d)), requires_grad=True)
    mask = (rng.random((B, S)) < 0.7).astype(float)
    mask[:, 0] = 1.0
    probe = Tensor(rng.normal(size=(B, 1 if kind == "cls-row" else S, d)))

    def loss():
        if kind == "instance":
            mixes, records = moe.route_instance({(0, "q"): pool}, cls, K)
            mix, rows = mixes[(0, "q")], x
        else:
            mix, record = moe.token_mix_weights(pool, x, K)
            record["mask"], records, rows = mask, [record], x
            if kind == "cls-row":
                mix, rows = T.take(mix, [0], axis=1), T.take(x, [0], axis=1)
        delta = moe.pool_delta(pool, rows, mix)
        return T.add(tsum(mul(delta, probe)), moe.router_loss(records))

    params = [x, cls, pool.A, pool.B, pool.routing]
    value, grads = _values_and_grads(loss, params)
    with oracles.composed_ops():
        ref_value, ref_grads = _values_and_grads(loss, params)
    assert np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        assert g is None or np.array_equal(g, ref)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["instance", "token"]),
       seed=st.integers(0, 2**16))
def test_router_loss_matches_composition_bit_for_bit(data, kind, seed):
    """The router loss over every pool gives the value and every gradient of
    the chain it replaced, bit for bit, while each pool's scores also feed
    its mix: instance records, and token records whose mask leaves out
    padded positions, with the router term explored first or last."""
    B, S = data.draw(st.integers(1, 3), label="B"), data.draw(st.integers(1, 4), label="S")
    layers = data.draw(st.integers(1, 2), label="layers")
    M = data.draw(st.integers(1, 4), label="M")
    K = data.draw(st.integers(1, M), label="K")
    d = data.draw(st.integers(1, 4), label="d")
    router_last = data.draw(st.booleans(), label="router last")
    rng = np.random.default_rng(seed)
    pools = moe.init_pools(layers, d, M, 1, rng)
    for pool in pools.values():
        pool.B.data[...] = rng.normal(0.0, 0.5, pool.B.shape)
        pool.routing.data[...] = rng.normal(0.0, 1.0, pool.routing.shape)
    x = Tensor(rng.normal(size=(B, S, d)), requires_grad=True)
    cls = Tensor(rng.normal(size=(B, d)), requires_grad=True)
    mask = (rng.random((B, S)) < 0.6).astype(float)
    mask[:, 0] = 1.0
    probe = Tensor(rng.normal(size=(B, S, d)))

    def loss():
        if kind == "instance":
            mixes, records = moe.route_instance(pools, cls, K)
        else:
            mixes, records = {}, []
            for key in sorted(pools):
                mixes[key], record = moe.token_mix_weights(pools[key], x, K)
                record["key"], record["mask"] = key, mask
                records.append(record)
        fit = None
        for key in sorted(pools):
            term = tsum(mul(moe.pool_delta(pools[key], x, mixes[key]), probe))
            fit = term if fit is None else T.add(fit, term)
        router = moe.router_loss(records)
        return T.add(fit, router) if router_last else T.add(router, fit)

    params = [x, cls] + moe.pool_params(pools)
    value, grads = _values_and_grads(loss, params)
    with oracles.composed_ops(["masked_sums"]):
        ref_value, ref_grads = _values_and_grads(loss, params)
    assert np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        assert g is None or np.array_equal(g, ref)
