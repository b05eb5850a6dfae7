"""Expert pools and routing: top-K oracle, combination weights,
delta computation, and the router loss."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leaf.moe as moe
import leaf.tensor as T
from leaf.tensor import Tensor


RNG = np.random.default_rng(11)


def make_pool(M=4, d=6, r=2, rng=None):
    rng = rng or np.random.default_rng(0)
    return moe.init_pools(1, d, M, r, rng)[(0, "q")]


# ---------------------------------------------------------------- pools


def test_init_pools_shapes_and_zero_B():
    pools = moe.init_pools(2, 8, 4, 3, np.random.default_rng(0))
    assert set(pools) == {(0, "q"), (0, "v"), (1, "q"), (1, "v")}
    for pool in pools.values():
        assert pool.routing.shape == (4, 8)
        for e in pool.experts:
            assert e.A.shape == (8, 3)
            assert e.B.shape == (3, 8)
            np.testing.assert_array_equal(e.B.data, 0.0)
            assert e.rank == 3


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
    dup.experts[0].A.data[:] = 99.0
    assert not np.any(src.experts[0].A.data == 99.0)


def test_pool_params_order_is_stable():
    pools = moe.init_pools(2, 4, 2, 2, np.random.default_rng(0))
    params = moe.pool_params(pools)
    # 2 layers x 2 tags x (2 experts x 2 factors + routing)
    assert len(params) == 2 * 2 * (2 * 2 + 1)
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
    scores = Tensor(np.array([0.9, 0.1, 0.5]))
    w, fallback = moe.combine_weights(scores, np.array([True, False, True]), mode="softmax")
    e = np.exp([0.9, 0.5])
    np.testing.assert_allclose(w.data, [e[0] / e.sum(), 0.0, e[1] / e.sum()], atol=1e-12)
    assert not fallback


def test_combine_weights_paper_literal():
    scores = Tensor(np.array([3.0, 1.0, 4.0]))
    w, fallback = moe.combine_weights(scores, np.array([True, False, True]),
                                      mode="paper-literal")
    np.testing.assert_allclose(w.data, [3 / 7, 0.0, 4 / 7], atol=1e-12)
    assert not fallback


def test_combine_weights_paper_literal_fallback_on_nonpositive():
    scores = Tensor(np.array([[-1.0, 2.0], [1.0, 3.0]]))
    w, fallback = moe.combine_weights(scores, np.ones((2, 2), dtype=bool),
                                      mode="paper-literal")
    assert fallback.tolist() == [True, False]
    e = np.exp([-1.0, 2.0])
    np.testing.assert_allclose(w.data[0], e / e.sum(), atol=1e-12)
    np.testing.assert_allclose(w.data[1], [0.25, 0.75], atol=1e-12)


def test_combine_weights_unknown_mode():
    with pytest.raises(ValueError):
        moe.combine_weights(Tensor(np.ones(2)), np.array([True, False]), mode="mystery")


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


def test_pool_delta_matches_numpy_reference():
    pool = make_pool(M=3, d=5, r=2)
    for e in pool.experts:  # give B real values; init is zero
        e.B.data[:] = RNG.normal(size=e.B.shape)
    x = RNG.normal(size=(2, 4, 5))
    mix = RNG.random(size=(2, 3))
    out = moe.pool_delta(pool, Tensor(x), Tensor(mix)).data
    ref = np.zeros_like(x)
    for b in range(2):
        for m, e in enumerate(pool.experts):
            ref[b] += mix[b, m] * (x[b] @ e.B.data.T @ e.A.data.T)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_pool_delta_zero_when_B_zero():
    pool = make_pool(M=2, d=4, r=2)
    x = RNG.normal(size=(1, 3, 4))
    mix = np.array([[0.5, 0.5]])
    out = moe.pool_delta(pool, Tensor(x), Tensor(mix)).data
    np.testing.assert_array_equal(out, 0.0)


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


def test_router_loss_empty():
    assert float(moe.router_loss([]).data) == 0.0


# ---------------------------------------------------------------- properties


def _row_oracle(s, K, mode):
    """Per-row reference: exhaustive top-K, then softmax or s/sum with the
    softmax fallback, scattered into a length-M row."""
    idx = exhaustive_best_subset(s, K)
    sel = s[idx]
    soft = np.exp(sel - sel.max())
    soft /= soft.sum()
    fallback = mode == "paper-literal" and ((sel <= 0).any() or sel.sum() < 1e-6)
    w = sel / sel.sum() if mode == "paper-literal" and not fallback else soft
    row = np.zeros(len(s))
    row[idx] = w
    return idx, row, fallback


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["softmax", "paper-literal"]))
def test_batched_router_matches_per_row_oracle(data, mode):
    B = data.draw(st.integers(1, 6), label="B")
    M = data.draw(st.integers(1, 6), label="M")
    K = data.draw(st.integers(1, M), label="K")
    # a few coarse values, so rows carry ties and non-positive scores
    scores = np.array(data.draw(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                                                  min_size=M, max_size=M),
                                         min_size=B, max_size=B), label="scores"))
    pool = make_pool(M=M, d=M, r=1)
    pool.routing.data[...] = np.eye(M)  # scores = cls exactly
    mix, records = moe.route_instance({(0, "q"): pool}, scores, K, mode)
    _, fallback = moe.combine_weights(records[0]["scores"], records[0]["selected"], mode)
    for b in range(B):
        idx, row, fb = _row_oracle(scores[b], K, mode)
        assert np.flatnonzero(records[0]["selected"][b]).tolist() == idx
        np.testing.assert_allclose(mix[(0, "q")].data[b], row, rtol=0.0, atol=1e-12)
        assert bool(fallback[b]) == fb
