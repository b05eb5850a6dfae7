"""Loss oracles: cross-entropy, label-description contrastive,
feature/prediction distillation, weighted total, and the growing head."""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import leaf.moe as moe
import leaf.objectives as obj
import leaf.tensor as T
import oracles
from leaf.descriptions import DescriptionBank
from leaf.tensor import Tensor
from oracles import cosine_similarity, mul


RNG = np.random.default_rng(5)


def stub_bank(table, d):
    """A bank with one row per vector of `table` (label -> vectors)."""
    rows = [(y, np.asarray(v, dtype=np.float64)) for y in sorted(table) for v in table[y]]
    return DescriptionBank([f"desc {y}" for y, _ in rows], np.asarray([y for y, _ in rows]),
                           np.asarray([v for _, v in rows]).reshape(len(rows), d), "")


def fresh_head(labels, d=6, zero=False, rng=None):
    head = obj.DetectorHead(d, rng or np.random.default_rng(0))
    head.grow(labels)
    if zero:
        head.weight.data[:] = 0.0
        head.bias.data[:] = 0.0
    return head


# ---------------------------------------------------------------- head


def test_head_grow_preserves_existing_rows():
    head = fresh_head([10, 11])
    w_before = head.weight.data.copy()
    head.grow([12, 13])
    assert len(head.class_order) == 4
    np.testing.assert_array_equal(head.weight.data[:2], w_before)
    assert head.class_order == [10, 11, 12, 13]
    assert [head.row_of(y) for y in (10, 11, 12, 13)] == [0, 1, 2, 3]


def test_head_grow_ignores_known_labels():
    head = fresh_head([1, 2])
    w = head.weight.data.copy()
    head.grow([2, 1])
    np.testing.assert_array_equal(head.weight.data, w)


def test_head_row_of_unknown_label():
    with pytest.raises(KeyError):
        fresh_head([1]).row_of(99)


def test_head_copy_is_detached():
    head = fresh_head([1, 2])
    dup = head.copy()
    dup.weight.data[:] = 42.0
    assert not np.any(head.weight.data == 42.0)
    assert dup.class_order == head.class_order
    assert not dup.weight.requires_grad


def test_head_logits_linear_oracle():
    head = fresh_head([1, 2, 3])
    x = RNG.normal(size=(4, 6))
    out = head.logits(Tensor(x)).data
    np.testing.assert_allclose(out, x @ head.weight.data.T + head.bias.data, atol=1e-12)


# ---------------------------------------------------------------- ce


def test_ce_uniform_logits_equals_log_nclasses():
    head = fresh_head([0, 1, 2, 3], zero=True)
    feats = Tensor(RNG.normal(size=(5, 6)))
    loss = float(obj.ce_loss(head, feats, [0, 1, 2, 3, 0]).data)
    assert abs(loss - np.log(4.0)) <= 1e-9


def test_ce_matches_numpy_reference():
    head = fresh_head([7, 8, 9])
    feats = RNG.normal(size=(4, 6))
    gold = [8, 7, 9, 8]
    loss = float(obj.ce_loss(head, Tensor(feats), gold).data)
    logits = feats @ head.weight.data.T + head.bias.data
    logp = logits - np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(
        axis=1, keepdims=True)) - logits.max(axis=1, keepdims=True)
    rows = [head.row_of(y) for y in gold]
    ref = -np.mean(logp[np.arange(4), rows])
    assert abs(loss - ref) <= 1e-12


# ---------------------------------------------------------------- label contrastive


def test_label_loss_zero_for_symmetric_bank():
    # both labels share the same single description vector: the gold
    # numerator and other-label denominator coincide -> exactly zero
    z = RNG.normal(size=6)
    bank = stub_bank({0: [z], 1: [z]}, 6)
    feats = Tensor(RNG.normal(size=(3, 6)))
    loss = float(obj.label_contrastive_loss(feats, [0, 1, 0], obj.label_rows(bank, [0, 1])).data)
    assert abs(loss) <= 1e-9


def test_label_loss_negative_when_gold_descriptions_closer():
    f = np.array([[1.0, 0.0]])
    bank = stub_bank({0: [np.array([5.0, 0.0])], 1: [np.array([-5.0, 0.0])]}, 2)
    loss = float(obj.label_contrastive_loss(Tensor(f), [0], obj.label_rows(bank, [0, 1])).data)
    assert loss < 0.0


def test_label_loss_numpy_reference():
    feats = RNG.normal(size=(2, 4))
    table = {0: [RNG.normal(size=4) for _ in range(2)],
             1: [RNG.normal(size=4) for _ in range(3)]}
    bank = stub_bank(table, 4)
    gold = [1, 0]
    loss = float(obj.label_contrastive_loss(Tensor(feats), gold, obj.label_rows(bank, [0, 1])).data)

    def lse(v):
        m = np.max(v)
        return m + np.log(np.sum(np.exp(v - m)))

    ref = 0.0
    for i, y in enumerate(gold):
        own = np.array([feats[i] @ z for z in table[y]])
        other = np.array([feats[i] @ z for lab in (0, 1) if lab != y
                          for z in table[lab]])
        ref += lse(other) - lse(own)
    ref /= len(gold)
    assert abs(loss - ref) <= 1e-12


@settings(max_examples=40)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_label_loss_matches_composition_bit_for_bit(data, seed):
    """The similarities node and the two masked log-sum-exps give the loss
    and the feature gradient of the compositions they replaced, bit for bit."""
    n_labels = data.draw(st.integers(2, 4), label="labels")
    per_label = data.draw(st.lists(st.integers(1, 3), min_size=n_labels, max_size=n_labels),
                          label="descriptions per label")
    B, d = data.draw(st.integers(1, 5), label="B"), data.draw(st.integers(1, 6), label="d")
    rng = np.random.default_rng(seed)
    bank = stub_bank({y: list(rng.normal(size=(k, d))) for y, k in enumerate(per_label)}, d)
    gold = rng.integers(0, n_labels, B).tolist()
    feats = Tensor(rng.normal(size=(B, d)), requires_grad=True)
    runs = []
    for composed in (False, True):
        with oracles.composed_ops() if composed else contextlib.nullcontext():
            loss = obj.label_contrastive_loss(feats, gold, obj.label_rows(bank, range(n_labels)))
        loss.backward()
        runs.append((loss.data, feats.grad))
        feats.grad = None
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_label_loss_rejects_gold_label_without_descriptions():
    bank = stub_bank({0: [np.ones(3)], 1: [-np.ones(3)], 2: []}, 3)
    with pytest.raises(ValueError, match="label 2 has no description vectors"):
        obj.label_contrastive_loss(Tensor(np.ones((2, 3))), [0, 2], obj.label_rows(bank, [0, 1, 2]))


def test_label_loss_requires_two_labels():
    bank = stub_bank({0: [np.ones(3)]}, 3)
    with pytest.raises(ValueError):
        obj.label_contrastive_loss(Tensor(np.ones((1, 3))), [0], obj.label_rows(bank, [0]))


# ---------------------------------------------------------------- distillation


def test_feature_distill_zero_on_identical_features():
    feats = RNG.normal(size=(4, 6))
    loss = float(obj.feature_distill_loss(feats, Tensor(feats.copy())).data)
    assert loss == 0.0


def test_feature_distill_orthogonal_gives_one():
    prev = np.array([[1.0, 0.0], [0.0, 1.0]])
    curr = np.array([[0.0, 2.0], [3.0, 0.0]])
    loss = float(obj.feature_distill_loss(prev, Tensor(curr)).data)
    assert abs(loss - 1.0) <= 1e-12


def test_feature_distill_scale_invariance():
    prev = RNG.normal(size=(3, 5))
    loss = float(obj.feature_distill_loss(prev, Tensor(prev * 7.5)).data)
    assert abs(loss) <= 1e-12


def test_feature_distill_rejects_degenerate_rows():
    prev = RNG.normal(size=(2, 3))
    curr = RNG.normal(size=(2, 3))
    for a, b in ((prev, curr), (curr, prev)):
        bad = a.copy()
        bad[1] = 0.0
        with pytest.raises(T.DegenerateVectorError):
            obj.feature_distill_loss(bad, Tensor(b))
        with pytest.raises(T.DegenerateVectorError):
            obj.feature_distill_loss(b, Tensor(bad))


def test_feature_distill_gradient():
    prev = RNG.normal(size=(3, 5))
    curr = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
    err = T.grad_check(lambda: obj.feature_distill_loss(prev, curr), [curr])
    assert err < 1e-6


@settings(max_examples=200)
@given(data=st.data())
def test_feature_distill_nonnegative_and_matches_cosine_oracle(data):
    B = data.draw(st.integers(1, 5), label="B")
    d = data.draw(st.integers(1, 6), label="d")
    rows = st.lists(st.lists(st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-3),
                             min_size=d, max_size=d), min_size=B, max_size=B)
    prev = np.array(data.draw(rows, label="prev"))
    # curr is prev scaled per row plus an optional perturbation, so the
    # fixed point (where 1 - cos rounds below zero) is drawn often
    scale = np.array(data.draw(st.lists(st.floats(1e-2, 1e2), min_size=B, max_size=B)))
    noise = np.array(data.draw(rows, label="noise"))
    curr = prev * scale[:, None] + data.draw(st.sampled_from([0.0, 1e-9, 1.0])) * noise
    assume(np.linalg.norm(curr, axis=1).min() > 1e-3)
    loss = float(obj.feature_distill_loss(prev, Tensor(curr)).data)
    assert loss >= 0.0
    oracle = np.mean([1.0 - float(cosine_similarity(Tensor(p), Tensor(c)).data)
                      for p, c in zip(prev, curr)])
    assert abs(loss - oracle) <= 1e-12


def test_prediction_distill_self_equals_teacher_entropy():
    head = fresh_head([0, 1, 2])
    feats = RNG.normal(size=(4, 6))
    loss = float(obj.prediction_distill_loss(
        head, feats, head, Tensor(feats.copy()), [0, 1, 2]).data)
    logits = feats @ head.weight.data.T + head.bias.data
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    entropy = float(np.mean(-(p * np.log(p)).sum(axis=1)))
    assert abs(loss - entropy) <= 1e-9


def test_prediction_distill_restricts_to_old_classes():
    prev = fresh_head([0, 1])
    curr = prev.copy()
    curr._rng = np.random.default_rng(1)
    curr.grow([2, 3])  # new classes must not affect the old-class distribution
    feats = RNG.normal(size=(3, 6))
    a = float(obj.prediction_distill_loss(prev, feats, prev, Tensor(feats.copy()), [0, 1]).data)
    b = float(obj.prediction_distill_loss(prev, feats, curr, Tensor(feats.copy()), [0, 1]).data)
    assert abs(a - b) <= 1e-12


def test_prediction_distill_temperature_smooths():
    head = fresh_head([0, 1, 2])
    feats = RNG.normal(size=(2, 6)) * 3

    def max_prob(tau):
        logits = (feats @ head.weight.data.T + head.bias.data) / tau
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        return p.max()

    assert max_prob(2.0) < max_prob(1.0)
    # and the loss stays finite at both temperatures
    for tau in (1.0, 2.0):
        val = float(obj.prediction_distill_loss(
            head, feats, head, Tensor(feats.copy()), [0, 1, 2], temperature=tau).data)
        assert np.isfinite(val)


def test_prediction_distill_needs_old_labels():
    head = fresh_head([0])
    with pytest.raises(ValueError):
        obj.prediction_distill_loss(head, np.ones((1, 6)), head,
                                    Tensor(np.ones((1, 6))), [])


def test_prediction_distill_rejects_nan_teacher():
    head = fresh_head([0, 1])
    prev = np.ones((2, 6))
    prev[1, 0] = np.nan
    with pytest.raises(T.NumericalError, match="softmax"):
        obj.prediction_distill_loss(head, prev, head, Tensor(np.ones((2, 6))), [0, 1])


# ---------------------------------------------------------------- total


def test_total_loss_breakdown_matches_hand_weighted_sum():
    w = obj.LossWeights(alpha_router=0.01, alpha_label=0.1, alpha_fd=1.0, alpha_pd=1.0)
    parts = {name: Tensor(np.array(v)) for name, v in
             [("ce", 1.25), ("router", -0.5), ("label", 0.3), ("fd", 0.07), ("pd", 2.0)]}
    total, breakdown = obj.total_loss(parts, w)
    ref = 1.25 + 0.01 * -0.5 + 0.1 * 0.3 + 1.0 * 0.07 + 1.0 * 2.0
    assert abs(float(total.data) - ref) <= 1e-12
    assert abs(breakdown.total - ref) <= 1e-12
    assert breakdown.ce == 1.25 and breakdown.pd == 2.0


def test_total_loss_skips_zero_weight_terms_exactly():
    w = obj.LossWeights(alpha_router=0.0, alpha_label=0.0, alpha_fd=0.0, alpha_pd=0.0)
    ce = Tensor(np.array(2.0), requires_grad=True)
    label = mul(Tensor(np.array(1.0), requires_grad=True), 3.0)
    total, breakdown = obj.total_loss({"ce": ce, "label": label}, w)
    total.backward()
    assert float(ce.grad) == 1.0
    assert label._parents[0].grad is None  # zero-weight term never entered the graph
    assert breakdown.label == 3.0          # raw part value is still reported
    assert breakdown.total == 2.0          # but the total excludes it


def test_loss_weights_reject_negative_or_nonfinite():
    with pytest.raises(ValueError):
        obj.LossWeights(alpha_fd=-0.1)
    with pytest.raises(ValueError):
        obj.LossWeights(alpha_pd=float("nan"))


# ---------------------------------------------------------------- one node per term

LOSS_NODES = ("soft_ce", "lse_gap", "unit_distance", "masked_sums", "weighted_sum")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_loss_terms_match_compositions_bit_for_bit(data, seed):
    """All five terms and their weighted total, on features that feed every
    term and pass through a routed expert pool, give the value and the
    gradient of every parent of the primitive chains that their nodes
    replaced, bit for bit. Batch size, class counts, temperature and weights
    are drawn (a zero weight drops its term); the old classes' head rows are
    out of label order, so prediction distillation takes permuted columns,
    and its soft targets come in the column-major layout of that gather."""
    B, d = data.draw(st.integers(1, 6), label="B"), data.draw(st.integers(2, 6), label="d")
    n_old = data.draw(st.integers(1, 12), label="old classes")   # 8+ sum rows pairwise
    n_new = data.draw(st.integers(1, 4), label="new classes")
    temperature = data.draw(st.sampled_from([1.0, 0.5, 2.0, 3.0]), label="temperature")
    alphas = data.draw(st.lists(st.sampled_from([0.0, 0.01, 0.1, 1.0, 2.5]),
                                min_size=4, max_size=4), label="alphas")
    rng = np.random.default_rng(seed)
    old = rng.permutation(n_old).tolist()
    labels = list(range(n_old + n_new))
    head = fresh_head(old, d=d, rng=rng)
    snapshot = head.copy()
    snapshot.weight.data[...] += rng.normal(0.0, 0.1, head.weight.shape)
    head.grow(labels[n_old:])
    bank = stub_bank({y: list(rng.normal(size=(int(rng.integers(1, 3)), d))) for y in labels}, d)
    gold = rng.choice(labels, B).tolist()
    prev = rng.normal(size=(B, d))
    pool = moe.init_pools(1, d, 3, 1, rng)[(0, "q")]
    pool.B.data[...] = rng.normal(0.0, 0.5, pool.B.shape)
    x = Tensor(rng.normal(size=(B, d)), requires_grad=True)
    x3 = Tensor(rng.normal(size=(B, 1, d)), requires_grad=True)
    W, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((d, d), (d,)))
    cls = rng.normal(size=(B, d))
    weights = obj.LossWeights(*alphas)
    params = [x, x3, W, b, *head.params(), *pool.params()]

    def run():
        for p in params:
            p.grad = None
        mixes, records = moe.route_instance({(0, "q"): pool}, cls, 2)
        delta = T.take(moe.pool_delta(pool, x3, mixes[(0, "q")]), 0, axis=1)
        feats = T.add(T.linear(x, W, b), delta)
        parts = {"ce": obj.ce_loss(head, feats, gold), "router": moe.router_loss(records),
                 "label": obj.label_contrastive_loss(feats, gold, obj.label_rows(bank, labels)),
                 "fd": obj.feature_distill_loss(prev, feats),
                 "pd": obj.prediction_distill_loss(snapshot, prev, head, feats, old, temperature)}
        total, _ = obj.total_loss(parts, weights)
        total.backward()
        return [total.data, *(p.grad for p in params)]

    fused = run()
    with oracles.composed_ops(LOSS_NODES):
        composed = run()
    for got, want in zip(fused, composed):
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)
