"""Loss oracles: cross-entropy, label-description contrastive,
feature/prediction distillation, weighted total, and the growing head."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import leaf.objectives as obj
import leaf.tensor as T
from leaf.tensor import Tensor
from oracles import cosine_similarity


RNG = np.random.default_rng(5)


class StubBank:
    def __init__(self, table):
        self.table = {int(k): [np.asarray(v, dtype=np.float64) for v in vs]
                      for k, vs in table.items()}

    def vectors(self, y):
        return self.table[int(y)]


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
    bank = StubBank({0: [z], 1: [z]})
    feats = Tensor(RNG.normal(size=(3, 6)))
    loss = float(obj.label_contrastive_loss(feats, [0, 1, 0], bank, [0, 1]).data)
    assert abs(loss) <= 1e-9


def test_label_loss_negative_when_gold_descriptions_closer():
    f = np.array([[1.0, 0.0]])
    bank = StubBank({0: [np.array([5.0, 0.0])], 1: [np.array([-5.0, 0.0])]})
    loss = float(obj.label_contrastive_loss(Tensor(f), [0], bank, [0, 1]).data)
    assert loss < 0.0


def test_label_loss_numpy_reference():
    feats = RNG.normal(size=(2, 4))
    bank = StubBank({0: [RNG.normal(size=4) for _ in range(2)],
                     1: [RNG.normal(size=4) for _ in range(3)]})
    gold = [1, 0]
    loss = float(obj.label_contrastive_loss(Tensor(feats), gold, bank, [0, 1]).data)

    def lse(v):
        m = np.max(v)
        return m + np.log(np.sum(np.exp(v - m)))

    ref = 0.0
    for i, y in enumerate(gold):
        own = np.array([feats[i] @ z for z in bank.vectors(y)])
        other = np.array([feats[i] @ z for lab in (0, 1) if lab != y
                          for z in bank.vectors(lab)])
        ref += lse(other) - lse(own)
    ref /= len(gold)
    assert abs(loss - ref) <= 1e-12


def test_label_loss_rejects_gold_label_without_descriptions():
    bank = StubBank({0: [np.ones(3)], 1: [-np.ones(3)], 2: []})
    with pytest.raises(ValueError, match="label 2 has no description vectors"):
        obj.label_contrastive_loss(Tensor(np.ones((2, 3))), [0, 2], bank, [0, 1, 2])


def test_label_loss_requires_two_labels():
    bank = StubBank({0: [np.ones(3)]})
    with pytest.raises(ValueError):
        obj.label_contrastive_loss(Tensor(np.ones((1, 3))), [0], bank, [0])


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
    label = T.mul(Tensor(np.array(1.0), requires_grad=True), 3.0)
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
