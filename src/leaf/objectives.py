"""Training losses: cross-entropy, label-description contrastive,
feature- and prediction-level distillation, and their weighted sum.

All losses are batch means so the alpha weights are independent of
batch size. Snapshot inputs are always detached constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class LossWeights:
    alpha_router: float = 0.01
    alpha_label: float = 0.1
    alpha_fd: float = 1.0
    alpha_pd: float = 1.0

    def __post_init__(self):
        for name in ("alpha_router", "alpha_label", "alpha_fd", "alpha_pd"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class LossBreakdown:
    ce: float = 0.0
    router: float = 0.0
    label: float = 0.0
    fd: float = 0.0
    pd: float = 0.0
    total: float = 0.0


class DetectorHead:
    """Linear classifier over growing global label ids. Rows for old
    classes are copied verbatim on growth."""

    def __init__(self, model_dim: int, rng: np.random.Generator):
        self.model_dim = model_dim
        self.class_order: list[int] = []
        self._row: dict[int, int] = {}
        self.weight = Tensor(np.zeros((0, model_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(0), requires_grad=True)
        self._rng = rng

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def row_of(self, label: int) -> int:
        if label not in self._row:
            raise KeyError(f"label id {label} not in detector head")
        return self._row[label]

    def grow(self, new_labels) -> None:
        """Append rows for unseen global labels; existing rows unchanged."""
        fresh = [y for y in new_labels if y not in self._row]
        if not fresh:
            return
        w_new = self._rng.normal(0.0, 0.02, (len(fresh), self.model_dim))
        weight = Tensor(np.concatenate([self.weight.data, w_new], axis=0),
                        requires_grad=True)
        bias = Tensor(np.concatenate([self.bias.data, np.zeros(len(fresh))]),
                      requires_grad=True)
        self.weight, self.bias = weight, bias
        for y in fresh:
            self._row[y] = len(self.class_order)
            self.class_order.append(y)

    def logits(self, features: Tensor) -> Tensor:
        return T.add(T.matmul(features, T.transpose(self.weight)), self.bias)

    def predict(self, features) -> np.ndarray:
        """Label id of the highest-scoring row for every feature row."""
        with T.no_grad():
            rows = np.argmax(self.logits(features).data, axis=1)
        return np.asarray(self.class_order, dtype=np.int64)[rows]

    def copy(self) -> "DetectorHead":
        dup = DetectorHead.__new__(DetectorHead)
        dup.model_dim = self.model_dim
        dup.class_order = list(self.class_order)
        dup._row = dict(self._row)
        dup.weight = Tensor(self.weight.data.copy())
        dup.bias = Tensor(self.bias.data.copy())
        dup._rng = self._rng
        return dup


def ce_loss(head: DetectorHead, features: Tensor, gold) -> Tensor:
    """Mean -log softmax(head(f))[gold] over the batch."""
    rows = np.asarray([head.row_of(int(y)) for y in gold])
    logits = head.logits(features)
    logp = T.log_softmax(logits, axis=-1)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(rows)), rows] = 1.0
    return T.mul(T.tsum(T.mul(logp, Tensor(onehot))), -1.0 / len(rows))


def label_contrastive_loss(features: Tensor, gold, bank, seen_labels) -> Tensor:
    """Alignment of features with their label's description vectors.

    Per instance: -log[ sum_{z in Z_gold} exp(f.z) / D ] where D sums
    exp(f.z') over the OTHER labels' descriptions (so the loss can go
    negative). All rows at once: both log-sums run over the [B, n_desc]
    similarities, each with the other side masked out.
    """
    seen = sorted(int(y) for y in seen_labels)
    if len(seen) < 2:
        raise ValueError("label contrastive loss needs at least 2 seen labels")
    vec_list = []
    owner = []
    for y in seen:
        for z in bank.vectors(y):
            vec_list.append(z)
            owner.append(y)
    Z = Tensor(np.stack(vec_list, axis=0))          # [n_desc, d]
    owner = np.asarray(owner)
    gold = np.asarray([int(y) for y in gold])
    missing = np.setdiff1d(gold, owner)
    if missing.size:
        raise ValueError(f"label {int(missing[0])} has no description vectors")
    sims = T.matmul(features, T.transpose(Z))       # [B, n_desc]
    is_gold = owner[None, :] == gold[:, None]
    num = T.logsumexp(T.add(sims, Tensor(np.where(is_gold, 0.0, -1e30))), axis=-1)
    den = T.logsumexp(T.add(sims, Tensor(np.where(is_gold, -1e30, 0.0))), axis=-1)
    return T.mul(T.tsum(T.add(den, T.mul(num, -1.0))), 1.0 / len(gold))


def feature_distill_loss(prev_features: np.ndarray, curr_features: Tensor) -> Tensor:
    """Mean (1 - cosine(prev, curr)) over rows, computed as 0.5 |u - v|^2 of
    the unit-normalized rows, so it is >= 0 by construction and exactly 0
    where curr equals prev; prev rows are detached constants."""
    prev = np.asarray(prev_features, dtype=np.float64)
    prev_norm = np.sqrt((prev * prev).sum(axis=-1, keepdims=True))
    curr_norm = T.sqrt(T.tsum(T.mul(curr_features, curr_features), axis=-1, keepdims=True))
    if prev_norm.min() < T.EPS_NORM or curr_norm.data.min() < T.EPS_NORM:
        raise T.DegenerateVectorError(
            f"feature_distill_loss: row norm below {T.EPS_NORM} "
            f"(min |prev|={prev_norm.min():.3g}, min |curr|={curr_norm.data.min():.3g})")
    diff = T.add(T.div(curr_features, curr_norm), Tensor(-(prev / prev_norm)))
    return T.mul(T.tsum(T.mul(diff, diff)), 0.5 / prev.shape[0])


def prediction_distill_loss(prev_head: DetectorHead, prev_features: np.ndarray,
                            curr_head: DetectorHead, curr_features: Tensor,
                            old_labels, temperature: float = 1.0) -> Tensor:
    """Soft-target cross-entropy over the old classes.

    Teacher distribution comes from the snapshot head on snapshot
    features (detached); student uses the same old-class rows of the
    current head at the same temperature.
    """
    old = sorted(int(y) for y in old_labels)
    if not old:
        raise ValueError("prediction distillation needs a non-empty old label set")
    prev_rows = [prev_head.row_of(y) for y in old]
    curr_rows = [curr_head.row_of(y) for y in old]
    with T.no_grad():
        prev_logits = prev_head.logits(Tensor(np.asarray(prev_features))).data[:, prev_rows]
    shifted = prev_logits / temperature
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    p_hat = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    curr_logits = T.take(curr_head.logits(curr_features), curr_rows, axis=1)
    logp = T.log_softmax(T.mul(curr_logits, 1.0 / temperature), axis=-1)
    n = p_hat.shape[0]
    return T.mul(T.tsum(T.mul(logp, Tensor(p_hat))), -1.0 / n)


def total_loss(parts: dict[str, Tensor], weights: LossWeights) -> tuple[Tensor, LossBreakdown]:
    """Weighted combination of the five terms; missing parts count as 0.

    A term with weight 0 is skipped entirely, so disabling it yields a
    graph identical to the sum without that term.
    """
    zero = Tensor(0.0)
    ce = parts.get("ce", zero)
    router = parts.get("router", zero)
    label = parts.get("label", zero)
    fd = parts.get("fd", zero)
    pd = parts.get("pd", zero)
    total = ce
    for term, alpha in ((router, weights.alpha_router), (label, weights.alpha_label),
                        (fd, weights.alpha_fd), (pd, weights.alpha_pd)):
        if alpha != 0.0:
            total = T.add(total, T.mul(term, alpha))
    breakdown = LossBreakdown(
        ce=float(ce.data), router=float(router.data), label=float(label.data),
        fd=float(fd.data), pd=float(pd.data), total=float(total.data))
    return total, breakdown
