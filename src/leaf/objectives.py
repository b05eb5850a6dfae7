"""Training losses: cross-entropy, label-description contrastive,
feature- and prediction-level distillation, and their weighted sum.

All losses are batch means so the alpha weights are independent of
batch size. Snapshot inputs are always detached constants.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

# The loss terms in the order total_loss adds them; every term after "ce"
# is weighted by the LossWeights field alpha_<name>.
LOSS_TERMS = ("ce", "router", "label", "fd", "pd")


@dataclass
class LossWeights:
    alpha_router: float = 0.01
    alpha_label: float = 0.1
    alpha_fd: float = 1.0
    alpha_pd: float = 1.0

    def __post_init__(self):
        for name in LOSS_TERMS[1:]:
            v = getattr(self, f"alpha_{name}")
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"alpha_{name} must be finite and >= 0, got {v}")


# Raw value of every term, then the weighted total.
LossBreakdown = make_dataclass("LossBreakdown",
                               [(name, float) for name in (*LOSS_TERMS, "total")])


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
        return T.linear(features, self.weight, self.bias)

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
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(rows)), rows] = 1.0
    return T.soft_ce(logits, onehot)


def label_rows(bank, seen_labels) -> tuple[np.ndarray, np.ndarray]:
    """The bank's description vectors of the seen labels and the label of
    each, the constants of `label_contrastive_loss` for one label set."""
    seen = sorted(int(y) for y in seen_labels)
    if len(seen) < 2:
        raise ValueError("label contrastive loss needs at least 2 seen labels")
    rows = np.isin(bank.labels, seen)
    return bank.vectors[rows], bank.labels[rows]


def label_contrastive_loss(features: Tensor, gold, rows) -> Tensor:
    """Alignment of features with their label's description vectors.

    Per instance: -log[ sum_{z in Z_gold} exp(f.z) / D ] where D sums
    exp(f.z') over the OTHER labels' descriptions (so the loss can go
    negative). `rows` is `label_rows` of the seen labels. All rows at once:
    both log-sums run over the [B, n_desc] similarities, each with the
    other side masked out.
    """
    vectors, owner = rows
    gold = np.asarray([int(y) for y in gold])
    is_gold = owner[None, :] == gold[:, None]
    has_rows = is_gold.any(axis=1)
    if not has_rows.all():
        raise ValueError(f"label {int(gold[~has_rows].min())} has no description vectors")
    return T.lse_gap(T.scores(features, vectors), is_gold)   # sims: [B, n_desc]


def feature_distill_loss(prev_features: np.ndarray, curr_features: Tensor) -> Tensor:
    """Mean (1 - cosine(prev, curr)) over rows, computed as 0.5 |u - v|^2 of
    the unit-normalized rows, so it is >= 0 by construction and exactly 0
    where curr equals prev; prev rows are detached constants."""
    prev = np.asarray(prev_features, dtype=np.float64)
    prev_norm = np.sqrt((prev * prev).sum(axis=-1, keepdims=True))
    if prev_norm.min() < T.EPS_NORM:
        raise T.DegenerateVectorError(
            f"feature_distill_loss: row norm below {T.EPS_NORM} "
            f"(min |prev|={prev_norm.min():.3g})")
    return T.unit_distance(curr_features, -(prev / prev_norm))


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
        p_hat = T.softmax(prev_logits / temperature).data
    return T.soft_ce(curr_head.logits(curr_features), p_hat, curr_rows, 1.0 / temperature)


def total_loss(parts: dict[str, Tensor], weights: LossWeights) -> tuple[Tensor, LossBreakdown]:
    """Weighted combination of the LOSS_TERMS; missing parts count as 0.

    A term with weight 0 is skipped entirely, so disabling it yields a
    graph identical to the sum without that term.
    """
    zero = Tensor(0.0)
    terms = {name: parts.get(name, zero) for name in LOSS_TERMS}
    used = [name for name in LOSS_TERMS[1:] if getattr(weights, f"alpha_{name}") != 0.0]
    total = T.weighted_sum(terms["ce"], [terms[name] for name in used],
                           [getattr(weights, f"alpha_{name}") for name in used])
    return total, LossBreakdown(**{name: float(t.data) for name, t in terms.items()},
                                total=float(total.data))
