"""LoRA expert pools and the instance-level semantic router.

Each adapted attention projection carries a pool of M low-rank experts
plus an M x d routing matrix. Scores are dot products between routing
rows and the frozen-backbone [CLS] vector; the top-K experts by score
are combined with normalized weights. A per-token routing mode is kept
around as a comparison baseline. Both route a whole batch at once: one
score matmul, top-K mask and combine per pool, on [B, d] [CLS] rows or
[B, S, d] hidden states alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

logger = logging.getLogger(__name__)

INIT_SD = 0.02  # A factors and routing rows; B stays zero so the initial delta is zero


@dataclass
class ExpertPool:
    A: Tensor        # [M, d, r], expert m's up-projection is A[m]
    B: Tensor        # [M, r, d], expert m's down-projection is B[m]
    routing: Tensor  # [M, d], row k scores expert k
    layer_index: int
    projection_tag: str

    def params(self) -> list[Tensor]:
        return [self.A, self.B, self.routing]


def init_pools(num_layers: int, d: int, num_experts: int, rank: int,
               rng: np.random.Generator,
               projections=("q", "v")) -> dict[tuple[int, str], ExpertPool]:
    """One d -> d pool per (layer, adapted projection); B=0 so deltas start
    at zero."""
    if rank > d:
        raise ValueError(f"rank {rank} exceeds model dim {d}")
    pools = {}
    for l in range(num_layers):
        for tag in projections:
            A = Tensor(rng.normal(0.0, INIT_SD, (num_experts, d, rank)), requires_grad=True)
            B = Tensor(np.zeros((num_experts, rank, d)), requires_grad=True)
            routing = Tensor(rng.normal(0.0, INIT_SD, (num_experts, d)), requires_grad=True)
            pools[(l, tag)] = ExpertPool(A=A, B=B, routing=routing,
                                         layer_index=l, projection_tag=tag)
    return pools


def pool_params(pools) -> list[Tensor]:
    out = []
    for key in sorted(pools):
        out.extend(pools[key].params())
    return out


def routing_params(pools) -> list[Tensor]:
    return [pools[key].routing for key in sorted(pools)]


def copy_pools(pools) -> dict[tuple[int, str], ExpertPool]:
    """Deep copy with gradients detached (requires_grad stays False)."""
    return {key: ExpertPool(A=Tensor(pool.A.data.copy()), B=Tensor(pool.B.data.copy()),
                            routing=Tensor(pool.routing.data.copy()),
                            layer_index=pool.layer_index, projection_tag=pool.projection_tag)
            for key, pool in pools.items()}


def select_topk(scores, K: int) -> np.ndarray:
    """Boolean [..., M] mask of the K largest scores along the last axis
    (equivalently, the size-K subset with maximal score sum) of every row.
    Ties break toward the smaller index."""
    s = np.asarray(scores.data if isinstance(scores, Tensor) else scores, dtype=np.float64)
    M = s.shape[-1]
    if not 1 <= K <= M:
        raise ValueError(f"K={K} out of range for {M} experts")
    order = np.argsort(-s, axis=-1, kind="stable")  # stable keeps lower index first on ties
    selected = np.zeros(s.shape, dtype=bool)
    np.put_along_axis(selected, order[..., :K], True, axis=-1)
    return selected


def combine_weights(scores: Tensor, selected: np.ndarray,
                    mode: str = "softmax") -> tuple[Tensor, np.ndarray]:
    """Normalize the selected raw scores of every row into mix weights,
    zero off the selection.

    "softmax": softmax over the selected scores. "paper-literal":
    s_k / sum(s_k'), falling back to softmax for a row when any of its
    selected scores is <= 0 or the denominator is tiny. Returns
    (mix [..., M], per-row fallback flags [...]).
    """
    if mode not in ("softmax", "paper-literal"):
        raise ValueError(f"unknown combine mode {mode!r}")
    soft = T.softmax(T.add(scores, Tensor(np.where(selected, 0.0, -1e30))), axis=-1)
    if mode == "softmax":
        return soft, np.zeros(selected.shape[:-1], dtype=bool)
    s = scores.data
    sums = np.where(selected, s, 0.0).sum(axis=-1, keepdims=True)
    ok = ~((np.where(selected, s, np.inf) <= 0).any(axis=-1, keepdims=True) | (sums < 1e-6))
    if not ok.all():
        logger.info("paper-literal normalizer degenerate for %d rows; softmax fallback",
                    int((~ok).sum()))
    # zero out degenerate rows before dividing so no NaN enters the graph
    fallback = Tensor(1.0 - ok.astype(float))
    numer = T.mul(scores, Tensor((selected & ok).astype(float)))
    denom = T.add(T.tsum(numer, axis=-1, keepdims=True), fallback)
    mix = T.add(T.div(numer, denom), T.mul(soft, fallback))
    return mix, ~ok[..., 0]


def _route(pool: ExpertPool, h: Tensor, K: int, mode: str) -> tuple[Tensor, dict]:
    scores = T.matmul(h, T.transpose(pool.routing))  # [..., M]
    selected = select_topk(scores, K)
    mix, _ = combine_weights(scores, selected, mode)
    return mix, {"scores": scores, "selected": selected,
                 "mask": np.ones(selected.shape[:-1]),
                 "key": (pool.layer_index, pool.projection_tag)}


def route_instance(pools, cls, K: int, mode: str = "softmax") -> tuple[dict, list[dict]]:
    """Score -> top-K -> weights for every pool from the frozen [CLS] rows.

    cls is [B, d]; returns per pool a [B, M] mix tensor, and one record of
    the raw scores and selections per pool for the router loss.
    """
    cls = T.as_tensor(cls)
    mix, records = {}, []
    for key in sorted(pools):
        mix[key], record = _route(pools[key], cls, K, mode)
        records.append(record)
    return mix, records


def token_mix_weights(pool: ExpertPool, x: Tensor, K: int,
                      mode: str = "softmax") -> tuple[Tensor, dict]:
    """Per-token routing from the block's incoming hidden states.

    x is [B, S, d]; returns a [B, S, M] mix tensor plus a record of the
    raw scores and per-token selections for the router loss.
    """
    return _route(pool, x, K, mode)


def pool_delta(pool: ExpertPool, x: Tensor, mix: Tensor) -> Tensor:
    """Weighted sum of expert outputs: sum_m mix[.., m] * (x B_m^T) A_m^T.

    mix is [B, M] (one weight per instance) or [B, S, M] (per token). All M experts run as two matmuls:
    x goes down to the M*r rank space through the stacked B, each expert's
    r columns are scaled by its mix weight, and the stacked A maps the sum
    back up.
    """
    M, d, r = pool.A.shape
    down = T.reshape(pool.B, (M * r, d))                                # [M*r, d]
    up = T.reshape(T.transpose(pool.A, (1, 0, 2)), (d, M * r))          # [d, M*r]
    low = T.matmul(x, T.transpose(down))                                # [B, S, M*r]
    w = T.reshape(mix, (x.shape[0], -1, M, 1))                          # [B, 1|S, M, 1]
    scaled = T.mul(T.reshape(low, low.shape[:-1] + (M, r)), w)          # [B, S, M, r]
    return T.matmul(T.reshape(scaled, low.shape), T.transpose(up))


def router_loss(records) -> Tensor:
    """Negative mean over pools of the summed selected scores, averaged
    over the real rows of each pool's routing record: its `mask` is 1 for
    every instance, and for real (not padded) tokens under token routing.
    The gradient pushes selected scores upward.
    """
    if not records:
        return Tensor(0.0)
    total = None
    for record in records:
        mask = record["mask"]
        weights = record["selected"] * mask[..., None]
        per_row = T.tsum(T.mul(record["scores"], Tensor(weights)), axis=-1)
        term = T.mul(T.tsum(per_row), 1.0 / mask.sum())
        total = term if total is None else T.add(total, term)
    return T.mul(total, -1.0 / len(records))
