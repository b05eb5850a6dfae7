"""LoRA expert pools and the instance-level semantic router.

Each adapted attention projection carries a pool of M low-rank experts
plus an M x d routing matrix. Scores are dot products between routing
rows and the frozen-backbone [CLS] vector; the top-K experts by score
are mixed by a softmax over their scores. A per-token routing mode is kept
around as a comparison baseline. Both route a whole batch at once: one
score matmul, top-K mask and combine per pool, on [B, d] [CLS] rows or
[B, S, d] hidden states alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

INIT_SD = 0.02  # A factors and routing rows; B stays zero so the initial delta is zero


@dataclass
class ExpertPool:
    A: Tensor        # [M, d, r], expert m's up-projection is A[m]
    B: Tensor        # [M, r, d], expert m's down-projection is B[m]
    routing: Tensor  # [M, d], row k scores expert k

    def params(self) -> list[Tensor]:
        return [self.A, self.B, self.routing]


def init_pools(num_layers: int, d: int, num_experts: int, rank: int,
               rng: np.random.Generator) -> dict[tuple[int, str], ExpertPool]:
    """One d -> d pool per layer on each adapted projection, the query and
    the value (LoRA's choice, arXiv 2106.09685); B=0 so deltas start at
    zero."""
    if rank > d:
        raise ValueError(f"rank {rank} exceeds model dim {d}")
    pools = {}
    for l in range(num_layers):
        for tag in ("q", "v"):
            A = Tensor(rng.normal(0.0, INIT_SD, (num_experts, d, rank)), requires_grad=True)
            B = Tensor(np.zeros((num_experts, rank, d)), requires_grad=True)
            routing = Tensor(rng.normal(0.0, INIT_SD, (num_experts, d)), requires_grad=True)
            pools[(l, tag)] = ExpertPool(A=A, B=B, routing=routing)
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
                            routing=Tensor(pool.routing.data.copy()))
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


def _route(pool: ExpertPool, h: Tensor, K: int) -> tuple[Tensor, dict]:
    scores = T.scores(h, pool.routing)  # [..., M]
    selected = select_topk(scores, K)
    # softmax over the selected scores, zero off the selection
    mix = T.softmax(scores, axis=-1, bias=np.where(selected, 0.0, T.MASK_BIAS))
    return mix, {"scores": scores, "selected": selected, "mask": np.ones(selected.shape[:-1])}


def route_instance(pools, cls, K: int) -> tuple[dict, list[dict]]:
    """Score -> top-K -> weights for every pool from the frozen [B, d] [CLS]
    rows `cls`: per pool a [B, M] mix tensor, and one record per pool, in
    sorted key order, of its `key`, raw scores and selections."""
    cls = T.as_tensor(cls)
    mix, records = {}, []
    for key in sorted(pools):
        mix[key], record = _route(pools[key], cls, K)
        record["key"] = key
        records.append(record)
    return mix, records


def token_mix_weights(pool: ExpertPool, x: Tensor, K: int) -> tuple[Tensor, dict]:
    """Per-token routing from the block's incoming [B, S, d] hidden states
    x: a [B, S, M] mix tensor and a record of the raw scores and per-token
    selections, whose `key` and token `mask` the encoder sets."""
    return _route(pool, x, K)


def pool_delta(pool: ExpertPool, x: Tensor, mix: Tensor) -> Tensor:
    """Weighted sum of expert outputs, sum_m mix[.., m] * (x B_m^T) A_m^T, as
    one `T.lora` node. x is [B, S, d]; mix is [B, M] (one weight per
    instance) or [B, S, M] (per token)."""
    return T.lora(x, pool.A, pool.B, mix)


def router_loss(records) -> Tensor:
    """Negative mean over pools of the summed selected scores, averaged
    over the real rows of each pool's routing record: its `mask` is 1 for
    every instance, and for real (not padded) tokens under token routing.
    A mask whose shape is not the selection's without the expert axis
    raises ShapeError. The gradient pushes selected scores upward.
    """
    if not records:
        return Tensor(0.0)
    weights, scales = [], []
    for record in records:
        mask = record["mask"]
        if mask.shape != record["selected"].shape[:-1]:
            raise T.ShapeError(f"router record for pool {record['key']}: mask "
                               f"{mask.shape} does not match its selection "
                               f"{record['selected'].shape[:-1]}")
        weights.append(record["selected"] * mask[..., None])
        scales.append(1.0 / mask.sum())
    return T.masked_sums([record["scores"] for record in records], weights, scales,
                         -1.0 / len(records))
