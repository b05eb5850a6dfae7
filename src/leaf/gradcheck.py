"""End-to-end gradient verification on a tiny model.

Builds a 2-layer / d=16 encoder with expert pools, evaluates the full
combined objective (all terms active, distillation against a perturbed
snapshot) on one synthetic batch of ragged sentences (2-6 words, so the
trimmed forward keeps padding inside the batch), and compares analytic
gradients with central finite differences. Expert selection is fixed once
up front so the check differentiates the smooth branch of the piecewise
objective.
"""

from __future__ import annotations

import numpy as np

from . import encoder as enc
from . import moe
from . import objectives as obj
from . import tensor as T
from .continual import TrainConfig
from .descriptions import DescriptionBank
from .tensor import Tensor

TINY = dict(num_layers=2, model_dim=16, num_heads=2, ffn_dim=32,
            max_seq_len=10, num_experts=4, rank=4, topk=2)


def build_tiny_problem(seed: int = 7, poison_nan: bool = False):
    """Returns (loss_fn, params). loss_fn recomputes the full objective."""
    rng = np.random.default_rng(seed)
    n_words = 40
    vocab = enc.Vocab([f"w{i}" for i in range(n_words)])
    cfg = enc.EncoderConfig(num_layers=TINY["num_layers"], model_dim=TINY["model_dim"],
                            num_heads=TINY["num_heads"], ffn_dim=TINY["ffn_dim"],
                            max_seq_len=TINY["max_seq_len"], vocab_size=len(vocab))
    weights = enc.init_encoder_weights(cfg, rng)
    weights.freeze()
    tc = TrainConfig(num_experts=TINY["num_experts"], rank=TINY["rank"],
                     topk=TINY["topk"], seed=seed)

    pools = moe.init_pools(cfg.num_layers, cfg.model_dim, tc.num_experts, tc.rank, rng)
    # B=0 gives structurally zero gradients in places; start from a
    # generic point so every path is exercised
    for pool in pools.values():
        pool.B.data[...] = rng.normal(0.0, 0.05, pool.B.shape)

    labels = [0, 1, 2, 3]
    head = obj.DetectorHead(cfg.model_dim, rng)
    head.grow(labels)

    snap_pools = moe.copy_pools(pools)
    for pool in snap_pools.values():
        pool.A.data += rng.normal(0.0, 0.02, pool.A.shape)
        pool.B.data += rng.normal(0.0, 0.02, pool.B.shape)
    snap_head = head.copy()
    snap_head.weight.data += rng.normal(0.0, 0.05, snap_head.weight.shape)

    bank = DescriptionBank(encoder_fingerprint=weights.fingerprint())
    for y in labels:
        bank.texts[y] = [f"desc {y} a", f"desc {y} b"]
        bank._vectors[y] = [rng.normal(0.0, 0.5, cfg.model_dim) for _ in range(2)]

    # ragged lengths: the trimmed batch keeps padding inside its shorter rows
    batch_texts = [" ".join(rng.choice([f"w{i}" for i in range(n_words)], size=n))
                   for n in (2, 6, 3, 5)]
    gold = [0, 1, 2, 3]
    encoded = [enc.tokenize(t, vocab, cfg.max_seq_len) for t in batch_texts]
    ids = np.stack([e[0] for e in encoded])
    mask = np.stack([e[1] for e in encoded])
    if poison_nan:
        weights.tensors["tok_emb"].data[:, 0] = np.nan

    with T.no_grad():
        cls = enc.encode_base(ids, mask, weights).cls
    fixed = {key: moe.select_topk(cls.data @ pools[key].routing.data.T, tc.topk)
             for key in pools}

    lw = obj.LossWeights(alpha_router=0.05, alpha_label=0.2, alpha_fd=1.0, alpha_pd=1.0)

    def loss_fn() -> Tensor:
        mix, records = {}, []
        for key in sorted(pools):
            scores = T.matmul(cls, T.transpose(pools[key].routing))
            mix[key], _ = moe.combine_weights(scores, fixed[key])
            records.append({"scores": scores, "selected": fixed[key],
                            "mask": np.ones(len(gold)), "key": key})
        feats = enc.encode_with_experts(ids, mask, weights, pools, mix).cls
        if np.isnan(feats.data).any():
            raise T.NumericalError("NaN features in gradcheck forward")
        with T.no_grad():
            snap_mix, _ = moe.route_instance(snap_pools, cls, tc.topk)
            prev = enc.encode_with_experts(ids, mask, weights, snap_pools,
                                           snap_mix).cls.data.copy()
        parts = {
            "ce": obj.ce_loss(head, feats, gold),
            "router": moe.router_loss(records),
            "label": obj.label_contrastive_loss(feats, gold, bank, labels),
            "fd": obj.feature_distill_loss(prev, feats),
            "pd": obj.prediction_distill_loss(snap_head, prev, head, feats, labels),
        }
        total, _ = obj.total_loss(parts, lw)
        return total

    return loss_fn, moe.pool_params(pools) + head.params()


def run_gradcheck(seed: int = 7, poison_nan: bool = False,
                  max_coords: int = 64, h: float = 1e-5) -> float:
    """Max relative gradient error of the full objective on the tiny model."""
    loss_fn, params = build_tiny_problem(seed=seed, poison_nan=poison_nan)
    return T.grad_check(loss_fn, params, h=h, max_coords=max_coords,
                        rng=np.random.default_rng(seed))
