"""End-to-end gradient verification on a tiny model.

Sets up a 2-layer / d=16 encoder with expert pools through the path real
runs take (`init_state`, a grown head, a snapshot) and evaluates the
training objective, `continual.batch_loss`, at the second task of a
two-task stream: all five terms are active, distillation runs against a
perturbed snapshot, and the batch holds ragged sentences (2-6 words,
padded to max_seq_len, so every row carries padding). Analytic gradients
are compared with central finite differences. Routing is recomputed on
every forward; a step that flipped a top-K selection could only make the
check fail.
"""

from __future__ import annotations

import numpy as np

from . import continual
from . import encoder as enc
from . import moe
from . import objectives as obj
from . import tensor as T
from .data_synth import Instance
from .descriptions import DescriptionBank

TINY = dict(num_layers=2, model_dim=16, num_heads=2, ffn_dim=32,
            max_seq_len=10, num_experts=4, rank=4, topk=2)


def build_tiny_problem(seed: int = 7):
    """Returns (state, batch, stream): the objective of the check is
    `batch_loss(state, batch, 1, stream)`."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    vocab = enc.Vocab(words)
    cfg = enc.EncoderConfig(num_layers=TINY["num_layers"], model_dim=TINY["model_dim"],
                            num_heads=TINY["num_heads"], ffn_dim=TINY["ffn_dim"],
                            max_seq_len=TINY["max_seq_len"], vocab_size=len(vocab))
    weights = enc.init_encoder_weights(cfg, rng)
    weights.freeze()
    labels = [0, 1, 2, 3]
    bank = DescriptionBank([f"desc {y} {c}" for y in labels for c in "ab"], np.repeat(labels, 2),
                           rng.normal(0.0, 0.5, (2 * len(labels), cfg.model_dim)),
                           weights.fingerprint())
    lw = obj.LossWeights(alpha_router=0.05, alpha_label=0.2, alpha_fd=1.0, alpha_pd=1.0)
    tc = continual.TrainConfig(num_experts=TINY["num_experts"], rank=TINY["rank"],
                               topk=TINY["topk"], loss_weights=lw, temperature=3.0, seed=seed)
    state = continual.init_state(weights, vocab, bank, tc)
    # B=0 gives structurally zero gradients in places; start from a
    # generic point so every path is exercised
    for pool in state.pools.values():
        pool.B.data[...] = rng.normal(0.0, 0.05, pool.B.shape)
    state.head.grow(labels)

    # a snapshot far enough from the student that every distillation
    # gradient is large next to the check's tolerance
    state.snapshot = continual.snapshot_model(state)
    for pool in state.snapshot.pools.values():
        pool.A.data += rng.normal(0.0, 0.3, pool.A.shape)
        pool.B.data += rng.normal(0.0, 0.3, pool.B.shape)
    state.snapshot.head.weight.data += rng.normal(0.0, 0.05, state.snapshot.head.weight.shape)

    # ragged lengths, each row padded to max_seq_len
    batch = [Instance(text=" ".join(rng.choice(words, size=n)), label=y)
             for n, y in zip((2, 6, 3, 5), labels)]
    stream = continual.TaskStream(tasks=[continual.TaskSpec(labels[:2], [], []),
                                         continual.TaskSpec(labels[2:], batch[2:], [])])
    return state, batch, stream


def run_gradcheck(seed: int = 7, max_coords: int = 64, h: float = 1e-5) -> float:
    """Max relative gradient error of the training objective on the tiny model."""
    state, batch, stream = build_tiny_problem(seed=seed)
    return T.grad_check(lambda: continual.batch_loss(state, batch, 1, stream)[0],
                        moe.pool_params(state.pools) + state.head.params(), h=h,
                        max_coords=max_coords, rng=np.random.default_rng(seed))
