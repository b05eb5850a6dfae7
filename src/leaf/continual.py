"""Task streams, rehearsal memory, snapshots, and the per-task training loop.

The protocol: disjoint N-way K-shot tasks arrive in order; after each
task the model keeps one exemplar per new class, snapshots itself, and
is evaluated on the union of all test sets seen so far. Training
touches only the expert pools and the detector head; the encoder stays
frozen throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import encoder as enc
from . import metrics, moe
from . import objectives as obj
from . import tensor as T
from .data_synth import Dataset, Instance
from .descriptions import DescriptionBank
from .tensor import Tensor


@dataclass
class TaskSpec:
    labels: list[int]
    train: list[Instance]
    test: list[Instance]


@dataclass
class TaskStream:
    tasks: list[TaskSpec]
    n_way: int
    k_shot: int

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def seen_labels(self, upto: int) -> list[int]:
        """Cumulative label set through task index `upto` (inclusive)."""
        out = []
        for task in self.tasks[:upto + 1]:
            out.extend(task.labels)
        return out


class MemoryBuffer:
    """Exactly one immutable exemplar per seen label."""

    def __init__(self):
        self._items: dict[int, Instance] = {}

    def add(self, label: int, instance: Instance) -> None:
        if label in self._items:
            raise ValueError(f"label {label} already has an exemplar")
        self._items[label] = replace(instance, source="memory")

    def items(self) -> list[Instance]:
        return [self._items[y] for y in sorted(self._items)]

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, label: int) -> bool:
        return label in self._items


@dataclass
class Snapshot:
    pools: dict
    head: obj.DetectorHead


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    lr: float = 1e-3
    loss_weights: obj.LossWeights = field(default_factory=obj.LossWeights)
    topk: int = 2
    num_experts: int = 4
    rank: int = 8
    projections: tuple[str, ...] = ("q", "v")
    combine_mode: str = "softmax"
    routing: str = "instance"          # "instance" or "token" (comparison mode)
    routing_l2: float = 1e-4           # decoupled decay on routing rows
    augment: bool = False
    sigma_aug: float = 0.05
    aug_copies: int = 4
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "topk", "num_experts", "rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.topk > self.num_experts:
            raise ValueError("topk cannot exceed num_experts")


@dataclass
class ModelState:
    weights: enc.EncoderWeights
    vocab: enc.Vocab
    pools: dict
    head: obj.DetectorHead
    bank: DescriptionBank | None
    config: TrainConfig
    rng: np.random.Generator
    buffer: MemoryBuffer = field(default_factory=MemoryBuffer)
    snapshot: Snapshot | None = None
    opt: T.Adam = None
    loss_rows: list[dict] = field(default_factory=list)
    # Per-run caches keyed by instance text; the encoder is frozen, so a
    # text's ids and its noise-free [CLS] vector never change within a run.
    token_cache: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict,
                                                                 repr=False)
    cls_cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.opt is None:
            cfg = self.config
            params = moe.pool_params(self.pools)
            self.opt = T.Adam(params, lr=cfg.lr, weight_decay=cfg.routing_l2,
                              decay=moe.routing_params(self.pools))
            for p in self.head.params():
                self.opt.add_param(p)


def init_state(weights: enc.EncoderWeights, vocab: enc.Vocab,
               bank: DescriptionBank | None, config: TrainConfig) -> ModelState:
    if not weights.frozen:
        raise ValueError("continual training requires a frozen encoder")
    if bank is not None:
        bank.check_fingerprint(weights)
    rng = np.random.default_rng(config.seed)
    pools = moe.init_pools(weights.config.num_layers, weights.config.model_dim,
                           config.num_experts, config.rank, rng,
                           projections=config.projections)
    head = obj.DetectorHead(weights.config.model_dim, rng)
    return ModelState(weights=weights, vocab=vocab, pools=pools, head=head,
                      bank=bank, config=config, rng=rng)


def build_stream(dataset: Dataset, n_way: int, k_shot: int, num_tasks: int,
                 seed: int, labels: list[int] | None = None) -> TaskStream:
    """Seeded disjoint partition of labels into tasks with K-shot train sets.
    The labels must be able to fill them; `harness.check_data` checks that."""
    rng = np.random.default_rng(seed)
    pool = sorted(dataset.train) if labels is None else sorted(labels)
    need = n_way * num_tasks
    chosen = list(rng.permutation(pool))[:need]
    tasks = []
    for t in range(num_tasks):
        task_labels = sorted(int(y) for y in chosen[t * n_way:(t + 1) * n_way])
        train, test = [], []
        for y in task_labels:
            texts = dataset.train[y]
            picks = rng.choice(len(texts), size=k_shot, replace=False)
            train.extend(Instance(text=texts[i], label=y, task_index=t) for i in sorted(picks))
            held = [texts[i] for i in range(len(texts)) if i not in set(picks.tolist())]
            test.extend(Instance(text=s, label=y, task_index=t)
                        for s in held + dataset.test[y])
        tasks.append(TaskSpec(labels=task_labels, train=train, test=test))
    return TaskStream(tasks=tasks, n_way=n_way, k_shot=k_shot)


# ---------------------------------------------------------------------------
# forward paths


def _batch_arrays(state: ModelState, instances) -> tuple[np.ndarray, np.ndarray]:
    cache = state.token_cache
    for inst in instances:
        if inst.text not in cache:
            cache[inst.text] = enc.tokenize(inst.text, state.vocab,
                                            state.weights.config.max_seq_len)
    pairs = [cache[inst.text] for inst in instances]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def _frozen_cls(state: ModelState, instances, ids, mask,
                embed_noise: np.ndarray | None) -> np.ndarray:
    """[B, d] frozen-backbone [CLS] rows. Only rows whose text is not cached
    yet, and rows with non-zero noise, go through the encoder; noisy rows
    are never cached."""
    n = len(instances)
    noisy = (np.zeros(n, dtype=bool) if embed_noise is None
             else embed_noise.reshape(n, -1).any(axis=1))
    cache = state.cls_cache
    rows, fresh = [], {}  # batch rows to encode; uncached text -> its slot in rows
    for i, inst in enumerate(instances):
        if noisy[i] or (inst.text not in cache and inst.text not in fresh):
            if not noisy[i]:
                fresh[inst.text] = len(rows)
            rows.append(i)
    out = np.empty((n, state.weights.config.model_dim))
    if rows:
        with T.no_grad():
            cls = enc.encode_base(ids[rows], mask[rows], state.weights,
                                  embed_noise=None if embed_noise is None
                                  else embed_noise[rows]).cls.data
        out[rows] = cls
        for text, j in fresh.items():
            cache[text] = cls[j]
    for i, inst in enumerate(instances):
        if not noisy[i]:
            out[i] = cache[inst.text]
    return out


def _noise_for(state: ModelState, instances, ids_shape) -> np.ndarray | None:
    cfg = state.config
    if not cfg.augment or cfg.sigma_aug == 0.0:
        return None
    aug_rows = [i for i, inst in enumerate(instances) if inst.source == "augmented"]
    if not aug_rows:
        return None
    d = state.weights.config.model_dim
    noise = np.zeros(ids_shape + (d,))
    for i in aug_rows:
        noise[i] = state.rng.normal(0.0, cfg.sigma_aug, noise[i].shape)
    return noise


def forward_features(state: ModelState, instances, pools=None,
                     embed_noise: np.ndarray | None = None,
                     cls: np.ndarray | None = None):
    """Two-stage forward for a batch: frozen [CLS] -> routing -> expert
    forward. Returns (features [B, d] Tensor, per-pool routing records,
    frozen [CLS] rows or None under token routing). A caller that already
    has the [CLS] rows of this batch and noise passes them as `cls`."""
    cfg = state.config
    pools = state.pools if pools is None else pools
    ids, mask = _batch_arrays(state, instances)
    if cfg.routing == "token":
        out = enc.encode_with_experts(ids, mask, state.weights, pools, None,
                                      embed_noise=embed_noise, token_topk=cfg.topk,
                                      combine_mode=cfg.combine_mode)
        return out.cls, out.token_decisions, None
    if cls is None:
        cls = _frozen_cls(state, instances, ids, mask, embed_noise)
    mix, records = moe.route_instance(pools, cls, cfg.topk, cfg.combine_mode)
    out = enc.encode_with_experts(ids, mask, state.weights, pools, mix,
                                  embed_noise=embed_noise)
    return out.cls, records, cls


# ---------------------------------------------------------------------------
# memory handling


def select_exemplar(state: ModelState, instances_by_label: dict[int, list[Instance]]):
    """Per label, the instance whose feature is most cosine-similar to the
    label's mean feature; ties break toward dataset order."""
    out = {}
    for y in sorted(instances_by_label):
        group = instances_by_label[y]
        if not group:
            raise ValueError(f"no instances for label {y}")
        with T.no_grad():
            feats, _, _ = forward_features(state, group)
        f = feats.data
        mean = f.mean(axis=0)
        norm_m = max(np.linalg.norm(mean), 1e-12)
        sims = (f @ mean) / (np.linalg.norm(f, axis=1) * norm_m + 1e-300)
        out[y] = group[int(np.argmax(sims))]
    return out


def augment_memory(buffer: MemoryBuffer, copies: int) -> list[Instance]:
    """Jittered rehearsal copies; the perturbation itself is applied to the
    embeddings at forward time (source == "augmented" marks the rows)."""
    out = []
    for inst in buffer.items():
        out.extend(replace(inst, source="augmented") for _ in range(copies))
    return out


def snapshot_model(state: ModelState) -> Snapshot:
    """Immutable deep copy of the trainable parts."""
    return Snapshot(pools=moe.copy_pools(state.pools), head=state.head.copy())


# ---------------------------------------------------------------------------
# training


def train_task(t: int, stream: TaskStream, state: ModelState) -> None:
    """Algorithm: grow head, mix current data with rehearsal memory, train
    for E epochs on the full objective, then update memory and snapshot."""
    cfg = state.config
    w = cfg.loss_weights
    task = stream.tasks[t]
    distill_on = w.alpha_fd > 0 or w.alpha_pd > 0
    if t > 0 and distill_on and state.snapshot is None:
        raise RuntimeError(f"task {t} needs a snapshot for distillation")

    old_head = state.head.params()
    state.head.grow(task.labels)
    for old, new in zip(old_head, state.head.params()):
        if old is not new:
            state.opt.replace_param(old, new)

    data = [replace(inst, source="current") for inst in task.train]
    data += state.buffer.items()
    if cfg.augment and len(state.buffer):
        data += augment_memory(state.buffer, cfg.aug_copies)
    seen = stream.seen_labels(t)

    for epoch in range(cfg.epochs):
        order = state.rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            ids_shape = (len(batch), state.weights.config.max_seq_len)
            noise = _noise_for(state, batch, ids_shape)
            feats, routing, cls = forward_features(state, batch, embed_noise=noise)
            gold = [inst.label for inst in batch]
            parts = {"ce": obj.ce_loss(state.head, feats, gold)}
            if w.alpha_router > 0:
                parts["router"] = moe.router_loss(routing)
            if w.alpha_label > 0 and len(seen) >= 2 and state.bank is not None:
                parts["label"] = obj.label_contrastive_loss(feats, gold, state.bank, seen)
            if t > 0 and distill_on:
                with T.no_grad():
                    prev_feats, _, _ = forward_features(state, batch,
                                                        pools=state.snapshot.pools,
                                                        embed_noise=noise, cls=cls)
                prev_np = prev_feats.data
                old_labels = stream.seen_labels(t - 1)
                if w.alpha_fd > 0:
                    parts["fd"] = obj.feature_distill_loss(prev_np, feats)
                if w.alpha_pd > 0:
                    parts["pd"] = obj.prediction_distill_loss(
                        state.snapshot.head, prev_np, state.head, feats,
                        old_labels, temperature=cfg.temperature)
            total, breakdown = obj.total_loss(parts, w)
            total.backward()
            _check_finite(total, state.opt.params, t, state.opt.step_count + 1)
            state.opt.step()
            state.loss_rows.append({
                "step": state.opt.step_count, "task": t + 1, "epoch": epoch + 1,
                "ce": breakdown.ce, "router": breakdown.router,
                "label": breakdown.label, "fd": breakdown.fd,
                "pd": breakdown.pd, "total": breakdown.total,
            })

    by_label: dict[int, list[Instance]] = {y: [] for y in task.labels}
    for inst in task.train:
        by_label[inst.label].append(inst)
    for y, exemplar in select_exemplar(state, by_label).items():
        state.buffer.add(y, exemplar)
    state.snapshot = snapshot_model(state)


def _check_finite(total: Tensor, params, t: int, step: int) -> None:
    """Stop before the optimizer applies a non-finite loss or gradient."""
    if not np.isfinite(total.data).all():
        raise T.NumericalError(f"non-finite loss {total.item()} at task {t + 1}, step {step}")
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise T.NumericalError(f"non-finite gradient at task {t + 1}, step {step}")


def predict(state: ModelState, instances, chunk: int = 32) -> list[int]:
    """Inference path: deterministic, no jitter, argmax over all head rows."""
    preds = []
    for start in range(0, len(instances), chunk):
        batch = instances[start:start + chunk]
        with T.no_grad():
            feats, _, _ = forward_features(state, batch)
        preds.extend(state.head.predict(feats).tolist())
    return preds


def run_experiment(stream: TaskStream, state: ModelState, after_task=None):
    """Train through the stream; after each task, evaluate every past task
    and the cumulative label set. Returns the metric matrix.

    `after_task(t, state)`, when given, runs once per completed task
    (used for checkpointing)."""
    matrix = metrics.MetricMatrix(num_tasks=stream.num_tasks)
    for t in range(stream.num_tasks):
        train_task(t, stream, state)
        if after_task is not None:
            after_task(t, state)
        seen = set(stream.seen_labels(t))
        pooled_gold, pooled_pred = [], []
        for i in range(t + 1):
            test = stream.tasks[i].test
            gold = [inst.label for inst in test]
            pred = predict(state, test)
            matrix.record(t, i,
                          metrics.micro_f1(gold, pred, seen),
                          metrics.macro_f1(gold, pred, set(stream.tasks[i].labels)))
            pooled_gold.extend(gold)
            pooled_pred.extend(pred)
        matrix.record_cumulative(t,
                                 metrics.micro_f1(pooled_gold, pooled_pred, seen),
                                 metrics.macro_f1(pooled_gold, pooled_pred, seen))
    return matrix
