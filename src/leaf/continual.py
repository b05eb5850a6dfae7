"""Task streams, rehearsal memory, snapshots, and the per-task training loop.

The protocol: disjoint N-way K-shot tasks arrive in order; after each
task the model keeps one exemplar per new class, snapshots itself, and
is evaluated on the union of all test sets seen so far. Training
touches only the expert pools and the detector head; the encoder stays
frozen throughout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import encoder as enc
from . import metrics, moe
from . import objectives as obj
from . import tensor as T
from .data_synth import Dataset, Instance
from .descriptions import DescriptionBank
from .tensor import Tensor

ROUTING_L2 = 1e-4  # decoupled weight decay on the routing rows
SIGMA_AUG = 0.05   # sd of the embedding noise on augmented memory rows
AUG_COPIES = 4     # augmented copies of each memory exemplar per task


@dataclass
class TaskSpec:
    labels: list[int]
    train: list[Instance]
    test: list[Instance]


@dataclass
class TaskStream:
    tasks: list[TaskSpec]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def seen_labels(self, upto: int) -> list[int]:
        """Cumulative label set through task index `upto` (inclusive)."""
        out = []
        for task in self.tasks[:upto + 1]:
            out.extend(task.labels)
        return out


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
    combine_mode: str = "softmax"
    routing: str = "instance"          # "instance" or "token" (comparison mode)
    augment: bool = False
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
    seq_len: int  # the padded length of every instance batch (`run_experiment`)
    buffer: dict[int, Instance] = field(default_factory=dict)  # one exemplar per seen label
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
            self.opt = T.Adam(moe.pool_params(self.pools) + self.head.params(),
                              lr=self.config.lr, weight_decay=ROUTING_L2,
                              decay=moe.routing_params(self.pools))


def init_state(weights: enc.EncoderWeights, vocab: enc.Vocab,
               bank: DescriptionBank | None, config: TrainConfig) -> ModelState:
    if not weights.frozen:
        raise ValueError("continual training requires a frozen encoder")
    if bank is not None:
        bank.check_fingerprint(weights)
    rng = np.random.default_rng(config.seed)
    pools = moe.init_pools(weights.config.num_layers, weights.config.model_dim,
                           config.num_experts, config.rank, rng)
    head = obj.DetectorHead(weights.config.model_dim, rng)
    return ModelState(weights=weights, vocab=vocab, pools=pools, head=head, bank=bank,
                      config=config, rng=rng, seq_len=weights.config.max_seq_len)


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
            train.extend(Instance(text=texts[i], label=y) for i in sorted(picks))
            held = [texts[i] for i in range(len(texts)) if i not in set(picks.tolist())]
            test.extend(Instance(text=s, label=y) for s in held + dataset.test[y])
        tasks.append(TaskSpec(labels=task_labels, train=train, test=test))
    return TaskStream(tasks=tasks)


# ---------------------------------------------------------------------------
# forward paths


def _batch_arrays(state: ModelState, instances) -> tuple[np.ndarray, np.ndarray]:
    """[B, seq_len] ids and mask of a batch; each text is tokenized once."""
    cache = state.token_cache
    for inst in instances:
        if inst.text not in cache:
            cache[inst.text] = enc.tokenize(inst.text, state.vocab, state.seq_len)
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
                                  else embed_noise[rows]).data
        out[rows] = cls
        for text, j in fresh.items():
            cache[text] = cls[j]
    for i, inst in enumerate(instances):
        if not noisy[i]:
            out[i] = cache[inst.text]
    return out


def _noise_for(state: ModelState, augmented: np.ndarray, ids_shape) -> np.ndarray | None:
    """Noise for the rows `augmented` marks, zero elsewhere: one [max_seq_len, d]
    draw per row, whatever the run's padded length, then cut to that length."""
    k = int(augmented.sum())
    if not k:
        return None
    noise = np.zeros(ids_shape + (state.weights.config.model_dim,))
    noise[augmented] = state.rng.normal(0.0, SIGMA_AUG, (k,) + noise.shape[1:])
    return noise[:, :state.seq_len]


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
        feats, records = enc.encode_with_experts(ids, mask, state.weights, pools, None,
                                                 embed_noise=embed_noise, token_topk=cfg.topk,
                                                 combine_mode=cfg.combine_mode)
        return feats, records, None
    if cls is None:
        cls = _frozen_cls(state, instances, ids, mask, embed_noise)
    mix, records = moe.route_instance(pools, cls, cfg.topk, cfg.combine_mode)
    feats, _ = enc.encode_with_experts(ids, mask, state.weights, pools, mix,
                                       embed_noise=embed_noise)
    return feats, records, cls


# ---------------------------------------------------------------------------
# memory handling


def select_exemplar(state: ModelState, instances_by_label: dict[int, list[Instance]]):
    """Per label, the instance whose feature is most cosine-similar to the
    label's mean feature; ties break toward dataset order. All candidates
    go through one forward pass, in ascending label order."""
    labels = sorted(instances_by_label)
    for y in labels:
        if not instances_by_label[y]:
            raise ValueError(f"no instances for label {y}")
    if not labels:
        return {}
    candidates = [inst for y in labels for inst in instances_by_label[y]]
    with T.no_grad():
        feats, _, _ = forward_features(state, candidates)
    out, start = {}, 0
    for y in labels:
        group = instances_by_label[y]
        f = feats.data[start:start + len(group)]
        start += len(group)
        mean = f.mean(axis=0)
        norm_m = max(np.linalg.norm(mean), 1e-12)
        sims = (f @ mean) / (np.linalg.norm(f, axis=1) * norm_m + 1e-300)
        out[y] = group[int(np.argmax(sims))]
    return out


def snapshot_model(state: ModelState) -> Snapshot:
    """Immutable deep copy of the trainable parts."""
    return Snapshot(pools=moe.copy_pools(state.pools), head=state.head.copy())


# ---------------------------------------------------------------------------
# training


def batch_loss(state: ModelState, batch, t: int, stream: TaskStream,
               noise: np.ndarray | None = None) -> tuple[Tensor, obj.LossBreakdown]:
    """The training objective on one batch of task index `t`: cross-entropy
    plus every switched-on term (router, label contrast over the labels
    seen so far, feature and prediction distillation against the snapshot
    on the old labels). The teacher forward reuses the student's [CLS]
    rows. Returns (total, breakdown)."""
    cfg = state.config
    w = cfg.loss_weights
    feats, routing, cls = forward_features(state, batch, embed_noise=noise)
    gold = [inst.label for inst in batch]
    seen = stream.seen_labels(t)
    parts = {"ce": obj.ce_loss(state.head, feats, gold)}
    if w.alpha_router > 0:
        parts["router"] = moe.router_loss(routing)
    if w.alpha_label > 0 and len(seen) >= 2 and state.bank is not None:
        parts["label"] = obj.label_contrastive_loss(feats, gold, state.bank, seen)
    if t > 0 and (w.alpha_fd > 0 or w.alpha_pd > 0):
        with T.no_grad():
            prev_feats, _, _ = forward_features(state, batch, pools=state.snapshot.pools,
                                                embed_noise=noise, cls=cls)
        prev_np = prev_feats.data
        if w.alpha_fd > 0:
            parts["fd"] = obj.feature_distill_loss(prev_np, feats)
        if w.alpha_pd > 0:
            parts["pd"] = obj.prediction_distill_loss(
                state.snapshot.head, prev_np, state.head, feats,
                stream.seen_labels(t - 1), temperature=cfg.temperature)
    return obj.total_loss(parts, w)


def train_task(t: int, stream: TaskStream, state: ModelState) -> None:
    """Algorithm: grow head, mix current data with rehearsal memory, train
    for E epochs on the full objective, then update memory and snapshot."""
    cfg = state.config
    w = cfg.loss_weights
    task = stream.tasks[t]
    if t > 0 and (w.alpha_fd > 0 or w.alpha_pd > 0) and state.snapshot is None:
        raise RuntimeError(f"task {t} needs a snapshot for distillation")

    old_head = state.head.params()
    state.head.grow(task.labels)
    for old, new in zip(old_head, state.head.params()):
        if old is not new:
            state.opt.replace_param(old, new)

    # the copies get fresh embedding noise in every batch they land in
    memory = [state.buffer[y] for y in sorted(state.buffer)]
    copies = [inst for inst in memory for _ in range(AUG_COPIES)] if cfg.augment else []
    data = task.train + memory + copies
    augmented = np.arange(len(data)) >= len(data) - len(copies)

    for epoch in range(cfg.epochs):
        order = state.rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            batch = [data[i] for i in rows]
            ids_shape = (len(batch), state.weights.config.max_seq_len)
            noise = _noise_for(state, augmented[rows], ids_shape)
            total, breakdown = batch_loss(state, batch, t, stream, noise)
            total.backward()
            _check_finite(total, state.opt.params, t, state.opt.step_count + 1)
            state.opt.step()
            state.loss_rows.append({"step": state.opt.step_count, "task": t + 1,
                                    "epoch": epoch + 1, **asdict(breakdown)})

    by_label: dict[int, list[Instance]] = {y: [] for y in task.labels}
    for inst in task.train:
        by_label[inst.label].append(inst)
    for y, exemplar in select_exemplar(state, by_label).items():
        if y in state.buffer:
            raise ValueError(f"label {y} already has an exemplar")
        state.buffer[y] = exemplar
    state.snapshot = snapshot_model(state)


def _check_finite(total: Tensor, params, t: int, step: int) -> None:
    """Stop before the optimizer applies a non-finite loss or gradient."""
    if not np.isfinite(total.data).all():
        raise T.NumericalError(f"non-finite loss {total.item()} at task {t + 1}, step {step}")
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise T.NumericalError(f"non-finite gradient at task {t + 1}, step {step}")


# Largest number of instances per forward pass in `predict`. Instances per
# second over leaf-ref's five test sets (188 rows each, 9 wide) after task 5,
# warm caches, in process, by chunk size (median of 15 with the settings
# interleaved, seed 21, 2-core host): 32: 7319, 64: 8247, 96: 8641, 128: 8310,
# 188: 7226. Small chunks pay each block's fixed NumPy call cost too often;
# a whole set's [188, 9, 128] float64 FFN activation (1.7 MB) and its
# temporaries outgrow the 2 MB L2 cache of a core.
EVAL_CHUNK = 96


def predict(state: ModelState, instances) -> list[int]:
    """Inference path: deterministic, no jitter, argmax over all head rows,
    in chunks of EVAL_CHUNK rows in input order."""
    preds = []
    for start in range(0, len(instances), EVAL_CHUNK):
        with T.no_grad():
            feats, _, _ = forward_features(state, instances[start:start + EVAL_CHUNK])
        preds.extend(state.head.predict(feats).tolist())
    return preds


def run_experiment(stream: TaskStream, state: ModelState, after_task=None):
    """Train through the stream; after each task, evaluate every past task
    and the cumulative label set. Returns the metric matrix.

    Every instance batch of the run pads to the stream's `padded_length`.
    `after_task(t, state)`, when given, runs once per completed task
    (used for checkpointing)."""
    texts = [inst.text for task in stream.tasks for inst in task.train + task.test]
    # the caches start empty: rows cached at another width would not stack
    state.seq_len, state.token_cache, state.cls_cache = (
        enc.padded_length(texts, state.weights.config.max_seq_len), {}, {})
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
