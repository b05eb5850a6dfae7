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
        return [y for task in self.tasks[:upto + 1] for y in task.labels]


@dataclass
class Snapshot:
    pools: dict
    head: obj.DetectorHead


@dataclass
class TextTable:
    """A run's frozen inputs (the encoder is frozen), one row per distinct text."""
    row: dict[str, int]       # text -> its row
    ids: np.ndarray           # [N, S] token ids (`enc.tokenize_set`)
    mask: np.ndarray          # [N, S]
    kept: np.ndarray | None   # [N] rows of `weights.kept_cls`; None under token routing


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    lr: float = 1e-3
    loss_weights: obj.LossWeights = field(default_factory=obj.LossWeights)
    topk: int = 2
    num_experts: int = 4
    rank: int = 8
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
        if self.routing not in ("instance", "token"):
            raise ValueError(f"routing must be 'instance' or 'token', got {self.routing!r}")
        for name in ("lr", "temperature"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


@dataclass
class ModelState:
    weights: enc.EncoderWeights
    vocab: enc.Vocab
    pools: dict
    head: obj.DetectorHead
    bank: DescriptionBank
    config: TrainConfig
    rng: np.random.Generator
    buffer: dict[int, Instance] = field(default_factory=dict)  # one exemplar per seen label
    snapshot: Snapshot | None = None
    opt: T.Adam = None
    loss_rows: list[dict] = field(default_factory=list)
    table: TextTable | None = field(default=None, repr=False)  # set by `index_texts`

    def __post_init__(self):
        if self.opt is None:
            self.opt = T.Adam(self.params(), lr=self.config.lr, weight_decay=ROUTING_L2,
                              decay=moe.routing_params(self.pools))

    def params(self) -> list[Tensor]:
        """The trainable tensors: the pools', then the head's."""
        return moe.pool_params(self.pools) + self.head.params()


def init_state(weights: enc.EncoderWeights, vocab: enc.Vocab,
               bank: DescriptionBank, config: TrainConfig) -> ModelState:
    if not weights.frozen:
        raise ValueError("continual training requires a frozen encoder")
    bank.check_fingerprint(weights)
    rng = np.random.default_rng(config.seed)
    pools = moe.init_pools(weights.config.num_layers, weights.config.model_dim,
                           config.num_experts, config.rank, rng)
    head = obj.DetectorHead(weights.config.model_dim, rng)
    return ModelState(weights=weights, vocab=vocab, pools=pools, head=head, bank=bank,
                      config=config, rng=rng)


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


def index_texts(state: ModelState, texts) -> None:
    """Build the state's `TextTable` of `texts`: each distinct text once, in
    first-appearance order, padded to their one length (`enc.tokenize_set`).
    Under instance routing it holds each text's row of the weights'
    `kept_cls` (`enc.kept_rows`), not its [CLS] vector. Every instance a
    forward pass sees must be in the table."""
    row = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    ids, mask = enc.tokenize_set(list(row), state.vocab, state.weights.config.max_seq_len)
    kept = None if state.config.routing == "token" else enc.kept_rows(ids, mask, state.weights)
    state.table = TextTable(row, ids, mask, kept)


def forward_features(state: ModelState, instances, pools=None,
                     embed_noise: np.ndarray | None = None,
                     cls: np.ndarray | None = None):
    """Two-stage forward for a batch: frozen [CLS] -> routing -> expert
    forward (`enc.encode_with_experts`). Returns (features [B, d] Tensor,
    per-pool routing records). A batch with `embed_noise` comes with its
    noisy [CLS] rows as `cls`; noise-free ones come from `weights.kept_cls`."""
    cfg = state.config
    pools = state.pools if pools is None else pools
    rows = np.array([state.table.row[inst.text] for inst in instances])
    ids, mask = state.table.ids[rows], state.table.mask[rows]
    if cls is None and cfg.routing != "token":
        cls = state.weights.kept_cls[state.table.kept[rows]]
    return enc.encode_with_experts(ids, mask, state.weights, pools, cls, cfg.topk,
                                   embed_noise)


def features(state: ModelState, instances, pools=None, noise: np.ndarray | None = None,
             cls: np.ndarray | None = None) -> np.ndarray:
    """[N, d] features of `instances` without a graph, EVAL_CHUNK rows per
    pass (`enc.in_chunks`): the model's, or those of `pools` (the snapshot's
    for the distillation teacher). `noise` ([N, S, d], zero on clean rows)
    and `cls` are sliced with the rows, so the teacher sees the view the
    student sees."""
    return enc.in_chunks(lambda batch, batch_noise, batch_cls: forward_features(
        state, batch, pools=pools, embed_noise=batch_noise, cls=batch_cls)[0].data,
        len(instances), instances, noise, cls)


# ---------------------------------------------------------------------------
# memory handling


def select_exemplar(state: ModelState, instances_by_label: dict[int, list[Instance]]):
    """Per label, the instance whose feature is most cosine-similar to the
    label's mean feature; ties break toward dataset order. All candidates
    go through one `features` pass, in ascending label order."""
    labels = sorted(instances_by_label)
    for y in labels:
        if not instances_by_label[y]:
            raise ValueError(f"no instances for label {y}")
    if not labels:
        return {}
    candidates = [inst for y in labels for inst in instances_by_label[y]]
    feats = features(state, candidates)
    out, start = {}, 0
    for y in labels:
        group = instances_by_label[y]
        f = feats[start:start + len(group)]
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
               labels: tuple[np.ndarray, np.ndarray] | None,
               noise: np.ndarray | None = None, cls: np.ndarray | None = None,
               prev: np.ndarray | None = None) -> tuple[Tensor, obj.LossBreakdown]:
    """The training objective on one batch of task index `t`: cross-entropy
    plus every switched-on term (router, label contrast over the labels
    seen so far, feature and prediction distillation against the snapshot
    on the old labels). `labels` is `task_label_rows(state, t, stream)`,
    fixed for the task; `noise` and `cls` go to `forward_features`; `prev`
    holds the batch's teacher rows (`features` over the snapshot's pools),
    which distillation needs. Returns (total, breakdown)."""
    cfg = state.config
    w = cfg.loss_weights
    feats, routing = forward_features(state, batch, embed_noise=noise, cls=cls)
    gold = [inst.label for inst in batch]
    parts = {"ce": obj.ce_loss(state.head, feats, gold)}
    if w.alpha_router > 0:
        parts["router"] = moe.router_loss(routing)
    if labels is not None:
        parts["label"] = obj.label_contrastive_loss(feats, gold, labels)
    if _distills(t, w):
        if prev is None:
            raise ValueError(f"task {t + 1} distills, but the batch has no teacher rows")
        if w.alpha_fd > 0:
            parts["fd"] = obj.feature_distill_loss(prev, feats)
        if w.alpha_pd > 0:
            parts["pd"] = obj.prediction_distill_loss(
                state.snapshot.head, prev, state.head, feats,
                stream.seen_labels(t - 1), temperature=cfg.temperature)
    return obj.total_loss(parts, w)


def task_label_rows(state: ModelState, t: int, stream: TaskStream):
    """`obj.label_rows` of the labels seen through task `t`, or None when the
    label term is off."""
    seen = stream.seen_labels(t)
    if state.config.loss_weights.alpha_label > 0 and len(seen) >= 2:
        return obj.label_rows(state.bank, seen)
    return None


def _distills(t: int, w: obj.LossWeights) -> bool:
    return t > 0 and (w.alpha_fd > 0 or w.alpha_pd > 0)


def train_task(t: int, stream: TaskStream, state: ModelState) -> None:
    """Algorithm: grow head, mix current data with rehearsal memory, train
    for E epochs on the full objective, then update memory and snapshot."""
    cfg = state.config
    task = stream.tasks[t]
    distill = _distills(t, cfg.loss_weights)
    if distill and state.snapshot is None:
        raise RuntimeError(f"task {t} needs a snapshot for distillation")

    state.head.grow(task.labels)
    state.opt.set_params(state.params())

    # the copies get fresh embedding noise in every epoch
    memory = [state.buffer[y] for y in sorted(state.buffer)]
    copies = [inst for inst in memory for _ in range(AUG_COPIES)] if cfg.augment else []
    data = task.train + memory + copies
    augmented = np.arange(len(data)) >= len(data) - len(copies)
    labels = task_label_rows(state, t, stream)
    table = state.table
    table_rows = np.array([table.row[inst.text] for inst in data])
    width, ecfg = table.ids.shape[1], state.weights.config

    for epoch in range(cfg.epochs):
        order = state.rng.permutation(len(data))
        # The epoch's noisy rows, in the order its batches meet them: one
        # [max_seq_len, d] draw each, cut to the table's width, and one
        # frozen [CLS] pass for all of them, whose rows are never kept.
        rows, noisy = table_rows[order], augmented[order]
        cls = None if table.kept is None else state.weights.kept_cls[table.kept[rows]]
        noise, n_noisy = None, int(noisy.sum())
        if n_noisy:
            noise = np.zeros((len(data), width, ecfg.model_dim))
            noise[noisy] = state.rng.normal(0.0, SIGMA_AUG, (
                n_noisy, ecfg.max_seq_len, ecfg.model_dim))[:, :width]
            if cls is not None:
                cls[noisy] = enc.in_chunks(
                    lambda i, m, n: enc.encode_base(i, m, state.weights, n).data, n_noisy,
                    table.ids[rows[noisy]], table.mask[rows[noisy]], noise[noisy])
        # the snapshot is frozen for the task: its rows for the whole epoch
        # in one no-grad pass, on the noisy view the student sees
        epoch_data = [data[i] for i in order]
        prev = features(state, epoch_data, state.snapshot.pools, noise, cls) if distill else None
        for start in range(0, len(data), cfg.batch_size):
            span = slice(start, start + cfg.batch_size)
            total, breakdown = batch_loss(state, epoch_data[span], t, stream, labels,
                                          noise[span] if noisy[span].any() else None,
                                          None if cls is None else cls[span],
                                          None if prev is None else prev[span])
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


def predict(state: ModelState, instances) -> list[int]:
    """Inference path: deterministic, no jitter, argmax over all head rows
    for the `features` of `instances`, in input order."""
    return state.head.predict(features(state, instances)).tolist() if instances else []


def run_experiment(stream: TaskStream, state: ModelState, after_task=None):
    """Train through the stream; after each task, evaluate every past task
    and the cumulative label set. Returns the metric matrix.

    The stream's texts are indexed first (`index_texts`), so every instance
    batch of the run pads to the stream's one length.
    `after_task(t, state)`, when given, runs once per completed task
    (used for checkpointing)."""
    index_texts(state, [inst.text for task in stream.tasks for inst in task.train + task.test])
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
