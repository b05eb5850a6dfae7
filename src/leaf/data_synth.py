"""Deterministic synthetic event-detection corpus generator.

Each label owns a unique set of trigger words; sentences mix 1-2
triggers into context words drawn from a label pool whose overlap with
other labels is controlled by the confusability knob rho (0 = disjoint
context pools, 1 = one fully shared pool). Descriptions are emitted
mechanically from the trigger lists so the whole pipeline runs without
any external generation step.

Also provides a normalized JSONL loader for externally prepared data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class DatasetFormatError(ValueError):
    pass


@dataclass
class GeneratorSpec:
    n_labels: int = 28
    instances_per_label: int = 40      # train split; test split is test_per_label
    test_per_label: int = 12
    vocab_size: int = 2000
    trigger_words_per_label: int = 5
    confusability: float = 0.5         # rho: shared fraction of each context pool
    context_pool_size: int = 30
    sentence_len: tuple[int, int] = (5, 8)
    triggers_per_sentence: tuple[int, int] = (2, 4)
    descriptions_per_label: int = 6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.confusability <= 1.0:
            raise ValueError("confusability must be in [0, 1]")
        if self.sentence_len[0] < 3 or self.sentence_len[1] < self.sentence_len[0]:
            raise ValueError(f"bad sentence_len range {self.sentence_len}")
        t_lo, t_hi = self.triggers_per_sentence
        if t_lo < 1 or t_hi < t_lo or t_hi > self.trigger_words_per_label:
            raise ValueError(f"bad triggers_per_sentence range {self.triggers_per_sentence}")
        if t_hi >= self.sentence_len[0]:
            raise ValueError("triggers_per_sentence must leave room for context words")
        if self.descriptions_per_label < 5:
            raise ValueError("need >= 5 descriptions per label for the 1/3/5 sweep")
        need = self.n_labels * (self.trigger_words_per_label + self.context_pool_size) \
            + self.context_pool_size  # triggers, own context pools, one shared pool
        if need > self.vocab_size:
            raise ValueError(f"vocab_size {self.vocab_size} too small: pools need {need} words")


@dataclass
class Instance:
    text: str
    label: int                 # dense global label id
    task_index: int = -1
    source: str = "current"    # current | memory | augmented


@dataclass
class Dataset:
    label_names: list[str]
    train: dict[int, list[str]] = field(default_factory=dict)  # label id -> texts
    test: dict[int, list[str]] = field(default_factory=dict)
    descriptions: dict[str, list[str]] = field(default_factory=dict)

    @property
    def n_labels(self) -> int:
        return len(self.label_names)


_DESCRIPTION_TEMPLATES = (
    "events involving {a} or {b} and related happenings",
    "reports where {a} together with {c} plays the central part",
    "situations marked by mentions of {b} and {c}",
    "occurrences described through words like {a} {b} {c}",
    "incidents whose telltale signs are {c} or {a}",
    "accounts centered on {b} alongside {a}",
)


def generate(spec: GeneratorSpec) -> Dataset:
    """Build the corpus; fully determined by (spec, spec.seed)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_labels
    shared_size = spec.context_pool_size
    words = [f"w{i:04d}" for i in range(spec.vocab_size)]
    order = rng.permutation(spec.vocab_size)
    cursor = 0

    def grab(count):
        nonlocal cursor
        out = [words[i] for i in order[cursor:cursor + count]]
        cursor += count
        return out

    triggers = {y: grab(spec.trigger_words_per_label) for y in range(n)}
    shared_pool = grab(shared_size)
    n_shared = int(round(spec.confusability * spec.context_pool_size))
    pools = {}
    for y in range(n):
        own = grab(spec.context_pool_size - n_shared)
        borrowed = list(rng.choice(shared_pool, size=n_shared, replace=False)) if n_shared else []
        pools[y] = own + borrowed

    def sentence(y):
        length = int(rng.integers(spec.sentence_len[0], spec.sentence_len[1] + 1))
        t_lo, t_hi = spec.triggers_per_sentence
        n_trig = int(rng.integers(t_lo, t_hi + 1))
        toks = list(rng.choice(triggers[y], size=n_trig, replace=False))
        toks += list(rng.choice(pools[y], size=length - n_trig, replace=True))
        rng.shuffle(toks)
        return " ".join(toks)

    ds = Dataset(label_names=[f"event_{y:02d}" for y in range(n)])
    for y in range(n):
        ds.train[y] = [sentence(y) for _ in range(spec.instances_per_label)]
        ds.test[y] = [sentence(y) for _ in range(spec.test_per_label)]
    train_set = {t for texts in ds.train.values() for t in texts}
    for y in range(n):
        fixed = []
        for t in ds.test[y]:
            tries = 0
            while t in train_set and tries < 100:
                t = sentence(y)
                tries += 1
            fixed.append(t)
        ds.test[y] = fixed

    for y in range(n):
        t = triggers[y]
        descs = []
        for i in range(spec.descriptions_per_label):
            tpl = _DESCRIPTION_TEMPLATES[i % len(_DESCRIPTION_TEMPLATES)]
            a, b, c = t[i % len(t)], t[(i + 1) % len(t)], t[(i + 2) % len(t)]
            descs.append(tpl.format(a=a, b=b, c=c))
        ds.descriptions[ds.label_names[y]] = descs
    return ds


def write_jsonl(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for split, table in (("train", ds.train), ("test", ds.test)):
            for y in sorted(table):
                for text in table[y]:
                    rec = {"text": text, "label": ds.label_names[y], "split": split}
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_descriptions_tsv(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name in ds.label_names:
            for text in ds.descriptions.get(name, []):
                fh.write(f"{name}\t{text}\n")


def load_jsonl(path) -> Dataset:
    """Read {text, label, split} records; labels get dense ids in
    first-appearance order."""
    names: list[str] = []
    idx: dict[str, int] = {}
    train: dict[int, list[str]] = {}
    test: dict[int, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            for key in ("text", "label", "split"):
                if key not in rec:
                    raise DatasetFormatError(f"{path}:{lineno}: missing key {key!r}")
            if rec["split"] not in ("train", "test"):
                raise DatasetFormatError(f"{path}:{lineno}: bad split {rec['split']!r}")
            label = str(rec["label"])
            if not label:
                raise DatasetFormatError(f"{path}:{lineno}: empty label")
            if label not in idx:
                idx[label] = len(names)
                names.append(label)
            table = train if rec["split"] == "train" else test
            table.setdefault(idx[label], []).append(str(rec["text"]))
    return Dataset(label_names=names, train=train, test=test)


def build_vocab_tokens(ds: Dataset) -> list[str]:
    """Deterministic token list covering the corpus and its descriptions."""
    toks = set()
    for table in (ds.train, ds.test):
        for texts in table.values():
            for t in texts:
                toks.update(t.lower().split())
    for descs in ds.descriptions.values():
        for t in descs:
            toks.update(t.lower().split())
    return sorted(toks)
