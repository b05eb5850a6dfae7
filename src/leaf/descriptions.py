"""Label-description bank: ingest TSV description files, encode them
once through the frozen backbone, and serve per-label vector sets.

Vectors are frozen constants; a fingerprint of the encoder weights is
stored so a bank cannot silently be reused with a different backbone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import tensor as T

logger = logging.getLogger(__name__)


class DescriptionFileError(ValueError):
    pass


class FingerprintMismatchError(RuntimeError):
    pass


@dataclass
class DescriptionBank:
    texts: dict[int, list[str]] = field(default_factory=dict)
    _vectors: dict[int, list[np.ndarray]] = field(default_factory=dict)
    encoder_fingerprint: str = ""

    def labels(self) -> list[int]:
        return sorted(self.texts)

    def vectors(self, label: int) -> list[np.ndarray]:
        return self._vectors[label]

    def check_fingerprint(self, weights: enc.EncoderWeights) -> None:
        fp = weights.fingerprint()
        if fp != self.encoder_fingerprint:
            raise FingerprintMismatchError(
                "description bank was encoded with a different frozen encoder "
                f"(bank {self.encoder_fingerprint[:12]}..., active {fp[:12]}...)")


def load_descriptions(path, known_labels=None) -> dict[str, list[str]]:
    """Parse a `label<TAB>description` file into a label -> descriptions map.

    Duplicate (label, description) pairs are dropped with a warning.
    """
    raw: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise DescriptionFileError(f"{path}:{lineno}: expected label<TAB>description")
            label, text = line.split("\t", 1)
            label, text = label.strip(), text.strip()
            if not label or not text:
                raise DescriptionFileError(f"{path}:{lineno}: empty label or description")
            if known_labels is not None and label not in known_labels:
                raise DescriptionFileError(f"{path}:{lineno}: unknown label {label!r}")
            if (label, text) in seen:
                logger.warning("%s:%d: duplicate description for %r ignored", path, lineno, label)
                continue
            seen.add((label, text))
            raw.setdefault(label, []).append(text)
    if not raw:
        raise DescriptionFileError(f"{path}: no descriptions found")
    return raw


def encode_bank(raw: dict[str, list[str]], weights: enc.EncoderWeights,
                vocab: enc.Vocab, label_ids: dict[str, int]) -> DescriptionBank:
    """Encode every description with the frozen encoder, all of them in one
    batch; vector = [CLS] state."""
    if not weights.frozen:
        raise ValueError("encode_bank requires a frozen encoder")
    bank = DescriptionBank(encoder_fingerprint=weights.fingerprint())
    max_len = weights.config.max_seq_len
    labels = sorted(raw, key=lambda s: label_ids[s])
    encoded = []
    for label in labels:
        for text in raw[label]:
            if len(text.split()) + 1 > max_len:
                logger.warning("description for %r exceeds max_seq_len; truncated", label)
            encoded.append(enc.tokenize(text, vocab, max_len))
    with T.no_grad():
        cls = enc.encode_base(np.stack([e[0] for e in encoded]),
                              np.stack([e[1] for e in encoded]), weights).cls.data
    start = 0
    for label in labels:
        lid, n = label_ids[label], len(raw[label])
        bank.texts[lid] = list(raw[label])
        bank._vectors[lid] = list(cls[start:start + n])
        start += n
    return bank


def subset_bank(bank: DescriptionBank, n_descriptions: int, seed: int) -> DescriptionBank:
    """Seeded uniform sample of exactly n descriptions per label; every
    label must have n (`harness.check_data` checks that)."""
    rng = np.random.default_rng(seed)
    out = DescriptionBank(encoder_fingerprint=bank.encoder_fingerprint)
    for label in bank.labels():
        texts = bank.texts[label]
        pick = sorted(rng.choice(len(texts), size=n_descriptions, replace=False).tolist())
        out.texts[label] = [texts[i] for i in pick]
        out._vectors[label] = [bank._vectors[label][i] for i in pick]
    return out
