"""Label-description bank: ingest TSV description files, encode them
once through the frozen backbone, and keep one row per description.

Vectors are frozen constants; a fingerprint of the encoder weights is
stored so a bank cannot silently be reused with a different backbone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import encoder as enc

logger = logging.getLogger(__name__)


class DescriptionFileError(ValueError):
    pass


class FingerprintMismatchError(RuntimeError):
    pass


@dataclass
class DescriptionBank:
    """One row per description, rows grouped by ascending label id:
    `texts[i]` has label id `labels[i]` and [CLS] vector `vectors[i]`."""
    texts: list[str]
    labels: np.ndarray             # [n] int
    vectors: np.ndarray            # [n, d]
    encoder_fingerprint: str

    def check_fingerprint(self, weights: enc.EncoderWeights) -> None:
        fp = weights.fingerprint()
        if fp != self.encoder_fingerprint:
            raise FingerprintMismatchError(
                "description bank was encoded with a different frozen encoder "
                f"(bank {self.encoder_fingerprint[:12]}..., active {fp[:12]}...)")


def load_descriptions(path, known_labels) -> dict[str, list[str]]:
    """Parse a `label<TAB>description` file into a label -> descriptions map;
    every label must be one of `known_labels`.

    Duplicate (label, description) pairs are dropped with a warning.
    """
    raw: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, line in enc.text_lines(path, DescriptionFileError):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise DescriptionFileError(f"{path}:{lineno}: expected label<TAB>description")
        label, text = line.split("\t", 1)
        label, text = label.strip(), text.strip()
        if not label or not text:
            raise DescriptionFileError(f"{path}:{lineno}: empty label or description")
        if label not in known_labels:
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
    """Encode every description with the frozen encoder, padded to the
    descriptions' own length (`enc.tokenize_set`); vector = [CLS] state,
    copied from the weights' `kept_cls` at the rows `enc.kept_rows` gives
    (which raises ValueError for weights not frozen)."""
    max_len = weights.config.max_seq_len
    names = sorted(raw, key=lambda s: label_ids[s])
    texts = []
    for name in names:
        for text in raw[name]:
            if len(text.split()) + 1 > max_len:
                logger.warning("description for %r exceeds max_seq_len; truncated", name)
            texts.append(text)
    at = enc.kept_rows(*enc.tokenize_set(texts, vocab, max_len), weights)
    return DescriptionBank(texts,
                           np.asarray([label_ids[name] for name in names for _ in raw[name]]),
                           weights.kept_cls[at], weights.fingerprint())


def subset_bank(bank: DescriptionBank, n_descriptions: int, seed: int) -> DescriptionBank:
    """Seeded uniform sample of exactly n descriptions per label; every
    label must have n (`harness.check_data` checks that)."""
    rng = np.random.default_rng(seed)
    keep = []
    for label in np.unique(bank.labels):
        rows = np.flatnonzero(bank.labels == label)
        keep.extend(rows[sorted(rng.choice(len(rows), size=n_descriptions, replace=False))])
    return DescriptionBank([bank.texts[i] for i in keep], bank.labels[keep],
                           bank.vectors[keep], bank.encoder_fingerprint)
