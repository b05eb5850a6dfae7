"""Small trainable-then-frozen transformer encoder.

Plays the role of the pre-trained backbone: whitespace tokenizer, learned
token + position embeddings, post-LN transformer blocks with hookable
attention projections, and [CLS] pooling. After the base-task phase the
weights are frozen and every later stage treats them as constants.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import moe
from . import tensor as T
from .objectives import DetectorHead, ce_loss
from .tensor import Tensor

MASK_BIAS = -1e30  # additive attention bias for padded keys; exp() underflows to exactly 0

WEIGHTS_FORMAT_VERSION = "leaf-weights-v1"

CLS_ID = 0
PAD_ID = 1
UNK_ID = 2
_RESERVED = {"[CLS]": CLS_ID, "[PAD]": PAD_ID, "[UNK]": UNK_ID}

PROJECTION_TAGS = ("q", "k", "v", "o")


class TokenizeError(ValueError):
    pass


class WeightsFormatError(ValueError):
    pass


@dataclass
class EncoderConfig:
    num_layers: int = 2
    model_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 24
    vocab_size: int = 0
    layernorm_eps: float = 1e-5

    def __post_init__(self):
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2")
        for name in ("num_layers", "model_dim", "num_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class Vocab:
    """Token-to-id map with fixed reserved ids [CLS]=0, [PAD]=1, [UNK]=2."""

    def __init__(self, tokens=()):
        self.token_to_id = dict(_RESERVED)
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        if token not in self.token_to_id:
            self.token_to_id[token] = len(self.token_to_id)
        return self.token_to_id[token]

    def get(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def __len__(self) -> int:
        return len(self.token_to_id)

    def to_list(self) -> list[str]:
        inv = {i: t for t, i in self.token_to_id.items()}
        return [inv[i] for i in range(len(inv))]

    @classmethod
    def from_list(cls, tokens: list[str]) -> "Vocab":
        v = cls()
        for tok in tokens[3:]:
            v.add(tok)
        return v


@dataclass
class SentenceEncoding:
    token_states: Tensor      # [B, seq, d]
    cls: Tensor               # [B, d] = position 0 of the final layer
    attention_mask: np.ndarray  # [B, seq]
    token_decisions: list = field(default_factory=list)  # per-token routing records


@dataclass
class EncoderWeights:
    config: EncoderConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)
    frozen: bool = False
    base_train_accuracy: float | None = None

    def params(self) -> list[Tensor]:
        return list(self.tensors.values())

    def freeze(self) -> None:
        self.frozen = True
        for t in self.tensors.values():
            t.requires_grad = False
            t.grad = None

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.tensors):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.tensors[name].data).tobytes())
        return h.hexdigest()


def init_encoder_weights(config: EncoderConfig, rng: np.random.Generator) -> EncoderWeights:
    d, f = config.model_dim, config.ffn_dim
    # Scale-preserving (Glorot) init for all projections: at desk scale the
    # encoder is trained only lightly before freezing, so the initialization
    # itself must propagate sentence content into [CLS] without vanishing.
    w = {}
    w["tok_emb"] = rng.normal(0.0, 1.0 / np.sqrt(d), (config.vocab_size, d))
    w["pos_emb"] = rng.normal(0.0, 1.0 / np.sqrt(d), (config.max_seq_len, d))
    sd_dd = np.sqrt(2.0 / (d + d))
    sd_df = np.sqrt(2.0 / (d + f))
    for l in range(config.num_layers):
        for tag in PROJECTION_TAGS:
            w[f"layer{l}.{tag}.weight"] = rng.normal(0.0, sd_dd, (d, d))
            w[f"layer{l}.{tag}.bias"] = np.zeros(d)
        w[f"layer{l}.ffn1.weight"] = rng.normal(0.0, sd_df, (f, d))
        w[f"layer{l}.ffn1.bias"] = np.zeros(f)
        w[f"layer{l}.ffn2.weight"] = rng.normal(0.0, sd_df, (d, f))
        w[f"layer{l}.ffn2.bias"] = np.zeros(d)
        w[f"layer{l}.ln1.gain"] = np.ones(d)
        w[f"layer{l}.ln1.bias"] = np.zeros(d)
        w[f"layer{l}.ln2.gain"] = np.ones(d)
        w[f"layer{l}.ln2.bias"] = np.zeros(d)
    tensors = {k: Tensor(v, requires_grad=True) for k, v in w.items()}
    return EncoderWeights(config=config, tensors=tensors)


def tokenize(text: str, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowercased whitespace tokens -> ids with [CLS] prepended, padded/truncated.

    Returns (ids, mask) arrays of length max_len; mask is 1 for real
    positions ([CLS] included), 0 for padding.
    """
    words = text.lower().split()
    if not words:
        raise TokenizeError("cannot tokenize empty text")
    ids = [CLS_ID] + [vocab.get(w) for w in words]
    ids = ids[:max_len]
    mask = np.zeros(max_len, dtype=np.int64)
    mask[:len(ids)] = 1
    ids = ids + [PAD_ID] * (max_len - len(ids))
    return np.asarray(ids, dtype=np.int64), mask


def _project(x: Tensor, weights: EncoderWeights, layer: int, tag: str,
             lora_delta=None) -> Tensor:
    w = weights.tensors[f"layer{layer}.{tag}.weight"]
    b = weights.tensors[f"layer{layer}.{tag}.bias"]
    out = T.add(T.matmul(x, T.transpose(w)), b)
    if lora_delta is not None:
        delta = lora_delta(x, layer, tag)
        if delta is not None:
            out = T.add(out, delta)
    return out


def _forward(ids: np.ndarray, mask: np.ndarray, weights: EncoderWeights,
             lora_delta=None, embed_noise: np.ndarray | None = None) -> SentenceEncoding:
    """Shared forward over a [B, S] batch of ids/mask (a single sentence is
    a batch of one); `lora_delta(x, layer, tag) -> Tensor|None` hooks the
    attention projections.

    Padded keys get exactly zero attention (MASK_BIAS), so trailing columns
    that are padding in every row cannot reach a real position: the batch
    is cut to its last real column before the embedding lookup, and
    `token_states`/`attention_mask` come back at that length."""
    cfg = weights.config
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise T.ShapeError(f"ids and mask must both be [B, S], got {ids.shape} and {mask.shape}")
    if ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id {int(ids.max())} >= vocab_size {cfg.vocab_size}")
    seq = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
    ids, mask = ids[:, :seq], mask[:, :seq]
    if embed_noise is not None:
        embed_noise = embed_noise[:, :seq]
    bsz = ids.shape[0]
    h_dim = cfg.model_dim // cfg.num_heads

    x = T.add(T.take(weights.tensors["tok_emb"], ids),
              T.take(weights.tensors["pos_emb"], np.arange(seq)))
    if embed_noise is not None:
        x = T.add(x, Tensor(embed_noise))
    key_bias = Tensor(np.where(mask[:, None, None, :] == 1, 0.0, MASK_BIAS))

    for l in range(cfg.num_layers):
        q = _project(x, weights, l, "q", lora_delta)
        k = _project(x, weights, l, "k", lora_delta)
        v = _project(x, weights, l, "v", lora_delta)

        def split_heads(t):
            return T.transpose(T.reshape(t, (bsz, seq, cfg.num_heads, h_dim)), (0, 2, 1, 3))

        qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
        scores = T.mul(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(h_dim))
        att = T.softmax(T.add(scores, key_bias), axis=-1)
        ctx = T.reshape(T.transpose(T.matmul(att, vh), (0, 2, 1, 3)), (bsz, seq, cfg.model_dim))
        out = _project(ctx, weights, l, "o", lora_delta)
        x = T.layer_norm(T.add(x, out), weights.tensors[f"layer{l}.ln1.gain"],
                         weights.tensors[f"layer{l}.ln1.bias"], cfg.layernorm_eps)
        ff = T.matmul(T.gelu(T.add(T.matmul(x, T.transpose(weights.tensors[f"layer{l}.ffn1.weight"])),
                                   weights.tensors[f"layer{l}.ffn1.bias"])),
                      T.transpose(weights.tensors[f"layer{l}.ffn2.weight"]))
        ff = T.add(ff, weights.tensors[f"layer{l}.ffn2.bias"])
        x = T.layer_norm(T.add(x, ff), weights.tensors[f"layer{l}.ln2.gain"],
                         weights.tensors[f"layer{l}.ln2.bias"], cfg.layernorm_eps)

    cls = T.take(x, 0, axis=1)
    return SentenceEncoding(token_states=x, cls=cls, attention_mask=mask)


def encode_base(ids, mask, weights: EncoderWeights,
                embed_noise: np.ndarray | None = None) -> SentenceEncoding:
    """Forward through the encoder with no expert deltas."""
    return _forward(ids, mask, weights, lora_delta=None, embed_noise=embed_noise)


def encode_with_experts(ids, mask, weights: EncoderWeights, pools, mix,
                        embed_noise: np.ndarray | None = None,
                        token_topk: int | None = None,
                        combine_mode: str = "softmax") -> SentenceEncoding:
    """Forward with LoRA expert deltas on the adapted projections.

    `mix` maps each pool key to its [B, M] instance-level mix weights
    (from `moe.route_instance`). When `token_topk` is given, `mix` is
    ignored and routing is recomputed per token inside each block; the
    per-pool routing records land in `token_decisions`, each with the
    (trimmed) attention mask as its row mask.
    """
    if token_topk is None:
        if mix is None:
            raise ValueError("instance-level forward requires routing mix weights")
        missing = sorted(set(pools) - set(mix))
        if missing:
            raise ValueError(f"routing mix missing pool {missing[0]}")
    token_decisions = []

    def lora_delta(x, layer, tag):
        pool = pools.get((layer, tag))
        if pool is None:
            return None
        if token_topk is None:
            return moe.pool_delta(pool, x, mix[(layer, tag)])
        token_mix, record = moe.token_mix_weights(pool, x, token_topk, combine_mode)
        token_decisions.append(record)
        return moe.pool_delta(pool, x, token_mix)

    out = _forward(ids, mask, weights, lora_delta=lora_delta, embed_noise=embed_noise)
    for record in token_decisions:
        record["mask"] = out.attention_mask  # the router loss averages real tokens only
    out.token_decisions = token_decisions
    return out


def train_base_task(instances, config: EncoderConfig, vocab: Vocab,
                    rng: np.random.Generator, epochs: int = 12,
                    batch_size: int = 16, lr: float = 1e-4,
                    head_lr: float = 1e-2) -> EncoderWeights:
    """Train the encoder plus a throwaway detector head, then freeze.

    `instances` are (text, class_index) pairs with a dense 0-based class
    index local to the base task. The head is discarded. The encoder
    learning rate is deliberately small relative to the head's: light
    fine-tuning keeps the representation general for labels the encoder
    never sees, which everything downstream depends on.
    """
    if not instances:
        raise ValueError("train_base_task needs a non-empty dataset")
    n_classes = max(c for _, c in instances) + 1
    weights = init_encoder_weights(config, rng)
    head = DetectorHead(config.model_dim, rng)
    head.grow(range(n_classes))
    opt = T.Adam(weights.params(), lr=lr)
    opt_head = T.Adam(head.params(), lr=head_lr)

    encoded = [tokenize(text, vocab, config.max_seq_len) for text, _ in instances]
    ids_all = np.stack([e[0] for e in encoded])
    mask_all = np.stack([e[1] for e in encoded])
    labels = np.asarray([c for _, c in instances], dtype=np.int64)
    n = len(instances)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            # `loss` holds this batch's graph until the next batch rebinds it.
            # Freeing the graph right after backward(), before the optimizer
            # steps, made pretraining about 15 % slower: the allocator hands
            # the pages back and faults them in again every batch.
            loss = ce_loss(head, encode_base(ids_all[sel], mask_all[sel], weights).cls,
                           labels[sel])
            loss.backward()
            opt.step()
            opt_head.step()
    correct = 0
    with T.no_grad():
        for start in range(0, n, 64):
            cls = encode_base(ids_all[start:start + 64], mask_all[start:start + 64], weights).cls
            correct += int((head.predict(cls) == labels[start:start + 64]).sum())
    weights.freeze()
    weights.base_train_accuracy = correct / n
    return weights


# ---------------------------------------------------------------------------
# weight container ("leaf-weights-v1"): magic + json header + float64 payload


_MAGIC = b"LEAFWT\x00"


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write to a temporary sibling of `path` that replaces `path` only once
    the block completes; on error the temporary file is removed."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_tensors(tensors: dict[str, np.ndarray], path, meta: dict | None = None) -> None:
    """Write named float64 arrays in the versioned container format (atomically)."""
    names = sorted(tensors)
    header = {
        "version": WEIGHTS_FORMAT_VERSION,
        "meta": meta or {},
        "shapes": {name: list(np.asarray(tensors[name]).shape) for name in names},
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(hbytes)))
        fh.write(hbytes)
        for name in names:
            arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
            fh.write(arr.astype("<f8").tobytes())


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise WeightsFormatError("not a leaf weight container (bad magic)")
        raw = fh.read(4)
        if len(raw) != 4:
            raise WeightsFormatError("truncated container header")
        (hlen,) = struct.unpack("<I", raw)
        hbytes = fh.read(hlen)
        if len(hbytes) != hlen:
            raise WeightsFormatError("truncated container header")
        try:
            header = json.loads(hbytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WeightsFormatError(f"corrupted shape table: {exc}") from exc
        if header.get("version") != WEIGHTS_FORMAT_VERSION:
            raise WeightsFormatError(
                f"unknown container version {header.get('version')!r}, "
                f"expected {WEIGHTS_FORMAT_VERSION!r}")
        out = {}
        for name in sorted(header["shapes"]):
            shape = tuple(header["shapes"][name])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise WeightsFormatError(f"truncated payload for tensor {name!r}")
            out[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
    return out, header.get("meta", {})


def save_weights(weights: EncoderWeights, path, vocab: Vocab | None = None,
                 extra_tensors: dict[str, np.ndarray] | None = None,
                 extra_meta: dict | None = None) -> None:
    cfg = weights.config
    meta = {
        "config": {
            "num_layers": cfg.num_layers, "model_dim": cfg.model_dim,
            "num_heads": cfg.num_heads, "ffn_dim": cfg.ffn_dim,
            "max_seq_len": cfg.max_seq_len, "vocab_size": cfg.vocab_size,
            "layernorm_eps": cfg.layernorm_eps,
        },
        "frozen": weights.frozen,
    }
    if vocab is not None:
        meta["vocab"] = vocab.to_list()
    if extra_meta:
        meta.update(extra_meta)
    tensors = {f"encoder/{k}": v.data for k, v in weights.tensors.items()}
    if extra_tensors:
        tensors.update(extra_tensors)
    save_tensors(tensors, path, meta=meta)


def load_weights(path) -> tuple[EncoderWeights, Vocab | None, dict[str, np.ndarray], dict]:
    """Returns (weights, vocab, non-encoder tensors, meta)."""
    arrays, meta = load_tensors(path)
    cfg = EncoderConfig(**meta["config"])
    tensors = {}
    extra = {}
    for name, arr in arrays.items():
        if name.startswith("encoder/"):
            tensors[name[len("encoder/"):]] = Tensor(arr.copy(), requires_grad=True)
        else:
            extra[name] = arr
    weights = EncoderWeights(config=cfg, tensors=tensors)
    if meta.get("frozen"):
        weights.freeze()
    vocab = Vocab.from_list(meta["vocab"]) if "vocab" in meta else None
    return weights, vocab, extra, meta
