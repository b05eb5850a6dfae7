"""Small trainable-then-frozen transformer encoder.

Plays the role of the pre-trained backbone: whitespace tokenizer, learned
token + position embeddings, post-LN transformer blocks whose attention
projections can carry LoRA expert pools, and [CLS] pooling. After the
base-task phase the weights are frozen and every later stage treats them
as constants.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import moe
from . import tensor as T
from .objectives import DetectorHead, ce_loss
from .tensor import Tensor

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
class EncoderWeights:
    config: EncoderConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)
    frozen: bool = False

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


def weight_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every encoder tensor, in initialization order."""
    d, f = config.model_dim, config.ffn_dim
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_seq_len, d)}
    for l in range(config.num_layers):
        for tag in PROJECTION_TAGS:
            shapes[f"layer{l}.{tag}.weight"] = (d, d)
            shapes[f"layer{l}.{tag}.bias"] = (d,)
        shapes[f"layer{l}.ffn1.weight"] = (f, d)
        shapes[f"layer{l}.ffn1.bias"] = (f,)
        shapes[f"layer{l}.ffn2.weight"] = (d, f)
        shapes[f"layer{l}.ffn2.bias"] = (d,)
        for ln in ("ln1", "ln2"):
            shapes[f"layer{l}.{ln}.gain"] = (d,)
            shapes[f"layer{l}.{ln}.bias"] = (d,)
    return shapes


def init_encoder_weights(config: EncoderConfig, rng: np.random.Generator) -> EncoderWeights:
    # Scale-preserving (Glorot) init for all projections: at desk scale the
    # encoder is trained only lightly before freezing, so the initialization
    # itself must propagate sentence content into [CLS] without vanishing.
    # Embeddings draw at sd 1/sqrt(d); biases start at 0 and gains at 1.
    tensors = {}
    for name, shape in weight_shapes(config).items():
        if name.endswith("_emb"):
            arr = rng.normal(0.0, 1.0 / np.sqrt(config.model_dim), shape)
        elif name.endswith(".weight"):
            arr = rng.normal(0.0, np.sqrt(2.0 / sum(shape)), shape)
        else:
            arr = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        tensors[name] = Tensor(arr, requires_grad=True)
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


def padded_length(texts, max_len: int) -> int:
    """The one padded length of every batch drawn from `texts`: their
    longest tokenized text, [CLS] included, capped by `max_len`."""
    return min(max_len, 1 + max(len(text.split()) for text in texts))


def _forward(ids: np.ndarray, mask: np.ndarray, weights: EncoderWeights, pools=None,
             mix=None, token_topk: int | None = None, combine_mode: str = "softmax",
             embed_noise: np.ndarray | None = None) -> tuple[Tensor, list[dict]]:
    """Shared forward over a [B, S] batch of ids/mask (a single sentence is
    a batch of one). Returns the [B, d] [CLS] rows and the token-routing
    records.

    Each projection with a pool in `pools` adds that pool's LoRA delta:
    mixed by `mix[(layer, tag)]` (instance routing) or, with `token_topk`,
    by a router that scores every token of the projection's input and
    appends its record, with the mask as its row mask, to the records.

    Padded keys get exactly zero attention (`T.MASK_BIAS`), but a row's
    bits depend on the width S it is padded to, not on the other rows. So
    the batch runs at the width it comes in, callers pad every batch of a
    set to the set's `padded_length`, and `embed_noise` is [B, S, d].

    Only [CLS] leaves the last block, and a position's output there depends
    on the other positions through the keys and values alone. So that block
    projects `k` and `v` over all positions and runs everything else (the
    query, attention output, `o`, both layer norms and the FFN) on row 0:
    the lossless end of PoWER-BERT's word-vector elimination. Its `q` token
    router still scores every position; only the [CLS] row's delta applies."""
    cfg = weights.config
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise T.ShapeError(f"ids and mask must both be [B, S], got {ids.shape} and {mask.shape}")
    if ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id {int(ids.max())} >= vocab_size {cfg.vocab_size}")
    w = weights.tensors
    records = []

    def project(h, l, tag, routed=None):
        out = T.linear(h, w[f"layer{l}.{tag}.weight"], w[f"layer{l}.{tag}.bias"])
        pool = (pools or {}).get((l, tag))
        if pool is None:
            return out
        if token_topk is None:
            pool_mix = mix[(l, tag)]
        else:
            routed = h if routed is None else routed
            pool_mix, record = moe.token_mix_weights(pool, routed, token_topk, combine_mode)
            record["mask"] = mask  # the router loss averages real tokens only
            records.append(record)
            if h.shape[1] < routed.shape[1]:  # h is the [CLS] row of `routed`
                pool_mix = T.take(pool_mix, [0], axis=1)
        return T.add(out, moe.pool_delta(pool, h, pool_mix))

    x = T.add(T.take(w["tok_emb"], ids), T.take(w["pos_emb"], np.arange(ids.shape[1])))
    if embed_noise is not None:
        x = T.add(x, Tensor(embed_noise))
    key_bias = np.where(mask[:, None, None, :] == 1, 0.0, T.MASK_BIAS)

    for l in range(cfg.num_layers):
        rows = T.take(x, [0], axis=1) if l == cfg.num_layers - 1 else x
        ctx = T.attention(project(rows, l, "q", routed=x), project(x, l, "k"),
                          project(x, l, "v"), key_bias, cfg.num_heads)
        x = T.layer_norm(T.add(rows, project(ctx, l, "o")), w[f"layer{l}.ln1.gain"],
                         w[f"layer{l}.ln1.bias"], cfg.layernorm_eps)
        ff = T.gelu(T.linear(x, w[f"layer{l}.ffn1.weight"], w[f"layer{l}.ffn1.bias"]))
        ff = T.linear(ff, w[f"layer{l}.ffn2.weight"], w[f"layer{l}.ffn2.bias"])
        x = T.layer_norm(T.add(x, ff), w[f"layer{l}.ln2.gain"], w[f"layer{l}.ln2.bias"],
                         cfg.layernorm_eps)

    return T.take(x, 0, axis=1), records


def encode_base(ids, mask, weights: EncoderWeights,
                embed_noise: np.ndarray | None = None) -> Tensor:
    """[B, d] [CLS] rows of the encoder with no expert deltas."""
    return _forward(ids, mask, weights, embed_noise=embed_noise)[0]


def encode_with_experts(ids, mask, weights: EncoderWeights, pools, mix,
                        embed_noise: np.ndarray | None = None,
                        token_topk: int | None = None,
                        combine_mode: str = "softmax") -> tuple[Tensor, list[dict]]:
    """Forward with LoRA expert deltas on the adapted projections; returns
    the [B, d] [CLS] rows and the token-routing records.

    `mix` maps each pool key to its [B, M] instance-level mix weights
    (from `moe.route_instance`), and the records are empty. When
    `token_topk` is given, `mix` is ignored and routing is recomputed per
    token inside each block: one record per pool, each with the attention
    mask as its row mask. The last block's `q` router scores every token,
    but only the [CLS] row's delta is applied.
    """
    if token_topk is None:
        if mix is None:
            raise ValueError("instance-level forward requires routing mix weights")
        missing = sorted(set(pools) - set(mix))
        if missing:
            raise ValueError(f"routing mix missing pool {missing[0]}")
    return _forward(ids, mask, weights, pools, mix, token_topk, combine_mode, embed_noise)


def train_base_task(instances, config: EncoderConfig, vocab: Vocab,
                    rng: np.random.Generator, *, epochs: int, lr: float,
                    batch_size: int = 16, head_lr: float = 1e-2) -> EncoderWeights:
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

    seq = padded_length([text for text, _ in instances], config.max_seq_len)
    encoded = [tokenize(text, vocab, seq) for text, _ in instances]
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
            loss = ce_loss(head, encode_base(ids_all[sel], mask_all[sel], weights),
                           labels[sel])
            loss.backward()
            opt.step()
            opt_head.step()
    weights.freeze()
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
        if not isinstance(header, dict):
            raise WeightsFormatError("container header is not a JSON object")
        if header.get("version") != WEIGHTS_FORMAT_VERSION:
            raise WeightsFormatError(
                f"unknown container version {header.get('version')!r}, "
                f"expected {WEIGHTS_FORMAT_VERSION!r}")
        if not (isinstance(header.get("shapes"), dict)
                and isinstance(header.get("meta", {}), dict)):
            raise WeightsFormatError("container header needs a shape table and a meta object")
        out = {}
        for name in sorted(header["shapes"]):
            shape = header["shapes"][name]
            if not (isinstance(shape, list)
                    and all(type(n) is int and n >= 0 for n in shape)):
                raise WeightsFormatError(f"tensor {name!r} has a bad shape {shape!r}")
            shape = tuple(shape)
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise WeightsFormatError(f"truncated payload for tensor {name!r}")
            out[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
    return out, header.get("meta", {})


def save_weights(weights: EncoderWeights, path, vocab: Vocab,
                 extra_meta: dict | None = None) -> None:
    meta = {"config": asdict(weights.config), "frozen": weights.frozen,
            "vocab": vocab.to_list()}
    if extra_meta:
        meta.update(extra_meta)
    save_tensors({f"encoder/{k}": v.data for k, v in weights.tensors.items()}, path,
                 meta=meta)


def load_weights(path) -> tuple[EncoderWeights, Vocab, dict]:
    """Returns (weights, vocab, meta). Raises WeightsFormatError for a
    container that does not hold encoder weights alone (a checkpoint, say),
    whose tensors are not exactly those `weight_shapes` names for its
    config, each at its shape, or whose vocabulary is not the token list
    `Vocab.to_list` writes, with `vocab_size` tokens."""
    arrays, meta = load_tensors(path)
    if not isinstance(meta.get("config"), dict):
        raise WeightsFormatError(f"{path}: no encoder config in the header")
    outside = sorted(name for name in arrays if not name.startswith("encoder/"))
    if outside:
        raise WeightsFormatError(f"{path}: entry {outside[0]!r} is not an encoder tensor")
    try:
        cfg = EncoderConfig(**meta["config"])
    except (TypeError, ValueError) as exc:
        raise WeightsFormatError(f"{path}: bad encoder config: {exc}") from exc
    arrays = {name[len("encoder/"):]: arr for name, arr in arrays.items()}
    expected = weight_shapes(cfg)
    missing = sorted(expected.keys() - arrays.keys())
    if missing:
        raise WeightsFormatError(f"{path}: encoder tensor {missing[0]!r} is missing")
    for name, arr in arrays.items():
        if name not in expected:
            raise WeightsFormatError(f"{path}: unknown encoder tensor {name!r}")
        if arr.shape != expected[name]:
            raise WeightsFormatError(f"{path}: encoder tensor {name!r} has shape "
                                     f"{arr.shape}, expected {expected[name]}")
    tokens = meta.get("vocab")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and len(tokens) == cfg.vocab_size and Vocab.from_list(tokens).to_list() == tokens):
        raise WeightsFormatError(f"{path}: the vocabulary is not a list of {cfg.vocab_size} "
                                 "distinct tokens that starts with the reserved ones")
    tensors = {name: Tensor(arr.copy(), requires_grad=True) for name, arr in arrays.items()}
    weights = EncoderWeights(config=cfg, tensors=tensors)
    if meta.get("frozen"):
        weights.freeze()
    return weights, Vocab.from_list(tokens), meta
