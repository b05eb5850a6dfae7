"""Small trainable-then-frozen transformer encoder.

Plays the role of the pre-trained backbone: whitespace tokenizer, learned
token + position embeddings, post-LN transformer blocks whose attention
projections can carry LoRA expert pools, and [CLS] pooling. After the
base-task phase the weights are frozen and every later stage treats them
as constants.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

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
        for name in ("num_layers", "model_dim", "num_heads", "ffn_dim", "max_seq_len",
                     "vocab_size"):
            value = getattr(self, name)
            if type(value) is not int:  # 16.0 == 16 would pass every shape check
                raise ValueError(f"{name} is {value!r}, not an integer")
        eps = self.layernorm_eps
        if type(eps) not in (int, float) or not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"layernorm_eps is {eps!r}, not a finite number > 0")
        for name in ("num_layers", "model_dim", "num_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2")
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")


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
    tensors: dict[str, Tensor] | MappingProxyType = field(default_factory=dict)  # once frozen
    frozen: bool = False
    # `kept_rows`' store: the bytes of a row's ids and mask -> its row of `kept_cls`
    kept_at: dict[bytes, int] = field(default_factory=dict, repr=False, compare=False)
    kept_cls: np.ndarray = field(init=False, repr=False, compare=False)
    _fingerprint: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self):
        self.kept_cls = np.empty((0, self.config.model_dim))
        if self.frozen:
            self.freeze()

    def __reduce__(self):  # a mappingproxy does not pickle; the copy is frozen afresh
        return EncoderWeights, (self.config, dict(self.tensors), self.frozen)

    def params(self) -> list[Tensor]:
        return list(self.tensors.values())

    def freeze(self) -> None:
        """Make the weights constants for good: no tensor requires grad,
        every array is read-only (writing into one raises ValueError), so is
        the tensor map (assigning into it raises TypeError), and the
        fingerprint is taken once, here. The one write this cannot refuse is
        rebinding a tensor's `data` (`t.data = x`); no code does it."""
        for t in self.tensors.values():
            t.requires_grad, t.grad = False, None
            t.data.flags.writeable = False
        self.tensors = MappingProxyType(dict(self.tensors))
        self.frozen, self._fingerprint = True, self.fingerprint()

    def fingerprint(self) -> str:
        if self.frozen and self._fingerprint:  # taken by `freeze`
            return self._fingerprint
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


def tokenize_set(texts, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """[N, S] ids and mask of `texts`, every text padded to the set's one
    length S: its longest tokenized text, [CLS] included, capped by
    `max_len`. A row's [CLS] bits depend on the width it is padded to, so
    every batch drawn from one set pads alike."""
    width = min(max_len, 1 + max(len(text.split()) for text in texts))
    ids, mask = zip(*[tokenize(text, vocab, width) for text in texts])
    return np.stack(ids), np.stack(mask)


def _token_matmuls(cfg: EncoderConfig, pools, cls) -> set[tuple[int, int]]:
    """(d_in, d_out) of every `x @ Wᵀ` that a packed forward runs per token:
    the projections and the FFN, each pool's LoRA down- and up-projection
    and, under token routing, its router."""
    d = cfg.model_dim
    shapes = {(d, d), (d, cfg.ffn_dim), (cfg.ffn_dim, d)}
    for pool in (pools or {}).values():
        M, _, r = pool.A.shape
        shapes |= {(d, M * r), (M * r, d)} | ({(d, M)} if cls is None else set())
    return shapes


@functools.cache
def _rows_stand_alone(rows: int, d_in: int, d_out: int) -> bool:
    """Whether this process's BLAS gives every row of `x @ Wᵀ`, x
    [P, rows, d_in] and W [d_out, d_in], the same bits at every place in
    its call and among any neighbours: one 3-D call holds `rows` rotations
    of random rows, so each row sits once at each place, compared bit for
    bit."""
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(rows, d_in)), rng.normal(size=(d_out, d_in))
    y = np.matmul(np.stack([np.roll(x, -p, axis=0) for p in range(rows)]), w.T)
    return y.tobytes() == np.stack([np.roll(y[0], -p, axis=0) for p in range(rows)]).tobytes()


def _batch(ids, mask) -> tuple[np.ndarray, np.ndarray]:
    """`ids` and `mask` as int64 arrays; ShapeError unless both are [B, S]."""
    ids, mask = np.asarray(ids, dtype=np.int64), np.asarray(mask, dtype=np.int64)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise T.ShapeError(f"ids and mask must both be [B, S], got {ids.shape} and {mask.shape}")
    return ids, mask


def _forward(ids: np.ndarray, mask: np.ndarray, weights: EncoderWeights, pools=None,
             cls=None, topk: int | None = None,
             embed_noise: np.ndarray | None = None) -> tuple[Tensor, list[dict]]:
    """Shared forward over a [B, S] batch of ids/mask (a single sentence is
    a batch of one). Returns the [B, d] [CLS] rows and the routing records.
    Each projection with a pool in `pools` adds that pool's LoRA delta,
    routed as `encode_with_experts` describes. Position 0 of every row
    ([CLS]) must be real.

    Padded keys get exactly zero attention (`T.MASK_BIAS`), but a row's
    bits depend on the width S it is padded to, not on the other rows. So
    the batch runs at the width it comes in, callers pad every batch of a
    set to the set's one length (`tokenize_set`), and `embed_noise` is
    [B, S, d].

    Two layouts of the per-token rows. Under a graph they stay [B, S, d],
    padding included: a weight's gradient is one matmul per sentence,
    summed over sentences, and another layout would sum in another order.
    Without one (evaluation, the frozen [CLS] passes, the teacher, exemplar
    selection), in a batch with padding, the real tokens alone are packed
    row by row into [P, S, d] slices of exactly S rows, the last one
    completed with zero rows, and every per-token op after the embedding
    lookup runs on them: the projections, their LoRA deltas (the instance
    mix repeated per token), token routing, the residual adds, both layer
    norms and the FFN. Only `T.attention` sees [B, S, d], each padded
    position holding a copy of its row's [CLS], and its context is
    gathered back. The bits are those of the padded layout, because
    - a matmul row depends only on that row and on the rows per call, S in
      both layouts, if the BLAS kernel gives a row the same bits wherever
      it sits in the call. `_rows_stand_alone` probes that once per process
      for each shape the packed forward multiplies (`_token_matmuls`); a
      forward with a shape that fails stays padded. Rows of different
      sentences share a call, so batch invariance here rests on this
      property of the kernel, not on one call per sentence as under a graph;
    - a padded key gets exactly zero attention weight, whatever its value,
      and no real position reads a padded query's output;
    - layer norm, GELU and the adds act per row or per element.
    Token-routing records come back as [B, S]; where padded (mask 0) they
    hold the row's [CLS] entry.

    Only [CLS] leaves the last block, and a position's output there depends
    on the other positions through the keys and values alone. So that block
    projects `k` and `v` over all positions and runs everything else (the
    query, attention output, `o`, both layer norms and the FFN) on the
    [B, 1, d] [CLS] rows: the lossless end of PoWER-BERT's word-vector
    elimination. Its `q` token router still scores every position; only the
    [CLS] row's delta applies."""
    cfg = weights.config
    ids, mask = _batch(ids, mask)
    if ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id {int(ids.max())} >= vocab_size {cfg.vocab_size}")
    if not (mask[:, 0] == 1).all():
        raise ValueError("position 0 ([CLS]) of every row must be real (mask 1)")
    w = weights.tensors
    mix, records = (None, []) if cls is None else moe.route_instance(pools, cls, topk)
    bsz, width = ids.shape
    packed = (not T.grad_enabled() and not mask.all()
              and all(_rows_stand_alone(width, *s) for s in _token_matmuls(cfg, pools, cls)))
    if packed:
        real = np.flatnonzero(mask == 1)  # flat position of every real token, row by row
        owner = real // width  # the row of each real token
        cls_at = np.searchsorted(real, np.arange(bsz) * width)  # each row's [CLS] among them
        spread = np.repeat(cls_at, width)  # each position's packed row: its own if real,
        spread[real] = np.arange(real.size)  # else its row's [CLS]

        def pack(a: np.ndarray, at: np.ndarray) -> Tensor:
            """Rows `at` of a ([N, ...]) -> [P, S, ...] slices."""
            out = np.empty((-(-at.size // width) * width,) + a.shape[1:])
            np.take(a, at, axis=0, out=out[:at.size])
            out[at.size:] = 0.0
            return Tensor(out.reshape((-1, width) + a.shape[1:]))

        def unpack(a: np.ndarray) -> np.ndarray:
            """[P, S, ...] packed rows -> [B, S, ...], a padded position
            holding its row's [CLS] entry."""
            rows = np.take(a.reshape((-1,) + a.shape[2:]), spread, axis=0)
            return rows.reshape((bsz, width) + a.shape[2:])

    def batched(t: Tensor) -> Tensor:
        """Per-token rows in the [B, S, ...] layout."""
        return Tensor(unpack(t.data)) if packed else t

    def cls_rows(t: Tensor) -> Tensor:
        """The [B, 1, ...] [CLS] rows of per-token rows."""
        if packed:
            return Tensor(t.data.reshape((-1,) + t.shape[2:])[cls_at, None])
        return T.take(t, [0], axis=1)

    def project(h, l, tag, routed=None):
        """Projection `tag` of block l with its pool's delta; given `routed`,
        h is the [CLS] rows of those per-token rows."""
        out = T.linear(h, w[f"layer{l}.{tag}.weight"], w[f"layer{l}.{tag}.bias"])
        pool = (pools or {}).get((l, tag))
        if pool is None:
            return out
        if mix is not None:
            pool_mix = mix[(l, tag)]
            if packed and routed is None:  # the instance's mix row for each token
                pool_mix = pack(pool_mix.data, owner)
        else:
            pool_mix, record = moe.token_mix_weights(pool, h if routed is None else routed, topk)
            if packed:
                record.update(scores=batched(record["scores"]), selected=unpack(record["selected"]))
            record["key"] = (l, tag)
            record["mask"] = mask  # the router loss averages real tokens only
            records.append(record)
            if routed is not None:
                pool_mix = cls_rows(pool_mix)
        return T.add(out, moe.pool_delta(pool, h, pool_mix))

    x = T.add(T.take(w["tok_emb"], ids), T.take(w["pos_emb"], np.arange(width)))
    if embed_noise is not None:
        x = T.add(x, Tensor(embed_noise))
    if packed:
        x = pack(x.data.reshape(-1, cfg.model_dim), real)
    key_bias = np.where(mask[:, None, None, :] == 1, 0.0, T.MASK_BIAS)

    for l in range(cfg.num_layers):
        last = l == cfg.num_layers - 1
        rows = cls_rows(x) if last else x
        q = project(rows, l, "q", routed=x if last else None)
        ctx = T.attention(q if last else batched(q), batched(project(x, l, "k")),
                          batched(project(x, l, "v")), key_bias, cfg.num_heads)
        if packed and not last:
            ctx = pack(ctx.data.reshape(-1, cfg.model_dim), real)
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


def encode_with_experts(ids, mask, weights: EncoderWeights, pools, cls, topk: int,
                        embed_noise: np.ndarray | None = None) -> tuple[Tensor, list[dict]]:
    """Forward with LoRA expert deltas on the adapted projections; returns
    the [B, d] [CLS] rows and one routing record per pool, in sorted key
    order.

    Given the [B, d] frozen [CLS] rows `cls`, every pool is routed once per
    instance (`moe.route_instance`) and the records are that routing's.
    Given `cls=None`, routing is per token inside each block, and each
    record carries the attention mask as its row mask. The last block's `q`
    router scores every token, but only the [CLS] row's delta is applied.
    """
    return _forward(ids, mask, weights, pools, cls, topk, embed_noise)


# Largest number of rows per frozen or evaluation forward pass. Instances
# per second over leaf-ref's five test sets (188 rows each, 9 wide) after
# task 5, by chunk size (median of 15, interleaved, seed 21, 2-core host):
# 32: 7319, 64: 8247, 96: 8641, 128: 8310, 188: 7226. Smaller chunks pay each
# block's fixed NumPy call cost too often; larger ones outgrow a core's 2 MB L2.
EVAL_CHUNK = 96


def in_chunks(fn, n: int, *arrays) -> np.ndarray:
    """`fn` run without a graph on consecutive EVAL_CHUNK-row slices of the
    n-row `arrays` (a None array stays None), its results stacked."""
    with T.no_grad():
        return np.concatenate([fn(*(None if a is None else a[s:s + EVAL_CHUNK] for a in arrays))
                               for s in range(0, n, EVAL_CHUNK)])


def kept_rows(ids, mask, weights: EncoderWeights) -> np.ndarray:
    """The [N] rows of `weights.kept_cls` holding the noise-free frozen [CLS]
    vectors of tokenized rows (`tokenize_set`). Rows not kept yet are
    encoded without a graph, EVAL_CHUNK rows per pass, and appended, so read
    `kept_cls` after this returns. A row's key is the bytes of its ids and
    mask, so its width too: its [CLS] bits depend only on the row and its
    width (`_forward`). The weights must be frozen (ValueError if not), so a
    kept row stays valid while they live. Noisy rows are never kept."""
    if not weights.frozen:
        raise ValueError("kept_rows needs frozen weights (EncoderWeights.freeze)")
    ids, mask = _batch(ids, mask)
    kept, keys = weights.kept_at, [row.tobytes() for row in np.concatenate([ids, mask], 1)]
    new = {key: i for i, key in enumerate(keys) if key not in kept}  # each row not kept, once
    if new:
        at = np.fromiter(new.values(), np.int64, len(new))
        rows = in_chunks(lambda i, m: encode_base(i, m, weights).data, len(at), ids[at], mask[at])
        kept.update(zip(new, range(len(kept), len(kept) + len(new))))  # once all are encoded
        weights.kept_cls = np.concatenate([weights.kept_cls, rows])
    return np.fromiter((kept[key] for key in keys), np.int64, len(keys))


BASE_HEAD_LR = 1e-2  # learning rate of base pretraining's detector head


def train_base_task(instances, config: EncoderConfig, vocab: Vocab,
                    rng: np.random.Generator, *, epochs: int, lr: float,
                    batch_size: int = 16) -> EncoderWeights:
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
    opt_head = T.Adam(head.params(), lr=BASE_HEAD_LR)

    ids_all, mask_all = tokenize_set([text for text, _ in instances], vocab,
                                     config.max_seq_len)
    # Train only the embedding rows the texts use. Another row's gradient is
    # exactly zero at every step, so Adam would leave its bits as they are.
    used, inverse = np.unique(ids_all, return_inverse=True)
    ids_all = inverse.reshape(ids_all.shape)  # NumPy 1.x returns it flat
    full = weights.tensors["tok_emb"]
    weights.tensors["tok_emb"] = Tensor(full.data[used], requires_grad=True)
    opt = T.Adam(weights.params(), lr=lr)
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
    full.data[used] = weights.tensors["tok_emb"].data
    weights.tensors["tok_emb"] = full
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


def text_lines(path, error: type[Exception]):
    """(line number, line) of each line of the UTF-8 text file `path`;
    `error` naming the file if it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc})") from exc


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
        size = os.fstat(fh.fileno()).st_size
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
            nbytes, left = 8 * math.prod(shape), size - fh.tell()
            if nbytes > left:  # checked before reading: the shape table can claim any size
                raise WeightsFormatError(f"truncated payload for tensor {name!r}: its shape "
                                         f"needs {nbytes} bytes, {left} are left in the file")
            out[name] = np.frombuffer(fh.read(nbytes), "<f8").astype(np.float64).reshape(shape)
        extra = size - fh.tell()
        if extra:
            raise WeightsFormatError(f"{extra} bytes follow the last declared payload")
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
    config, each at its shape, whose config sizes are not integers or whose
    `layernorm_eps` is not a finite number > 0, whose `frozen` is not a
    bool, or whose vocabulary is not the token list `Vocab.to_list` writes,
    with `vocab_size` tokens."""
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
    frozen = meta.get("frozen")
    if type(frozen) is not bool:
        raise WeightsFormatError(f"{path}: frozen is {frozen!r}, not a bool")
    tensors = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return EncoderWeights(cfg, tensors, frozen), Vocab.from_list(tokens), meta
