"""Reference implementations the tests compare library code against."""

import contextlib

import numpy as np
import pytest

import leaf.continual as C
import leaf.encoder as E
import leaf.moe as moe
import leaf.tensor as T

# ---------------------------------------------------------------------------
# Primitive nodes that the library's fused nodes replaced, kept here to build
# the compositions those nodes must match bit for bit.


def matmul(a, b) -> T.Tensor:
    """Batched matrix product of operands with at least 2 dims each; leading
    (batch) dims broadcast."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise T.ShapeError(f"matmul requires operands of at least 2 dims: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise T.ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(T._unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
        if b.requires_grad:
            b.accumulate_grad(T._unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape))

    return T._node(data, (a, b), bw)


def transpose(a, axes=None) -> T.Tensor:
    a = T.as_tensor(a)
    inv = None if axes is None else tuple(np.argsort(axes))
    return T._node(np.transpose(a.data, axes), (a,),
                   lambda g: a.accumulate_grad(np.transpose(g, inv)))


def reshape(a, shape) -> T.Tensor:
    a = T.as_tensor(a)
    return T._node(a.data.reshape(shape), (a,),
                   lambda g: a.accumulate_grad(g.reshape(a.shape)))


def exp(a) -> T.Tensor:
    a = T.as_tensor(a)
    data = np.exp(a.data)
    return T._node(data, (a,), lambda g: a.accumulate_grad(g * data))


def log(a) -> T.Tensor:
    a = T.as_tensor(a)
    return T._node(np.log(a.data), (a,), lambda g: a.accumulate_grad(g / a.data))


# ---------------------------------------------------------------------------
# The compositions of primitives that each fused node replaced

_softmax = T.softmax


def scores(x, weight) -> T.Tensor:
    """`T.scores`: x @ weightᵀ."""
    return matmul(x, transpose(weight))


def softmax(a, axis=-1, bias=None) -> T.Tensor:
    """`T.softmax` with a bias: the plain softmax of a + Tensor(bias)."""
    return _softmax(a if bias is None else T.add(a, T.Tensor(bias)), axis=axis)


def logsumexp(a, axis=-1, bias=None) -> T.Tensor:
    """`T.logsumexp`: exp, sum and log nodes around a constant max shift."""
    if bias is not None:
        a = T.add(a, T.Tensor(bias))
    m = a.data.max(axis=axis, keepdims=True)
    inner = T.tsum(exp(T.add(a, T.Tensor(-m))), axis=axis)
    return T.add(log(inner), T.Tensor(np.squeeze(m, axis=axis)))


def pool_delta(pool, x, mix) -> T.Tensor:
    """`moe.pool_delta` (`T.lora`) as reshapes, transposes, two matmuls and
    a mul."""
    M, d, r = pool.A.shape
    down = reshape(pool.B, (M * r, d))                                  # [M*r, d]
    up = reshape(transpose(pool.A, (1, 0, 2)), (d, M * r))              # [d, M*r]
    low = matmul(x, transpose(down))                                    # [B, S, M*r]
    w = reshape(mix, (x.shape[0], -1, M, 1))                            # [B, 1|S, M, 1]
    scaled = T.mul(reshape(low, low.shape[:-1] + (M, r)), w)            # [B, S, M, r]
    return matmul(reshape(scaled, low.shape), transpose(up))


@contextlib.contextmanager
def composed_ops():
    """Inside the block, the expert pools, the router scores, the masked
    softmax and the label loss's log-sum-exps run as their compositions."""
    with pytest.MonkeyPatch.context() as mp:
        for mod, name, fn in [(moe, "pool_delta", pool_delta), (T, "scores", scores),
                              (T, "softmax", softmax), (T, "logsumexp", logsumexp)]:
            mp.setattr(mod, name, fn)
        yield


def cosine_similarity(u, v, eps_norm: float = T.EPS_NORM) -> T.Tensor:
    """u.v / (|u||v|), differentiable; rejects near-zero vectors."""
    u, v = T.as_tensor(u), T.as_tensor(v)
    nu = float(np.linalg.norm(u.data))
    nv = float(np.linalg.norm(v.data))
    if nu < eps_norm or nv < eps_norm:
        raise T.DegenerateVectorError(
            f"cosine_similarity: vector norm below {eps_norm} (|u|={nu:.3g}, |v|={nv:.3g})")

    def dot(a, b):
        return T.tsum(T.mul(a, b))

    return T.div(dot(u, v), T.mul(T.sqrt(dot(u, u)), T.sqrt(dot(v, v))))


def full_width_forward(ids, mask, weights, pools=None, mix=None, token_topk=None,
                       embed_noise=None):
    """The encoder forward that computes every position of every block,
    the last one included, with the library's ops; `leaf.encoder._forward`
    runs its last block on [CLS] only and must agree with this at row 0.

    With `pools`, each adapted projection adds its pool's delta: mixed by
    `mix[(layer, tag)]` (instance routing) or, with `token_topk`, routed per
    token from the projection's full-width input. Returns the final hidden
    states [B, S, d] and the token-routing records.
    """
    cfg = weights.config
    w = weights.tensors
    x = T.add(T.take(w["tok_emb"], ids), T.take(w["pos_emb"], np.arange(ids.shape[1])))
    if embed_noise is not None:
        x = T.add(x, T.Tensor(embed_noise))
    key_bias = np.where(mask[:, None, None, :] == 1, 0.0, T.MASK_BIAS)
    records = []

    def project(h, l, tag):
        out = T.linear(h, w[f"layer{l}.{tag}.weight"], w[f"layer{l}.{tag}.bias"])
        pool = (pools or {}).get((l, tag))
        if pool is None:
            return out
        if token_topk is None:
            pool_mix = mix[(l, tag)]
        else:
            pool_mix, record = moe.token_mix_weights(pool, h, token_topk)
            record["mask"] = mask
            records.append(record)
        return T.add(out, moe.pool_delta(pool, h, pool_mix))

    for l in range(cfg.num_layers):
        ctx = T.attention(project(x, l, "q"), project(x, l, "k"), project(x, l, "v"),
                          key_bias, cfg.num_heads)
        x = T.layer_norm(T.add(x, project(ctx, l, "o")), w[f"layer{l}.ln1.gain"],
                         w[f"layer{l}.ln1.bias"], cfg.layernorm_eps)
        ff = T.gelu(T.linear(x, w[f"layer{l}.ffn1.weight"], w[f"layer{l}.ffn1.bias"]))
        ff = T.linear(ff, w[f"layer{l}.ffn2.weight"], w[f"layer{l}.ffn2.bias"])
        x = T.layer_norm(T.add(x, ff), w[f"layer{l}.ln2.gain"], w[f"layer{l}.ln2.bias"],
                         cfg.layernorm_eps)
    return x, records


def dataset_order_predict(state, instances, chunk: int = 32) -> list[int]:
    """`leaf.continual.predict` in chunks of 32 rows, not EVAL_CHUNK."""
    preds = []
    for start in range(0, len(instances), chunk):
        with T.no_grad():
            feats, _, _ = C.forward_features(state, instances[start:start + chunk])
        preds.extend(state.head.predict(feats).tolist())
    return preds


def uncached_cls(state, instances, ids, mask, embed_noise):
    """`leaf.continual._frozen_cls` with a cache that never stores: every
    row of the batch goes through the frozen encoder."""
    with T.no_grad():
        return E.encode_base(ids, mask, state.weights, embed_noise=embed_noise).data


def per_label_exemplars(state, instances_by_label) -> dict:
    """`leaf.continual.select_exemplar` with one forward pass per label."""
    out = {}
    for y in sorted(instances_by_label):
        group = instances_by_label[y]
        if not group:
            raise ValueError(f"no instances for label {y}")
        with T.no_grad():
            feats, _, _ = C.forward_features(state, group)
        f = feats.data
        mean = f.mean(axis=0)
        norm_m = max(np.linalg.norm(mean), 1e-12)
        sims = (f @ mean) / (np.linalg.norm(f, axis=1) * norm_m + 1e-300)
        out[y] = group[int(np.argmax(sims))]
    return out


def run_files(out_dir) -> dict:
    """Every file of a run directory, by relative path."""
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def micro_f1_loop(gold, pred, label_set) -> float:
    """`leaf.metrics.micro_f1` as a Python loop over the rows."""
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    labels = set(label_set)
    for y in gold:
        if y not in labels:
            raise ValueError(f"gold label {y} outside label set")
    if not gold:
        return 0.0
    tp = sum(1 for g, p in zip(gold, pred) if g == p)
    fp = sum(1 for g, p in zip(gold, pred) if g != p and p in labels)
    fn = sum(1 for g, p in zip(gold, pred) if g != p)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1_loop(gold, pred, label_set) -> float:
    """`leaf.metrics.macro_f1` as a Python loop over labels and rows."""
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    scores = []
    for y in sorted(label_set):
        tp = sum(1 for g, p in zip(gold, pred) if g == y and p == y)
        fp = sum(1 for g, p in zip(gold, pred) if g != y and p == y)
        fn = sum(1 for g, p in zip(gold, pred) if g == y and p != y)
        if tp + fn == 0 and fp == 0:
            continue
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores)) if scores else 0.0
