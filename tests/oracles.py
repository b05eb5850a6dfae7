"""Reference implementations the tests compare library code against."""

import contextlib

import numpy as np
import pytest

import leaf.continual as C
import leaf.encoder as E
import leaf.moe as moe
import leaf.tensor as T
from leaf.objectives import DetectorHead, ce_loss

# ---------------------------------------------------------------------------
# Primitive nodes that no `leaf` command runs, most of them replaced by the
# library's fused nodes, kept here to build the compositions those nodes must
# match bit for bit and the tests' own objectives.


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


def sqrt(a) -> T.Tensor:
    a = T.as_tensor(a)
    data = np.sqrt(a.data)
    return T._node(data, (a,), lambda g: a.accumulate_grad(g * 0.5 / data))


def mul(a, b) -> T.Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(T._unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(T._unbroadcast(g * a.data, b.shape))

    return T._node(data, (a, b), bw)


def div(a, b) -> T.Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)
    data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(T._unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(T._unbroadcast(-g * a.data / (b.data ** 2), b.shape))

    return T._node(data, (a, b), bw)


def tsum(a, axis=None, keepdims: bool = False) -> T.Tensor:
    a = T.as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a.accumulate_grad(np.broadcast_to(gg, a.shape))

    return T._node(data, (a,), bw)


def log_softmax(a, axis: int = -1) -> T.Tensor:
    a = T.as_tensor(a)
    if np.isnan(a.data).any():
        raise T.NumericalError("log_softmax received NaN input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    sm = np.exp(data)

    def bw(g):
        a.accumulate_grad(g - sm * np.asarray(g).sum(axis=axis, keepdims=True))

    return T._node(data, (a,), bw)


def logsumexp(a, axis: int = -1, bias: np.ndarray | None = None) -> T.Tensor:
    """Stable log-sum-exp of a + bias over `axis`, which is dropped; the
    constant `bias` (masking) gets no gradient, and the max shift is
    treated as a constant. `T.lse_gap` replaced a chain of two of these."""
    a = T.as_tensor(a)
    z = a.data if bias is None else a.data + bias
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    inner = e.sum(axis=axis)
    data = np.log(inner) + np.squeeze(m, axis=axis)

    def bw(g):
        a.accumulate_grad(np.expand_dims(g / inner, axis) * e)

    return T._node(data, (a,), bw)


# ---------------------------------------------------------------------------
# The compositions of primitives that each fused node replaced

_softmax = T.softmax


def scores(x, weight) -> T.Tensor:
    """`T.scores`: x @ weightᵀ."""
    return matmul(x, transpose(weight))


def softmax(a, axis=-1, bias=None) -> T.Tensor:
    """`T.softmax` with a bias: the plain softmax of a + Tensor(bias)."""
    return _softmax(a if bias is None else T.add(a, T.Tensor(bias)), axis=axis)


def composed_logsumexp(a, axis=-1, bias=None) -> T.Tensor:
    """`logsumexp`: exp, sum and log nodes around a constant max shift."""
    if bias is not None:
        a = T.add(a, T.Tensor(bias))
    m = a.data.max(axis=axis, keepdims=True)
    inner = tsum(exp(T.add(a, T.Tensor(-m))), axis=axis)
    return T.add(log(inner), T.Tensor(np.squeeze(m, axis=axis)))


def pool_delta(pool, x, mix) -> T.Tensor:
    """`moe.pool_delta` (`T.lora`) as reshapes, transposes, two matmuls and
    a mul."""
    M, d, r = pool.A.shape
    down = reshape(pool.B, (M * r, d))                                  # [M*r, d]
    up = reshape(transpose(pool.A, (1, 0, 2)), (d, M * r))              # [d, M*r]
    low = matmul(x, transpose(down))                                    # [B, S, M*r]
    w = reshape(mix, (x.shape[0], -1, M, 1))                            # [B, 1|S, M, 1]
    scaled = mul(reshape(low, low.shape[:-1] + (M, r)), w)              # [B, S, M, r]
    return matmul(reshape(scaled, low.shape), transpose(up))


def soft_ce(logits, target, cols=None, scale=1.0) -> T.Tensor:
    """`T.soft_ce`: take and scale the columns, then log_softmax, a product
    with the targets, a sum and a mul by -1/rows."""
    if cols is not None:
        logits = T.take(logits, cols, axis=1)
    if scale != 1.0 or cols is not None:
        logits = mul(logits, scale)
    logp = log_softmax(logits, axis=-1)
    return mul(tsum(mul(logp, T.Tensor(target))), -1.0 / target.shape[0])


def lse_gap(a, member) -> T.Tensor:
    """`T.lse_gap`: two masked log-sum-exps, their difference and its mean."""
    inside = logsumexp(a, axis=-1, bias=np.where(member, 0.0, T.MASK_BIAS))
    outside = logsumexp(a, axis=-1, bias=np.where(member, T.MASK_BIAS, 0.0))
    return mul(tsum(T.add(outside, mul(inside, -1.0))), 1.0 / a.shape[0])


def unit_distance(x, ref) -> T.Tensor:
    """`T.unit_distance`: the row norms, x over them, the offset, the square
    and the mean as primitive nodes."""
    norm = sqrt(tsum(mul(x, x), axis=-1, keepdims=True))
    if norm.data.min() < T.EPS_NORM:
        raise T.DegenerateVectorError(f"unit_distance: row norm below {T.EPS_NORM}")
    diff = T.add(div(x, norm), T.Tensor(ref))
    return mul(tsum(mul(diff, diff)), 0.5 / x.shape[0])


def masked_sums(tensors, weights, scales, coef) -> T.Tensor:
    """`T.masked_sums`: per tensor a product, a row sum, a sum and a scale,
    added left to right, then scaled by `coef`."""
    total = None
    for t, w, c in zip(tensors, weights, scales):
        term = mul(tsum(tsum(mul(t, T.Tensor(w)), axis=-1)), c)
        total = term if total is None else T.add(total, term)
    return mul(total, coef)


def weighted_sum(first, terms, weights) -> T.Tensor:
    """`T.weighted_sum`: a mul and an add node per weighted term."""
    total = T.as_tensor(first)
    for t, w in zip(terms, weights):
        total = T.add(total, mul(t, w))
    return total


COMPOSED = [(moe, "pool_delta", pool_delta), (T, "scores", scores), (T, "softmax", softmax),
            (T, "soft_ce", soft_ce), (T, "lse_gap", lse_gap),
            (T, "unit_distance", unit_distance), (T, "masked_sums", masked_sums),
            (T, "weighted_sum", weighted_sum)]


@contextlib.contextmanager
def composed_ops(names=None):
    """Inside the block, the expert pools, the router scores, the masked
    softmax and the loss-term nodes (or only those in `names`) run as their
    compositions."""
    with pytest.MonkeyPatch.context() as mp:
        for mod, name, fn in COMPOSED:
            if names is None or name in names:
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
        return tsum(mul(a, b))

    return div(dot(u, v), mul(sqrt(dot(u, u)), sqrt(dot(v, v))))


def full_width_forward(ids, mask, weights, pools=None, cls=None, topk=None,
                       embed_noise=None):
    """The encoder forward that computes every position of every block,
    the last one included, with the library's ops; `leaf.encoder._forward`
    runs its last block on [CLS] only and must agree with this at row 0.

    With `pools`, each adapted projection adds its pool's delta: mixed by
    the instance routing of the [CLS] rows `cls` or, when `cls` is None,
    routed per token from the projection's full-width input, top-`topk`
    either way. Returns the final hidden states [B, S, d] and the
    token-routing records.
    """
    cfg = weights.config
    w = weights.tensors
    x = T.add(T.take(w["tok_emb"], ids), T.take(w["pos_emb"], np.arange(ids.shape[1])))
    if embed_noise is not None:
        x = T.add(x, T.Tensor(embed_noise))
    key_bias = np.where(mask[:, None, None, :] == 1, 0.0, T.MASK_BIAS)
    mix = None if cls is None else moe.route_instance(pools, cls, topk)[0]
    records = []

    def project(h, l, tag):
        out = T.linear(h, w[f"layer{l}.{tag}.weight"], w[f"layer{l}.{tag}.bias"])
        pool = (pools or {}).get((l, tag))
        if pool is None:
            return out
        if mix is not None:
            pool_mix = mix[(l, tag)]
        else:
            pool_mix, record = moe.token_mix_weights(pool, h, topk)
            record["key"], record["mask"] = (l, tag), mask
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


def full_table_train_base_task(instances, config, vocab, rng, *, epochs, lr,
                               batch_size=16):
    """`leaf.encoder.train_base_task` with Adam over the whole `tok_emb`,
    every row of the vocabulary, not only the rows the texts use."""
    n_classes = max(c for _, c in instances) + 1
    weights = E.init_encoder_weights(config, rng)
    head = DetectorHead(config.model_dim, rng)
    head.grow(range(n_classes))
    opt = T.Adam(weights.params(), lr=lr)
    opt_head = T.Adam(head.params(), lr=E.BASE_HEAD_LR)
    ids_all, mask_all = E.tokenize_set([text for text, _ in instances], vocab,
                                       config.max_seq_len)
    labels = np.asarray([c for _, c in instances], dtype=np.int64)
    n = len(instances)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            ce_loss(head, E.encode_base(ids_all[sel], mask_all[sel], weights),
                    labels[sel]).backward()
            opt.step()
            opt_head.step()
    weights.freeze()
    return weights


def dataset_order_predict(state, instances, chunk: int = 32) -> list[int]:
    """`leaf.continual.predict` in chunks of 32 rows, not EVAL_CHUNK."""
    preds = []
    for start in range(0, len(instances), chunk):
        with T.no_grad():
            feats, _ = C.forward_features(state, instances[start:start + chunk])
        preds.extend(state.head.predict(feats).tolist())
    return preds


def one_row_in_chunks(fn, n, *arrays):
    """`leaf.encoder.in_chunks` one row per pass, not EVAL_CHUNK rows."""
    with T.no_grad():
        return np.concatenate([fn(*(None if a is None else a[i:i + 1] for a in arrays))
                               for i in range(n)])


def per_batch_teacher(state, instances, pools, noise=None, cls=None):
    """`leaf.continual.features` over the snapshot's `pools` one `batch_size`
    slice per pass, with noise only on a slice that holds a noisy row: the
    teacher forward each training step once ran."""
    assert pools is state.snapshot.pools
    size, feats = state.config.batch_size, []
    for s in range(0, len(instances), size):
        part = slice(s, s + size)
        noisy = noise is not None and noise[part].any()
        with T.no_grad():
            feats.append(C.forward_features(state, instances[part], pools=pools,
                                            embed_noise=noise[part] if noisy else None,
                                            cls=None if cls is None else cls[part])[0].data)
    return np.concatenate(feats)


def per_step_prediction_distill(prev_head, prev_features, curr_head, curr_features,
                                old_labels, temperature=1.0) -> T.Tensor:
    """`leaf.objectives.prediction_distill_loss`: the teacher's soft targets
    from the batch's teacher rows in each step, one head matmul per batch."""
    old = sorted(int(y) for y in old_labels)
    prev_rows = [prev_head.row_of(y) for y in old]
    with T.no_grad():
        logits = prev_head.logits(T.Tensor(np.asarray(prev_features))).data[:, prev_rows]
        p_hat = T.softmax(logits / temperature).data
    return T.soft_ce(curr_head.logits(curr_features), p_hat,
                     [curr_head.row_of(y) for y in old], 1.0 / temperature)


def per_label_exemplars(state, instances_by_label) -> dict:
    """`leaf.continual.select_exemplar` with one forward pass per label."""
    out = {}
    for y in sorted(instances_by_label):
        group = instances_by_label[y]
        if not group:
            raise ValueError(f"no instances for label {y}")
        with T.no_grad():
            feats, _ = C.forward_features(state, group)
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
