"""Tests for the frozen transformer backbone: tokenizer, forward pass,
base-task training, and the versioned weight container."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaf import encoder as E
from leaf import moe
from leaf.gradcheck import TINY
from leaf.objectives import DetectorHead, ce_loss
from leaf import tensor as T
from leaf.tensor import Tensor
from oracles import full_width_forward


def small_config(vocab_size):
    return E.EncoderConfig(num_layers=2, model_dim=16, num_heads=4,
                           ffn_dim=32, max_seq_len=10, vocab_size=vocab_size)


def make_weights(seed=0, vocab_tokens=("alpha", "beta", "gamma", "delta")):
    vocab = E.Vocab(vocab_tokens)
    cfg = small_config(len(vocab))
    w = E.init_encoder_weights(cfg, np.random.default_rng(seed))
    return w, vocab, cfg


def batch_of_one(text, vocab, cfg):
    """[1, S] ids and mask: the encoder takes batches only."""
    ids, mask = E.tokenize(text, vocab, cfg.max_seq_len)
    return ids[None], mask[None]


# ---------------------------------------------------------------- tokenizer

class TestTokenize:
    def test_cls_prepended_and_padded(self):
        vocab = E.Vocab(["alpha", "beta"])
        ids, mask = E.tokenize("alpha beta", vocab, max_len=6)
        assert ids.tolist() == [E.CLS_ID, vocab.get("alpha"), vocab.get("beta"),
                                E.PAD_ID, E.PAD_ID, E.PAD_ID]
        assert mask.tolist() == [1, 1, 1, 0, 0, 0]

    def test_unknown_token_maps_to_unk(self):
        vocab = E.Vocab(["alpha"])
        ids, _ = E.tokenize("alpha zork", vocab, max_len=4)
        assert ids[2] == E.UNK_ID

    def test_lowercasing(self):
        vocab = E.Vocab(["alpha"])
        ids, _ = E.tokenize("ALPHA", vocab, max_len=4)
        assert ids[1] == vocab.get("alpha")

    def test_truncation(self):
        vocab = E.Vocab(["a", "b", "c", "d"])
        ids, mask = E.tokenize("a b c d", vocab, max_len=3)
        assert len(ids) == 3 and ids[0] == E.CLS_ID
        assert mask.tolist() == [1, 1, 1]

    def test_empty_text_raises(self):
        with pytest.raises(E.TokenizeError):
            E.tokenize("   ", E.Vocab(), max_len=4)

    @settings(max_examples=200)
    @given(words=st.lists(st.tuples(st.sampled_from(["alpha", "beta", "gamma", "zork", "qux"]),
                                    st.booleans()), min_size=1, max_size=12),
           max_len=st.integers(1, 10))
    def test_tokenize_layout(self, words, max_len):
        vocab = E.Vocab(["alpha", "beta", "gamma"])
        text = " ".join(w.upper() if shout else w for w, shout in words)
        ids, mask = E.tokenize(text, vocab, max_len)
        n = min(len(words) + 1, max_len)
        assert ids.shape == mask.shape == (max_len,)
        assert ids[0] == E.CLS_ID
        assert mask.tolist() == [1] * n + [0] * (max_len - n)
        assert ids[n:].tolist() == [E.PAD_ID] * (max_len - n)
        known = {"alpha", "beta", "gamma"}
        assert ids[1:n].tolist() == [vocab.get(w) if w in known else E.UNK_ID
                                     for w, _ in words[:n - 1]]


class TestVocab:
    def test_reserved_ids(self):
        v = E.Vocab()
        assert v.get("[CLS]") == 0 and v.get("[PAD]") == 1 and v.get("[UNK]") == 2
        assert len(v) == 3

    def test_roundtrip(self):
        v = E.Vocab(["x", "y", "z"])
        v2 = E.Vocab.from_list(v.to_list())
        assert v2.token_to_id == v.token_to_id

    def test_add_idempotent(self):
        v = E.Vocab()
        a = v.add("tok")
        assert v.add("tok") == a and len(v) == 4


class TestConfigValidation:
    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            E.EncoderConfig(model_dim=10, num_heads=4)

    def test_min_seq_len(self):
        with pytest.raises(ValueError):
            E.EncoderConfig(max_seq_len=1)

    def test_defaults_match_documented_shape(self):
        cfg = E.EncoderConfig()
        assert (cfg.num_layers, cfg.model_dim, cfg.num_heads,
                cfg.ffn_dim, cfg.max_seq_len) == (2, 64, 4, 128, 24)


# ------------------------------------------------------------- forward pass

class TestForward:
    def test_shapes_single_and_batch(self):
        w, vocab, cfg = make_weights()
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        cls = E.encode_base(ids, mask, w)
        assert cls.data.shape == (1, cfg.model_dim)
        # the batch runs at the width it comes in: [CLS] alpha beta, then padding
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4, np.random.default_rng(1))
        _, records = E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)
        assert all(record["mask"].tolist() == [[1, 1, 1] + [0] * (cfg.max_seq_len - 3)]
                   for record in records)

        bid = np.concatenate([ids, ids])
        bma = np.concatenate([mask, mask])
        benc = E.encode_base(bid, bma, w)
        assert benc.data.shape == (2, cfg.model_dim)

    @pytest.mark.parametrize("lead", [(), (1, 1)])
    def test_ids_must_be_a_batch(self, lead):
        # a single sentence is a batch of one; 1-D (or 3-D) ids are refused
        w, vocab, cfg = make_weights()
        ids, mask = E.tokenize("alpha beta", vocab, cfg.max_seq_len)
        ids, mask = ids.reshape(lead + ids.shape), mask.reshape(lead + mask.shape)
        with pytest.raises(T.ShapeError, match=r"\[B, S\]"):
            E.encode_base(ids, mask, w)
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4, np.random.default_rng(1))
        with pytest.raises(T.ShapeError, match=r"\[B, S\]"):
            E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)

    def test_batch_row_matches_single(self):
        w, vocab, cfg = make_weights()
        a = batch_of_one("alpha beta gamma", vocab, cfg)
        b = batch_of_one("delta", vocab, cfg)
        single = E.encode_base(a[0], a[1], w).data[0]
        batch = E.encode_base(np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]),
                              w).data
        np.testing.assert_allclose(batch[0], single, atol=1e-12)

    def test_padding_content_does_not_affect_cls(self):
        w, vocab, cfg = make_weights()
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        base = E.encode_base(ids, mask, w).data
        ids2 = ids.copy()
        ids2[mask == 0] = vocab.get("gamma")  # rewrite padded positions
        np.testing.assert_allclose(E.encode_base(ids2, mask, w).data, base, atol=1e-10)

    def test_deterministic(self):
        w, vocab, cfg = make_weights()
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        c1 = E.encode_base(ids, mask, w).data
        c2 = E.encode_base(ids, mask, w).data
        np.testing.assert_array_equal(c1, c2)

    def test_embed_noise_changes_cls(self):
        w, vocab, cfg = make_weights()
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        base = E.encode_base(ids, mask, w).data
        noise = np.full((1, cfg.max_seq_len, cfg.model_dim), 0.1)
        noisy = E.encode_base(ids, mask, w, embed_noise=noise).data
        assert np.abs(noisy - base).max() > 1e-6

    def test_out_of_range_token_id_raises(self):
        w, vocab, cfg = make_weights()
        ids, mask = batch_of_one("alpha", vocab, cfg)
        ids[0, 1] = cfg.vocab_size + 5
        with pytest.raises(ValueError):
            E.encode_base(ids, mask, w)


class TestExpertForward:
    def test_fresh_pools_match_base_forward(self):
        # B matrices start at zero, so expert deltas must be exactly zero.
        w, vocab, cfg = make_weights()
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, num_experts=4,
                               rank=4, rng=np.random.default_rng(1))
        ids, mask = batch_of_one("alpha beta gamma", vocab, cfg)
        cls = E.encode_base(ids, mask, w)
        mix, _ = moe.route_instance(pools, cls, K=2)
        out, _ = E.encode_with_experts(ids, mask, w, pools, mix)
        np.testing.assert_allclose(out.data, cls.data, atol=1e-12)

    def test_nonzero_experts_change_output(self):
        w, vocab, cfg = make_weights()
        rng = np.random.default_rng(1)
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4, rng)
        for pool in pools.values():
            pool.B.data[:] = rng.normal(0, 0.05, pool.B.shape)
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        cls = E.encode_base(ids, mask, w)
        mix, _ = moe.route_instance(pools, cls, K=2)
        out, _ = E.encode_with_experts(ids, mask, w, pools, mix)
        assert np.abs(out.data - cls.data).max() > 1e-8

    def test_missing_decision_raises(self):
        w, vocab, cfg = make_weights()
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4,
                               np.random.default_rng(1))
        ids, mask = batch_of_one("alpha", vocab, cfg)
        with pytest.raises(ValueError):
            E.encode_with_experts(ids, mask, w, pools, None)

    def test_token_level_routing_runs(self):
        w, vocab, cfg = make_weights()
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4,
                               np.random.default_rng(1))
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        out, records = E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)
        assert out.data.shape == (1, cfg.model_dim)
        assert len(records) == len(pools)


# ------------------------------------------------------------ padding width


def pools_on(cfg, live, seed=1):
    """The q and v pools of every layer; `live` draws nonzero B, so the
    experts change the output, and otherwise every delta is exactly zero."""
    rng = np.random.default_rng(seed)
    pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4, rng)
    if live:
        for pool in pools.values():
            pool.B.data[:] = rng.normal(0, 0.05, pool.B.shape)
    return pools


def ragged_rows(rng, vocab, lengths):
    """One token-id row per length: [CLS], then random non-reserved ids."""
    return [[E.CLS_ID] + list(rng.integers(3, len(vocab), n - 1)) for n in lengths]


def padded(rows, width):
    """ids/mask of token-id rows padded to `width` columns."""
    ids = np.full((len(rows), width), E.PAD_ID)
    mask = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, :len(row)] = row
        mask[i, :len(row)] = 1
    return ids, mask


def encodings(rows, width, w, pools, noise):
    """[CLS] rows of the base, instance-routed and token-routed forwards,
    and the token-routing router loss, for `rows` padded to `width`."""
    ids, mask = padded(rows, width)
    n = noise[:, :width]
    with T.no_grad():
        base = E.encode_base(ids, mask, w, embed_noise=n)
        mix, _ = moe.route_instance(pools, base, K=2)
        inst, _ = E.encode_with_experts(ids, mask, w, pools, mix, embed_noise=n)
        tok, records = E.encode_with_experts(ids, mask, w, pools, None, embed_noise=n,
                                             token_topk=2)
        loss = float(moe.router_loss(records).data)
    return base.data, inst.data, tok.data, loss


class TestTrimmedPadding:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_padding_width_changes_nothing(self, data):
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        pools = pools_on(cfg, live=True)
        lengths = data.draw(st.lists(st.integers(1, cfg.max_seq_len), min_size=1,
                                     max_size=4), label="lengths")
        rows = [[E.CLS_ID] + data.draw(st.lists(st.integers(3, len(vocab) - 1),
                                                min_size=n - 1, max_size=n - 1))
                for n in lengths]
        longest = max(lengths)
        extra = data.draw(st.integers(longest, cfg.max_seq_len), label="extra width")
        noise = np.random.default_rng(len(rows)).normal(
            0.0, 0.05, (len(rows), cfg.max_seq_len, cfg.model_dim))
        noise[data.draw(st.integers(0, len(rows) - 1))] = 0.0  # clean and noisy rows
        results = [encodings(rows, width, w, pools, noise)
                   for width in (longest, cfg.max_seq_len, extra)]
        for base, inst, tok, loss in results[1:]:
            for got, ref in zip((base, inst, tok), results[0][:3]):
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
            assert abs(loss - results[0][3]) <= 1e-12
        # against each row encoded alone, with no padding at all: the
        # token router loss is the real-token-weighted mean of the rows' losses
        solo = [encodings([row], len(row), w, pools, noise[i:i + 1])
                for i, row in enumerate(rows)]
        for k in range(3):
            np.testing.assert_allclose(np.concatenate([r[k] for r in solo]),
                                       results[0][k], rtol=0.0, atol=1e-12)
        oracle = np.dot(lengths, [r[3] for r in solo]) / sum(lengths)
        assert abs(results[0][3] - oracle) <= 1e-12

    def test_cls_rows_do_not_depend_on_their_batch(self):
        """At one padded length a row's [CLS] bytes are the same alone and
        among 4, 7 or 95 other rows, in shuffled batches: the reference-size
        encoder at the padded length of 96 texts of 1-8 words."""
        vocab = E.Vocab([f"w{i}" for i in range(50)])
        cfg = E.EncoderConfig(vocab_size=len(vocab))
        w = E.init_encoder_weights(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        texts = [" ".join(rng.choice(vocab.to_list()[3:], size=n))
                 for n in [8, *rng.integers(1, 9, 95)]]
        seq = E.padded_length(texts, cfg.max_seq_len)
        assert seq == 9
        encoded = [E.tokenize(text, vocab, seq) for text in texts]
        ids, mask = np.stack([e[0] for e in encoded]), np.stack([e[1] for e in encoded])
        with T.no_grad():
            ref = E.encode_base(ids, mask, w).data
            for size in (1, 5, 8, 96):
                order, got = rng.permutation(len(texts)), np.empty_like(ref)
                for start in range(0, len(texts), size):
                    rows = order[start:start + size]
                    got[rows] = E.encode_base(ids[rows], mask[rows], w).data
                assert got.tobytes() == ref.tobytes(), f"batches of {size}"

    def test_token_routing_ragged_gradcheck(self):
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        w.freeze()
        pools = pools_on(cfg, live=True)
        rng = np.random.default_rng(3)
        rows = ragged_rows(rng, vocab, (2, 7, 4))
        ids, mask = padded(rows, cfg.max_seq_len)
        target = rng.normal(size=(len(rows), cfg.model_dim))

        def loss_fn():
            cls, records = E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)
            assert all(record["mask"].shape == (3, cfg.max_seq_len) for record in records)
            fit = T.tsum(T.mul(T.add(cls, Tensor(-target)), T.add(cls, Tensor(-target))))
            return T.add(fit, moe.router_loss(records))

        err = T.grad_check(loss_fn, moe.pool_params(pools), max_coords=12,
                           rng=np.random.default_rng(0))
        assert err < 1e-6


# ------------------------------------------- the last block is [CLS] only


class TestLastBlockClsOnly:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_full_width_oracle(self, data):
        """Base, instance-routed and token-routed [CLS] rows, and the token
        router loss, equal those of the forward that computes every position
        of the last block."""
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        live = data.draw(st.booleans(), label="live experts")
        pools = pools_on(cfg, live)
        lengths = data.draw(st.lists(st.integers(1, cfg.max_seq_len), min_size=1,
                                     max_size=4), label="lengths")
        rows = ragged_rows(np.random.default_rng(data.draw(st.integers(0, 99))), vocab, lengths)
        ids, mask = padded(rows, data.draw(st.integers(max(lengths), cfg.max_seq_len)))
        noise = np.random.default_rng(len(rows)).normal(0.0, 0.05, ids.shape + (cfg.model_dim,))
        noise[0] = 0.0  # clean and noisy rows
        with T.no_grad():
            base = E.encode_base(ids, mask, w, embed_noise=noise).data
            base_ref, _ = full_width_forward(ids, mask, w, embed_noise=noise)
            mix, _ = moe.route_instance(pools, Tensor(base), K=2)
            inst = E.encode_with_experts(ids, mask, w, pools, mix, embed_noise=noise)[0].data
            inst_ref, _ = full_width_forward(ids, mask, w, pools, mix=mix, embed_noise=noise)
            tok, tok_records = E.encode_with_experts(ids, mask, w, pools, None,
                                                     embed_noise=noise, token_topk=2)
            tok_ref, records = full_width_forward(ids, mask, w, pools, token_topk=2,
                                                  embed_noise=noise)
            loss = float(moe.router_loss(tok_records).data)
            loss_ref = float(moe.router_loss(records).data)
        for got, ref in ((base, base_ref), (inst, inst_ref), (tok.data, tok_ref)):
            np.testing.assert_allclose(got, ref.data[:, 0], rtol=0.0, atol=1e-12)
        assert abs(loss - loss_ref) <= 1e-12
        if not live:  # zero deltas leave every position of every block as it was
            np.testing.assert_allclose(inst_ref.data, base_ref.data, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(tok_ref.data, base_ref.data, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("routing", ["instance", "token"])
    def test_gradcheck_through_last_block(self, routing):
        """The q/v pools and the last block's own weights, through the [CLS]
        slice, the [CLS]-row `q` delta and the short-query attention."""
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        pools = pools_on(cfg, live=True)
        rng = np.random.default_rng(4)
        ids, mask = padded(ragged_rows(rng, vocab, (2, 7, 4)), cfg.max_seq_len)
        target = Tensor(rng.normal(size=(3, cfg.model_dim)))
        with T.no_grad():
            base = E.encode_base(ids, mask, w)

        def loss_fn():
            if routing == "instance":
                mix, records = moe.route_instance(pools, base, K=2)
                cls, _ = E.encode_with_experts(ids, mask, w, pools, mix)
            else:
                cls, records = E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)
            diff = T.add(cls, T.mul(target, -1.0))
            return T.add(T.tsum(T.mul(diff, diff)), moe.router_loss(records))

        last = [t for name, t in w.tensors.items()
                if name.startswith(f"layer{cfg.num_layers - 1}.") or name == "tok_emb"]
        err = T.grad_check(loss_fn, moe.pool_params(pools) + last, max_coords=6,
                           rng=np.random.default_rng(0))
        assert err < 1e-6

    @pytest.mark.parametrize("routing", ["base", "instance", "token"])
    def test_last_block_ffn_sees_one_row(self, routing, monkeypatch):
        """Guard against a silent return to full width: the last block's
        GELU gets [B, 1, ffn_dim], the one before it every position."""
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        pools = pools_on(cfg, live=True)
        ids, mask = padded(ragged_rows(np.random.default_rng(5), vocab, (3, 6)),
                           cfg.max_seq_len)
        with T.no_grad():
            base = E.encode_base(ids, mask, w)
        shapes, real_gelu = [], T.gelu
        monkeypatch.setattr(T, "gelu", lambda a: shapes.append(a.shape) or real_gelu(a))
        if routing == "base":
            E.encode_base(ids, mask, w)
        elif routing == "instance":
            E.encode_with_experts(ids, mask, w, pools, moe.route_instance(pools, base, K=2)[0])
        else:
            E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)
        assert shapes == [(2, cfg.max_seq_len, cfg.ffn_dim), (2, 1, cfg.ffn_dim)]

    def test_token_routed_last_q_pool_records_the_full_mask(self):
        """Under token routing the last block's `q` router scores every token
        though only the [CLS] row gets its delta: its record, like every
        other, carries the whole mask."""
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        pools = pools_on(cfg, live=True)
        ids, mask = padded(ragged_rows(np.random.default_rng(6), vocab, (2, 5, 3)),
                           cfg.max_seq_len)
        _, token_records = E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)
        records = {record["key"]: record for record in token_records}
        assert sorted(records) == sorted(pools)
        for record in records.values():
            assert record["selected"].shape == (3, cfg.max_seq_len, 4)
            np.testing.assert_array_equal(record["mask"], mask)
        assert np.isfinite(float(moe.router_loss(token_records).data))


# ----------------------------------------------------------- base training

class TestBaseTraining:
    def test_learns_separable_toy_task_and_freezes(self, monkeypatch):
        vocab = E.Vocab(["red", "blue", "green", "stone", "cloud"])
        cfg = small_config(len(vocab))
        instances = []
        for _ in range(8):
            instances += [("red stone", 0), ("blue cloud", 1),
                          ("red cloud stone", 0), ("blue stone cloud", 1)]
        heads = []
        monkeypatch.setattr(E, "DetectorHead",
                            lambda *a: heads.append(DetectorHead(*a)) or heads[-1])
        w = E.train_base_task(instances, cfg, vocab,
                              np.random.default_rng(0), epochs=6,
                              batch_size=8, lr=3e-4, head_lr=1e-2)
        assert w.frozen
        assert all(not t.requires_grad for t in w.tensors.values())
        encoded = [E.tokenize(text, vocab, cfg.max_seq_len) for text, _ in instances]
        with T.no_grad():
            cls = E.encode_base(np.stack([e[0] for e in encoded]),
                                np.stack([e[1] for e in encoded]), w)
        accuracy = np.mean(heads[0].predict(cls) == [c for _, c in instances])
        assert len(heads) == 1 and accuracy >= 0.95

    def test_base_loss_gradients_of_every_encoder_tensor(self):
        """Finite differences of the base-pretraining loss (ce through the
        detector head on the [CLS] rows of a ragged batch) on the tiny
        gradcheck model, against every encoder tensor."""
        rng = np.random.default_rng(5)
        vocab = E.Vocab([f"w{i}" for i in range(20)])
        cfg = E.EncoderConfig(num_layers=TINY["num_layers"], model_dim=TINY["model_dim"],
                              num_heads=TINY["num_heads"], ffn_dim=TINY["ffn_dim"],
                              max_seq_len=TINY["max_seq_len"], vocab_size=len(vocab))
        w = E.init_encoder_weights(cfg, rng)
        head = DetectorHead(cfg.model_dim, rng)
        head.grow(range(3))
        encoded = [E.tokenize(" ".join(f"w{i}" for i in rng.integers(0, 20, n)), vocab,
                              cfg.max_seq_len) for n in (2, 6, 3, 5)]
        ids = np.stack([e[0] for e in encoded])
        mask = np.stack([e[1] for e in encoded])
        gold = [0, 1, 2, 1]
        err = T.grad_check(lambda: ce_loss(head, E.encode_base(ids, mask, w), gold),
                           w.params(), max_coords=64)
        assert err <= 1e-6

    def test_freeze_clears_grads(self):
        w, _, _ = make_weights()
        first = next(iter(w.tensors.values()))
        first.grad = np.ones_like(first.data)
        w.freeze()
        assert first.grad is None and not first.requires_grad


# --------------------------------------------------------- weight container

class TestWeightContainer:
    def test_roundtrip_preserves_fingerprint_and_vocab(self, tmp_path):
        w, vocab, cfg = make_weights()
        w.freeze()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        w2, vocab2, meta = E.load_weights(path)
        assert w2.fingerprint() == w.fingerprint()
        assert w2.frozen
        assert vocab2.token_to_id == vocab.token_to_id
        assert meta["config"]["model_dim"] == cfg.model_dim
        assert w2.config == cfg

    def test_load_weights_rejects_container_without_encoder_config(self, tmp_path):
        """A run checkpoint (pool and head tensors, no encoder config) is
        not base weights."""
        path = tmp_path / "task_1.bin"
        E.save_tensors({"head/weight": np.zeros((2, 3))}, path, meta={"class_order": [0, 1]})
        with pytest.raises(E.WeightsFormatError, match="no encoder config"):
            E.load_weights(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda a: a.pop("encoder/tok_emb"), "'tok_emb' is missing"),
        (lambda a: a.update({"encoder/layer0.extra": np.zeros(2)}),
         "unknown encoder tensor 'layer0.extra'"),
        (lambda a: a.update({"encoder/layer1.ffn1.bias": np.zeros(3)}),
         r"'layer1.ffn1.bias' has shape \(3,\), expected \(32,\)")])
    def test_load_weights_checks_names_and_shapes(self, tmp_path, edit, match):
        w, vocab, _ = make_weights()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        arrays, meta = E.load_tensors(path)
        edit(arrays)
        E.save_tensors(arrays, path, meta=meta)
        with pytest.raises(E.WeightsFormatError, match=match):
            E.load_weights(path)

    @pytest.mark.parametrize("edit", [
        lambda v: None, lambda v: 5, lambda v: "abc", lambda v: v[:-1],
        lambda v: v[:-1] + ["alpha"], lambda v: v[1:] + v[:1], lambda v: v[:-1] + [7]],
        ids=["none", "int", "str", "short", "duplicate", "reserved-moved", "non-str"])
    def test_load_weights_checks_the_vocabulary(self, tmp_path, edit):
        """No list, not a list of strings, a token short, a duplicate, the
        reserved tokens out of place: `vocab_size` tokens as `Vocab.to_list`
        writes them or nothing."""
        w, vocab, _ = make_weights()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        arrays, meta = E.load_tensors(path)
        meta["vocab"] = edit(meta["vocab"])
        E.save_tensors(arrays, path, meta=meta)
        with pytest.raises(E.WeightsFormatError, match="vocabulary is not a list of 7 distinct"):
            E.load_weights(path)

    def test_weight_shapes_are_the_initialized_ones(self):
        w, _, cfg = make_weights()
        assert {k: t.shape for k, t in w.tensors.items()} == E.weight_shapes(cfg)

    def test_load_weights_rejects_entry_outside_encoder(self, tmp_path):
        w, vocab, _ = make_weights()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        arrays, meta = E.load_tensors(path)
        E.save_tensors({**arrays, "head/w": np.zeros(2)}, path, meta=meta)
        with pytest.raises(E.WeightsFormatError, match="'head/w'"):
            E.load_weights(path)

    def test_save_load_tensors_scalar_and_meta(self, tmp_path):
        path = tmp_path / "t.leafwt"
        E.save_tensors({"a": np.float64(3.5), "b": np.zeros((2, 2))}, path,
                       meta={"note": "x"})
        arrays, meta = E.load_tensors(path)
        assert float(arrays["a"]) == 3.5
        assert arrays["b"].shape == (2, 2)
        assert meta == {"note": "x"}

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTLEAF" + b"\x00" * 16)
        with pytest.raises(E.WeightsFormatError):
            E.load_tensors(path)

    @pytest.mark.parametrize("header,match", [
        ([], "not a JSON object"),
        ({"version": E.WEIGHTS_FORMAT_VERSION, "meta": {}}, "needs a shape table"),
        ({"version": E.WEIGHTS_FORMAT_VERSION, "meta": [], "shapes": {}}, "a meta object"),
        ({"version": E.WEIGHTS_FORMAT_VERSION, "shapes": {"a": "xy"}}, "'a' has a bad shape"),
        ({"version": E.WEIGHTS_FORMAT_VERSION, "shapes": {"a": [2.5]}}, "'a' has a bad shape"),
        ({"version": E.WEIGHTS_FORMAT_VERSION, "shapes": {"a": 3}}, "'a' has a bad shape"),
        ({"version": E.WEIGHTS_FORMAT_VERSION, "shapes": {"a": [-1]}}, "'a' has a bad shape")])
    def test_malformed_header_raises(self, tmp_path, header, match):
        path = tmp_path / "header.bin"
        hbytes = json.dumps(header).encode()
        path.write_bytes(E._MAGIC + struct.pack("<I", len(hbytes)) + hbytes)
        with pytest.raises(E.WeightsFormatError, match=match):
            E.load_weights(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "t.leafwt"
        E.save_tensors({"a": np.zeros(8)}, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(E.WeightsFormatError):
            E.load_tensors(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "t.leafwt"
        E.save_tensors({"a": np.zeros(2)}, path)
        data = path.read_bytes()
        path.write_bytes(data.replace(E.WEIGHTS_FORMAT_VERSION.encode(),
                                      b"leaf-weights-v9"))
        with pytest.raises(E.WeightsFormatError):
            E.load_tensors(path)

    def test_fingerprint_changes_with_weights(self):
        w, _, _ = make_weights()
        before = w.fingerprint()
        next(iter(w.tensors.values())).data[0] += 1.0
        assert w.fingerprint() != before
