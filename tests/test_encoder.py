"""Tests for the frozen transformer backbone: tokenizer, forward pass,
base-task training, and the versioned weight container."""

import json
import pickle
import re
import struct
from types import SimpleNamespace

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
from oracles import full_table_train_base_task, full_width_forward, mul, tsum


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
        _, records = E.encode_with_experts(ids, mask, w, pools, None, 2)
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
            E.encode_with_experts(ids, mask, w, pools, None, 2)

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
        out, _ = E.encode_with_experts(ids, mask, w, pools, cls, 2)
        np.testing.assert_allclose(out.data, cls.data, atol=1e-12)

    def test_nonzero_experts_change_output(self):
        w, vocab, cfg = make_weights()
        rng = np.random.default_rng(1)
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4, rng)
        for pool in pools.values():
            pool.B.data[:] = rng.normal(0, 0.05, pool.B.shape)
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        cls = E.encode_base(ids, mask, w)
        out, _ = E.encode_with_experts(ids, mask, w, pools, cls, 2)
        assert np.abs(out.data - cls.data).max() > 1e-8

    def test_instance_records_are_route_instance_records(self):
        """Given [CLS] rows, the forward routes every pool once per instance
        and returns `moe.route_instance`'s records: one per pool, in sorted
        key order, each with its key, scores, selection and mask."""
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        pools = pools_on(cfg, live=True)
        ids, mask = padded(ragged_rows(np.random.default_rng(2), vocab, (2, 5, 3)), 5)
        with T.no_grad():
            cls = E.encode_base(ids, mask, w)
            _, records = E.encode_with_experts(ids, mask, w, pools, cls, 2)
            _, expected = moe.route_instance(pools, cls, 2)
        assert [record["key"] for record in records] == sorted(pools)
        assert len(records) == len(expected)
        for got, ref in zip(records, expected):
            assert got.keys() == ref.keys() and got["key"] == ref["key"]
            assert got["scores"].data.tobytes() == ref["scores"].data.tobytes()
            for field in ("selected", "mask"):
                np.testing.assert_array_equal(got[field], ref[field])
            assert got["mask"].shape == (3,)

    def test_token_level_routing_runs(self):
        w, vocab, cfg = make_weights()
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4,
                               np.random.default_rng(1))
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        out, records = E.encode_with_experts(ids, mask, w, pools, None, 2)
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
        inst, _ = E.encode_with_experts(ids, mask, w, pools, base, 2, n)
        tok, records = E.encode_with_experts(ids, mask, w, pools, None, 2, n)
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
        ids, mask = E.tokenize_set(texts, vocab, cfg.max_seq_len)
        assert ids.shape == (96, 9)
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
            cls, records = E.encode_with_experts(ids, mask, w, pools, None, 2)
            assert all(record["mask"].shape == (3, cfg.max_seq_len) for record in records)
            fit = tsum(mul(T.add(cls, Tensor(-target)), T.add(cls, Tensor(-target))))
            return T.add(fit, moe.router_loss(records))

        err = T.grad_check(loss_fn, moe.pool_params(pools), max_coords=12,
                           rng=np.random.default_rng(0))
        assert err < 1e-6


# ------------------------------------- no-grad passes pack the real tokens


class TestPackedLayout:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_no_grad_matches_the_graph_byte_for_byte(self, data):
        """Without a graph the forward packs the real tokens into slices of
        S rows; with one it keeps [B, S]. Both give the same [CLS] bytes and
        the same routing records at every real position, and the same router
        loss: instance and token routing, with and without noise, on ragged
        batches of 1-100 rows that mix one-word rows with full-width ones,
        with pools of 4 experts of rank 4 or 8 (packed) or 3 of rank 2 (too
        narrow to pack). The encoder has the
        reference size: at d = 16 a matmul row's bits do not depend on the
        rows per call."""
        vocab = E.Vocab([f"w{i}" for i in range(12)])
        cfg = E.EncoderConfig(vocab_size=len(vocab))
        w = E.init_encoder_weights(cfg, np.random.default_rng(0))
        experts, rank = data.draw(st.sampled_from([(4, 4), (4, 8), (3, 2)]), label="pools")
        rng = np.random.default_rng(1)
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, experts, rank, rng)
        for pool in pools.values():
            pool.B.data[:] = rng.normal(0, 0.05, pool.B.shape)
        width = data.draw(st.integers(2, cfg.max_seq_len), label="width")
        lengths = data.draw(st.lists(st.just(2) | st.just(width) | st.integers(1, width),
                                     min_size=1, max_size=100), label="lengths")
        routing = data.draw(st.sampled_from(["instance", "token"]), label="routing")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
        ids, mask = padded(ragged_rows(rng, vocab, lengths), width)
        noise = None
        if data.draw(st.booleans(), label="noise"):
            noise = rng.normal(0.0, 0.05, ids.shape + (cfg.model_dim,))
            noise[rng.random(len(lengths)) < 0.5] = 0.0  # clean and noisy rows

        def encode():
            base = E.encode_base(ids, mask, w, embed_noise=noise)
            cls = base.data if routing == "instance" else None
            out, records = E.encode_with_experts(ids, mask, w, pools, cls, 2, noise)
            return base.data, out.data, records, moe.router_loss(records).data

        with T.no_grad():
            packed = encode()
        graph = encode()
        assert packed[0].tobytes() == graph[0].tobytes()
        assert packed[1].tobytes() == graph[1].tobytes()
        assert packed[3].tobytes() == graph[3].tobytes()
        assert [r["key"] for r in packed[2]] == [r["key"] for r in graph[2]] == sorted(pools)
        for got, ref in zip(packed[2], graph[2]):
            np.testing.assert_array_equal(got["mask"], ref["mask"])
            real = ref["mask"] == 1
            assert got["scores"].shape == ref["scores"].shape
            assert got["scores"].data[real].tobytes() == ref["scores"].data[real].tobytes()
            assert got["selected"].shape == ref["selected"].shape
            np.testing.assert_array_equal(got["selected"][real], ref["selected"][real])

    def test_a_shape_that_fails_the_row_probe_keeps_the_padded_layout(self, monkeypatch):
        """With the BLAS row probe forced to fail, a no-grad forward keeps
        [B, S] (every linear sees the B rows) and gives the graph's bytes."""
        vocab = E.Vocab([f"w{i}" for i in range(12)])
        cfg = E.EncoderConfig(vocab_size=len(vocab))
        w = E.init_encoder_weights(cfg, np.random.default_rng(0))
        pools = pools_on(cfg, live=True)
        ids, mask = padded(ragged_rows(np.random.default_rng(2), vocab, [1, 2, 9, 3, 1, 2]), 9)
        probed, leading, linear = [], [], T.linear
        monkeypatch.setattr(E, "_rows_stand_alone", lambda *shape: probed.append(shape) or False)
        monkeypatch.setattr(T, "linear", lambda x, *a: leading.append(x.shape[0]) or linear(x, *a))

        def encode():
            base = E.encode_base(ids, mask, w)
            out, records = E.encode_with_experts(ids, mask, w, pools, None, 2)
            return [t.data.tobytes() for t in (base, out, moe.router_loss(records))]

        with T.no_grad():
            no_grad = encode()
        assert probed and set(leading) == {len(ids)}
        assert no_grad == encode()

    def test_row_probe_fails_a_kernel_whose_rows_depend_on_their_place(self, monkeypatch):
        """The probe passes a matmul that computes each row in its own call
        and fails one whose bits also depend on the row's index in the call."""
        def per_row(a, b):
            rows = a.reshape(-1, a.shape[-1])
            return np.stack([row @ b for row in rows]).reshape(a.shape[:-1] + b.shape[-1:])

        def by_index(a, b):
            return per_row(a, b) + np.arange(a.shape[-2])[:, None] * 2.0 ** -30

        for fake, stands_alone in ((per_row, True), (by_index, False)):
            monkeypatch.setattr(np, "matmul", fake)
            assert E._rows_stand_alone.__wrapped__(6, 8, 3) is stands_alone

    def test_cls_must_be_real(self):
        w, vocab, cfg = make_weights()
        ids, mask = batch_of_one("alpha beta", vocab, cfg)
        mask[0, 0] = 0
        with pytest.raises(ValueError, match=r"position 0 \(\[CLS\]\) of every row"):
            E.encode_base(ids, mask, w)


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
            inst = E.encode_with_experts(ids, mask, w, pools, base, 2,
                                         noise)[0].data
            inst_ref, _ = full_width_forward(ids, mask, w, pools, cls=base, topk=2,
                                             embed_noise=noise)
            tok, tok_records = E.encode_with_experts(ids, mask, w, pools, None, 2,
                                                     noise)
            tok_ref, records = full_width_forward(ids, mask, w, pools, topk=2,
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
            cls, records = E.encode_with_experts(ids, mask, w, pools,
                                                 base if routing == "instance" else None,
                                                 2)
            diff = T.add(cls, mul(target, -1.0))
            return T.add(tsum(mul(diff, diff)), moe.router_loss(records))

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
            E.encode_with_experts(ids, mask, w, pools, base, 2)
        else:
            E.encode_with_experts(ids, mask, w, pools, None, 2)
        assert shapes == [(2, cfg.max_seq_len, cfg.ffn_dim), (2, 1, cfg.ffn_dim)]

    def test_token_routed_last_q_pool_records_the_full_mask(self):
        """Under token routing the last block's `q` router scores every token
        though only the [CLS] row gets its delta: its record, like every
        other, carries the whole mask."""
        w, vocab, cfg = make_weights(vocab_tokens=[f"w{i}" for i in range(12)])
        pools = pools_on(cfg, live=True)
        ids, mask = padded(ragged_rows(np.random.default_rng(6), vocab, (2, 5, 3)),
                           cfg.max_seq_len)
        _, token_records = E.encode_with_experts(ids, mask, w, pools, None, 2)
        records = {record["key"]: record for record in token_records}
        assert sorted(records) == sorted(pools)
        for record in records.values():
            assert record["selected"].shape == (3, cfg.max_seq_len, 4)
            np.testing.assert_array_equal(record["mask"], mask)
        assert np.isfinite(float(moe.router_loss(token_records).data))


# --------------------------------------------------- frozen_cls's kept rows


def count_encoded_rows(monkeypatch) -> list:
    """Patch `encoder.encode_base` to log the row count of each call."""
    calls, real = [], E.encode_base
    monkeypatch.setattr(E, "encode_base", lambda ids, *a, **k: calls.append(len(ids))
                        or real(ids, *a, **k))
    return calls


class TestFrozenClsKeptRows:
    """`frozen_cls` keeps the [CLS] rows of noise-free calls on frozen weights."""

    @staticmethod
    def frozen():
        w, vocab, cfg = make_weights()
        w.freeze()
        texts = ["alpha beta", "gamma", "delta alpha beta gamma", "beta"]
        return w, vocab, cfg, E.tokenize_set(texts, vocab, cfg.max_seq_len)

    @staticmethod
    def fresh(ids, mask, w) -> np.ndarray:
        """`frozen_cls` of the same tensors on a new weights object, which
        keeps no rows yet."""
        return E.frozen_cls(ids, mask, E.EncoderWeights(w.config, w.tensors, frozen=True))

    def test_second_call_returns_the_same_bytes_without_a_pass(self, monkeypatch):
        w, vocab, cfg, (ids, mask) = self.frozen()
        with T.no_grad():
            direct = E.encode_base(ids, mask, w).data
        calls = count_encoded_rows(monkeypatch)
        first = E.frozen_cls(ids, mask, w)
        assert calls == [4] and len(w.kept_at) == 4
        assert first.tobytes() == direct.tobytes()
        # rows in their kept order share the kept rows, read-only
        assert np.shares_memory(first, w.kept_cls) and not first.flags.writeable
        order = [3, 1, 1, 0, 2]  # any order, a row twice
        again = E.frozen_cls(ids[order], mask[order], w)
        assert again.tobytes() == first[order].tobytes()
        assert not np.shares_memory(again, w.kept_cls) and again.flags.writeable
        assert calls == [4]
        # the same texts padded to another width are other rows; only rows
        # not kept are encoded, each once
        width = ids.shape[1] + 2
        texts = ["alpha beta", "gamma", "delta alpha beta gamma", "beta", "gamma", "beta delta"]
        wide = [np.stack(a) for a in zip(*(E.tokenize(text, vocab, width) for text in texts))]
        got = E.frozen_cls(*wide, w)
        assert calls == [4, 5] and len(w.kept_at) == 9
        assert got.tobytes() == self.fresh(*wide, w).tobytes()
        assert got[4].tobytes() == got[1].tobytes()
        # the same ids under another mask are another row
        short = mask[[2]].copy()
        short[0, -1] = 0
        assert E.frozen_cls(ids[[2]], short, w).tobytes() != first[2].tobytes()
        assert calls[-1] == 1 and len(w.kept_at) == 10
        # noisy rows are encoded every time and never kept
        noise = np.zeros(ids.shape + (cfg.model_dim,))
        for _ in range(2):
            E.frozen_cls(ids, mask, w, noise)
        assert calls[-2:] == [4, 4] and len(w.kept_at) == 10

    def test_kept_rows_stay_valid_because_writes_are_refused(self, monkeypatch):
        """Frozen weights cannot change, so no call encodes a kept row again."""
        w, _, _, (ids, mask) = self.frozen()
        first = E.frozen_cls(ids, mask, w)
        calls = count_encoded_rows(monkeypatch)
        with pytest.raises(ValueError, match="read-only"):
            w.tensors["layer0.q.weight"].data[0, 0] += 1.0
        with pytest.raises(TypeError):
            w.tensors["layer0.q.weight"] = Tensor(np.zeros((16, 16)))
        again = E.frozen_cls(ids, mask, w)
        assert calls == [] and again.tobytes() == first.tobytes()
        assert again.tobytes() == self.fresh(ids, mask, w).tobytes()

    def test_a_call_that_raises_keeps_none_of_its_rows(self, monkeypatch):
        w, _, cfg, (ids, mask) = self.frozen()
        bad = ids.copy()
        bad[3, 1] = cfg.vocab_size  # encoded in the call's second pass
        monkeypatch.setattr(E, "EVAL_CHUNK", 2)
        with pytest.raises(ValueError, match="vocab_size"):
            E.frozen_cls(bad, mask, w)
        assert w.kept_at == {} and len(w.kept_cls) == 0
        assert E.frozen_cls(ids, mask, w).tobytes() == self.fresh(ids, mask, w).tobytes()

    def test_unfrozen_weights_are_refused(self, monkeypatch):
        w, _, cfg, (ids, mask) = self.frozen()
        E.frozen_cls(ids, mask, w)
        kept, calls = w.kept_cls, count_encoded_rows(monkeypatch)
        never, _, _ = make_weights()  # never frozen
        w.frozen = False
        noise = np.zeros(ids.shape + (cfg.model_dim,))
        for weights, args in ((w, ()), (w, (noise,)), (never, ()), (never, (noise,))):
            with pytest.raises(ValueError, match="frozen_cls needs frozen weights"):
                E.frozen_cls(ids, mask, weights, *args)
        assert calls == [] and w.kept_cls is kept and len(w.kept_at) == 4
        assert never.kept_at == {} and len(never.kept_cls) == 0


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
                              batch_size=8, lr=3e-4)
        assert w.frozen
        assert all(not t.requires_grad for t in w.tensors.values())
        encoded = [E.tokenize(text, vocab, cfg.max_seq_len) for text, _ in instances]
        with T.no_grad():
            cls = E.encode_base(np.stack([e[0] for e in encoded]),
                                np.stack([e[1] for e in encoded]), w)
        accuracy = np.mean(heads[0].predict(cls) == [c for _, c in instances])
        assert len(heads) == 1 and accuracy >= 0.95

    def test_trains_only_used_rows_as_the_full_table_oracle_does(self):
        """Pretraining trains a table of the embedding rows its texts use.
        With words no instance uses (and [UNK]) in the vocabulary, every
        weight is byte-identical to the oracle's, which trains all rows; an
        unused row keeps its initial bits; `tok_emb` keeps its full shape."""
        vocab = E.Vocab(["red", "never", "blue", "stone", "unseen", "cloud", "green"])
        cfg = small_config(len(vocab))
        instances = [("red stone", 0), ("blue cloud green", 1), ("red cloud stone", 0),
                     ("blue green", 1), ("stone red red cloud", 0)] * 3
        kw = dict(epochs=3, batch_size=4, lr=1e-2)
        got = E.train_base_task(instances, cfg, vocab, np.random.default_rng(3), **kw)
        ref = full_table_train_base_task(instances, cfg, vocab, np.random.default_rng(3), **kw)
        assert got.frozen and list(got.tensors) == list(ref.tensors)
        for name, t in ref.tensors.items():
            assert got.tensors[name].data.tobytes() == t.data.tobytes(), name
        emb = got.tensors["tok_emb"].data
        assert emb.shape == (len(vocab), cfg.model_dim)
        init = E.init_encoder_weights(cfg, np.random.default_rng(3)).tensors["tok_emb"].data
        unused = [E.UNK_ID, vocab.get("never"), vocab.get("unseen")]
        assert emb[unused].tobytes() == init[unused].tobytes()
        used = [vocab.get(word) for word in ("red", "blue", "stone", "cloud", "green")]
        assert (emb[used] != init[used]).all(axis=1).all()

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


class TestFrozenWeights:
    """`freeze` makes the weights read-only, and `frozen=True` goes through it."""

    def test_frozen_at_construction_holds_no_trainable_or_writable_tensor(self):
        w, _, cfg = make_weights()  # fresh tensors require grad
        frozen = E.EncoderWeights(cfg, dict(w.tensors), frozen=True)
        assert frozen.frozen and frozen.fingerprint() == w.fingerprint()
        assert not any(t.requires_grad or t.data.flags.writeable
                       for t in frozen.tensors.values())

    def test_writes_into_frozen_weights_raise(self):
        w, _, _ = make_weights()
        w.freeze()
        for name, t in w.tensors.items():
            with pytest.raises(ValueError, match="read-only"):
                t.data[...] = 0.0
            with pytest.raises(TypeError):
                w.tensors[name] = Tensor(np.zeros(t.shape))
        with pytest.raises(TypeError):
            del w.tensors["tok_emb"]

    def test_pickled_frozen_weights_come_back_frozen(self):
        """Spawned workers get the weights by pickle (the acceptance fixture)."""
        w, _, _ = make_weights()
        w.freeze()
        again = pickle.loads(pickle.dumps(w))
        assert again.frozen and again.fingerprint() == w.fingerprint()
        assert not any(t.requires_grad or t.data.flags.writeable
                       for t in again.tensors.values())

    def test_fingerprint_is_taken_once_per_freeze(self, monkeypatch):
        w, _, _ = make_weights()
        hashes, sha256 = [], E.hashlib.sha256
        monkeypatch.setattr(E, "hashlib", SimpleNamespace(
            sha256=lambda: hashes.append(1) or sha256()))
        before = w.fingerprint()  # unfrozen weights hash on every call
        w.freeze()
        assert [w.fingerprint() for _ in range(3)] == [before] * 3 and len(hashes) == 2


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

    @pytest.mark.parametrize("edit", [float, str, bool, lambda v: None],
                             ids=["float", "str", "bool", "none"])
    @pytest.mark.parametrize("key", ["num_layers", "model_dim", "num_heads", "ffn_dim",
                                     "max_seq_len", "vocab_size"])
    def test_load_weights_requires_integer_sizes(self, tmp_path, key, edit):
        """A size of 16.0 equals 16, so it passes every shape check and would
        fail only inside the run."""
        w, vocab, _ = make_weights()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        arrays, meta = E.load_tensors(path)
        meta["config"][key] = edit(meta["config"][key])
        E.save_tensors(arrays, path, meta=meta)
        match = re.escape(f"{path}: bad encoder config: {key} is ") + ".* not an integer"
        with pytest.raises(E.WeightsFormatError, match=match):
            E.load_weights(path)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf"), "1e-05", True,
                                     None])
    def test_load_weights_requires_positive_finite_layernorm_eps(self, tmp_path, eps):
        w, vocab, _ = make_weights()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        arrays, meta = E.load_tensors(path)
        meta["config"]["layernorm_eps"] = eps
        E.save_tensors(arrays, path, meta=meta)
        with pytest.raises(E.WeightsFormatError, match="bad encoder config: layernorm_eps is "
                                                       ".*not a finite number > 0"):
            E.load_weights(path)

    def test_load_weights_rejects_zero_heads(self, tmp_path):
        """Refused before model_dim is divided by it."""
        w, vocab, _ = make_weights()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        arrays, meta = E.load_tensors(path)
        meta["config"]["num_heads"] = 0
        E.save_tensors(arrays, path, meta=meta)
        with pytest.raises(E.WeightsFormatError,
                           match="bad encoder config: num_heads must be >= 1"):
            E.load_weights(path)

    @pytest.mark.parametrize("frozen", ["no", "yes", 0, 1, None])
    def test_load_weights_requires_a_bool_frozen(self, tmp_path, frozen):
        """A truthy string such as "no" must not freeze the weights."""
        w, vocab, _ = make_weights()
        path = tmp_path / "w.leafwt"
        E.save_weights(w, path, vocab=vocab)
        arrays, meta = E.load_tensors(path)
        meta["frozen"] = frozen
        E.save_tensors(arrays, path, meta=meta)
        with pytest.raises(E.WeightsFormatError,
                           match=re.escape(f"{path}: frozen is {frozen!r}, not a bool")):
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

    def test_bytes_after_the_last_payload_raise(self, tmp_path):
        path = tmp_path / "t.leafwt"
        E.save_tensors({"a": np.zeros(8)}, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(E.WeightsFormatError, match="16 bytes follow the last declared"):
            E.load_tensors(path)

    def test_shape_larger_than_the_file_raises_before_reading(self, tmp_path):
        # 2**40 float64s (8 TiB) declared over a 16-byte payload: refused from
        # the file's size, never by asking for that much memory
        header = {"version": E.WEIGHTS_FORMAT_VERSION, "shapes": {"a": [2 ** 40]}}
        hbytes = json.dumps(header).encode()
        path = tmp_path / "huge.bin"
        path.write_bytes(E._MAGIC + struct.pack("<I", len(hbytes)) + hbytes + b"\x00" * 16)
        with pytest.raises(E.WeightsFormatError,
                           match=f"tensor 'a': its shape needs {2 ** 43} bytes, 16 are left"):
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
