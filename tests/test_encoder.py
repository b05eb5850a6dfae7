"""Tests for the frozen transformer backbone: tokenizer, forward pass,
base-task training, and the versioned weight container."""

import numpy as np
import pytest

from leaf import encoder as E
from leaf import moe
from leaf.tensor import Tensor


def small_config(vocab_size):
    return E.EncoderConfig(num_layers=2, model_dim=16, num_heads=4,
                           ffn_dim=32, max_seq_len=10, vocab_size=vocab_size)


def make_weights(seed=0, vocab_tokens=("alpha", "beta", "gamma", "delta")):
    vocab = E.Vocab(vocab_tokens)
    cfg = small_config(len(vocab))
    w = E.init_encoder_weights(cfg, np.random.default_rng(seed))
    return w, vocab, cfg


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
        ids, mask = E.tokenize("alpha beta", vocab, cfg.max_seq_len)
        enc = E.encode_base(ids, mask, w)
        assert enc.cls.data.shape == (cfg.model_dim,)
        assert enc.token_states.data.shape == (cfg.max_seq_len, cfg.model_dim)

        bid = np.stack([ids, ids])
        bma = np.stack([mask, mask])
        benc = E.encode_base(bid, bma, w)
        assert benc.cls.data.shape == (2, cfg.model_dim)

    def test_batch_row_matches_single(self):
        w, vocab, cfg = make_weights()
        a = E.tokenize("alpha beta gamma", vocab, cfg.max_seq_len)
        b = E.tokenize("delta", vocab, cfg.max_seq_len)
        single = E.encode_base(a[0], a[1], w).cls.data
        batch = E.encode_base(np.stack([a[0], b[0]]), np.stack([a[1], b[1]]), w).cls.data
        np.testing.assert_allclose(batch[0], single, atol=1e-12)

    def test_padding_content_does_not_affect_cls(self):
        w, vocab, cfg = make_weights()
        ids, mask = E.tokenize("alpha beta", vocab, cfg.max_seq_len)
        base = E.encode_base(ids, mask, w).cls.data
        ids2 = ids.copy()
        ids2[mask == 0] = vocab.get("gamma")  # rewrite padded positions
        np.testing.assert_allclose(E.encode_base(ids2, mask, w).cls.data, base, atol=1e-10)

    def test_deterministic(self):
        w, vocab, cfg = make_weights()
        ids, mask = E.tokenize("alpha beta", vocab, cfg.max_seq_len)
        c1 = E.encode_base(ids, mask, w).cls.data
        c2 = E.encode_base(ids, mask, w).cls.data
        np.testing.assert_array_equal(c1, c2)

    def test_embed_noise_changes_cls(self):
        w, vocab, cfg = make_weights()
        ids, mask = E.tokenize("alpha beta", vocab, cfg.max_seq_len)
        base = E.encode_base(ids, mask, w).cls.data
        noise = np.full((cfg.max_seq_len, cfg.model_dim), 0.1)
        noisy = E.encode_base(ids, mask, w, embed_noise=noise).cls.data
        assert np.abs(noisy - base).max() > 1e-6

    def test_out_of_range_token_id_raises(self):
        w, vocab, cfg = make_weights()
        ids, mask = E.tokenize("alpha", vocab, cfg.max_seq_len)
        ids[1] = cfg.vocab_size + 5
        with pytest.raises(ValueError):
            E.encode_base(ids, mask, w)


class TestExpertForward:
    def test_fresh_pools_match_base_forward(self):
        # B matrices start at zero, so expert deltas must be exactly zero.
        w, vocab, cfg = make_weights()
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, num_experts=4,
                               rank=4, rng=np.random.default_rng(1))
        ids, mask = E.tokenize("alpha beta gamma", vocab, cfg.max_seq_len)
        cls = E.encode_base(ids, mask, w).cls
        mix, _ = moe.route_instance(pools, cls, K=2)
        out = E.encode_with_experts(ids, mask, w, pools, mix)
        np.testing.assert_allclose(out.cls.data, cls.data, atol=1e-12)

    def test_nonzero_experts_change_output(self):
        w, vocab, cfg = make_weights()
        rng = np.random.default_rng(1)
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4, rng)
        for pool in pools.values():
            for ex in pool.experts:
                ex.B.data[:] = rng.normal(0, 0.05, ex.B.data.shape)
        ids, mask = E.tokenize("alpha beta", vocab, cfg.max_seq_len)
        cls = E.encode_base(ids, mask, w).cls
        mix, _ = moe.route_instance(pools, cls, K=2)
        out = E.encode_with_experts(ids, mask, w, pools, mix)
        assert np.abs(out.cls.data - cls.data).max() > 1e-8

    def test_missing_decision_raises(self):
        w, vocab, cfg = make_weights()
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4,
                               np.random.default_rng(1))
        ids, mask = E.tokenize("alpha", vocab, cfg.max_seq_len)
        with pytest.raises(ValueError):
            E.encode_with_experts(ids, mask, w, pools, None)

    def test_token_level_routing_runs(self):
        w, vocab, cfg = make_weights()
        pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 4,
                               np.random.default_rng(1))
        ids, mask = E.tokenize("alpha beta", vocab, cfg.max_seq_len)
        out = E.encode_with_experts(ids, mask, w, pools, None, token_topk=2)
        assert out.cls.data.shape == (cfg.model_dim,)
        assert len(out.token_decisions) == len(pools)


# ----------------------------------------------------------- base training

class TestBaseTraining:
    def test_learns_separable_toy_task_and_freezes(self):
        vocab = E.Vocab(["red", "blue", "green", "stone", "cloud"])
        cfg = small_config(len(vocab))
        instances = []
        for _ in range(8):
            instances += [("red stone", 0), ("blue cloud", 1),
                          ("red cloud stone", 0), ("blue stone cloud", 1)]
        w = E.train_base_task(instances, cfg, vocab,
                              np.random.default_rng(0), epochs=6,
                              batch_size=8, lr=3e-4, head_lr=1e-2)
        assert w.frozen
        assert all(not t.requires_grad for t in w.tensors.values())
        assert w.base_train_accuracy is not None
        assert w.base_train_accuracy >= 0.95

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
        E.save_weights(w, path, vocab=vocab,
                       extra_tensors={"head/w": np.arange(6.0).reshape(2, 3)})
        w2, vocab2, extra, meta = E.load_weights(path)
        assert w2.fingerprint() == w.fingerprint()
        assert w2.frozen
        assert vocab2.token_to_id == vocab.token_to_id
        np.testing.assert_array_equal(extra["head/w"], np.arange(6.0).reshape(2, 3))
        assert meta["config"]["model_dim"] == cfg.model_dim

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
