"""Tests for the label-description bank: file parsing, frozen encoding,
seeded subsetting, and the description-count check."""

import numpy as np
import pytest

from leaf import config as cfgmod
from leaf import descriptions as D
from leaf import encoder as E
from leaf import harness
from leaf import tensor as T
from leaf.data_synth import Dataset


def write_desc(tmp_path, lines, name="d.tsv"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def frozen_encoder():
    vocab = E.Vocab(["sudden", "shift", "in", "ownership", "loud", "noise"])
    cfg = E.EncoderConfig(num_layers=1, model_dim=8, num_heads=2, ffn_dim=16,
                          max_seq_len=8, vocab_size=len(vocab))
    w = E.init_encoder_weights(cfg, np.random.default_rng(0))
    w.freeze()
    return w, vocab


class TestLoadDescriptions:
    def test_basic_parse(self, tmp_path):
        p = write_desc(tmp_path, ["attack\ta sudden strike", "attack\tviolence done",
                                  "trade\tgoods change hands"])
        raw = D.load_descriptions(p, {"attack", "trade"})
        assert raw == {"attack": ["a sudden strike", "violence done"],
                       "trade": ["goods change hands"]}

    def test_blank_lines_skipped(self, tmp_path):
        p = write_desc(tmp_path, ["a\tx", "", "   ", "b\ty"])
        assert set(D.load_descriptions(p, {"a", "b"})) == {"a", "b"}

    def test_missing_tab_raises(self, tmp_path):
        p = write_desc(tmp_path, ["attack a sudden strike"])
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(p, {"attack"})

    def test_empty_label_or_text_raises(self, tmp_path):
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(write_desc(tmp_path, ["\tx"]), {"a"})
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(write_desc(tmp_path, ["a\t  "], name="e.tsv"), {"a"})

    def test_unknown_label_raises(self, tmp_path):
        p = write_desc(tmp_path, ["attack\tx", "ghost\ty"])
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(p, known_labels={"attack"})
        with pytest.raises(TypeError):  # the label check is not optional
            D.load_descriptions(p)

    def test_duplicates_dropped_with_warning(self, tmp_path, caplog):
        p = write_desc(tmp_path, ["a\tsame text", "a\tsame text", "a\tother"])
        with caplog.at_level("WARNING"):
            raw = D.load_descriptions(p, {"a"})
        assert raw["a"] == ["same text", "other"]
        assert any("duplicate" in r.message for r in caplog.records)

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("\n\n", encoding="utf-8")
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(p, {"a"})


class TestEncodeBank:
    def test_vectors_match_direct_encoding(self, monkeypatch):
        """One forward per EVAL_CHUNK descriptions (3 here); each vector
        equals its description encoded alone (a wider padded batch may move
        the last bit of a softmax sum, hence the tolerance)."""
        w, vocab = frozen_encoder()
        raw = {"move": ["sudden shift in ownership", "shift"],
               "bang": ["loud noise", "noise in loud sudden shift ownership"]}
        calls = []
        encode_base = E.encode_base
        monkeypatch.setattr(E, "EVAL_CHUNK", 3)
        monkeypatch.setattr(E, "encode_base",
                            lambda *a, **k: calls.append(1) or encode_base(*a, **k))
        bank = D.encode_bank(raw, w, vocab, {"move": 0, "bang": 1})
        assert len(calls) == -(-4 // E.EVAL_CHUNK)
        for lid, label in enumerate(raw):
            for text, vec in zip(raw[label], bank.vectors[bank.labels == lid]):
                ids, mask = E.tokenize(text, vocab, w.config.max_seq_len)
                expected = encode_base(ids[None], mask[None], w).data[0]
                np.testing.assert_allclose(vec, expected, rtol=0.0, atol=1e-12)
        assert bank.labels.tolist() == [0, 0, 1, 1]
        assert bank.texts[:2] == raw["move"]

    def test_chunked_vectors_equal_one_unchunked_pass(self, monkeypatch):
        """The bank encoded EVAL_CHUNK rows at a time is byte-equal to all of
        its descriptions in one pass at the same padded length."""
        vocab = E.Vocab([f"w{i}" for i in range(30)])
        cfg = E.EncoderConfig(num_layers=2, model_dim=16, num_heads=2, ffn_dim=32,
                              max_seq_len=12, vocab_size=len(vocab))
        w = E.init_encoder_weights(cfg, np.random.default_rng(0))
        w.freeze()
        rng = np.random.default_rng(1)
        raw = {f"l{k}": [" ".join(rng.choice(vocab.to_list()[3:], size=n))
                         for n in rng.integers(1, 11, 6)] for k in range(4)}
        label_ids = {name: k for k, name in enumerate(raw)}
        texts = [text for name in raw for text in raw[name]]
        with T.no_grad():
            whole = E.encode_base(*E.tokenize_set(texts, vocab, cfg.max_seq_len), w).data
        monkeypatch.setattr(E, "EVAL_CHUNK", 5)
        bank = D.encode_bank(raw, w, vocab, label_ids)
        assert bank.vectors.tobytes() == whole.tobytes()

    def test_requires_frozen_encoder(self):
        w, vocab = frozen_encoder()
        w.frozen = False
        with pytest.raises(ValueError):
            D.encode_bank({"a": ["loud noise"]}, w, vocab, {"a": 0})

    def test_fingerprint_check(self):
        w, vocab = frozen_encoder()
        bank = D.encode_bank({"a": ["loud noise"]}, w, vocab, {"a": 0})
        bank.check_fingerprint(w)  # matching encoder passes
        next(iter(w.tensors.values())).data[0] += 1.0
        with pytest.raises(D.FingerprintMismatchError):
            bank.check_fingerprint(w)


class TestSubsetBank:
    def make_bank(self, n=5):
        rows = [(lid, i) for lid in (0, 1) for i in range(n)]
        return D.DescriptionBank([f"text {lid} {i}" for lid, i in rows],
                                 np.asarray([lid for lid, _ in rows]),
                                 np.asarray([np.full(4, 10 * lid + i, dtype=float)
                                             for lid, i in rows]),
                                 "fp")

    def test_exact_count_and_text_vector_alignment(self):
        sub = D.subset_bank(self.make_bank(), n_descriptions=3, seed=0)
        for lid in (0, 1):
            rows = np.flatnonzero(sub.labels == lid)
            assert len(rows) == 3 and len(sub.vectors[rows]) == 3
            for text, vec in zip([sub.texts[r] for r in rows], sub.vectors[rows]):
                i = int(text.split()[-1])
                assert vec[0] == 10 * lid + i

    def test_seeded_determinism(self):
        a = D.subset_bank(self.make_bank(), 3, seed=7)
        b = D.subset_bank(self.make_bank(), 3, seed=7)
        assert a.texts == b.texts

    def test_too_few_descriptions_raises(self):
        ds = Dataset(label_names=["a", "b"], train={0: ["x y"], 1: ["y z"]},
                     test={0: ["x"], 1: ["z"]})
        desc = {name: [f"text {name} {i}" for i in range(2)] for name in ds.label_names}
        resolved = cfgmod.defaults()
        resolved["continual"].update(n_way=1, k_shot=1, num_tasks=2, n_descriptions=2)
        harness.check_data(resolved, ds, desc, base_names=[])
        resolved["continual"]["n_descriptions"] = 3
        with pytest.raises(cfgmod.ConfigError, match="n_descriptions 3"):
            harness.check_data(resolved, ds, desc, base_names=[])

    def test_draws_per_label_in_ascending_label_order(self):
        """One draw of n row positions per label, labels in ascending order,
        each draw sorted."""
        rng = np.random.default_rng(3)
        expected = [f"text {lid} {i}" for lid in (0, 1)
                    for i in sorted(rng.choice(5, size=2, replace=False).tolist())]
        sub = D.subset_bank(self.make_bank(), 2, seed=3)
        assert sub.texts == expected
        assert sub.labels.tolist() == [0, 0, 1, 1]

    def test_fingerprint_carried_over(self):
        assert D.subset_bank(self.make_bank(), 1, seed=0).encoder_fingerprint == "fp"
