"""Tests for the label-description bank: file parsing, frozen encoding,
seeded subsetting, and the description-count check."""

import numpy as np
import pytest

from leaf import config as cfgmod
from leaf import descriptions as D
from leaf import encoder as E
from leaf import harness
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
        raw = D.load_descriptions(p)
        assert raw == {"attack": ["a sudden strike", "violence done"],
                       "trade": ["goods change hands"]}

    def test_blank_lines_skipped(self, tmp_path):
        p = write_desc(tmp_path, ["a\tx", "", "   ", "b\ty"])
        assert set(D.load_descriptions(p)) == {"a", "b"}

    def test_missing_tab_raises(self, tmp_path):
        p = write_desc(tmp_path, ["attack a sudden strike"])
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(p)

    def test_empty_label_or_text_raises(self, tmp_path):
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(write_desc(tmp_path, ["\tx"]))
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(write_desc(tmp_path, ["a\t  "], name="e.tsv"))

    def test_unknown_label_raises(self, tmp_path):
        p = write_desc(tmp_path, ["attack\tx", "ghost\ty"])
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(p, known_labels={"attack"})

    def test_duplicates_dropped_with_warning(self, tmp_path, caplog):
        p = write_desc(tmp_path, ["a\tsame text", "a\tsame text", "a\tother"])
        with caplog.at_level("WARNING"):
            raw = D.load_descriptions(p)
        assert raw["a"] == ["same text", "other"]
        assert any("duplicate" in r.message for r in caplog.records)

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("\n\n", encoding="utf-8")
        with pytest.raises(D.DescriptionFileError):
            D.load_descriptions(p)


class TestEncodeBank:
    def test_vectors_match_direct_encoding(self):
        w, vocab = frozen_encoder()
        raw = {"move": ["sudden shift in ownership"], "bang": ["loud noise"]}
        bank = D.encode_bank(raw, w, vocab, {"move": 0, "bang": 1})
        ids, mask = E.tokenize("loud noise", vocab, w.config.max_seq_len)
        expected = E.encode_base(ids[None], mask[None], w).cls.data[0]
        np.testing.assert_allclose(bank.vectors(1)[0], expected, atol=1e-12)
        assert bank.labels() == [0, 1]
        assert bank.texts[0] == ["sudden shift in ownership"]

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
        bank = D.DescriptionBank(encoder_fingerprint="fp")
        for lid in (0, 1):
            bank.texts[lid] = [f"text {lid} {i}" for i in range(n)]
            bank._vectors[lid] = [np.full(4, 10 * lid + i, dtype=float)
                                  for i in range(n)]
        return bank

    def test_exact_count_and_text_vector_alignment(self):
        sub = D.subset_bank(self.make_bank(), n_descriptions=3, seed=0)
        for lid in (0, 1):
            assert len(sub.texts[lid]) == 3 and len(sub.vectors(lid)) == 3
            for text, vec in zip(sub.texts[lid], sub.vectors(lid)):
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
        harness.check_data(resolved, ds, desc, seed=0, base_names=[])
        resolved["continual"]["n_descriptions"] = 3
        with pytest.raises(cfgmod.ConfigError, match="n_descriptions 3"):
            harness.check_data(resolved, ds, desc, seed=0, base_names=[])

    def test_fingerprint_carried_over(self):
        assert D.subset_bank(self.make_bank(), 1, seed=0).encoder_fingerprint == "fp"
