"""Synthetic corpus generator: determinism, structural invariants, the
difficulty dial, and the JSONL loader."""

import hashlib
import json

import numpy as np
import pytest

import leaf.data_synth as ds_mod
from leaf.data_synth import Dataset, GeneratorSpec


def small_spec(**kw):
    base = dict(n_labels=6, instances_per_label=8, test_per_label=4,
                vocab_size=400, seed=0)
    base.update(kw)
    return GeneratorSpec(**base)


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(confusability=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec(sentence_len=(2, 5))
    with pytest.raises(ValueError):
        GeneratorSpec(sentence_len=(9, 8))
    with pytest.raises(ValueError):
        GeneratorSpec(triggers_per_sentence=(0, 1))
    with pytest.raises(ValueError):
        GeneratorSpec(triggers_per_sentence=(3, 2))
    with pytest.raises(ValueError):
        GeneratorSpec(triggers_per_sentence=(1, 9))  # > TRIGGER_WORDS_PER_LABEL
    with pytest.raises(ValueError):
        GeneratorSpec(sentence_len=(4, 6), triggers_per_sentence=(1, 4))


def test_generate_rejects_too_small_vocab():
    with pytest.raises(ValueError):
        ds_mod.generate(GeneratorSpec(vocab_size=50))  # pools cannot fit
    need = 6 * (ds_mod.TRIGGER_WORDS_PER_LABEL + ds_mod.CONTEXT_POOL_SIZE) \
        + ds_mod.CONTEXT_POOL_SIZE
    small_spec(vocab_size=need)
    with pytest.raises(ValueError, match=f"pools need {need} words"):
        small_spec(vocab_size=need - 1)


# ---------------------------------------------------------------- generate


def test_generate_deterministic():
    """Two calls give the same corpus, and the seed-0 corpus is the one this
    generator has always drawn: a change to its RNG stream fails here rather
    than as every golden digest at once."""
    a = ds_mod.generate(small_spec())
    b = ds_mod.generate(small_spec())
    assert a.train == b.train and a.test == b.test
    assert a.descriptions == b.descriptions
    corpus = json.dumps([a.label_names, a.train, a.test, a.descriptions], sort_keys=True)
    assert hashlib.sha256(corpus.encode()).hexdigest() == (
        "e3ad8d48be5c06abc36f262a281c54311c8aa889af39138389745d1092c023ff")


def test_generate_seed_changes_output():
    a = ds_mod.generate(small_spec(seed=0))
    b = ds_mod.generate(small_spec(seed=1))
    assert a.train != b.train


def test_generate_counts_and_lengths():
    spec = small_spec()
    ds = ds_mod.generate(spec)
    assert ds.n_labels == 6
    for y in range(6):
        assert len(ds.train[y]) == spec.instances_per_label
        assert len(ds.test[y]) == spec.test_per_label
        for text in ds.train[y] + ds.test[y]:
            n = len(text.split())
            assert spec.sentence_len[0] <= n <= spec.sentence_len[1]
    for name in ds.label_names:
        assert len(ds.descriptions[name]) == ds_mod.DESCRIPTIONS_PER_LABEL


def test_generate_train_test_disjoint():
    ds = ds_mod.generate(small_spec())
    train = {t for texts in ds.train.values() for t in texts}
    test = [t for texts in ds.test.values() for t in texts]
    assert not train.intersection(test)


def test_default_spec_matches_protocol_shape():
    spec = GeneratorSpec()
    assert spec.n_labels == 28          # 8 base labels + 5 tasks x 4 ways
    assert spec.instances_per_label == 40
    assert spec.confusability == 0.5
    assert spec.vocab_size == 2000


# ---------------------------------------------------------------- difficulty dial


def classifier_separability_probe(ds: Dataset, n_shots: int = 5, seed: int = 0) -> float:
    """Few-shot nearest-centroid bag-of-words probe; returns test accuracy.

    A linear classifier over token counts, deliberately trained on only
    n_shots instances per label so that accuracy tracks how much the
    context words (the part rho controls) help beyond the triggers.
    """
    rng = np.random.default_rng(seed)
    vocab = {t: i for i, t in enumerate(ds_mod.build_vocab_tokens(ds))}

    def bow(text):
        v = np.zeros(len(vocab))
        for tok in text.lower().split():
            if tok in vocab:
                v[vocab[tok]] += 1.0
        return v

    centroids = {}
    for y in sorted(ds.train):
        texts = ds.train[y]
        picks = rng.choice(len(texts), size=min(n_shots, len(texts)), replace=False)
        c = np.sum([bow(texts[i]) for i in picks], axis=0)
        centroids[y] = c / max(np.linalg.norm(c), 1e-12)
    labels = sorted(centroids)
    C = np.stack([centroids[y] for y in labels])
    correct = total = 0
    for y in sorted(ds.test):
        for text in ds.test[y]:
            sims = C @ bow(text)
            pred = labels[int(np.argmax(sims))]
            correct += int(pred == y)
            total += 1
    return correct / total


def test_probe_confusability_dial():
    """The bag-of-words probe: easy at rho=0, strictly harder at rho=1,
    non-increasing across the dial within a small noise band (3 seeds)."""
    acc = {}
    for rho in (0.0, 0.5, 1.0):
        vals = []
        for seed in range(3):
            ds = ds_mod.generate(GeneratorSpec(confusability=rho, seed=seed))
            vals.append(classifier_separability_probe(ds, seed=seed))
        acc[rho] = float(np.mean(vals))
    assert acc[0.0] >= 0.95
    assert acc[1.0] < acc[0.0]
    assert acc[0.5] <= acc[0.0] + 0.03
    assert acc[1.0] <= acc[0.5] + 0.03


# ---------------------------------------------------------------- io


def test_jsonl_roundtrip(tmp_path):
    ds = ds_mod.generate(small_spec())
    path = tmp_path / "data.jsonl"
    ds_mod.write_jsonl(ds, path)
    back = ds_mod.load_jsonl(path)
    assert back.label_names == ds.label_names
    assert back.train == ds.train
    assert back.test == ds.test


def test_descriptions_tsv_written(tmp_path):
    ds = ds_mod.generate(small_spec())
    path = tmp_path / "desc.tsv"
    ds_mod.write_descriptions_tsv(ds, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == ds.n_labels * ds_mod.DESCRIPTIONS_PER_LABEL
    name, text = lines[0].split("\t")
    assert name == ds.label_names[0]
    assert text == ds.descriptions[name][0]


def test_load_jsonl_error_cases(tmp_path):
    cases = {
        "bad.jsonl": "not json\n",
        "missing.jsonl": '{"text": "a b c", "split": "train"}\n',
        "split.jsonl": '{"text": "a", "label": "x", "split": "dev"}\n',
        "empty_label.jsonl": '{"text": "a", "label": "", "split": "train"}\n',
        "blank_text.jsonl": '{"text": " ", "label": "x", "split": "train"}\n',
        "null_text.jsonl": '{"text": null, "label": "x", "split": "train"}\n',
        "list.jsonl": '["text", "label", "split"]\n',
        "string.jsonl": '"text label split"\n',
    }
    for fname, content in cases.items():
        p = tmp_path / fname
        p.write_text(content)
        with pytest.raises(ds_mod.DatasetFormatError, match=rf"{fname}:1: "):
            ds_mod.load_jsonl(p)


@pytest.mark.parametrize("label", ["null", '["x"]', "3", '" "'],
                         ids=["null", "list", "number", "blank"])
def test_load_jsonl_label_must_be_a_nonblank_string(tmp_path, label):
    # `null` used to load as the label "None" and `["x"]` as "['x']"
    p = tmp_path / "label.jsonl"
    p.write_text('{"text": "a b", "label": "y", "split": "train"}\n'
                 f'{{"text": "a", "label": {label}, "split": "train"}}\n')
    with pytest.raises(ds_mod.DatasetFormatError,
                       match=rf"label\.jsonl:2: label .* is not a non-blank string"):
        ds_mod.load_jsonl(p)


def test_load_jsonl_skips_blank_lines_and_orders_labels(tmp_path):
    p = tmp_path / "ok.jsonl"
    p.write_text('{"text": "a b", "label": "second", "split": "train"}\n'
                 "\n"
                 '{"text": "c d", "label": "first", "split": "test"}\n')
    ds = ds_mod.load_jsonl(p)
    assert ds.label_names == ["second", "first"]  # first-appearance order
    assert ds.train[0] == ["a b"] and ds.test[1] == ["c d"]


def test_build_vocab_tokens_sorted_and_complete():
    ds = Dataset(label_names=["x"], train={0: ["b a"]}, test={0: ["c a"]},
                 descriptions={"x": ["d e"]})
    assert ds_mod.build_vocab_tokens(ds) == ["a", "b", "c", "d", "e"]
