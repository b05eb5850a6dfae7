"""Work counters: the rows that reach `encoder.encode_base` in whole runs,
pinned as literal numbers at the reference `[encoder]` and `[moe]` sizes
on a small generated corpus. A change that moves the work changes a pin
here, in its own diff.

Rows are counted by kind: `bank` rows are encoded by
`descriptions.encode_bank`, `table` rows by `continual.index_texts` (the
run's noise-free [CLS] rows) and `noisy` rows carry embedding noise (the
augmented memory copies of each epoch)."""

import collections
import os

import pytest

from leaf import config as cfgmod
from leaf import continual, data_synth, descriptions, encoder, harness
from leaf.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 12 labels, 4 of them base labels: 2 tasks of 4 ways leave 4 labels unused
SPEC = data_synth.GeneratorSpec(n_labels=12, instances_per_label=8, test_per_label=2,
                                vocab_size=600, seed=3)
SMALL = {"continual": {"n_way": 4, "k_shot": 3, "num_tasks": 2, "epochs": 1,
                       "n_descriptions": 2},
         "run": {"base_epochs": 1, "n_base_labels": 4, "n_seeds": 2}}


def small_config() -> dict:
    """configs/experiment.ini (the reference `[encoder]` and `[moe]`) with
    the `SMALL` run."""
    resolved = cfgmod.parse_config(os.path.join(ROOT, "configs", "experiment.ini"))
    for section, values in SMALL.items():
        resolved[section].update(values)
    return cfgmod.check(resolved)


@pytest.fixture(scope="module")
def base():
    """The corpus, its frozen base weights, their vocabulary and base labels."""
    dataset = data_synth.generate(SPEC)
    weights, vocab, base_names = harness.pretrain_base(dataset, small_config(), seed=0)
    return dataset, weights, vocab, base_names


@pytest.fixture
def encoded(monkeypatch) -> collections.Counter:
    """Rows that reach `encoder.encode_base`, counted by kind."""
    counts, inside = collections.Counter(), []

    def within(kind, fn):
        def wrapped(*args, **kwargs):
            inside.append(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    real = encoder.encode_base

    def encode_base(ids, mask, weights, embed_noise=None):
        kind = "noisy" if embed_noise is not None else inside[-1] if inside else "other"
        counts[kind] += len(ids)
        return real(ids, mask, weights, embed_noise)

    monkeypatch.setattr(descriptions, "encode_bank", within("bank", descriptions.encode_bank))
    monkeypatch.setattr(continual, "index_texts", within("table", continual.index_texts))
    monkeypatch.setattr(encoder, "encode_base", encode_base)
    return counts


def per_run(monkeypatch, counts) -> list[dict]:
    """Patch `harness.run_once` to note each run's rows by kind."""
    runs, real = [], harness.run_once

    def run_once(*args, **kwargs):
        counts.clear()
        matrix = real(*args, **kwargs)
        runs.append({kind: counts.pop(kind, 0) for kind in ("bank", "table", "noisy")})
        assert not counts, f"rows encoded outside the bank, table and noisy passes: {counts}"
        return matrix

    monkeypatch.setattr(harness, "run_once", run_once)
    return runs


@pytest.mark.parametrize("mode,first,second", [
    # the second run on the same weights encodes only its noisy rows
    ("leaf", {"bank": 72, "table": 80, "noisy": 16},
     {"bank": 0, "table": 0, "noisy": 16}),
    # token routing builds no [CLS] table, and the mode augments no memory
    ("mole-token", {"bank": 72, "table": 0, "noisy": 0},
     {"bank": 0, "table": 0, "noisy": 0})])
def test_second_run_on_the_same_weights(base, encoded, monkeypatch, mode, first, second):
    dataset, weights, vocab, base_names = base
    weights = encoder.EncoderWeights(weights.config, weights.tensors, frozen=True)  # none kept
    runs = per_run(monkeypatch, encoded)
    resolved = harness.apply_mode(small_config(), mode)
    for _ in range(2):
        harness.run_once(dataset, weights, vocab, base_names, resolved, seed=0)
    assert runs == [first, second]


def test_sweep_encodes_each_stream_once(base, encoded, monkeypatch, tmp_path):
    """`leaf ablate` loads the weights once, so over 2 settings x 2 seeds
    (the fewest `[run] n_seeds` allows) only the first run encodes the
    bank and the stream: 2 tasks x 4 ways take every label left after the
    base split, so both seeds' streams hold the same texts."""
    dataset, weights, vocab, base_names = base
    data_synth.write_jsonl(dataset, tmp_path / "dataset.jsonl")
    data_synth.write_descriptions_tsv(dataset, tmp_path / "descriptions.tsv")
    encoder.save_weights(weights, tmp_path / "base_weights.bin", vocab,
                         extra_meta={"base_labels": base_names})
    resolved = small_config()
    resolved["paths"] = {"dataset": str(tmp_path / "dataset.jsonl"),
                         "weights": str(tmp_path / "base_weights.bin"),
                         "descriptions": str(tmp_path / "descriptions.tsv")}
    ini = tmp_path / "run.ini"
    ini.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for section, keys in resolved.items()))
    monkeypatch.setitem(harness.ABLATIONS, "work", (
        ("leaf", "leaf", {}), ("no-label", "leaf", {"losses": {"alpha_label": 0.0}})))
    runs = per_run(monkeypatch, encoded)
    assert main(["ablate", "--config", str(ini), "--axis", "work",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert runs == [{"bank": 72, "table": 80, "noisy": 16},
                    {"bank": 0, "table": 0, "noisy": 16},
                    {"bank": 0, "table": 0, "noisy": 16},
                    {"bank": 0, "table": 0, "noisy": 16}]
