"""Work counters of whole runs, pinned as literal numbers at the reference
`[encoder]` and `[moe]` sizes on a small generated corpus. A change that
moves the work changes a pin here, in its own diff.

- The rows that reach `encoder.encode_base`, by kind: `bank` rows are
  encoded by `descriptions.encode_bank`, `table` rows by
  `continual.index_texts` (the run's noise-free [CLS] rows) and `noisy`
  rows carry embedding noise (the augmented memory copies of each epoch).
- The graph nodes of a training step, the rows through the matmul-bearing
  ops per step and per no-grad pass, and the no-grad passes per epoch and
  per task (`Work`).
- The SHA-256 passes over the base weights per set-up and per run."""

import collections
import functools
import hashlib
import itertools
import os
import sys
from types import SimpleNamespace

import pytest

from leaf import config as cfgmod
from leaf import continual, data_synth, descriptions, encoder, harness
from leaf import tensor as T
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



class Work:
    """What one run does, in order, filed under the task whose `train_task`
    ran last: each training step (`continual.batch_loss`, under a graph)
    with the graph nodes it records, by op, and each no-grad pass (one
    `encoder.in_chunks` call) by kind: `noisy` (the memory copies' [CLS]
    rows), `teacher`, `exemplars`, `evaluation`, or `cls` (the bank's and
    the table's noise-free rows). Both count the rows through each
    matmul-bearing op."""

    OPS = ("linear", "lora", "attention")

    def __init__(self, monkeypatch):
        self.task, self.kind, self.rows, self.nodes = 0, None, None, None
        self.log = collections.defaultdict(list)  # task -> [(kind or "step", rows, nodes)]
        wrap = functools.partial(self.wrap, monkeypatch)
        wrap(continual, "train_task", before=lambda t, *_: setattr(self, "task", t + 1))
        wrap(encoder, "frozen_cls", kind=lambda *args: "noisy" if len(args) > 3 else "cls")
        wrap(continual, "features", kind=lambda *args: self.kind or "teacher")
        wrap(continual, "select_exemplar", kind=lambda *args: "exemplars")
        wrap(continual, "predict", kind=lambda *args: "evaluation")
        wrap(continual, "batch_loss", kind=lambda *args: "step", counted=True)
        wrap(encoder, "in_chunks", counted=True)
        for op in self.OPS:
            wrap(T, op, before=lambda x, *_, op=op: self.count(op, x))
        real_node = T._node

        def node(*args):
            out = real_node(*args)
            if out.requires_grad and self.nodes is not None:  # named by the op that made it
                self.nodes[sys._getframe(1).f_code.co_name] += 1
            return out
        monkeypatch.setattr(T, "_node", node)
        # the packed no-grad layout, whatever this host's BLAS probe says
        monkeypatch.setattr(encoder, "_rows_stand_alone", lambda *shape: True)

    def wrap(self, monkeypatch, module, name, before=None, kind=None, counted=False):
        """Wrap `module.name`: `before` sees its arguments, `kind` names the
        pass it starts, and a `counted` call is one log entry."""
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            if before is not None:
                before(*args)
            outer = self.kind
            self.kind = kind(*args) if kind is not None else outer
            if counted:
                self.rows, self.nodes = collections.Counter(), collections.Counter()
            try:
                return real(*args, **kwargs)
            finally:
                if counted:
                    self.log[self.task].append((self.kind, dict(self.rows), dict(self.nodes)))
                    self.rows = self.nodes = None
                self.kind = outer
        monkeypatch.setattr(module, name, wrapped)

    def count(self, op, x):
        if self.rows is not None:
            data = x.data if isinstance(x, T.Tensor) else x
            self.rows[op] += data.size // data.shape[-1]


# One step of task 2 (each of its 8: 2 epochs of 32 rows in batches of 8):
# the graph nodes it records, by op, and the rows through each op.
STEP = {"nodes": {"add": 8, "attention": 2, "gelu": 2, "layer_norm": 4, "linear": 11,
                  "lora": 4, "lse_gap": 1, "masked_sums": 1, "scores": 5, "soft_ce": 2,
                  "softmax": 4, "take": 2, "unit_distance": 1, "weighted_sum": 1},
        "rows": {"linear": 632, "lora": 224, "attention": 80}}
# The rows through each op in one no-grad pass of task 2, by kind.
PASS_ROWS = {"noisy": {"linear": 1072, "attention": 160},
             "teacher": {"linear": 2144, "lora": 788, "attention": 320},
             "exemplars": {"linear": 840, "lora": 309, "attention": 120},
             "evaluation": {"linear": 1840, "lora": 676, "attention": 280}}
# The no-grad passes of each epoch of task 2, before its steps, and of the
# whole task: its epochs', then exemplar selection and the evaluation of
# tasks 1 and 2.
EPOCH_PASSES = {"noisy": 1, "teacher": 1}
TASK_PASSES = {"noisy": 2, "teacher": 2, "exemplars": 1, "evaluation": 2}


def test_work_of_a_leaf_task_2(base, monkeypatch):
    dataset, weights, vocab, base_names = base
    resolved = harness.apply_mode(small_config(), "leaf")
    resolved["continual"]["epochs"] = 2
    work = Work(monkeypatch)
    harness.run_once(dataset, weights, vocab, base_names, resolved, seed=0)
    log = work.log[2]
    steps = [{"nodes": nodes, "rows": rows} for kind, rows, nodes in log if kind == "step"]
    assert steps == [STEP] * 8
    for kind, rows, nodes in log:
        if kind != "step":
            assert (kind, rows, nodes) == (kind, PASS_ROWS[kind], {})  # no graph
    # the passes between steps: each epoch's, then the task's own
    between = [collections.Counter(kind for kind, _, _ in run)
               for is_step, run in itertools.groupby(log, lambda entry: entry[0] == "step")
               if not is_step]
    assert between[:2] == [EPOCH_PASSES] * 2
    assert collections.Counter(kind for kind, _, _ in log if kind != "step") == TASK_PASSES


# SHA-256 passes over the base weights: in a benchmark set-up
# (`harness.pretrain_base`, then `harness.setup_run`), in a benchmark run on
# its bank (`continual.init_state`, then `run_experiment`), and in `leaf
# train` (`encoder.load_weights`, then `harness.run_once`). Frozen weights
# are hashed once, by `EncoderWeights.freeze`.
HASHES = {"set-up": 1, "run": 0, "load": 1, "run_once": 0}


@pytest.mark.parametrize("mode", ["leaf", "mole-token"])
def test_weight_hashes_per_set_up_and_run(base, monkeypatch, tmp_path, mode):
    dataset = base[0]
    hashes, sha256 = [], hashlib.sha256
    monkeypatch.setattr(encoder, "hashlib", SimpleNamespace(
        sha256=lambda: hashes.append(1) or sha256()))
    resolved, counts = harness.apply_mode(small_config(), mode), {}

    def counted(name, fn, *args):
        hashes.clear()
        out = fn(*args)
        counts[name] = len(hashes)
        return out

    def set_up():
        weights, vocab, base_names = harness.pretrain_base(dataset, resolved, seed=0)
        return (weights, vocab, base_names, *harness.setup_run(
            dataset, dataset.descriptions, weights, vocab, base_names, resolved, 0))

    weights, vocab, base_names, stream, state = counted("set-up", set_up)
    counted("run", lambda: continual.run_experiment(stream, continual.init_state(
        weights, vocab, state.bank, state.config)))
    encoder.save_weights(weights, tmp_path / "w.bin", vocab)
    loaded, vocab, _ = counted("load", encoder.load_weights, tmp_path / "w.bin")
    counted("run_once", harness.run_once, dataset, loaded, vocab, base_names, resolved, 0)
    assert counts == HASHES
