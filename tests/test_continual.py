"""Tests for the continual-learning protocol: task streams, rehearsal
memory, snapshots, head growth, and the end-to-end training loop — all on
a deliberately tiny configuration so the suite stays fast."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaf import config as cfgmod
from leaf import continual as C
from leaf import data_synth as DS
from leaf import descriptions as D
from leaf import encoder as E
from leaf import harness, metrics
from leaf import moe
from leaf import objectives as obj
from leaf import tensor as T
from leaf.gradcheck import build_tiny_problem
import oracles
from oracles import (dataset_order_predict, one_row_frozen_cls, per_batch_teacher,
                     per_label_exemplars, run_files)


def tiny_dataset(n_labels=8, per_label=6, test_per_label=2, seed=0, vocab_size=400):
    spec = DS.GeneratorSpec(n_labels=n_labels, instances_per_label=per_label,
                            test_per_label=test_per_label, vocab_size=vocab_size,
                            confusability=0.5, sentence_len=(4, 6),
                            triggers_per_sentence=(1, 2), seed=seed)
    return DS.generate(spec)


def tiny_state(dataset, epochs=2, augment=False, alpha_label=0.0, seed=0, **cfg_kw):
    vocab = E.Vocab(DS.build_vocab_tokens(dataset))
    ecfg = E.EncoderConfig(num_layers=1, model_dim=16, num_heads=2, ffn_dim=32,
                           max_seq_len=12, vocab_size=len(vocab))
    weights = E.init_encoder_weights(ecfg, np.random.default_rng(0))
    weights.freeze()
    name_to_id = {n: i for i, n in enumerate(dataset.label_names)}
    bank = D.encode_bank(dataset.descriptions, weights, vocab, name_to_id)
    weights_cfg = obj.LossWeights(alpha_label=alpha_label)
    tc = C.TrainConfig(epochs=epochs, batch_size=4, num_experts=2, rank=2,
                       topk=1, augment=augment, loss_weights=weights_cfg,
                       seed=seed, **cfg_kw)
    state = C.init_state(weights, vocab, bank, tc)
    C.index_texts(state, dataset_texts(dataset))
    return state


def dataset_texts(dataset) -> list[str]:
    """Every text of the dataset, train sets first, in label order."""
    return [text for table in (dataset.train, dataset.test)
            for y in sorted(table) for text in table[y]]


def check_stream_data(dataset, n_way, k_shot, num_tasks):
    """`harness.check_data` on a stream over every label (no base split)."""
    resolved = cfgmod.defaults()
    resolved["continual"].update(n_way=n_way, k_shot=k_shot, num_tasks=num_tasks,
                                 n_descriptions=1)
    harness.check_data(resolved, dataset, dataset.descriptions, base_names=[])


# --------------------------------------------------------------- task stream

class TestBuildStream:
    def test_disjoint_labels_and_shot_counts(self):
        ds = tiny_dataset()
        stream = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=3, seed=0)
        all_labels = [y for task in stream.tasks for y in task.labels]
        assert len(all_labels) == len(set(all_labels)) == 6
        for task in stream.tasks:
            assert len(task.train) == 2 * 3
            per = {y: sum(1 for i in task.train if i.label == y) for y in task.labels}
            assert all(v == 3 for v in per.values())
            assert {i.label for i in task.test} == set(task.labels)

    def test_seeded_determinism_and_seed_sensitivity(self):
        ds = tiny_dataset()
        a = C.build_stream(ds, 2, 3, 3, seed=1)
        b = C.build_stream(ds, 2, 3, 3, seed=1)
        c = C.build_stream(ds, 2, 3, 3, seed=2)
        assert [t.labels for t in a.tasks] == [t.labels for t in b.tasks]
        assert [i.text for t in a.tasks for i in t.train] == \
               [i.text for t in b.tasks for i in t.train]
        assert [t.labels for t in a.tasks] != [t.labels for t in c.tasks]

    def test_restricted_label_pool(self):
        ds = tiny_dataset()
        stream = C.build_stream(ds, 2, 3, 2, seed=0, labels=[0, 1, 2, 3])
        used = {y for t in stream.tasks for y in t.labels}
        assert used <= {0, 1, 2, 3}

    def test_too_few_labels_raises(self):
        ds = tiny_dataset()
        with pytest.raises(cfgmod.ConfigError, match="n_way x num_tasks"):
            check_stream_data(ds, 4, 3, 3)

    def test_too_few_shots_raises(self):
        ds = tiny_dataset(per_label=2)
        with pytest.raises(cfgmod.ConfigError, match="k_shot 5"):
            check_stream_data(ds, 2, 5, 2)

    def test_label_without_test_instances_raises(self):
        ds = tiny_dataset()
        check_stream_data(ds, 2, 3, 3)
        ds.test[3] = []
        with pytest.raises(cfgmod.ConfigError, match="no test instances"):
            check_stream_data(ds, 2, 3, 3)

    def test_seen_labels_cumulative(self):
        ds = tiny_dataset()
        stream = C.build_stream(ds, 2, 3, 3, seed=0)
        assert stream.seen_labels(0) == stream.tasks[0].labels
        assert stream.seen_labels(2) == [y for t in stream.tasks for y in t.labels]


# -------------------------------------------------------------------- memory

class TestMemoryBuffer:
    def test_one_exemplar_per_label(self):
        ds = tiny_dataset()
        state = tiny_state(ds, epochs=1)
        task = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=1, seed=0).tasks[0]
        stream = C.TaskStream(tasks=[task, task])
        C.train_task(0, stream, state)
        assert sorted(state.buffer) == task.labels
        with pytest.raises(ValueError, match=f"label {task.labels[0]} already has an exemplar"):
            C.train_task(1, stream, state)

    def test_select_exemplar_prefers_prototype(self):
        ds = tiny_dataset()
        state = tiny_state(ds)
        group = [DS.Instance(text=t, label=0) for t in ds.train[0][:4]]
        picked = C.select_exemplar(state, {0: group})
        assert picked[0] in group
        # oracle: recompute features directly and compare cosine-to-mean argmax
        feats, _ = C.forward_features(state, group)
        f = feats.data
        mean = f.mean(axis=0)
        sims = (f @ mean) / (np.linalg.norm(f, axis=1) * np.linalg.norm(mean))
        assert picked[0] is group[int(np.argmax(sims))]

    def test_select_exemplar_one_forward_matches_per_label_oracle(self, monkeypatch):
        ds = tiny_dataset()
        state = tiny_state(ds)
        live_experts(state)
        by_label = {y: [DS.Instance(text=t, label=y) for t in ds.train[y][:4]]
                    for y in (3, 0, 5)}
        by_label[7] = [DS.Instance(text=ds.train[7][0], label=7)]
        # two copies of one text: equal features, so a tie that the first wins
        by_label[2] = [DS.Instance(text=ds.train[2][1], label=2) for _ in range(2)]
        want = per_label_exemplars(state, by_label)
        calls = record_forwards(monkeypatch)
        got = C.select_exemplar(state, by_label)
        assert len(calls) == 1
        assert calls[0] == [inst for y in sorted(by_label) for inst in by_label[y]]
        assert list(got) == sorted(by_label)
        assert all(got[y] is want[y] for y in by_label)
        assert got[2] is by_label[2][0]

    def test_select_exemplar_runs_in_eval_chunks(self, monkeypatch):
        """A task's candidates go through `features` EVAL_CHUNK rows per pass
        and pick what one forward per label picks."""
        ds = tiny_dataset()
        state = tiny_state(ds)
        live_experts(state)
        stream = C.build_stream(ds, n_way=2, k_shot=4, num_tasks=1, seed=0)
        by_label = {y: [inst for inst in stream.tasks[0].train if inst.label == y]
                    for y in stream.tasks[0].labels}
        want = per_label_exemplars(state, by_label)
        monkeypatch.setattr(E, "EVAL_CHUNK", 3)
        calls = record_forwards(monkeypatch)
        got = C.select_exemplar(state, by_label)
        n = sum(map(len, by_label.values()))
        assert n > 3 and len(calls) == -(-n // 3)
        assert all(len(batch) == 3 for batch in calls[:-1])
        assert [inst for batch in calls for inst in batch] == [
            inst for y in sorted(by_label) for inst in by_label[y]]
        assert list(got) == sorted(by_label) and all(got[y] is want[y] for y in by_label)

    def test_select_exemplar_empty_group_raises_before_any_forward(self, monkeypatch):
        ds = tiny_dataset()
        state = tiny_state(ds)
        calls = record_forwards(monkeypatch)
        with pytest.raises(ValueError, match="no instances for label 4"):
            C.select_exemplar(state, {0: [DS.Instance(text=ds.train[0][0], label=0)],
                                      4: []})
        assert calls == []
        assert C.select_exemplar(state, {}) == {}


# --------------------------------------------------------------- evaluation

def live_experts(state, n_labels=8):
    """Non-zero expert deltas and a head over every label, so features and
    predictions depend on the pools and on each row."""
    rng = np.random.default_rng(5)
    for pool in state.pools.values():
        pool.B.data[...] = rng.normal(0.0, 0.3, pool.B.shape)
    state.head.grow(list(range(n_labels)))
    state.head.weight.data[...] = rng.normal(0.0, 1.0, state.head.weight.shape)


def record_forwards(monkeypatch):
    """Patch `continual.forward_features` to log the instances of each call."""
    calls, real = [], C.forward_features

    def forward(st, instances, *args, **kw):
        calls.append(list(instances))
        return real(st, instances, *args, **kw)

    monkeypatch.setattr(C, "forward_features", forward)
    return calls


@pytest.mark.parametrize("routing", ["instance", "token"])
@pytest.mark.parametrize("n", [0, 1, E.EVAL_CHUNK, E.EVAL_CHUNK + 1, 2 * E.EVAL_CHUNK + 1])
@settings(max_examples=3)
@given(data=st.data())
def test_predict_sorted_chunks_match_dataset_order(n, routing, data):
    """Chunks of EVAL_CHUNK rows in input order give the predictions of
    32-row chunks; each row goes through one forward pass, and an empty
    list through none."""
    ds = tiny_dataset()
    state = tiny_state(ds, routing=routing)
    live_experts(state)
    words = sorted({w for texts in ds.train.values() for t in texts for w in t.split()})
    lengths = data.draw(st.lists(st.integers(1, 14), min_size=n, max_size=n), label="lengths")
    rng = np.random.default_rng(n)
    instances = [DS.Instance(text=" ".join(rng.choice(words, size=k)), label=0)
                 for k in lengths]
    if instances:
        C.index_texts(state, [inst.text for inst in instances])
    want = dataset_order_predict(state, instances)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_forwards(mp)
        got = C.predict(state, instances)
    assert got == want and all(type(y) is int for y in got)
    assert len(calls) == -(-n // E.EVAL_CHUNK)
    assert all(len(batch) == E.EVAL_CHUNK for batch in calls[:-1])
    seen = [inst for batch in calls for inst in batch]
    assert list(map(id, seen)) == list(map(id, instances))


# ------------------------------------------------------- snapshots and heads

class TestSnapshotAndHead:
    def test_snapshot_is_detached_equal_copy(self):
        ds = tiny_dataset()
        state = tiny_state(ds)
        state.head.grow([0, 1])
        snap = C.snapshot_model(state)
        key = next(iter(state.pools))
        np.testing.assert_array_equal(snap.pools[key].A.data[0],
                                      state.pools[key].A.data[0])
        state.pools[key].A.data[0, 0, 0] += 1.0
        assert snap.pools[key].A.data[0, 0, 0] != state.pools[key].A.data[0, 0, 0]
        assert snap.head.class_order == [0, 1]
        assert all(not p.requires_grad for p in snap.head.params())

    def test_head_growth_preserves_old_rows(self):
        ds = tiny_dataset()
        state = tiny_state(ds)
        state.head.grow([0, 1])
        state.head.weight.data[:] = np.arange(state.head.weight.data.size).reshape(
            state.head.weight.data.shape)
        old = state.head.weight.data.copy()
        state.head.grow([2, 3])
        np.testing.assert_array_equal(state.head.weight.data[:2], old)
        assert state.head.class_order == [0, 1, 2, 3]


# ------------------------------------------------ per-run frozen input table

def record_encodes(monkeypatch) -> list:
    """Patch `encoder.encode_base` to log the row count of each call."""
    calls, real = [], E.encode_base

    def encode(ids, *args, **kw):
        calls.append(len(ids))
        return real(ids, *args, **kw)

    monkeypatch.setattr(E, "encode_base", encode)
    return calls


def step_loss(state, batch, t, stream, **kw):
    """`batch_loss` with the task's label rows."""
    return C.batch_loss(state, batch, t, stream, C.task_label_rows(state, t, stream), **kw)


def record_steps(monkeypatch) -> list:
    """Patch `continual.batch_loss` to log each step's (batch, noise, cls)."""
    steps, real = [], C.batch_loss

    def batch_loss(st, batch, t, stream, labels, noise=None, cls=None, prev=None):
        steps.append((batch, noise, cls))
        return real(st, batch, t, stream, labels, noise, cls, prev)

    monkeypatch.setattr(C, "batch_loss", batch_loss)
    return steps


class TestFrozenCache:
    """The run's table of frozen inputs (`continual.index_texts`)."""

    def test_fresh_state_starts_empty(self):
        ds = tiny_dataset()
        state = tiny_state(ds)
        assert len(state.table.row) == len(set(dataset_texts(ds)))
        again = C.init_state(state.weights, state.vocab, state.bank, state.config)
        assert again.table is None
        # each distinct text once, in first-appearance order, at their width
        C.index_texts(again, ["b c", "a", "b c"])
        assert again.table.row == {"b c": 0, "a": 1}
        assert again.table.ids.shape == again.table.mask.shape == (2, 3)
        assert again.table.mask.tolist() == [[1, 1, 1], [1, 1, 0]]
        assert again.table.cls.shape == (2, again.weights.config.model_dim)

    def test_run_indexes_its_stream_at_its_length(self):
        ds = tiny_dataset()
        state = tiny_state(ds)  # indexed with every text of the dataset
        stream = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=1, seed=0)
        C.run_experiment(stream, state)
        texts = [inst.text for inst in stream.tasks[0].train + stream.tasks[0].test]
        assert list(state.table.row) == list(dict.fromkeys(texts))
        width = 1 + max(len(text.split()) for text in texts)  # [CLS] and the longest text
        assert state.table.ids.shape == (len(state.table.row), width) and width < 12

    def test_table_cls_matches_encode_base_in_batches_of_1_and_8(self, monkeypatch):
        ds = tiny_dataset()
        state = tiny_state(ds)
        # the same tensors on a new object, which keeps no [CLS] rows yet
        # (`frozen_cls`), so that every row is encoded again
        state.weights = E.EncoderWeights(state.weights.config, state.weights.tensors, frozen=True)
        monkeypatch.setattr(E, "EVAL_CHUNK", 5)
        calls = record_encodes(monkeypatch)
        C.index_texts(state, dataset_texts(ds))
        table, n = state.table, len(state.table.row)
        assert calls == [min(5, n - s) for s in range(0, n, 5)]  # never all rows at once
        for size in (1, 8):
            with T.no_grad():
                rows = [E.encode_base(table.ids[s:s + size], table.mask[s:s + size],
                                      state.weights).data for s in range(0, n, size)]
            assert np.concatenate(rows).tobytes() == table.cls.tobytes()
        batch = [DS.Instance(text=t, label=y) for y in (1, 0) for t in ds.train[y][:3]]
        routed, real = [], E.encode_with_experts

        def encode_with_experts(ids, mask, weights, pools, cls, *args):
            routed.append(cls)
            return real(ids, mask, weights, pools, cls, *args)

        monkeypatch.setattr(E, "encode_with_experts", encode_with_experts)
        del calls[:]
        C.forward_features(state, batch)
        assert calls == []  # noise-free rows are looked up
        assert len(routed) == 1
        assert routed[0].tobytes() == table.cls[[table.row[i.text] for i in batch]].tobytes()

    def test_token_routing_builds_no_cls(self, monkeypatch):
        ds = tiny_dataset()
        state = tiny_state(ds, routing="token")
        calls = record_encodes(monkeypatch)
        C.index_texts(state, dataset_texts(ds))
        assert state.table.cls is None and calls == []
        assert state.table.ids.shape[0] == len(state.table.row)

    def test_augmented_rows_never_cached(self, monkeypatch):
        """Each noisy row's [CLS] equals that row encoded alone with its noise;
        the other rows are the table's, whose bytes the epoch leaves as
        they were."""
        ds = tiny_dataset()
        state = tiny_state(ds, augment=True, epochs=1)
        stream = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=2, seed=0)
        C.train_task(0, stream, state)
        table = state.table
        stored = [table.ids.tobytes(), table.mask.tobytes(), table.cls.tobytes()]
        steps = record_steps(monkeypatch)
        C.train_task(1, stream, state)
        assert [table.ids.tobytes(), table.mask.tobytes(), table.cls.tobytes()] == stored
        n_noisy = 0
        for batch, noise, cls in steps:
            for i, row in enumerate(table.row[inst.text] for inst in batch):
                if noise is None or not noise[i].any():
                    assert cls[i].tobytes() == table.cls[row].tobytes()
                    continue
                n_noisy += 1
                with T.no_grad():
                    alone = E.encode_base(table.ids[[row]], table.mask[[row]], state.weights,
                                          embed_noise=noise[[i]]).data
                assert cls[i].tobytes() == alone[0].tobytes()
                assert np.abs(cls[i] - table.cls[row]).max() > 0.0
        assert n_noisy == C.AUG_COPIES * len(stream.tasks[0].labels)

    def test_noise_keeps_full_width_rng_stream(self, monkeypatch):
        # per epoch, one [max_seq_len, d] draw per noisy row, in the order the
        # batches meet them, whatever the table's width: the stream that one
        # draw per batch took
        ds = tiny_dataset()
        state = tiny_state(ds, augment=True, epochs=2)
        stream = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=2, seed=0)
        C.train_task(0, stream, state)
        rng, around_permutation = state.rng, []

        class Recording:  # the run's generator, noting its state around each epoch's order
            def permutation(self, n):
                before = rng.bit_generator.state
                order = rng.permutation(n)
                around_permutation.append((before, rng.bit_generator.state))
                return order

            def __getattr__(self, name):
                return getattr(rng, name)

        state.rng = Recording()
        steps = record_steps(monkeypatch)
        C.train_task(1, stream, state)
        cfg, width = state.weights.config, state.table.ids.shape[1]
        assert width < cfg.max_seq_len and len(around_permutation) == 2
        per_epoch = len(steps) // 2
        (_, start_1), (end_1, start_2) = around_permutation
        for epoch, (start, end) in enumerate([(start_1, end_1),
                                              (start_2, rng.bit_generator.state)]):
            ref = np.random.default_rng()
            ref.bit_generator.state = start
            n_noisy = 0
            for batch, noise, _ in steps[epoch * per_epoch:(epoch + 1) * per_epoch]:
                if noise is None:
                    continue
                assert noise.shape == (len(batch), width, cfg.model_dim)
                for row in noise[noise.reshape(len(batch), -1).any(axis=1)]:
                    expected = ref.normal(0.0, C.SIGMA_AUG, (cfg.max_seq_len, cfg.model_dim))
                    assert row.tobytes() == expected[:width].tobytes()
                    n_noisy += 1
            assert n_noisy == C.AUG_COPIES * len(stream.tasks[0].labels)
            assert ref.bit_generator.state == end

    def test_teacher_call_does_not_encode(self, monkeypatch):
        """No forward pass, student or teacher, calls `encode_base`: each
        epoch's noisy rows go through `frozen_cls` once, EVAL_CHUNK rows per
        call. The teacher runs once per epoch too, EVAL_CHUNK rows per
        call, and never inside `batch_loss`."""
        ds = tiny_dataset()
        state = tiny_state(ds, augment=True)
        stream = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=3, seed=0)
        C.train_task(0, stream, state)
        monkeypatch.setattr(E, "EVAL_CHUNK", 3)
        real_forward, real_encode, real_loss = C.forward_features, E.encode_base, C.batch_loss
        roles, called, teacher_calls, encodes, in_step = [], set(), [], [], []

        def forward(st, instances, pools=None, **kw):
            roles.append("teacher" if pools is st.snapshot.pools else "student")
            called.add(roles[-1])
            if roles[-1] == "teacher":
                teacher_calls.append((bool(in_step), len(instances)))
            try:
                return real_forward(st, instances, pools=pools, **kw)
            finally:
                roles.pop()

        def encode(ids, *args, **kw):
            encodes.append((roles[-1] if roles else None, len(ids)))
            return real_encode(ids, *args, **kw)

        def batch_loss(*args, **kw):
            in_step.append(True)
            try:
                return real_loss(*args, **kw)
            finally:
                in_step.pop()

        monkeypatch.setattr(C, "forward_features", forward)
        monkeypatch.setattr(E, "encode_base", encode)
        monkeypatch.setattr(C, "batch_loss", batch_loss)
        C.train_task(1, stream, state)
        assert called == {"student", "teacher"}
        memory = len(stream.tasks[0].labels)  # one exemplar per label of task 1
        k = C.AUG_COPIES * memory  # noisy rows per epoch
        assert k > 3 and k % 3
        assert encodes == [(None, min(3, k - s)) for s in range(0, k, 3)] * state.config.epochs
        n = len(stream.tasks[1].train) + memory + k  # rows per epoch
        assert n > 3 and n % 3
        assert teacher_calls == [(False, min(3, n - s))
                                 for s in range(0, n, 3)] * state.config.epochs

    def test_distillation_without_teacher_rows_raises(self):
        """`batch_loss` runs no teacher forward: at t > 0 with distillation
        on, a batch without its teacher rows is an error."""
        state, batch, stream = build_tiny_problem(seed=7)
        with pytest.raises(ValueError, match="no teacher rows"):
            step_loss(state, batch, 1, stream)
        for alpha_fd, alpha_pd in ((1.0, 0.0), (0.0, 1.0)):
            state.config = replace(state.config, loss_weights=replace(
                state.config.loss_weights, alpha_fd=alpha_fd, alpha_pd=alpha_pd))
            with pytest.raises(ValueError, match="no teacher rows"):
                step_loss(state, batch, 1, stream)
        _, breakdown = step_loss(state, batch[:2], 0, stream)  # task 1 has no teacher
        assert breakdown.fd == breakdown.pd == 0.0

    def test_label_rows_once_per_task(self, monkeypatch):
        """`train_task` takes the label rows once per task; no step
        computes them."""
        ds = tiny_dataset()
        state = tiny_state(ds, alpha_label=0.1)
        stream = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=3, seed=0)
        C.train_task(0, stream, state)
        calls, in_step = [], []
        real_loss, real_rows = C.batch_loss, obj.label_rows

        def batch_loss(*args):
            in_step.append(True)
            try:
                return real_loss(*args)
            finally:
                in_step.pop()

        def label_rows(*args):
            calls.append(bool(in_step))
            return real_rows(*args)

        monkeypatch.setattr(C, "batch_loss", batch_loss)
        monkeypatch.setattr(obj, "label_rows", label_rows)
        C.train_task(1, stream, state)
        assert calls == [False]


# --------------------------------------------------------------- checkpoints

class TestCheckpoint:
    def test_pools_and_head_saved_and_no_tmp_left(self, tmp_path):
        ds = tiny_dataset()
        state = tiny_state(ds)
        state.head.grow([0, 1])
        for pool in state.pools.values():  # B is zero at init; make it tell
            pool.B.data[...] = state.rng.normal(size=pool.B.shape)
        path = tmp_path / "task_1.bin"
        harness._save_checkpoint(state, path)
        tensors, meta = E.load_tensors(path)
        expected = {"head/weight": state.head.weight.data, "head/bias": state.head.bias.data}
        for (layer, tag), pool in state.pools.items():
            for name in ("A", "B", "routing"):
                expected[f"pool/{layer}.{tag}/{name}"] = getattr(pool, name).data
        assert sorted(tensors) == sorted(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(tensors[name], value)
        assert meta["class_order"] == [0, 1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["task_1.bin"]

    def test_losses_csv_bytes(self, tmp_path):
        """Header, column order and %.10g cells of losses.csv."""
        state = SimpleNamespace(loss_rows=[
            {"step": 1, "task": 1, "epoch": 1, "ce": 1.0 / 3.0, "router": 0.0,
             "label": -0.125, "fd": 1e-12, "pd": 12345678901.5, "total": 2.0 / 3.0},
            {"step": 2, "task": 2, "epoch": 3, "ce": 0.5, "router": 2.5e-5,
             "label": 0.0, "fd": 0.0, "pd": 0.0, "total": 0.500000025},
        ])
        matrix = metrics.MetricMatrix(num_tasks=1)
        matrix.record(0, 0, 0.5, 0.5)
        matrix.record_cumulative(0, 0.5, 0.5)
        harness.write_run_dir(tmp_path, cfgmod.defaults(), 0, matrix, state)
        assert (tmp_path / "losses.csv").read_bytes() == (
            b"step,task,epoch,ce,router,label,fd,pd,total\n"
            b"1,1,1,0.3333333333,0,-0.125,1e-12,1.23456789e+10,0.6666666667\n"
            b"2,2,3,0.5,2.5e-05,0,0,0,0.500000025\n")

    def test_failed_write_keeps_old_file_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with E.atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


# --------------------------------------------------------------- train loop

class TestTraining:
    def make_run(self, **kw):
        ds = tiny_dataset()
        state = tiny_state(ds, **kw)
        stream = C.build_stream(ds, n_way=2, k_shot=3, num_tasks=3, seed=0)
        return ds, state, stream

    def test_full_run_protocol_invariants(self):
        _, state, stream = self.make_run()
        before = {name: t.data.tobytes() for name, t in state.weights.tensors.items()}
        matrix = C.run_experiment(stream, state)
        # encoder untouched, byte for byte
        assert {name: t.data.tobytes() for name, t in state.weights.tensors.items()} == before
        # memory: one exemplar per seen label after the last task
        assert len(state.buffer) == len(stream.seen_labels(stream.num_tasks - 1))
        # matrix fully populated, values in [0, 1]
        for t in range(stream.num_tasks):
            for i in range(t + 1):
                assert 0.0 <= matrix.micro[t, i] <= 1.0

    def test_memory_grows_by_n_way_each_task(self):
        _, state, stream = self.make_run()
        sizes = []
        C.run_experiment(stream, state,
                         after_task=lambda t, st: sizes.append(len(st.buffer)))
        assert sizes == [2, 4, 6]

    def test_noise_lands_on_the_memory_copies_only(self, monkeypatch):
        """Per epoch: each current instance and exemplar once without noise,
        and each exemplar AUG_COPIES times with it."""
        _, state, stream = self.make_run(augment=True, epochs=1)
        C.train_task(0, stream, state)
        memory = list(state.buffer.values())
        seen, real = [], C.batch_loss

        def batch_loss(st, batch, t, stream, labels, noise=None, cls=None, prev=None):
            noisy = (np.zeros(len(batch), dtype=bool) if noise is None
                     else noise.reshape(len(batch), -1).any(axis=1))
            seen.extend(zip(map(id, batch), noisy))
            return real(st, batch, t, stream, labels, noise, cls, prev)

        monkeypatch.setattr(C, "batch_loss", batch_loss)
        C.train_task(1, stream, state)
        clean = sorted(i for i, noisy in seen if not noisy)
        assert clean == sorted(map(id, stream.tasks[1].train + memory))
        assert sorted(i for i, noisy in seen if noisy) == sorted(map(id, memory * C.AUG_COPIES))

    def test_snapshot_refreshed_after_each_task(self):
        _, state, stream = self.make_run()
        C.train_task(0, stream, state)
        snap0 = state.snapshot
        assert snap0 is not None
        C.train_task(1, stream, state)
        assert state.snapshot is not snap0
        assert state.snapshot.head.class_order == stream.seen_labels(1)

    def test_missing_snapshot_with_distillation_raises(self):
        _, state, stream = self.make_run()
        state.snapshot = None
        with pytest.raises(RuntimeError):
            C.train_task(1, stream, state)

    def test_determinism_same_seed(self):
        _, s1, stream = self.make_run(seed=3)
        m1 = C.run_experiment(stream, s1)
        ds2 = tiny_dataset()
        s2 = tiny_state(ds2, seed=3)
        stream2 = C.build_stream(ds2, 2, 3, 3, seed=0)
        m2 = C.run_experiment(stream2, s2)
        assert m1.to_dict() == m2.to_dict()

    def test_augmentation_changes_trajectory(self):
        _, s1, stream = self.make_run(augment=False)
        m1 = C.run_experiment(stream, s1)
        ds2 = tiny_dataset()
        s2 = tiny_state(ds2, augment=True)
        stream2 = C.build_stream(ds2, 2, 3, 3, seed=0)
        m2 = C.run_experiment(stream2, s2)
        assert m1.to_dict() != m2.to_dict()

    def test_label_loss_path_runs(self):
        _, state, stream = self.make_run(alpha_label=0.1)
        C.train_task(0, stream, state)
        C.train_task(1, stream, state)
        assert any(row["label"] != 0.0 for row in state.loss_rows
                   if row["task"] == 2)

    def test_frozen_encoder_gets_no_gradient(self):
        """Training steps, with distillation and the label loss on, leave
        every tensor of the frozen encoder without a gradient."""
        _, state, stream = self.make_run(alpha_label=0.1)
        C.train_task(0, stream, state)
        C.train_task(1, stream, state)
        assert all(t.grad is None for t in state.weights.tensors.values())

    def test_mole_token_objective_gradients(self):
        """`batch_loss` under token routing with only ce and the router
        term on (the `mole-token` mode), on the ragged rows of the
        gradcheck model: finite differences agree with backward."""
        state, batch, stream = build_tiny_problem(seed=7)
        state.config = replace(state.config, routing="token", loss_weights=obj.LossWeights(
            alpha_router=0.05, alpha_label=0.0, alpha_fd=0.0, alpha_pd=0.0))
        _, breakdown = step_loss(state, batch, 1, stream)
        assert breakdown.ce != 0.0 and breakdown.router != 0.0
        assert breakdown.label == breakdown.fd == breakdown.pd == 0.0
        err = T.grad_check(lambda: step_loss(state, batch, 1, stream)[0],
                           moe.pool_params(state.pools) + state.head.params(),
                           max_coords=16, rng=np.random.default_rng(0))
        assert err <= 1e-6

    def test_loss_terms_are_one_node_each(self):
        """The nodes with a backward rule that the loss reaches: at most 50
        for a `leaf` step at t > 0 with all five terms on the gradcheck
        model (94 when the terms were chains of primitives), and at most 46
        for a mole-token step (67 before)."""
        def recorded(loss):
            seen, stack, count = {id(loss)}, [loss], 0
            while stack:
                node = stack.pop()
                count += node._backward_fn is not None
                for parent in node._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return count

        state, batch, stream = build_tiny_problem(seed=7)
        prev = C.features(state, batch, state.snapshot.pools)
        total, breakdown = step_loss(state, batch, 1, stream, prev=prev)
        assert all(getattr(breakdown, name) != 0.0 for name in obj.LOSS_TERMS)
        assert recorded(total) <= 50
        state.config = replace(state.config, routing="token", loss_weights=obj.LossWeights(
            alpha_router=0.05, alpha_label=0.0, alpha_fd=0.0, alpha_pd=0.0))
        assert recorded(step_loss(state, batch, 1, stream)[0]) <= 46

    def test_loss_rows_logged_per_step(self):
        _, state, stream = self.make_run()
        C.train_task(0, stream, state)
        n_data = len(stream.tasks[0].train)
        steps_per_epoch = -(-n_data // state.config.batch_size)
        assert len(state.loss_rows) == state.config.epochs * steps_per_epoch
        assert state.loss_rows[-1]["step"] == state.opt.step_count

    def test_unfrozen_encoder_rejected(self):
        ds = tiny_dataset()
        vocab = E.Vocab(DS.build_vocab_tokens(ds))
        ecfg = E.EncoderConfig(num_layers=1, model_dim=16, num_heads=2,
                               ffn_dim=32, max_seq_len=12, vocab_size=len(vocab))
        w = E.init_encoder_weights(ecfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            C.init_state(w, vocab, None, C.TrainConfig(epochs=1))

    def test_bank_of_other_weights_rejected(self):
        """`init_state` checks the bank's fingerprint against the weights."""
        state = tiny_state(tiny_dataset())
        other = E.init_encoder_weights(state.weights.config, np.random.default_rng(1))
        other.freeze()
        with pytest.raises(D.FingerprintMismatchError):
            C.init_state(other, state.vocab, state.bank, state.config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            C.TrainConfig(topk=3, num_experts=2)
        with pytest.raises(ValueError):
            C.TrainConfig(epochs=0)

    @pytest.mark.parametrize("field,value", [
        ("routing", "tokens"), ("routing", "Instance"), ("temperature", 0.0),
        ("temperature", float("inf")), ("temperature", -1.0), ("lr", 0.0), ("lr", float("nan"))])
    def test_config_refuses_what_the_parser_refuses(self, field, value):
        """A library caller gets the checks `parse_config` makes: a zero
        temperature is a usage error here, not a non-finite loss later."""
        with pytest.raises(ValueError, match=rf"{field} must be .*, got '?{value}"):
            C.TrainConfig(**{field: value})


# ------------------------------------------------------ run-level exactness

@pytest.mark.parametrize("mode,n_way,num_tasks,dim,experts", [
    pytest.param("leaf", 2, 2, 16, 3, id="leaf-softmax"),
    pytest.param("mole-token", 2, 2, 16, 3, id="mole-token-softmax"),
    pytest.param("leaf", 4, 3, 64, 4, id="leaf-softmax-12-classes")])
def test_run_outputs_match_composed_ops_byte_for_byte(tmp_path, monkeypatch, mode, n_way,
                                                      num_tasks, dim, experts):
    """A whole run (2 epochs) writes the same bytes, checkpoints
    included, when the expert pools, router scores, masked softmax, the
    log-sum-exps and the five loss terms with their weighted total run as
    the compositions of primitives that their fused nodes replaced,
    evaluation predicts in 32-row chunks, exemplars are picked with one
    forward per label, every frozen [CLS] row (the table, the description
    bank, each epoch's noisy rows) is encoded in a batch of one, the
    teacher runs one training batch per pass and every step takes the
    label rows and the teacher's soft targets itself. Both runs share the
    base weights. The 12-class run (3 tasks of 4 labels, reference model
    width) has rows of 8 old classes and more, where a sum over a row in
    another order than the chain's moves bits, and at d = 64 a matmul row
    depends on the rows per call, so a head matmul over more rows does too
    (at d = 16 it does not)."""
    ds = tiny_dataset(n_labels=n_way * num_tasks, vocab_size=600)
    vocab = E.Vocab(DS.build_vocab_tokens(ds))
    ecfg = E.EncoderConfig(num_layers=2, model_dim=dim, num_heads=2, ffn_dim=2 * dim,
                           max_seq_len=12, vocab_size=len(vocab))
    weights = E.init_encoder_weights(ecfg, np.random.default_rng(0))
    weights.freeze()
    resolved = cfgmod.defaults()
    resolved["moe"].update(num_experts=experts, topk=2, rank=2)
    # lr 1e-2: at the default 1e-3 the tiny model gives most test rows one
    # label, and F1 cannot show a prediction written into the wrong row
    resolved["continual"].update(n_way=n_way, k_shot=3, num_tasks=num_tasks, epochs=2,
                                 batch_size=4, lr=1e-2, n_descriptions=2)
    resolved = harness.apply_mode(resolved, mode)

    def run(name):
        harness.run_once(ds, weights, vocab, [], resolved, seed=0,
                         out_dir=str(tmp_path / name))
        return run_files(tmp_path / name)

    fused = run("fused")
    monkeypatch.setattr(C, "predict", dataset_order_predict)
    monkeypatch.setattr(C, "select_exemplar", per_label_exemplars)
    monkeypatch.setattr(E, "frozen_cls", one_row_frozen_cls)
    monkeypatch.setattr(C, "features", per_batch_teacher)  # the teacher is its one caller
    real_loss = C.batch_loss   # without the task's label rows

    def per_step_label_rows(st, batch, t, stream, labels, *args):
        return real_loss(st, batch, t, stream, C.task_label_rows(st, t, stream), *args)

    monkeypatch.setattr(C, "batch_loss", per_step_label_rows)
    monkeypatch.setattr(obj, "prediction_distill_loss", oracles.per_step_prediction_distill)
    with oracles.composed_ops():
        composed = run("composed")
    assert {"metrics.json", "losses.csv", "checkpoints/task_2.bin"} <= set(fused)
    assert fused.keys() == composed.keys()
    for name in fused:
        assert fused[name] == composed[name], name
