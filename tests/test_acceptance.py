"""Acceptance suite: exact oracles, invariants, and the directional
experimental claims, each with pinned tolerances.

The experimental criteria (improvement gap, component ladder) use the
reference configuration shipped in configs/experiment.ini: 20 runs in two
worker processes, about 70 s on a 2-core host; everything else is fast. Run the fast part alone with
`pytest tests/test_acceptance.py -m "not slow"`.
"""

import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from leaf import config as cfgmod
from leaf import continual, data_synth, descriptions, encoder, harness, metrics, moe
from leaf import objectives as obj
from leaf import tensor as T
from leaf.cli import main as cli_main
from leaf.gradcheck import build_tiny_problem, run_gradcheck
from leaf.tensor import Tensor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPERIMENT_INI = os.path.join(REPO, "configs", "experiment.ini")
GENERATOR_INI = os.path.join(REPO, "configs", "generator.ini")


# ---------------------------------------------------------------------------
# 1. gradient correctness: full combined objective vs finite differences


def test_acceptance_1_gradcheck_full_objective():
    state, batch, stream = build_tiny_problem(seed=7)
    prev = continual.features(state, batch, state.snapshot.pools)
    _, breakdown = continual.batch_loss(state, batch, 1, stream,
                                        continual.task_label_rows(state, 1, stream), prev=prev)
    assert all(getattr(breakdown, name) != 0.0 for name in obj.LOSS_TERMS), breakdown
    start = time.monotonic()
    err = run_gradcheck(seed=7)
    elapsed = time.monotonic() - start
    assert err <= 1e-4, f"max relative gradient error {err:.3e}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"


def _scaled_backward(fn, factor=1.5):
    """`fn` whose output node passes `factor` times its gradient back."""
    def bad_fn(*args, **kwargs):
        out = fn(*args, **kwargs)
        if out._backward_fn is not None:
            inner = out._backward_fn
            out._backward_fn = lambda g: inner(g * factor)
        return out
    return bad_fn


@pytest.mark.parametrize("op", ["lora", "scores", "linear", "attention"])
def test_gradcheck_catches_broken_matmul_backward(monkeypatch, op):
    """The same check fails when every backward of one op is 1.5x too large."""
    monkeypatch.setattr(T, op, _scaled_backward(getattr(T, op)))
    assert run_gradcheck(seed=7) > 1e-4


LOSS_FUNCTIONS = {"ce": (obj, "ce_loss"), "router": (moe, "router_loss"),
                  "label": (obj, "label_contrastive_loss"),
                  "fd": (obj, "feature_distill_loss"), "pd": (obj, "prediction_distill_loss")}


@pytest.mark.parametrize("term", obj.LOSS_TERMS)
def test_gradcheck_catches_broken_loss_term(monkeypatch, term):
    """The same check fails when one loss term's gradient is 1.5x too large."""
    owner, name = LOSS_FUNCTIONS[term]
    monkeypatch.setattr(owner, name, _scaled_backward(getattr(owner, name)))
    assert run_gradcheck(seed=7) > 1e-4


def test_gradcheck_exits_3_on_nan_gradient(monkeypatch, capsys):
    """A NaN gradient is a numerical failure, not an error of 0."""
    monkeypatch.setattr(obj, "label_contrastive_loss",
                        _scaled_backward(obj.label_contrastive_loss, np.nan))
    assert cli_main(["gradcheck"]) == 3
    assert "numerical failure: grad_check: gradient nan" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# 2. routing oracle: top-K selection equals exhaustive subset-sum maximization


def test_acceptance_2_routing_selection_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for i in range(1000):
        M = int(rng.integers(2, 9))
        scores = Tensor(rng.normal(0.0, 1.0, M))
        for K in range(1, M + 1):
            got = np.flatnonzero(moe.select_topk(scores, K)).tolist()
            best = max(itertools.combinations(range(M), K),
                       key=lambda c: (scores.data[list(c)].sum(), [-j for j in c]))
            if got != sorted(best):
                mismatches += 1
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 3. zero-delta equivalence: fresh pools (B=0) leave the forward untouched


def test_acceptance_3_zero_delta_equivalence():
    rng = np.random.default_rng(3)
    vocab = encoder.Vocab([f"w{i}" for i in range(60)])
    cfg = encoder.EncoderConfig(num_layers=2, model_dim=32, num_heads=4,
                                ffn_dim=64, max_seq_len=12, vocab_size=len(vocab))
    weights = encoder.init_encoder_weights(cfg, rng)
    weights.freeze()
    pools = moe.init_pools(cfg.num_layers, cfg.model_dim, 4, 8, rng)
    worst = 0.0
    with T.no_grad():
        for _ in range(100):
            n = int(rng.integers(3, 9))
            text = " ".join(f"w{rng.integers(60)}" for _ in range(n))
            ids, mask = (arr[None] for arr in encoder.tokenize(text, vocab, cfg.max_seq_len))
            base = encoder.encode_base(ids, mask, weights)
            out, _ = encoder.encode_with_experts(ids, mask, weights, pools, base, 2)
            worst = max(worst, float(np.abs(out.data - base.data).max()))
    assert worst <= 1e-12, f"max abs diff {worst:.3e}"


# ---------------------------------------------------------------------------
# 4. weight-merge oracle: one expert at weight 1 == A·B merged into W_base


def test_acceptance_4_single_expert_weight_merge():
    rng = np.random.default_rng(4)
    vocab = encoder.Vocab([f"w{i}" for i in range(40)])
    cfg = encoder.EncoderConfig(num_layers=2, model_dim=16, num_heads=2,
                                ffn_dim=32, max_seq_len=10, vocab_size=len(vocab))
    weights = encoder.init_encoder_weights(cfg, rng)
    weights.freeze()
    pools = moe.init_pools(cfg.num_layers, cfg.model_dim, num_experts=1,
                           rank=4, rng=rng)
    for pool in pools.values():
        pool.B.data[:] = rng.normal(0.0, 0.05, pool.B.shape)

    merged = encoder.EncoderWeights(
        config=cfg,
        tensors={k: Tensor(v.data.copy(), requires_grad=True)
                 for k, v in weights.tensors.items()})
    for (layer, tag), pool in pools.items():
        merged.tensors[f"layer{layer}.{tag}.weight"].data += pool.A.data[0] @ pool.B.data[0]
    merged.freeze()

    worst = 0.0
    with T.no_grad():
        for _ in range(20):
            n = int(rng.integers(3, 8))
            text = " ".join(f"w{rng.integers(40)}" for _ in range(n))
            ids, mask = (arr[None] for arr in encoder.tokenize(text, vocab, cfg.max_seq_len))
            cls = encoder.encode_base(ids, mask, weights)
            expert_out, _ = encoder.encode_with_experts(ids, mask, weights, pools, cls, 1)
            merged_out = encoder.encode_base(ids, mask, merged)
            worst = max(worst, float(np.abs(expert_out.data - merged_out.data).max()))
    assert worst <= 1e-10, f"max abs diff {worst:.3e}"


# ---------------------------------------------------------------------------
# 5. loss oracles


def test_acceptance_5a_distillation_fixed_point():
    rng = np.random.default_rng(5)
    feats_np = rng.normal(0.0, 1.0, (6, 8))
    head = obj.DetectorHead(8, rng)
    head.grow([0, 1, 2])
    head.weight.data[:] = rng.normal(0.0, 0.5, head.weight.data.shape)

    fd = obj.feature_distill_loss(feats_np, Tensor(feats_np.copy()))
    assert abs(float(fd.data)) <= 1e-12

    tau = 2.0
    pd = obj.prediction_distill_loss(head.copy(), feats_np, head,
                                     Tensor(feats_np.copy()), [0, 1, 2],
                                     temperature=tau)
    logits = feats_np @ head.weight.data.T
    z = logits / tau
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    entropy = float(np.mean(-(p * np.log(p)).sum(axis=1)))
    assert abs(float(pd.data) - entropy) <= 1e-9


def test_acceptance_5b_symmetric_bank_zero_label_loss():
    rng = np.random.default_rng(6)
    feats = Tensor(rng.normal(0.0, 1.0, (4, 8)))
    vec = rng.normal(0.0, 1.0, 8)  # both labels carry this one description vector
    bank = descriptions.DescriptionBank(["a", "b"], np.array([0, 1]), np.stack([vec, vec]), "")
    loss = obj.label_contrastive_loss(feats, [0, 1, 0, 1], obj.label_rows(bank, [0, 1]))
    assert abs(float(loss.data)) <= 1e-9


def test_acceptance_5c_uniform_logits_ce_is_ln4():
    rng = np.random.default_rng(7)
    head = obj.DetectorHead(8, rng)
    head.grow([0, 1, 2, 3])
    head.weight.data[:] = 0.0  # all logits identical -> uniform softmax
    feats = Tensor(rng.normal(0.0, 1.0, (5, 8)))
    loss = obj.ce_loss(head, feats, [0, 3, 1, 2, 0])
    assert abs(float(loss.data) - np.log(4.0)) <= 1e-9


def test_acceptance_5d_breakdown_matches_hand_weighted_sum():
    parts = {"ce": Tensor(np.array(1.3)), "router": Tensor(np.array(-0.4)),
             "label": Tensor(np.array(0.7)), "fd": Tensor(np.array(0.2)),
             "pd": Tensor(np.array(0.9))}
    w = obj.LossWeights(alpha_router=0.01, alpha_label=0.1,
                        alpha_fd=1.0, alpha_pd=1.0)
    total, breakdown = obj.total_loss(parts, w)
    hand = 1.3 + 0.01 * -0.4 + 0.1 * 0.7 + 1.0 * 0.2 + 1.0 * 0.9
    assert abs(float(total.data) - hand) <= 1e-12
    assert abs(breakdown.total - hand) <= 1e-12


# ---------------------------------------------------------------------------
# 6 + 7. reference experiments: improvement gap and component ladder
#
# One base encoder (dataset seed 0, base seed 0); five continual seeds per
# setting. Shared across both criteria through a module-scoped fixture. The
# 20 runs go to REFERENCE_WORKERS spawned processes, which inherit the
# suite's one BLAS thread through the environment; a run's results do not
# depend on where it runs.

LADDER = ("baseline", "+experts", "+distill", "+labels")
N_SEEDS = 5
REFERENCE_WORKERS = 2


def _reference_run(shared, cfg, seed):
    """One reference run on `shared` (dataset, weights, vocab, base labels):
    (final micro-F1, mean forgetting, seconds taken)."""
    start = time.monotonic()
    matrix = harness.run_once(*shared, cfg, seed)
    return (matrix.final_cumulative_micro(), metrics.forgetting(matrix)[1],
            time.monotonic() - start)


@pytest.fixture(scope="module")
def reference_runs():
    resolved = cfgmod.parse_config(EXPERIMENT_INI)
    gen = cfgmod.parse_config(GENERATOR_INI, schema=cfgmod.GENERATOR_SCHEMA)
    ds = data_synth.generate(cfgmod.generator_spec(gen))
    weights, vocab, base_names = harness.pretrain_base(ds, resolved, seed=0)
    shared = (ds, weights, vocab, base_names)

    settings = harness.ablation(resolved, "components")
    assert tuple(step for step, _ in settings) == LADDER
    with ProcessPoolExecutor(REFERENCE_WORKERS,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = {step: [pool.submit(_reference_run, shared, cfg, seed) for seed in range(N_SEEDS)]
                for step, cfg in settings}
        runs = {step: [f.result() for f in futures] for step, futures in runs.items()}
    results = {}
    for step, done in runs.items():
        finals, forgets, seconds = zip(*done)
        results[step] = {
            "final": float(np.mean(finals)),
            "finals": list(finals),
            "forgetting": float(np.mean(forgets)),
            # the rung's runs as if one after another, not the pool's wall time
            "elapsed": sum(seconds),
        }
    results["table"] = reference_table(results)
    return results


def reference_table(results) -> str:
    """The reference runs as a table; F1 and forgetting are in points."""
    lines = [f"\nreference runs, {N_SEEDS} seeds: rung, mean final micro-F1 "
             "[per-seed finals], mean forgetting"]
    for step in LADDER:
        r = results[step]
        seeds = " ".join(f"{f * 100:.1f}" for f in r["finals"])
        lines.append(f"  {step:<9} {r['final'] * 100:5.1f} [{seeds}] "
                     f"forgetting {r['forgetting'] * 100:.1f}")
    gap = (results["+labels"]["final"] - results["baseline"]["final"]) * 100.0
    lines.append(f"  gap +labels - baseline: {gap:.1f} points (test 6 needs >= 5.0)")
    return "\n".join(lines)


def show_reference_table(reference_runs, capsys):
    """Print the table past pytest's output capture, so that a plain
    `pytest -q` run shows the margins of tests 6 and 7. The first of the
    two to run takes the table out of the fixture's results."""
    table = reference_runs.pop("table", None)
    if table:
        with capsys.disabled():
            print(table)


@pytest.mark.slow
def test_acceptance_6_improvement_gap(reference_runs, capsys):
    show_reference_table(reference_runs, capsys)
    base = reference_runs["baseline"]
    full = reference_runs["+labels"]  # the full system == mode "leaf"
    gap = (full["final"] - base["final"]) * 100.0
    assert gap >= 5.0, (
        f"leaf {full['final']:.3f} vs baseline {base['final']:.3f} "
        f"(gap {gap:.1f} points)")
    assert full["forgetting"] < base["forgetting"], (
        f"forgetting leaf {full['forgetting']:.3f} "
        f"vs baseline {base['forgetting']:.3f}")
    for step in ("baseline", "+labels"):
        assert reference_runs[step]["elapsed"] <= 600.0, (
            f"{step}: {reference_runs[step]['elapsed']:.0f}s for "
            f"{N_SEEDS} seeds")


@pytest.mark.slow
def test_acceptance_7_component_ladder(reference_runs, capsys):
    show_reference_table(reference_runs, capsys)
    finals = [reference_runs[s]["final"] for s in LADDER]
    violations = [max(0.0, (finals[i] - finals[i + 1]) * 100.0)
                  for i in range(len(finals) - 1)]
    bad = [v for v in violations if v > 1e-12]
    summary = " -> ".join(f"{s}={reference_runs[s]['final']:.3f}"
                          for s in LADDER)
    assert len(bad) <= 1, f"ladder {summary}: drops {violations}"
    if bad:
        assert bad[0] <= 0.5, f"ladder {summary}: drop of {bad[0]:.2f} points"


# ---------------------------------------------------------------------------
# 8. sweep plumbing: complete grids with correct shapes (no perf threshold)

TINY_GEN = """\
[generator]
n_labels = 8
instances_per_label = 8
test_per_label = 2
vocab_size = 400
sentence_len_min = 4
sentence_len_max = 6
triggers_min = 1
triggers_max = 2
seed = 0
"""

TINY_RUN = """\
[encoder]
num_layers = 1
model_dim = 16
num_heads = 2
ffn_dim = 32
max_seq_len = 12

[moe]
num_experts = 2
topk = 1
rank = 2

[continual]
n_way = 2
k_shot = 3
num_tasks = 2
epochs = 2
batch_size = 4
n_descriptions = 2

[run]
n_seeds = 2
base_epochs = 2
n_base_labels = 4

[paths]
dataset = {d}/data/dataset.jsonl
descriptions = {d}/data/descriptions.tsv
weights = {d}/base/base_weights.bin
"""


@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_ws")
    (root / "gen.ini").write_text(TINY_GEN)
    assert cli_main(["gen-data", "--spec", str(root / "gen.ini"),
                     "--out", str(root / "data")]) == 0
    cfg = root / "run.ini"
    cfg.write_text(TINY_RUN.format(d=root))
    assert cli_main(["pretrain-base", "--config", str(cfg),
                     "--out", str(root / "base")]) == 0
    return root, cfg


@pytest.mark.parametrize("axis,settings", [
    ("n_descriptions", ["1_descriptions", "3_descriptions", "5_descriptions"]),
    ("n_experts", ["4_experts", "8_experts", "12_experts"]),
])
def test_acceptance_8_sweep_grids(tiny_workspace, axis, settings):
    root, cfg = tiny_workspace
    out = root / f"ablate_{axis}"
    assert cli_main(["ablate", "--config", str(cfg), "--axis", axis,
                     "--out", str(out), "--seed", "0"]) == 0
    lines = (out / "grid.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["setting", "seed"]
    assert {"cumulative_micro", "forgetting_mean", "task_1", "task_2"} <= set(header)
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == [s for s in settings for _ in range(2)]
    assert [int(r[1]) for r in rows] == [0, 1] * len(settings)
    for r in rows:  # every cell filled and parseable
        for cell in r[2:]:
            float(cell)
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + len(settings)


# ---------------------------------------------------------------------------
# 9. determinism: identical config+seed -> bit-identical artifacts


def test_acceptance_9_bit_identical_runs(tiny_workspace):
    root, cfg = tiny_workspace
    payloads = []
    for tag in ("a", "b"):
        out = root / f"det_{tag}"
        assert cli_main(["train", "--config", str(cfg), "--mode", "leaf",
                         "--out", str(out), "--seed", "3"]) == 0
        payloads.append(((out / "metrics.json").read_bytes(),
                         (out / "losses.csv").read_bytes()))
    assert payloads[0][0] == payloads[1][0]
    assert payloads[0][1] == payloads[1][1]


# ---------------------------------------------------------------------------
# 10. protocol invariants across a full 5-task run


def test_acceptance_10_protocol_invariants():
    spec = data_synth.GeneratorSpec(n_labels=14, instances_per_label=8,
                                    test_per_label=2, vocab_size=600,
                                    sentence_len=(4, 6),
                                    triggers_per_sentence=(1, 2), seed=0)
    ds = data_synth.generate(spec)
    vocab = encoder.Vocab(data_synth.build_vocab_tokens(ds))
    ecfg = encoder.EncoderConfig(num_layers=1, model_dim=16, num_heads=2,
                                 ffn_dim=32, max_seq_len=12,
                                 vocab_size=len(vocab))
    weights = encoder.init_encoder_weights(ecfg, np.random.default_rng(0))
    weights.freeze()
    name_to_id = {n: i for i, n in enumerate(ds.label_names)}
    bank = descriptions.encode_bank(ds.descriptions, weights, vocab, name_to_id)
    tc = continual.TrainConfig(epochs=2, batch_size=4, num_experts=2, rank=2,
                               topk=1, seed=0)
    state = continual.init_state(weights, vocab, bank, tc)
    n_way = 2
    stream = continual.build_stream(ds, n_way=n_way, k_shot=3, num_tasks=5, seed=0)
    continual.index_texts(state, [inst.text for task in stream.tasks
                                  for inst in task.train + task.test])

    # label disjointness across the stream
    all_labels = [y for task in stream.tasks for y in task.labels]
    assert len(all_labels) == len(set(all_labels)) == 10

    def weight_bytes(w):
        return {name: t.data.tobytes() for name, t in w.tensors.items()}

    before = weight_bytes(weights)
    for t in range(stream.num_tasks):
        # memory monotonicity: one exemplar per class, N*(t-1)... at task start
        assert len(state.buffer) == n_way * t
        head_before = state.head.weight.data.copy()
        rows_before = len(state.head.class_order)
        continual.train_task(t, stream, state)
        # the frozen encoder is untouched, byte for byte
        assert weight_bytes(state.weights) == before
        # head grew by N and training started from the preserved old rows
        assert len(state.head.class_order) == rows_before + n_way
        assert state.head.class_order == stream.seen_labels(t)
        if t == 0:
            continue
        # snapshot zero-gradient: detached parameters, no grads accumulate
        snap = state.snapshot
        for pool in snap.pools.values():
            for p in pool.params():
                assert not p.requires_grad and p.grad is None
        for p in snap.head.params():
            assert not p.requires_grad and p.grad is None
    assert len(state.buffer) == n_way * stream.num_tasks
    # every buffered exemplar belongs to the label it is stored under
    for y, inst in state.buffer.items():
        assert inst.label == y
    # old-classifier-row preservation is structural: growing never rewrites
    # existing rows (checked directly on a fresh head)
    rng = np.random.default_rng(1)
    head = obj.DetectorHead(16, rng)
    head.grow([0, 1])
    frozen_rows = head.weight.data.copy()
    head.grow([2, 3])
    np.testing.assert_array_equal(head.weight.data[:2], frozen_rows)
