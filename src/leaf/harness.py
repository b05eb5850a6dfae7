"""Experiment harness: the experiment design (mode presets and ablation
axes as tables), base pretraining, run setup, run-directory artifacts
(config snapshot, metrics, losses, checkpoints) and sweep tables.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import numpy as np

from . import config as cfgmod
from . import continual, data_synth, descriptions, encoder, metrics, objectives

_LABEL_AND_DISTILL = ("alpha_label", "alpha_fd", "alpha_pd")

# mode -> {section: {key: value}} that `apply_mode` sets over the config;
# the first mode is the default of `leaf train`.
MODES = {
    # The full system trains on current data plus memory plus augmented
    # memory copies, so `leaf` switches augmentation on; the comparison
    # modes keep whatever the config says (default: off).
    "leaf": {"continual": {"augment": True}},
    "baseline-single-lora": {"moe": {"num_experts": 1, "topk": 1},
                             "losses": dict.fromkeys(("alpha_router", *_LABEL_AND_DISTILL), 0.0)},
    "mole-token": {"moe": {"routing": "token"}, "losses": dict.fromkeys(_LABEL_AND_DISTILL, 0.0)},
}

# axis -> ordered (setting, mode, {section: {key: value}} set over the mode).
ABLATIONS = {
    # The component ladder: baseline -> +experts -> +distill -> +labels.
    # The baseline row is the plain single-adapter system. Every other row
    # is the full system with the not-yet-added components switched off, so
    # the framework's augmented-memory training set is present from the
    # +experts row on and the last row equals the `leaf` mode.
    "components": (
        ("baseline", "baseline-single-lora", {}),
        ("+experts", "leaf", {"losses": dict.fromkeys(_LABEL_AND_DISTILL, 0.0)}),
        ("+distill", "leaf", {"losses": {"alpha_label": 0.0}}),
        ("+labels", "leaf", {}),
    ),
    "n_descriptions": tuple((f"{n}_descriptions", "leaf", {"continual": {"n_descriptions": n}})
                            for n in (1, 3, 5)),
    "n_experts": tuple((f"{n}_experts", "leaf", {"moe": {"num_experts": n}}) for n in (4, 8, 12)),
}


def _set(resolved: dict, values: dict) -> dict:
    out = copy.deepcopy(resolved)
    for section, keys in values.items():
        out.setdefault(section, {}).update(keys)  # `check` refuses a new section
    return cfgmod.check(out)


def apply_mode(resolved: dict, mode: str) -> dict:
    """A copy of a resolved config with the `MODES` preset of `mode` set."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _set(resolved, MODES[mode])


def ablation(resolved: dict, axis: str) -> list[tuple[str, dict]]:
    """[(setting, config)] of an `ABLATIONS` axis, in its order."""
    return [(setting, _set(apply_mode(resolved, mode), values))
            for setting, mode, values in ABLATIONS[axis]]


def pick_base_labels(dataset, n_base: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    names = list(dataset.label_names)
    picks = rng.choice(len(names), size=n_base, replace=False)
    return sorted(names[i] for i in picks)


def check_data(resolved: dict, dataset, desc_raw: dict[str, list[str]],
               base_names: list[str]) -> None:
    """Raise ConfigError for the config values only the data can refute.

    `base_names` are the base labels, each a dataset label (`pretrain_base`
    checks its own picks before it calls this). The labels left must fill
    n_way x num_tasks, and each must have k_shot train instances and a test
    instance. Every label must have n_descriptions descriptions.
    """
    names = dataset.label_names
    cont = resolved["continual"]
    base = set(base_names)
    unknown = sorted(base - set(names))
    if unknown:
        raise cfgmod.ConfigError(
            f"base label {unknown[0]!r} of the weights is not a label of the dataset")
    left = [y for y, name in enumerate(names) if name not in base]
    need = cont["n_way"] * cont["num_tasks"]
    if need > len(left):
        raise cfgmod.ConfigError(
            f"[continual] n_way x num_tasks = {need} exceeds the {len(left)} labels "
            "left after the base split")
    for y in left:
        n_train = len(dataset.train.get(y, []))
        if n_train < cont["k_shot"]:
            raise cfgmod.ConfigError(
                f"[continual] k_shot {cont['k_shot']} exceeds the {n_train} train "
                f"instances of label {names[y]!r}")
        if not dataset.test.get(y):
            raise cfgmod.ConfigError(f"label {names[y]!r} has no test instances")
    for name in names:
        n_desc = len(desc_raw.get(name, []))
        if n_desc < cont["n_descriptions"]:
            raise cfgmod.ConfigError(
                f"[continual] n_descriptions {cont['n_descriptions']} exceeds the "
                f"{n_desc} descriptions of label {name!r}")


BASE_LR = 3e-4  # encoder learning rate of base pretraining


def pretrain_base(dataset, resolved: dict, seed: int):
    """Phase 1: train the encoder on held-out base labels, then freeze.

    Returns (weights, vocab, base_label_names). ConfigError unless there
    are fewer base labels than labels, each picked one has a train
    instance to pretrain on, and the rest pass `check_data`.
    """
    names = dataset.label_names
    n_base = resolved["run"]["n_base_labels"]
    if n_base >= len(names):
        raise cfgmod.ConfigError(
            f"[run] n_base_labels {n_base} >= the {len(names)} labels of the dataset")
    base_names = pick_base_labels(dataset, n_base, seed)
    name_to_id = {n: i for i, n in enumerate(names)}
    for name in base_names:
        if not dataset.train.get(name_to_id[name]):
            raise cfgmod.ConfigError(f"base label {name!r}, picked for seed {seed}, "
                                     "has no train instances to pretrain on")
    check_data(resolved, dataset, dataset.descriptions, base_names)
    vocab = encoder.Vocab(data_synth.build_vocab_tokens(dataset))
    pairs = []
    for local, name in enumerate(base_names):
        for text in dataset.train[name_to_id[name]]:
            pairs.append((text, local))
    cfg = cfgmod.encoder_config(resolved, vocab_size=len(vocab))
    rng = np.random.default_rng(seed)
    weights = encoder.train_base_task(pairs, cfg, vocab, rng,
                                      epochs=resolved["run"]["base_epochs"], lr=BASE_LR)
    return weights, vocab, base_names


def setup_run(dataset, desc_raw, weights, vocab, base_names, resolved, seed):
    """Build the stream, description bank, and fresh model state for one run."""
    check_data(resolved, dataset, desc_raw, base_names)
    name_to_id = {n: i for i, n in enumerate(dataset.label_names)}
    stream_labels = [name_to_id[n] for n in dataset.label_names if n not in set(base_names)]
    cont = resolved["continual"]
    stream = continual.build_stream(dataset, cont["n_way"], cont["k_shot"],
                                    cont["num_tasks"], seed, labels=stream_labels)
    bank = descriptions.encode_bank(desc_raw, weights, vocab, name_to_id)
    bank = descriptions.subset_bank(bank, cont["n_descriptions"], seed)
    tc = cfgmod.train_config(resolved, seed=seed)
    state = continual.init_state(weights, vocab, bank, tc)
    return stream, state


def run_once(dataset, weights, vocab, base_names, resolved, seed,
             out_dir=None) -> metrics.MetricMatrix:
    """One full continual run on `dataset` and its descriptions; optionally
    writes the run directory."""
    stream, state = setup_run(dataset, dataset.descriptions, weights, vocab, base_names,
                              resolved, seed)
    after_task = None
    if out_dir is not None:
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)

        def after_task(t, st):
            _save_checkpoint(st, os.path.join(ckpt_dir, f"task_{t + 1}.bin"))

    matrix = continual.run_experiment(stream, state, after_task=after_task)
    if out_dir is not None:
        write_run_dir(out_dir, resolved, seed, matrix, state)
    return matrix


def _atomic_write(path, text: str) -> None:
    with encoder.atomic_open(path) as fh:
        fh.write(text)


def write_run_dir(out_dir, resolved, seed, matrix: metrics.MetricMatrix,
                  state: continual.ModelState | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    snap = copy.deepcopy(resolved)
    snap["run"]["seed"] = seed
    cfgmod.write_snapshot(snap, os.path.join(out_dir, "config.snapshot.json"))

    per_task, mean_forget = metrics.forgetting(matrix)
    payload = {
        "seed": seed,
        "matrix": matrix.to_dict(),
        "forgetting_per_task": per_task,
        "forgetting_mean": mean_forget,
        "final_cumulative_micro": matrix.final_cumulative_micro(),
    }
    _atomic_write(os.path.join(out_dir, "metrics.json"),
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")

    T_ = matrix.num_tasks
    lines = ["after_task," + ",".join(f"task_{i + 1}" for i in range(T_)) + ",cumulative_micro"]
    for t in range(T_):
        cells = []
        for i in range(T_):
            v = matrix.micro[t, i]
            cells.append("" if np.isnan(v) else f"{v:.6f}")
        lines.append(f"{t + 1}," + ",".join(cells) + f",{matrix.cumulative_micro[t]:.6f}")
    _atomic_write(os.path.join(out_dir, "metrics_matrix.csv"), "\n".join(lines) + "\n")

    if state is not None:
        values = (*objectives.LOSS_TERMS, "total")
        rows = [",".join(("step", "task", "epoch") + values)]
        for r in state.loss_rows:
            rows.append(f"{r['step']},{r['task']},{r['epoch']},"
                        + ",".join(f"{r[k]:.10g}" for k in values))
        _atomic_write(os.path.join(out_dir, "losses.csv"), "\n".join(rows) + "\n")


def _save_checkpoint(state: continual.ModelState, path) -> None:
    tensors = {}
    for key in sorted(state.pools):
        pool = state.pools[key]
        base = f"pool/{key[0]}.{key[1]}"
        tensors[f"{base}/A"] = pool.A.data
        tensors[f"{base}/B"] = pool.B.data
        tensors[f"{base}/routing"] = pool.routing.data
    tensors["head/weight"] = state.head.weight.data
    tensors["head/bias"] = state.head.bias.data
    encoder.save_tensors(tensors, path, meta={"class_order": state.head.class_order})


def load_run_matrix(run_dir) -> metrics.MetricMatrix:
    """The metric matrix of a run's metrics.json; ValueError naming
    `run_dir` unless the file is JSON holding a complete one
    (`MetricMatrix.from_dict`)."""
    with open(os.path.join(run_dir, "metrics.json"), encoding="utf-8") as fh:
        try:
            return metrics.MetricMatrix.from_dict(json.load(fh)["matrix"])
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is one
            raise ValueError(f"{run_dir}: metrics.json holds no metric matrix ({exc})") from exc


def _task_fields(runs) -> list[str]:
    return [f"task_{i + 1}" for i in range(runs[0][2].num_tasks)]


def write_grid_csv(path, runs: list[tuple[str, int, metrics.MetricMatrix]]) -> None:
    """Long-form sweep results: one row per (setting, seed, matrix) run,
    each task's micro-F1 after the last task, then the final cumulative
    micro-F1 and the mean forgetting."""
    tasks = _task_fields(runs)
    with encoder.atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "seed", *tasks, "cumulative_micro", "forgetting_mean"])
        for setting, seed, m in runs:
            if m.num_tasks != len(tasks):
                raise ValueError(f"{setting} seed {seed}: {m.num_tasks} tasks, "
                                 f"not {len(tasks)}")
            values = (*m.micro[-1], m.final_cumulative_micro(), metrics.forgetting(m)[1])
            writer.writerow([setting, seed, *(f"{v:.6f}" for v in values)])


def write_summary_csv(path, runs: list[tuple[str, int, metrics.MetricMatrix]]) -> None:
    """Table-shaped summary: one row per setting, in run order, with the
    mean±std over its runs per task column (`metrics.final_row_cells`)."""
    by_setting: dict[str, list[metrics.MetricMatrix]] = {}
    for setting, _, m in runs:
        by_setting.setdefault(setting, []).append(m)
    with encoder.atomic_open(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=["setting", *_task_fields(runs),
                                                "cumulative_micro"])
        writer.writeheader()
        for setting, mats in by_setting.items():
            writer.writerow({"setting": setting, **metrics.final_row_cells(mats)})
