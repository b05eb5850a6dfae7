"""Experiment harness: base pretraining, run setup, mode presets, and
run-directory artifacts (config snapshot, metrics, losses, checkpoints).
"""

from __future__ import annotations

import copy
import csv
import json
import os
import numpy as np

from . import config as cfgmod
from . import continual, data_synth, descriptions, encoder, metrics

MODES = ("leaf", "baseline-single-lora", "mole-token")

COMPONENT_LADDER = ("baseline", "+experts", "+distill", "+labels")


def apply_mode(resolved: dict, mode: str) -> dict:
    """Comparison-mode presets over a resolved config (returns a copy).

    The full system trains on current data plus memory plus augmented
    memory copies, so `leaf` switches augmentation on; the comparison
    modes keep whatever the config says (default: off).
    """
    out = copy.deepcopy(resolved)
    if mode == "leaf":
        out["continual"]["augment"] = True
        return out
    if mode == "baseline-single-lora":
        out["moe"]["num_experts"] = 1
        out["moe"]["topk"] = 1
        for key in ("alpha_router", "alpha_label", "alpha_fd", "alpha_pd"):
            out["losses"][key] = 0.0
        return out
    if mode == "mole-token":
        out["moe"]["routing"] = "token"
        for key in ("alpha_label", "alpha_fd", "alpha_pd"):
            out["losses"][key] = 0.0
        return out
    raise ValueError(f"unknown mode {mode!r}")


def apply_ladder_step(resolved: dict, step: str) -> dict:
    """Component ablation ladder: baseline -> +experts -> +distill -> +labels.

    The baseline row is the plain single-adapter system. Every other row
    is the full system with the not-yet-added components switched off, so
    the framework's augmented-memory training set is present from the
    +experts row on and the last row equals the `leaf` mode.
    """
    if step == "baseline":
        return apply_mode(resolved, "baseline-single-lora")
    out = apply_mode(resolved, "leaf")
    if step == "+experts":
        for key in ("alpha_fd", "alpha_pd", "alpha_label"):
            out["losses"][key] = 0.0
        return out
    if step == "+distill":
        out["losses"]["alpha_label"] = 0.0
        return out
    if step == "+labels":
        return out
    raise ValueError(f"unknown ladder step {step!r}")


def pick_base_labels(dataset, n_base: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    names = list(dataset.label_names)
    picks = rng.choice(len(names), size=n_base, replace=False)
    return sorted(names[i] for i in picks)


def check_data(resolved: dict, dataset, desc_raw: dict[str, list[str]], seed: int,
               base_names: list[str] | None = None) -> None:
    """Raise ConfigError for the config values only the data can refute.

    `base_names` are a frozen encoder's base labels; without them, the
    labels `pretrain_base` picks for `seed` stand in, and there must be
    fewer of them than labels. The labels left must fill n_way x num_tasks,
    and each must have k_shot train instances and a test instance. Every
    label must have n_descriptions descriptions.
    """
    names = dataset.label_names
    cont = resolved["continual"]
    if base_names is None:
        n_base = resolved["run"]["n_base_labels"]
        if n_base >= len(names):
            raise cfgmod.ConfigError(
                f"[run] n_base_labels {n_base} >= the {len(names)} labels of the dataset")
        base_names = pick_base_labels(dataset, n_base, seed)
    base = set(base_names)
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


def pretrain_base(dataset, resolved: dict, seed: int):
    """Phase 1: train the encoder on held-out base labels, then freeze.

    Returns (weights, vocab, base_label_names).
    """
    check_data(resolved, dataset, dataset.descriptions, seed)
    vocab = encoder.Vocab(data_synth.build_vocab_tokens(dataset))
    base_names = pick_base_labels(dataset, resolved["run"]["n_base_labels"], seed)
    name_to_id = {n: i for i, n in enumerate(dataset.label_names)}
    pairs = []
    for local, name in enumerate(base_names):
        for text in dataset.train[name_to_id[name]]:
            pairs.append((text, local))
    cfg = cfgmod.encoder_config(resolved, vocab_size=len(vocab))
    rng = np.random.default_rng(seed)
    weights = encoder.train_base_task(pairs, cfg, vocab, rng,
                                      epochs=resolved["run"]["base_epochs"],
                                      lr=resolved["run"]["base_lr"])
    return weights, vocab, base_names


def setup_run(dataset, desc_raw, weights, vocab, base_names, resolved, seed):
    """Build the stream, description bank, and fresh model state for one run."""
    check_data(resolved, dataset, desc_raw, seed, base_names)
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


def run_once(dataset, desc_raw, weights, vocab, base_names, resolved, seed,
             out_dir=None) -> metrics.MetricMatrix:
    """One full continual run; optionally writes the run directory."""
    stream, state = setup_run(dataset, desc_raw, weights, vocab, base_names,
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
        header = "step,task,epoch,ce,router,label,fd,pd,total"
        rows = [header]
        for r in state.loss_rows:
            rows.append(f"{r['step']},{r['task']},{r['epoch']},"
                        f"{r['ce']:.10g},{r['router']:.10g},{r['label']:.10g},"
                        f"{r['fd']:.10g},{r['pd']:.10g},{r['total']:.10g}")
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


def load_run_metrics(run_dir) -> dict:
    with open(os.path.join(run_dir, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_grid_csv(path, rows: list[dict], num_tasks: int) -> None:
    """Long-form sweep results: one row per (setting, seed)."""
    fields = ["setting", "seed"] + [f"task_{i + 1}" for i in range(num_tasks)] + \
             ["cumulative_micro", "forgetting_mean"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_summary_csv(path, by_setting: dict[str, list[metrics.MetricMatrix]],
                      num_tasks: int) -> None:
    """Table-shaped summary: one row per setting, mean±std per task column."""
    fields = ["setting"] + [f"task_{i + 1}" for i in range(num_tasks)] + ["cumulative_micro"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for setting, mats in by_setting.items():
            writer.writerow({"setting": setting, **metrics.final_row_cells(mats)})
