"""Command-line surface: data generation, base pretraining, continual
runs, ablation sweeps, gradient checking, and report aggregation.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error (also a
seed that is negative or not an integer, and a config value the dataset
cannot satisfy), 3 numerical failure. The LEAF_SEED environment variable
overrides the config seed; an explicit --seed flag overrides both.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys


from . import config as cfgmod
from . import data_synth, descriptions, encoder, harness, metrics
from .tensor import NumericalError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _seed(source: str, value) -> int:
    """A seed from `source` through the same check as the [run] seed key."""
    try:
        return cfgmod.SCHEMA["run"]["seed"][0](value)
    except ValueError as exc:  # ConfigError is one
        raise cfgmod.ConfigError(f"bad {source} {value!r} ({exc})") from exc


def _resolve_seed(resolved: dict, flag_seed: int | None) -> int:
    if flag_seed is not None:
        return _seed("--seed", flag_seed)
    env = os.environ.get("LEAF_SEED")
    if env is not None:
        return _seed("LEAF_SEED", env)
    return resolved["run"]["seed"]


def cmd_gen_data(args) -> int:
    resolved = cfgmod.parse_config(args.spec, schema=cfgmod.GENERATOR_SCHEMA)
    spec = cfgmod.generator_spec(resolved)
    os.makedirs(args.out, exist_ok=True)
    ds = data_synth.generate(spec)
    data_synth.write_jsonl(ds, os.path.join(args.out, "dataset.jsonl"))
    data_synth.write_descriptions_tsv(ds, os.path.join(args.out, "descriptions.tsv"))
    cfgmod.write_snapshot(resolved, os.path.join(args.out, "generator.snapshot.json"))
    _log(f"wrote {spec.n_labels} labels to {args.out}")
    return EXIT_OK


def _load_inputs(resolved):
    paths = resolved["paths"]
    for key in ("dataset", "descriptions"):
        if not paths[key]:
            raise cfgmod.ConfigError(f"[paths] {key} is required")
        if not os.path.exists(paths[key]):
            raise FileNotFoundError(f"[paths] {key}: no such file {paths[key]}")
    ds = data_synth.load_jsonl(paths["dataset"])
    desc_raw = descriptions.load_descriptions(paths["descriptions"],
                                              known_labels=set(ds.label_names))
    # Description text participates in vocabulary construction, so the
    # tokenizer covers it whether descriptions arrive in-memory or from disk.
    ds.descriptions = {k: list(v) for k, v in desc_raw.items()}
    return ds, desc_raw


def cmd_pretrain_base(args) -> int:
    resolved = cfgmod.parse_config(args.config)
    seed = _resolve_seed(resolved, args.seed)
    ds, _ = _load_inputs(resolved)
    _log(f"pretraining base encoder (seed {seed})...")
    weights, vocab, base_names = harness.pretrain_base(ds, resolved, seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "base_weights.bin")
    encoder.save_weights(weights, path, vocab=vocab,
                         extra_meta={"base_labels": base_names, "seed": seed})
    with open(os.path.join(args.out, "fingerprint.txt"), "w", encoding="utf-8") as fh:
        fh.write(weights.fingerprint() + "\n")
    _log(f"frozen weights written to {path}")
    return EXIT_OK


def _load_weights(resolved):
    path = resolved["paths"]["weights"]
    if not path:
        raise cfgmod.ConfigError("[paths] weights is required")
    weights, vocab, _, meta = encoder.load_weights(path)
    if not weights.frozen:
        raise cfgmod.ConfigError("weights container is not frozen (run pretrain-base)")
    return weights, vocab, meta.get("base_labels", [])


def cmd_train(args) -> int:
    resolved = cfgmod.parse_config(args.config)
    seed = _resolve_seed(resolved, args.seed)
    ds, desc_raw = _load_inputs(resolved)
    weights, vocab, base_names = _load_weights(resolved)
    mode_cfg = harness.apply_mode(resolved, args.mode)
    _log(f"training mode={args.mode} seed={seed}")
    matrix = harness.run_once(ds, desc_raw, weights, vocab, base_names,
                              mode_cfg, seed, out_dir=args.out)
    _log(f"final cumulative micro-F1: {matrix.final_cumulative_micro():.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    resolved = cfgmod.parse_config(args.config)
    base_seed = _resolve_seed(resolved, args.seed)
    n_seeds = resolved["run"]["n_seeds"]
    ds, desc_raw = _load_inputs(resolved)
    weights, vocab, base_names = _load_weights(resolved)
    num_tasks = resolved["continual"]["num_tasks"]

    if args.axis == "components":
        settings = [(step, harness.apply_ladder_step(resolved, step))
                    for step in harness.COMPONENT_LADDER]
    elif args.axis == "n_descriptions":
        settings = []
        for n in (1, 3, 5):
            cfg = harness.apply_mode(resolved, "leaf")
            cfg["continual"]["n_descriptions"] = n
            settings.append((f"{n}_descriptions", cfg))
    elif args.axis == "n_experts":
        settings = []
        for n in (4, 8, 12):
            cfg = harness.apply_mode(resolved, "leaf")
            cfg["moe"]["num_experts"] = n
            settings.append((f"{n}_experts", cfg))
    else:
        raise cfgmod.ConfigError(f"unknown ablation axis {args.axis!r}")
    for _, cfg in settings:
        harness.check_data(cfg, ds, desc_raw, base_seed, base_names)

    os.makedirs(args.out, exist_ok=True)
    rows = []
    by_setting: dict[str, list[metrics.MetricMatrix]] = {}
    for name, cfg in settings:
        for k in range(n_seeds):
            seed = base_seed + k
            _log(f"ablate {args.axis}: setting={name} seed={seed}")
            run_dir = os.path.join(args.out, f"{name}_seed{seed}")
            matrix = harness.run_once(ds, desc_raw, weights, vocab, base_names,
                                      cfg, seed, out_dir=run_dir)
            _, mean_forget = metrics.forgetting(matrix)
            row = {"setting": name, "seed": seed,
                   "cumulative_micro": f"{matrix.final_cumulative_micro():.6f}",
                   "forgetting_mean": f"{mean_forget:.6f}"}
            for i in range(num_tasks):
                row[f"task_{i + 1}"] = f"{matrix.micro[num_tasks - 1, i]:.6f}"
            rows.append(row)
            by_setting.setdefault(name, []).append(matrix)
    harness.write_grid_csv(os.path.join(args.out, "grid.csv"), rows, num_tasks)
    harness.write_summary_csv(os.path.join(args.out, "summary.csv"),
                              by_setting, num_tasks)
    _log(f"sweep complete: {len(rows)} runs")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    err = run_gradcheck(seed=7 if args.seed is None else _seed("--seed", args.seed),
                        poison_nan=args.poison_nan)
    print(f"max relative gradient error: {err:.3e}")
    return EXIT_OK if err <= 1e-4 else EXIT_RUNTIME


def cmd_report(args) -> int:
    payloads = []
    for run_dir in args.runs:
        payloads.append(harness.load_run_metrics(run_dir))
    mats = [metrics.MetricMatrix.from_dict(p["matrix"]) for p in payloads]
    row = metrics.final_row_cells(mats)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(row)
        writer.writerow(row.values())
    print("final-row F1 (mean±std over "
          f"{len(mats)} runs): " + "  ".join(row.values()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leaf",
                                     description="few-shot continual event detection harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="generator spec (INI)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain-base", help="train and freeze the base encoder")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_pretrain_base)

    p = sub.add_parser("train", help="run one continual experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=harness.MODES, default="leaf")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="sweep an ablation axis over seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=("components", "n_descriptions", "n_experts"),
                   required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full objective")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--poison-nan", action="store_true",
                   help="inject NaN into the inputs (error-path test)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="aggregate run directories into mean±std tables")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except cfgmod.ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_USAGE
    except (NumericalError, FloatingPointError) as exc:
        _log(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_RUNTIME
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return EXIT_RUNTIME
    except RuntimeError as exc:
        _log(f"error: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
