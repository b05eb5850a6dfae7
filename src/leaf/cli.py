"""Command-line surface: data generation, base pretraining, continual
runs, ablation sweeps, gradient checking, and report aggregation.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error (also a
seed that is negative or not an integer, and a config value the dataset
cannot satisfy), 3 numerical failure. The seed is the config's [run]
seed unless a --seed flag gives one.
`--log-level` (before the command) sets the least severe log record
printed to stderr.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys


from . import config as cfgmod
from . import data_synth, descriptions, encoder, harness, metrics
from .tensor import NumericalError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _seed(value) -> int:
    """A --seed value through the same check as the [run] seed key."""
    try:
        return cfgmod.SCHEMA["run"]["seed"][0](value)
    except ValueError as exc:  # ConfigError is one
        raise cfgmod.ConfigError(f"bad --seed {value!r} ({exc})") from exc


def _resolve_seed(resolved: dict, flag_seed: int | None) -> int:
    if flag_seed is not None:
        return _seed(flag_seed)
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
    # Description text participates in vocabulary construction, so the
    # tokenizer covers it whether descriptions arrive in-memory or from disk.
    ds.descriptions = descriptions.load_descriptions(paths["descriptions"],
                                                     set(ds.label_names))
    return ds


def cmd_pretrain_base(args) -> int:
    resolved = cfgmod.parse_config(args.config)
    seed = _resolve_seed(resolved, args.seed)
    ds = _load_inputs(resolved)
    _log(f"pretraining base encoder (seed {seed})...")
    weights, vocab, base_names = harness.pretrain_base(ds, resolved, seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "base_weights.bin")
    encoder.save_weights(weights, path, vocab=vocab,
                         extra_meta={"base_labels": base_names, "seed": seed})
    with encoder.atomic_open(os.path.join(args.out, "fingerprint.txt")) as fh:
        fh.write(weights.fingerprint() + "\n")
    _log(f"frozen weights written to {path}")
    return EXIT_OK


def _load_weights(resolved):
    """Base weights, vocabulary and base labels; ConfigError unless the
    weights are frozen and were trained with the config's `[encoder]`."""
    path = resolved["paths"]["weights"]
    if not path:
        raise cfgmod.ConfigError("[paths] weights is required")
    weights, vocab, meta = encoder.load_weights(path)
    if not weights.frozen:
        raise cfgmod.ConfigError("weights container is not frozen (run pretrain-base)")
    for key, value in resolved["encoder"].items():
        if getattr(weights.config, key) != value:
            raise cfgmod.ConfigError(f"[encoder] {key} = {value}, but the base weights "
                                     f"in {path} have {key} = {getattr(weights.config, key)}")
    base_names = meta.get("base_labels")
    if not (isinstance(base_names, list) and all(isinstance(n, str) for n in base_names)):
        raise encoder.WeightsFormatError(f"{path}: base_labels is not a list of label names")
    return weights, vocab, base_names


def _check_out(path) -> None:
    """A run dir holds one run: ConfigError unless `path` is a new or empty dir."""
    if not os.path.exists(path):
        return
    if not os.path.isdir(path):
        raise cfgmod.ConfigError(f"--out {path} is a file, not a directory; "
                                 "use a new or empty dir")
    if os.listdir(path):
        raise cfgmod.ConfigError(f"--out {path} already holds files; use a new or empty dir")


def cmd_train(args) -> int:
    _check_out(args.out)
    resolved = cfgmod.parse_config(args.config)
    seed = _resolve_seed(resolved, args.seed)
    ds = _load_inputs(resolved)
    weights, vocab, base_names = _load_weights(resolved)
    mode_cfg = harness.apply_mode(resolved, args.mode)
    _log(f"training mode={args.mode} seed={seed}")
    matrix = harness.run_once(ds, weights, vocab, base_names, mode_cfg, seed,
                              out_dir=args.out)
    _log(f"final cumulative micro-F1: {matrix.final_cumulative_micro():.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    _check_out(args.out)
    resolved = cfgmod.parse_config(args.config)
    base_seed = _resolve_seed(resolved, args.seed)
    ds = _load_inputs(resolved)
    weights, vocab, base_names = _load_weights(resolved)
    settings = harness.ablation(resolved, args.axis)
    for _, cfg in settings:
        harness.check_data(cfg, ds, ds.descriptions, base_names)

    os.makedirs(args.out, exist_ok=True)
    runs = []
    for name, cfg in settings:
        for seed in range(base_seed, base_seed + resolved["run"]["n_seeds"]):
            _log(f"ablate {args.axis}: setting={name} seed={seed}")
            matrix = harness.run_once(ds, weights, vocab, base_names, cfg, seed,
                                      out_dir=os.path.join(args.out, f"{name}_seed{seed}"))
            runs.append((name, seed, matrix))
    harness.write_grid_csv(os.path.join(args.out, "grid.csv"), runs)
    harness.write_summary_csv(os.path.join(args.out, "summary.csv"), runs)
    _log(f"sweep complete: {len(runs)} runs")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    err = run_gradcheck(seed=7 if args.seed is None else _seed(args.seed))
    print(f"max relative gradient error: {err:.3e}")
    return EXIT_OK if err <= 1e-4 else EXIT_RUNTIME


def cmd_report(args) -> int:
    if len(args.runs) < 2:  # `metrics.final_row_cells` aggregates over runs
        raise cfgmod.ConfigError(f"--runs needs at least 2 run dirs, got {len(args.runs)}")
    mats = [harness.load_run_matrix(run_dir) for run_dir in args.runs]
    named: dict[str, str] = {}
    for run_dir in args.runs:  # a run counted twice would shrink the std
        real = os.path.realpath(run_dir)
        if real in named:
            raise cfgmod.ConfigError(f"--runs names the directory {real} twice "
                                     f"({named[real]} and {run_dir})")
        named[real] = run_dir
    row = metrics.final_row_cells(mats)
    with encoder.atomic_open(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(row)
        writer.writerow(row.values())
    print("final-row F1 (mean±std over "
          f"{len(mats)} runs): " + "  ".join(row.values()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leaf",
                                     description="few-shot continual event detection harness")
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="WARNING",
                        help="least severe log records printed to stderr (default WARNING)")
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
    p.add_argument("--mode", choices=harness.MODES, default=next(iter(harness.MODES)))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="sweep an ablation axis over seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=harness.ABLATIONS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full objective")
    p.add_argument("--seed", type=int, default=None)
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
    logging.basicConfig(level=args.log_level)
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
