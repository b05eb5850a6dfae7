"""Run configuration: INI-style key=value sections with a fixed schema.

Unknown sections or keys are rejected; every run writes its fully
resolved configuration to the run directory so it can be replayed.
"""

from __future__ import annotations

import configparser
import json

from .continual import TrainConfig
from .data_synth import GeneratorSpec
from .encoder import EncoderConfig, atomic_open
from .objectives import LossWeights


class ConfigError(ValueError):
    pass


def _bool(s):
    if isinstance(s, bool):
        return s
    low = str(s).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _str_list(s):
    if isinstance(s, (list, tuple)):
        return list(s)
    return [p.strip() for p in str(s).split(",") if p.strip()]


# section -> key -> (converter, default)
SCHEMA = {
    "encoder": {
        "num_layers": (int, 2),
        "model_dim": (int, 64),
        "num_heads": (int, 4),
        "ffn_dim": (int, 128),
        "max_seq_len": (int, 24),
        "layernorm_eps": (float, 1e-5),
    },
    "moe": {
        "num_experts": (int, 4),
        "topk": (int, 2),
        "rank": (int, 8),
        "projections": (_str_list, ["q", "v"]),
        "combine_mode": (str, "softmax"),
        "routing": (str, "instance"),
        "routing_l2": (float, 1e-4),
    },
    "losses": {
        "alpha_router": (float, 0.01),
        "alpha_label": (float, 0.1),
        "alpha_fd": (float, 1.0),
        "alpha_pd": (float, 1.0),
        "temperature": (float, 1.0),
        "label_scale": (_bool, False),
        "label_infonce": (_bool, False),
        "mlp_head": (_bool, False),
    },
    "continual": {
        "n_way": (int, 4),
        "k_shot": (int, 5),
        "num_tasks": (int, 5),
        "epochs": (int, 30),
        "batch_size": (int, 8),
        "lr": (float, 1e-3),
        "augment": (_bool, False),
        "sigma_aug": (float, 0.05),
        "aug_copies": (int, 4),
        "n_descriptions": (int, 3),
    },
    "run": {
        "seed": (int, 0),
        "n_seeds": (int, 5),
        "base_epochs": (int, 12),
        "base_lr": (float, 3e-4),
        "n_base_labels": (int, 8),
    },
    "paths": {
        "dataset": (str, ""),
        "descriptions": (str, ""),
        "weights": (str, ""),
    },
}

GENERATOR_SCHEMA = {
    "generator": {
        "n_labels": (int, 28),
        "instances_per_label": (int, 40),
        "test_per_label": (int, 12),
        "vocab_size": (int, 2000),
        "trigger_words_per_label": (int, 5),
        "confusability": (float, 0.5),
        "context_pool_size": (int, 30),
        "sentence_len_min": (int, 5),
        "sentence_len_max": (int, 8),
        "triggers_min": (int, 2),
        "triggers_max": (int, 4),
        "descriptions_per_label": (int, 6),
        "seed": (int, 0),
    },
}


def defaults(schema=SCHEMA) -> dict:
    return {sec: {k: default for k, (_, default) in keys.items()}
            for sec, keys in schema.items()}


def parse_config(path, schema=SCHEMA) -> dict:
    """Read and validate an INI config; missing keys take defaults."""
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file not found: {path}")
    resolved = defaults(schema)
    for sec in parser.sections():
        if sec not in schema:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser.items(sec):
            if key not in schema[sec]:
                raise ConfigError(f"unknown config key [{sec}] {key}")
            conv = schema[sec][key][0]
            try:
                resolved[sec][key] = conv(value)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for [{sec}] {key}: {value!r} ({exc})") from exc
    return resolved


def write_snapshot(resolved: dict, path) -> None:
    with atomic_open(path) as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def encoder_config(resolved: dict, vocab_size: int) -> EncoderConfig:
    e = resolved["encoder"]
    return EncoderConfig(num_layers=e["num_layers"], model_dim=e["model_dim"],
                         num_heads=e["num_heads"], ffn_dim=e["ffn_dim"],
                         max_seq_len=e["max_seq_len"], vocab_size=vocab_size,
                         layernorm_eps=e["layernorm_eps"])


def train_config(resolved: dict, seed: int | None = None) -> TrainConfig:
    m, lo, c = resolved["moe"], resolved["losses"], resolved["continual"]
    return TrainConfig(
        epochs=c["epochs"], batch_size=c["batch_size"], lr=c["lr"],
        loss_weights=LossWeights(alpha_router=lo["alpha_router"],
                                 alpha_label=lo["alpha_label"],
                                 alpha_fd=lo["alpha_fd"], alpha_pd=lo["alpha_pd"]),
        topk=m["topk"], num_experts=m["num_experts"], rank=m["rank"],
        projections=tuple(m["projections"]), combine_mode=m["combine_mode"],
        routing=m["routing"], routing_l2=m["routing_l2"],
        augment=c["augment"], sigma_aug=c["sigma_aug"], aug_copies=c["aug_copies"],
        temperature=lo["temperature"], label_scale=lo["label_scale"],
        label_infonce=lo["label_infonce"], mlp_head=lo["mlp_head"],
        seed=resolved["run"]["seed"] if seed is None else seed)


def generator_spec(resolved: dict) -> GeneratorSpec:
    g = resolved["generator"]
    return GeneratorSpec(
        n_labels=g["n_labels"], instances_per_label=g["instances_per_label"],
        test_per_label=g["test_per_label"], vocab_size=g["vocab_size"],
        trigger_words_per_label=g["trigger_words_per_label"],
        confusability=g["confusability"], context_pool_size=g["context_pool_size"],
        sentence_len=(g["sentence_len_min"], g["sentence_len_max"]),
        triggers_per_sentence=(g["triggers_min"], g["triggers_max"]),
        descriptions_per_label=g["descriptions_per_label"], seed=g["seed"])
