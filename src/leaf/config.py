"""Run configuration: INI-style key=value sections with a fixed schema.

Unknown sections or keys, enum values outside their set, out-of-range
numbers and combinations the run's dataclasses refuse are rejected at
parse time; every run writes its fully resolved configuration to the run
directory so it can be replayed.
"""

from __future__ import annotations

import configparser
import json
import math

from .continual import TrainConfig
from .data_synth import GeneratorSpec
from .encoder import EncoderConfig, atomic_open
from .objectives import LOSS_TERMS, LossWeights


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


def _choice(*allowed):
    def conv(s):
        if s not in allowed:
            raise ConfigError(f"must be one of {', '.join(allowed)}")
        return s
    return conv


def _at_least(cast, low, strict=False):
    """Converter to a finite number >= low (> low when strict)."""
    def conv(s):
        v = cast(s)
        if not (low < v < math.inf if strict else low <= v < math.inf):  # NaN fails too
            raise ConfigError(f"must be finite and {'>' if strict else '>='} {low}")
        return v
    return conv


# Ranges of the values no dataclass checks; the dataclasses that
# `parse_config` builds check the rest.
_pos_float = _at_least(float, 0.0, strict=True)
_nonneg_int = _at_least(int, 0)
_pos_int = _at_least(int, 1)


# section -> key -> (converter, default)
SCHEMA = {
    "encoder": {
        "num_layers": (int, 2),
        "model_dim": (int, 64),
        "num_heads": (int, 4),
        "ffn_dim": (int, 128),
        "max_seq_len": (int, 24),
    },
    "moe": {
        "num_experts": (int, 4),
        "topk": (int, 2),
        "rank": (int, 8),
        "routing": (_choice("instance", "token"), "instance"),
    },
    "losses": {
        "alpha_router": (float, 0.01),
        "alpha_label": (float, 0.1),
        "alpha_fd": (float, 1.0),
        "alpha_pd": (float, 1.0),
        "temperature": (_pos_float, 1.0),
    },
    "continual": {
        "n_way": (_pos_int, 4),
        "k_shot": (_pos_int, 5),
        "num_tasks": (_pos_int, 5),
        "epochs": (int, 30),
        "batch_size": (int, 8),
        "lr": (_pos_float, 1e-3),
        "augment": (_bool, False),
        "n_descriptions": (_pos_int, 3),
    },
    "run": {
        "seed": (_nonneg_int, 0),
        "n_seeds": (_at_least(int, 2), 5),  # `leaf ablate` aggregates over seeds
        "base_epochs": (_nonneg_int, 12),
        "n_base_labels": (_pos_int, 8),
    },
    "paths": {
        "dataset": (str, ""),
        "descriptions": (str, ""),
        "weights": (str, ""),
    },
}

GENERATOR_SCHEMA = {
    "generator": {
        "n_labels": (_pos_int, 28),
        "instances_per_label": (_pos_int, 40),
        "test_per_label": (_pos_int, 12),
        "vocab_size": (_pos_int, 2000),
        "confusability": (float, 0.5),
        "sentence_len_min": (int, 5),
        "sentence_len_max": (int, 8),
        "triggers_min": (int, 2),
        "triggers_max": (int, 4),
        "seed": (_nonneg_int, 0),
    },
}


def defaults(schema=SCHEMA) -> dict:
    return {sec: {k: default for k, (_, default) in keys.items()}
            for sec, keys in schema.items()}


def parse_config(path, schema=SCHEMA) -> dict:
    """Read and validate an INI config; missing keys take defaults."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: `100%` too
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:  # syntax, duplicates, not UTF-8
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if parser.defaults():  # its keys would silently apply to every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    raw = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    _check_keys(raw, schema)
    resolved = defaults(schema)
    for sec, items in raw.items():
        for key, value in items.items():
            conv = schema[sec][key][0]
            try:
                resolved[sec][key] = conv(value)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for [{sec}] {key}: {value!r} ({exc})") from exc
    return check(resolved)


def _check_keys(sections: dict, schema) -> None:
    """Raise ConfigError for a section or key that `schema` lacks."""
    for sec, keys in sections.items():
        if sec not in schema:
            raise ConfigError(f"unknown config section [{sec}]")
        for key in keys:
            if key not in schema[sec]:
                raise ConfigError(f"unknown config key [{sec}] {key}")


def check(resolved: dict) -> dict:
    """Return `resolved` once its sections and keys are the schema's, each
    value is one its key's converter returns unchanged and the dataclasses it
    feeds accept it; raise ConfigError if not. Runs at parse time and on every
    derived config."""
    schema = GENERATOR_SCHEMA if "generator" in resolved else SCHEMA
    _check_keys(resolved, schema)
    for sec, keys in schema.items():
        for key, (conv, _) in keys.items():
            if key not in resolved.get(sec, {}):
                raise ConfigError(f"missing config key [{sec}] {key}")
            value = resolved[sec][key]
            try:
                read = conv(value)
            except (ValueError, TypeError) as exc:  # ConfigError is a ValueError
                raise ConfigError(f"bad value for [{sec}] {key}: {value!r} ({exc})") from exc
            if repr(read) != repr(value):  # type and value: `True` is no int; NaN passes
                raise ConfigError(f"bad value for [{sec}] {key}: {value!r} (reads as {read!r})")
    try:
        if "generator" in resolved:
            generator_spec(resolved)
        else:
            encoder_config(resolved, vocab_size=0)  # the vocabulary comes with the data
            train_config(resolved)
            rank, dim = resolved["moe"]["rank"], resolved["encoder"]["model_dim"]
            if rank > dim:
                raise ValueError(f"[moe] rank {rank} exceeds [encoder] model_dim {dim}")
    except ValueError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return resolved


def write_snapshot(resolved: dict, path) -> None:
    with atomic_open(path) as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def encoder_config(resolved: dict, vocab_size: int) -> EncoderConfig:
    return EncoderConfig(**resolved["encoder"], vocab_size=vocab_size)


def train_config(resolved: dict, seed: int | None = None) -> TrainConfig:
    m, lo, c = resolved["moe"], resolved["losses"], resolved["continual"]
    return TrainConfig(
        epochs=c["epochs"], batch_size=c["batch_size"], lr=c["lr"],
        loss_weights=LossWeights(**{f"alpha_{n}": lo[f"alpha_{n}"] for n in LOSS_TERMS[1:]}),
        topk=m["topk"], num_experts=m["num_experts"], rank=m["rank"],
        routing=m["routing"], augment=c["augment"], temperature=lo["temperature"],
        seed=resolved["run"]["seed"] if seed is None else seed)


def generator_spec(resolved: dict) -> GeneratorSpec:
    g = resolved["generator"]
    return GeneratorSpec(
        n_labels=g["n_labels"], instances_per_label=g["instances_per_label"],
        test_per_label=g["test_per_label"], vocab_size=g["vocab_size"],
        confusability=g["confusability"],
        sentence_len=(g["sentence_len_min"], g["sentence_len_max"]),
        triggers_per_sentence=(g["triggers_min"], g["triggers_max"]), seed=g["seed"])
