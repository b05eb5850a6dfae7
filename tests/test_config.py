"""Config parser: schema defaults, and rejection at parse time of enum
values outside their set, out-of-range numbers and combinations the run's
dataclasses refuse."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaf import config as cfgmod
from leaf import harness
from leaf.cli import main as cli_main
from leaf.continual import TrainConfig
from leaf.data_synth import GeneratorSpec
from leaf.encoder import EncoderConfig

# Settings no run moved, now constants: `continual.ROUTING_L2`, `SIGMA_AUG`
# and `AUG_COPIES`, the q/v pools of `moe.init_pools`, the default
# `EncoderConfig.layernorm_eps` and `harness.BASE_LR`. A config that sets one
# is refused as setting an unknown key, whatever the value.
CONSTANT_NOW = {"layernorm_eps", "projections", "routing_l2", "sigma_aug", "aug_copies",
                "base_lr"}

BAD_VALUES = [
    ("moe", "routing", "nope"),
    ("moe", "routing", "Instance"),
    ("moe", "projections", "x, y"),
    ("moe", "projections", "q, w"),
    ("moe", "projections", ","),
    ("continual", "sigma_aug", "-1"),
    ("continual", "sigma_aug", "-1e-9"),
    ("continual", "sigma_aug", "nan"),
    ("continual", "sigma_aug", "inf"),
    ("losses", "temperature", "0"),
    ("losses", "temperature", "-2"),
    ("continual", "lr", "nan"),
    ("continual", "lr", "0"),
    ("continual", "aug_copies", "-1"),
    ("continual", "n_descriptions", "0"),
    ("continual", "k_shot", "0"),
    ("encoder", "layernorm_eps", "0"),
    ("moe", "routing_l2", "-1e-4"),
    ("run", "base_lr", "inf"),
    ("run", "seed", "-1"),
    ("run", "n_seeds", "0"),
    ("run", "n_seeds", "1"),  # `leaf ablate` aggregates over at least 2 seeds
]

# whole INI texts that every key accepts alone, but the dataclasses built
# from the resolved config refuse; (schema, text, message)
BAD_COMBINATIONS = [
    (cfgmod.SCHEMA, "[moe]\ntopk = 5", "topk cannot exceed num_experts"),
    (cfgmod.SCHEMA, "[moe]\nnum_experts = 1", "topk cannot exceed num_experts"),
    (cfgmod.SCHEMA, "[moe]\nrank = 100", r"\[moe\] rank 100 exceeds \[encoder\] model_dim 64"),
    (cfgmod.SCHEMA, "[encoder]\nmodel_dim = 4", "rank 8 exceeds"),
    (cfgmod.SCHEMA, "[encoder]\nnum_heads = 5", "divisible by num_heads"),
    (cfgmod.SCHEMA, "[encoder]\nmax_seq_len = 1", "max_seq_len"),
    (cfgmod.SCHEMA, "[continual]\nepochs = 0", "epochs must be positive"),
    (cfgmod.SCHEMA, "[continual]\nbatch_size = -3", "batch_size must be positive"),
    (cfgmod.SCHEMA, "[losses]\nalpha_fd = -1", "alpha_fd must be finite and >= 0"),
    (cfgmod.SCHEMA, "[losses]\nalpha_label = nan", "alpha_label must be finite"),
    (cfgmod.GENERATOR_SCHEMA, "[generator]\nvocab_size = 50", "vocab_size 50 too small"),
    (cfgmod.GENERATOR_SCHEMA, "[generator]\ntriggers_max = 9", "triggers_per_sentence"),
    (cfgmod.GENERATOR_SCHEMA, "[generator]\nconfusability = 1.5", "confusability"),
]

GOOD_VALUES = [
    ("moe", "routing", "token", "token"),
    ("moe", "routing", "instance", "instance"),
    ("run", "base_epochs", "0", 0),
    ("moe", "rank", "64", 64),
    ("moe", "topk", "4", 4),
]


def write_ini(tmp_path, section, key, value):
    path = tmp_path / "c.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    return path


def test_defaults_pass_their_own_checks(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[moe]\n")
    assert cfgmod.parse_config(path) == cfgmod.defaults()


def test_schema_defaults_equal_the_dataclass_defaults():
    """Each default lives in the schema and in a dataclass; a change to one
    home only would give the CLI and the library different defaults."""
    assert cfgmod.train_config(cfgmod.defaults()) == TrainConfig()
    assert cfgmod.encoder_config(cfgmod.defaults(), vocab_size=0) == EncoderConfig()
    assert cfgmod.generator_spec(cfgmod.defaults(cfgmod.GENERATOR_SCHEMA)) == GeneratorSpec()


def test_schema_keys_are_the_settable_surface():
    """Every settable key, listed: adding or removing a knob updates this list."""
    assert [(sec, key) for sec, keys in cfgmod.SCHEMA.items() for key in keys] == [
        ("encoder", "num_layers"), ("encoder", "model_dim"), ("encoder", "num_heads"),
        ("encoder", "ffn_dim"), ("encoder", "max_seq_len"),
        ("moe", "num_experts"), ("moe", "topk"), ("moe", "rank"), ("moe", "routing"),
        ("losses", "alpha_router"), ("losses", "alpha_label"), ("losses", "alpha_fd"),
        ("losses", "alpha_pd"), ("losses", "temperature"),
        ("continual", "n_way"), ("continual", "k_shot"), ("continual", "num_tasks"),
        ("continual", "epochs"), ("continual", "batch_size"), ("continual", "lr"),
        ("continual", "augment"), ("continual", "n_descriptions"),
        ("run", "seed"), ("run", "n_seeds"), ("run", "base_epochs"), ("run", "n_base_labels"),
        ("paths", "dataset"), ("paths", "descriptions"), ("paths", "weights")]
    assert list(cfgmod.GENERATOR_SCHEMA) == ["generator"]
    assert list(cfgmod.GENERATOR_SCHEMA["generator"]) == [
        "n_labels", "instances_per_label", "test_per_label", "vocab_size", "confusability",
        "sentence_len_min", "sentence_len_max", "triggers_min", "triggers_max", "seed"]


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_rejected_at_parse_time(tmp_path, section, key, value):
    error = "unknown config key" if key in CONSTANT_NOW else "bad value for"
    with pytest.raises(cfgmod.ConfigError, match=rf"{error} \[{section}\] {key}"):
        cfgmod.parse_config(write_ini(tmp_path, section, key, value))


@pytest.mark.parametrize("schema,text,message", BAD_COMBINATIONS)
def test_bad_combination_rejected_at_parse_time(tmp_path, schema, text, message):
    path = tmp_path / "c.ini"
    path.write_text(text + "\n")
    with pytest.raises(cfgmod.ConfigError, match=message):
        cfgmod.parse_config(path, schema=schema)


@pytest.mark.parametrize("value", ["0", "-4"])
def test_num_heads_below_one_is_usage_error(tmp_path, capsys, value):
    """Checked before `model_dim % num_heads`, which a zero would divide by."""
    out = tmp_path / "o"
    assert cli_main(["train", "--config", str(write_ini(tmp_path, "encoder", "num_heads", value)),
                     "--out", str(out)]) == 2
    assert "bad config: num_heads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_key_is_config_error(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[moe]\ntopk = 1\ntopk = 2\n")
    with pytest.raises(cfgmod.ConfigError, match="malformed config"):
        cfgmod.parse_config(path)


def test_percent_in_a_value_is_literal(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[paths]\ndataset = data/100%/dataset.jsonl\nweights = %(dataset)s\n")
    resolved = cfgmod.parse_config(path)
    assert resolved["paths"]["dataset"] == "data/100%/dataset.jsonl"
    assert resolved["paths"]["weights"] == "%(dataset)s"  # no interpolation


@pytest.mark.parametrize("text", ["[DEFAULT]\nlr = 5\n",
                                  "[DEFAULT]\nlr = 5\n[continual]\nepochs = 2\n"])
def test_default_section_with_keys_is_unknown_section(tmp_path, text):
    """Its keys would apply to every section that has them, or to none."""
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(cfgmod.ConfigError, match=r"unknown config section \[DEFAULT\]"):
        cfgmod.parse_config(path)
    path.write_text("[DEFAULT]\n[moe]\n")
    assert cfgmod.parse_config(path) == cfgmod.defaults()


@pytest.mark.parametrize("section,key,value,parsed", GOOD_VALUES)
def test_good_value_accepted(tmp_path, section, key, value, parsed):
    resolved = cfgmod.parse_config(write_ini(tmp_path, section, key, value))
    assert resolved[section][key] == parsed


REMOVED = [(cfgmod.SCHEMA, "losses", "mlp_head"), (cfgmod.SCHEMA, "losses", "label_scale"),
           (cfgmod.SCHEMA, "losses", "label_infonce"), (cfgmod.SCHEMA, "moe", "combine_mode"),
           # `data_synth.TRIGGER_WORDS_PER_LABEL`, `CONTEXT_POOL_SIZE` and
           # `DESCRIPTIONS_PER_LABEL`
           *((cfgmod.GENERATOR_SCHEMA, "generator", key) for key in (
               "trigger_words_per_label", "context_pool_size", "descriptions_per_label"))]


@pytest.mark.parametrize("schema,section,key", REMOVED, ids=[key for _, _, key in REMOVED])
def test_removed_option_is_unknown_key(tmp_path, schema, section, key):
    with pytest.raises(cfgmod.ConfigError, match=rf"unknown config key \[{section}\] {key}"):
        cfgmod.parse_config(write_ini(tmp_path, section, key, "false"), schema=schema)


@pytest.mark.parametrize("schema,values,message", [
    (cfgmod.SCHEMA, {"moe": {"num_expert": 8}}, r"unknown config key \[moe\] num_expert"),
    (cfgmod.SCHEMA, {"moe": {"combine_mode": "softmax"}},
     r"unknown config key \[moe\] combine_mode"),
    (cfgmod.SCHEMA, {"continual": {"epoch": 1}}, r"unknown config key \[continual\] epoch"),
    (cfgmod.SCHEMA, {"encoder": {"dim": 32}}, r"unknown config key \[encoder\] dim"),
    (cfgmod.SCHEMA, {"optimizer": {"lr": 0.1}}, r"unknown config section \[optimizer\]"),
    (cfgmod.GENERATOR_SCHEMA, {"generator": {"n_label": 4}},
     r"unknown config key \[generator\] n_label"),
    # a value its key's converter refuses or changes
    (cfgmod.SCHEMA, {"moe": {"topk": "2"}}, r"bad value for \[moe\] topk: '2' \(reads as 2\)"),
    (cfgmod.SCHEMA, {"moe": {"topk": True}}, r"bad value for \[moe\] topk: True"),
    (cfgmod.SCHEMA, {"moe": {"topk": 2.0}}, r"bad value for \[moe\] topk: 2.0"),
    (cfgmod.SCHEMA, {"continual": {"augment": "yes"}},
     r"bad value for \[continual\] augment: 'yes' \(reads as True\)"),
    (cfgmod.SCHEMA, {"continual": {"augment": 1}}, r"bad value for \[continual\] augment: 1"),
    (cfgmod.SCHEMA, {"moe": {"routing": "tokens"}},
     r"bad value for \[moe\] routing: 'tokens' \(must be one of instance, token\)"),
    (cfgmod.SCHEMA, {"losses": {"alpha_fd": 1}}, r"bad value for \[losses\] alpha_fd: 1"),
    (cfgmod.SCHEMA, {"continual": {"lr": 0.0}}, r"bad value for \[continual\] lr: 0.0"),
    (cfgmod.SCHEMA, {"paths": {"weights": None}}, r"bad value for \[paths\] weights: None"),
    (cfgmod.SCHEMA, {"run": {"seed": None}}, r"bad value for \[run\] seed: None"),
    (cfgmod.GENERATOR_SCHEMA, {"generator": {"seed": -1}},
     r"bad value for \[generator\] seed: -1"),
    # a NaN passes the converter; the dataclass refuses it
    (cfgmod.SCHEMA, {"losses": {"alpha_label": float("nan")}}, "alpha_label must be finite")],
    ids=["num_expert", "combine_mode", "epoch", "encoder-key", "section", "generator-key",
         "topk-str", "topk-bool", "topk-float", "augment-str", "augment-int", "routing",
         "alpha-int", "lr-zero", "path-none", "seed-none", "generator-seed", "alpha-nan"])
def test_derived_config_rejects_what_the_schema_lacks(schema, values, message):
    """A config derived in code (`config.check`, as a mode preset or an
    ablation setting runs it), not parsed, is held to the schema too: its
    keys, and values its converters return unchanged."""
    with pytest.raises(cfgmod.ConfigError, match=message):
        harness._set(cfgmod.defaults(schema), values)


@pytest.mark.parametrize("schema,section,key", [
    (cfgmod.SCHEMA, "moe", "routing"),
    (cfgmod.SCHEMA, "run", None),
    (cfgmod.SCHEMA, "paths", "weights"),
    (cfgmod.GENERATOR_SCHEMA, "generator", "seed")],
    ids=["routing", "run-section", "weights", "generator-seed"])
def test_derived_config_without_a_schema_key_is_config_error(schema, section, key):
    """Not a KeyError from the dataclass builders."""
    resolved = cfgmod.defaults(schema)
    missing = key or next(iter(schema[section]))
    if key is None:
        del resolved[section]
    else:
        del resolved[section][key]
    with pytest.raises(cfgmod.ConfigError, match=rf"missing config key \[{section}\] {missing}"):
        cfgmod.check(resolved)


# -------------------------------------------------------------- round trip

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# value strategy and INI spelling per converter
BY_CONVERTER = {
    str: (st.text(string.ascii_letters + string.digits + "/._-", max_size=20), str),
    cfgmod._bool: (st.booleans(), {True: "yes", False: "off"}.get),
    cfgmod._pos_float: (POSITIVE, repr),
    cfgmod._nonneg_int: (st.integers(0, 10**9), str),
    cfgmod._pos_int: (st.integers(1, 10**9), str),
}


def ints(lo, hi):
    return st.integers(lo, hi), str


# Keys whose converter is an enum closure, and keys a dataclass checks
# against other keys: their ranges are chosen so that any subset of them,
# with defaults for the rest, is a valid config (e.g. topk <= 4 <= num_experts,
# num_heads divides model_dim, rank <= model_dim, the generator's word
# pools fit its vocabulary and its trigger counts leave room for context).
BY_KEY = {
    "routing": (st.sampled_from(["instance", "token"]), str),
    "num_layers": ints(1, 4),
    "model_dim": (st.sampled_from([16, 32, 64]), str),
    "num_heads": (st.sampled_from([1, 2, 4]), str),
    "ffn_dim": ints(1, 10**9),
    "max_seq_len": ints(2, 10**9),
    "num_experts": ints(4, 10**9),
    "topk": ints(1, 4),
    "rank": ints(1, 16),
    "epochs": ints(1, 10**9),
    "batch_size": ints(1, 10**9),
    **{k: (FINITE.map(abs), repr)
       for k in ("alpha_router", "alpha_label", "alpha_fd", "alpha_pd")},
    "n_labels": ints(1, 28),
    "vocab_size": ints(28 * (5 + 30) + 30, 10**9),
    "confusability": (st.floats(0.0, 1.0), repr),
    "sentence_len_min": ints(5, 8),
    "sentence_len_max": ints(8, 12),
    "triggers_min": ints(1, 2),
    "triggers_max": ints(2, 4),
    "n_seeds": ints(2, 10**9),
}


def value_strategy(key, conv):
    if key in BY_KEY:
        return BY_KEY[key]
    assert conv in BY_CONVERTER, f"no round-trip strategy for key {key}"
    return BY_CONVERTER[conv]


@st.composite
def valid_configs(draw, schema):
    """A random subset of keys with random valid values, and its INI text."""
    values, lines = {}, []
    for sec, keys in schema.items():
        lines.append(f"[{sec}]")
        for key, (conv, _) in keys.items():
            if not draw(st.booleans()):
                continue
            strategy, spell = value_strategy(key, conv)
            values[(sec, key)] = value = draw(strategy)
            lines.append(f"{key} = {spell(value)}")
    return values, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def ini_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "c.ini"


@pytest.mark.parametrize("schema", [cfgmod.SCHEMA, cfgmod.GENERATOR_SCHEMA],
                         ids=["experiment", "generator"])
@settings(max_examples=100)
@given(data=st.data())
def test_config_round_trip(ini_path, schema, data):
    values, text = data.draw(valid_configs(schema))
    ini_path.write_text(text)
    resolved = cfgmod.parse_config(ini_path, schema=schema)
    expected = cfgmod.defaults(schema)
    for (sec, key), value in values.items():
        expected[sec][key] = value
    assert resolved == expected
