"""Config parser: schema defaults, and rejection of enum values outside
their set and out-of-range numbers at parse time."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaf import config as cfgmod
from leaf.encoder import PROJECTION_TAGS

BAD_VALUES = [
    ("moe", "routing", "nope"),
    ("moe", "routing", "Instance"),
    ("moe", "combine_mode", "bogus"),
    ("moe", "projections", "x, y"),
    ("moe", "projections", "q, w"),
    ("moe", "projections", ","),
    ("continual", "sigma_aug", "-1"),
    ("continual", "sigma_aug", "-1e-9"),
    ("continual", "sigma_aug", "nan"),
    ("continual", "sigma_aug", "inf"),
]

GOOD_VALUES = [
    ("moe", "routing", "token", "token"),
    ("moe", "routing", "instance", "instance"),
    ("moe", "combine_mode", "paper-literal", "paper-literal"),
    ("moe", "projections", "q, k, v, o", ["q", "k", "v", "o"]),
    ("moe", "projections", "v", ["v"]),
    ("continual", "sigma_aug", "0", 0.0),
    ("continual", "sigma_aug", "0.3", 0.3),
]


def write_ini(tmp_path, section, key, value):
    path = tmp_path / "c.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    return path


def test_defaults_pass_their_own_checks(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[moe]\n")
    assert cfgmod.parse_config(path) == cfgmod.defaults()


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_value_rejected_at_parse_time(tmp_path, section, key, value):
    with pytest.raises(cfgmod.ConfigError, match=rf"\[{section}\] {key}"):
        cfgmod.parse_config(write_ini(tmp_path, section, key, value))


@pytest.mark.parametrize("section,key,value,parsed", GOOD_VALUES)
def test_good_value_accepted(tmp_path, section, key, value, parsed):
    resolved = cfgmod.parse_config(write_ini(tmp_path, section, key, value))
    assert resolved[section][key] == parsed


@pytest.mark.parametrize("key", ["mlp_head", "label_scale", "label_infonce"])
def test_removed_option_is_unknown_key(tmp_path, key):
    with pytest.raises(cfgmod.ConfigError, match=rf"unknown config key \[losses\] {key}"):
        cfgmod.parse_config(write_ini(tmp_path, "losses", key, "false"))


# -------------------------------------------------------------- round trip

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# value strategy and INI spelling per converter; keys whose converter is
# a closure (enum choices) are listed by name
BY_CONVERTER = {
    int: (st.integers(-10**9, 10**9), str),
    float: (FINITE, repr),
    str: (st.text(string.ascii_letters + string.digits + "/._-", max_size=20), str),
    cfgmod._bool: (st.booleans(), {True: "yes", False: "off"}.get),
    cfgmod._nonneg_float: (FINITE.map(abs), repr),
    cfgmod._projections: (st.lists(st.sampled_from(PROJECTION_TAGS), min_size=1, max_size=4),
                          ", ".join),
}
BY_KEY = {
    "combine_mode": (st.sampled_from(["softmax", "paper-literal"]), str),
    "routing": (st.sampled_from(["instance", "token"]), str),
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
