"""Config parser: schema defaults, and rejection of enum values outside
their set and out-of-range numbers at parse time."""

import pytest

from leaf import config as cfgmod

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
