"""The experiment design: each mode and each ablation setting, pinned as
the config values it changes."""

import copy

import pytest

from leaf import config as cfgmod
from leaf import data_synth, harness

LEAF = {("continual", "augment"): True}


def off(*keys):
    return {("losses", key): 0.0 for key in keys}


EXPECTED_MODES = {
    "leaf": LEAF,
    "baseline-single-lora": {("moe", "num_experts"): 1, ("moe", "topk"): 1,
                             **off("alpha_router", "alpha_label", "alpha_fd", "alpha_pd")},
    "mole-token": {("moe", "routing"): "token", **off("alpha_label", "alpha_fd", "alpha_pd")},
}

EXPECTED_AXES = {
    "components": [
        ("baseline", EXPECTED_MODES["baseline-single-lora"]),
        ("+experts", {**LEAF, **off("alpha_label", "alpha_fd", "alpha_pd")}),
        ("+distill", {**LEAF, **off("alpha_label")}),
        ("+labels", LEAF)],
    "n_descriptions": [(f"{n}_descriptions", {**LEAF, ("continual", "n_descriptions"): n})
                       for n in (1, 3, 5)],
    "n_experts": [(f"{n}_experts", {**LEAF, ("moe", "num_experts"): n}) for n in (4, 8, 12)],
}


def start_config():
    """The defaults, moved off every value a mode or setting sets."""
    resolved = cfgmod.defaults()
    resolved["continual"]["n_descriptions"] = 2
    resolved["moe"]["num_experts"] = 6
    return resolved


def changes(before, after):
    """{(section, key): value} of every value `after` changes, by type too
    (so a weight switched off as the int 0 would show)."""
    assert after.keys() == before.keys()
    return {(sec, key): value for sec, keys in after.items() for key, value in keys.items()
            if (type(value), value) != (type(before[sec][key]), before[sec][key])}


def typed(values):
    return {k: (type(v), v) for k, v in values.items()}


@pytest.mark.parametrize("mode", list(EXPECTED_MODES))
def test_mode_sets_exactly_its_values(mode):
    before = start_config()
    kept = copy.deepcopy(before)
    after = harness.apply_mode(before, mode)
    assert before == kept
    assert typed(changes(before, after)) == typed(EXPECTED_MODES[mode])


def test_unknown_mode_is_value_error():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        harness.apply_mode(start_config(), "bogus")


def test_modes_and_axes_are_the_pinned_ones():
    assert list(harness.MODES) == list(EXPECTED_MODES)
    assert list(harness.ABLATIONS) == list(EXPECTED_AXES)


@pytest.mark.parametrize("axis", list(EXPECTED_AXES))
def test_ablation_settings_names_and_values(axis):
    before = start_config()
    kept = copy.deepcopy(before)
    settings = harness.ablation(before, axis)
    assert before == kept
    assert [name for name, _ in settings] == [name for name, _ in EXPECTED_AXES[axis]]
    for (name, cfg), (_, expected) in zip(settings, EXPECTED_AXES[axis]):
        assert typed(changes(before, cfg)) == typed(expected), name


def test_pretrain_base_draws_the_base_labels_once(monkeypatch):
    """`pretrain_base` picks its base labels with one draw, checks them
    and pretrains on them; `check_data` takes them and draws none."""
    ds = data_synth.generate(data_synth.GeneratorSpec(
        n_labels=8, instances_per_label=6, test_per_label=2, vocab_size=400,
        sentence_len=(4, 6), triggers_per_sentence=(1, 2), seed=0))
    resolved = cfgmod.defaults()
    resolved["encoder"].update(num_layers=1, model_dim=16, num_heads=2, ffn_dim=32,
                               max_seq_len=12)
    resolved["run"].update(n_base_labels=4, base_epochs=0)
    resolved["continual"].update(n_way=2, k_shot=3, num_tasks=2, n_descriptions=2)
    draws, real = [], harness.pick_base_labels

    def counted(*args):
        draws.append(real(*args))
        return draws[-1]

    monkeypatch.setattr(harness, "pick_base_labels", counted)
    weights, _, base_names = harness.pretrain_base(ds, resolved, seed=3)
    assert draws == [base_names] and len(base_names) == 4
    assert weights.frozen
