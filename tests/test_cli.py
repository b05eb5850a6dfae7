"""End-to-end command-line tests on a tiny workspace: data generation,
base pretraining, continual training, ablation sweeps, reporting, seed
precedence, exit codes, and run-directory determinism."""

import json
import os

import pytest

from leaf.cli import main

GEN_SPEC = """\
[generator]
n_labels = 8
instances_per_label = 8
test_per_label = 2
vocab_size = 400
confusability = 0.5
sentence_len_min = 4
sentence_len_max = 6
triggers_min = 1
triggers_max = 2
seed = 0
"""

RUN_CONFIG = """\
[encoder]
num_layers = 1
model_dim = 16
num_heads = 2
ffn_dim = 32
max_seq_len = 12

[moe]
num_experts = 2
topk = 1
rank = 2

[continual]
n_way = 2
k_shot = 3
num_tasks = 2
epochs = 2
batch_size = 4
n_descriptions = 2

[run]
seed = 0
n_seeds = 2
base_epochs = 2
n_base_labels = 4

[paths]
dataset = {data}/dataset.jsonl
descriptions = {data}/descriptions.tsv
weights = {base}/base_weights.bin
"""


def config_with(cfg, section, line, path):
    """Copy of the config at `cfg` with `line` set in [section], written to `path`."""
    key = line.split("=")[0].strip()
    kept = [ln for ln in cfg.read_text().splitlines() if ln.split("=")[0].strip() != key]
    text = "\n".join(kept) + "\n"
    if f"[{section}]" not in text:
        text += f"[{section}]\n"
    path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    spec = root / "gen.ini"
    spec.write_text(GEN_SPEC)
    data = root / "data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0
    cfg = root / "run.ini"
    cfg.write_text(RUN_CONFIG.format(data=data, base=root / "base"))
    assert main(["pretrain-base", "--config", str(cfg),
                 "--out", str(root / "base")]) == 0
    return root, cfg


class TestGenData:
    def test_outputs_exist(self, workspace):
        root, _ = workspace
        data = root / "data"
        assert (data / "dataset.jsonl").exists()
        assert (data / "descriptions.tsv").exists()
        snap = json.loads((data / "generator.snapshot.json").read_text())
        assert snap["generator"]["n_labels"] == 8

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--spec", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2


class TestPretrainBase:
    def test_outputs_exist(self, workspace):
        root, _ = workspace
        assert (root / "base" / "base_weights.bin").exists()
        fp = (root / "base" / "fingerprint.txt").read_text().strip()
        assert len(fp) == 64

    def test_missing_dataset_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[paths]\ndescriptions = x\n")
        assert main(["pretrain-base", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestTrain:
    def test_run_dir_contents(self, workspace):
        root, cfg = workspace
        out = root / "run_main"
        assert main(["train", "--config", str(cfg), "--mode", "leaf",
                     "--out", str(out), "--seed", "0"]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert "matrix" in payload
        assert (out / "losses.csv").exists()
        assert (out / "config.snapshot.json").exists()
        ckpts = sorted(os.listdir(out / "checkpoints"))
        assert ckpts == ["task_1.bin", "task_2.bin"]

    def test_determinism_bit_identical(self, workspace):
        root, cfg = workspace
        a, b = root / "det_a", root / "det_b"
        for out in (a, b):
            assert main(["train", "--config", str(cfg), "--mode",
                         "baseline-single-lora", "--out", str(out),
                         "--seed", "1"]) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "losses.csv").read_bytes() == (b / "losses.csv").read_bytes()

    def test_token_routing_mode_runs(self, workspace):
        root, cfg = workspace
        out = root / "run_mole"
        assert main(["train", "--config", str(cfg), "--mode", "mole-token",
                     "--out", str(out), "--seed", "0"]) == 0
        assert (out / "metrics.json").exists()

    def test_unknown_mode_is_usage_error(self, workspace):
        root, cfg = workspace
        assert main(["train", "--config", str(cfg), "--mode", "bogus",
                     "--out", str(root / "x")]) == 2

    def test_seed_precedence(self, workspace, monkeypatch):
        root, cfg = workspace
        env_out = root / "seed_env"
        monkeypatch.setenv("LEAF_SEED", "1")
        assert main(["train", "--config", str(cfg), "--mode",
                     "baseline-single-lora", "--out", str(env_out)]) == 0
        env_payload = json.loads((env_out / "metrics.json").read_text())
        assert env_payload["seed"] == 1
        # --seed beats LEAF_SEED
        flag_out = root / "seed_flag"
        assert main(["train", "--config", str(cfg), "--mode",
                     "baseline-single-lora", "--out", str(flag_out),
                     "--seed", "2"]) == 0
        assert json.loads((flag_out / "metrics.json").read_text())["seed"] == 2
        # env seed 1 matches an explicit --seed 1 run bit for bit
        assert (env_out / "metrics.json").read_bytes() == \
            (root / "det_a" / "metrics.json").read_bytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_loss_is_numerical_error(self, workspace, monkeypatch, capsys):
        from leaf import objectives
        from leaf import tensor as T

        root, cfg = workspace
        real_ce = objectives.ce_loss
        monkeypatch.setattr(objectives, "ce_loss",
                            lambda *a, **kw: T.mul(real_ce(*a, **kw), float("inf")))
        assert main(["train", "--config", str(cfg), "--mode", "leaf",
                     "--out", str(root / "inf_loss"), "--seed", "0"]) == 3
        assert "task 1, step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section,line", [
        ("moe", "routing = nope"), ("moe", "combine_mode = bogus"),
        ("moe", "projections = x, y"), ("continual", "sigma_aug = -1"),
        ("losses", "temperature = 0"), ("moe", "topk = 5")])
    def test_bad_config_value_is_usage_error(self, workspace, section, line, capsys):
        root, cfg = workspace
        bad = config_with(cfg, section, line, root / "bad.ini")
        out = root / "bad_run"
        assert main(["train", "--config", str(bad), "--mode", "leaf",
                     "--out", str(out), "--seed", "0"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_env_seed_is_usage_error(self, workspace, monkeypatch):
        root, cfg = workspace
        monkeypatch.setenv("LEAF_SEED", "seven")
        assert main(["train", "--config", str(cfg), "--mode", "leaf",
                     "--out", str(root / "y")]) == 2

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_negative_seed_is_usage_error(self, workspace, monkeypatch, capsys, where):
        root, cfg = workspace
        out = root / f"negative_seed_{where}"
        argv = ["train", "--config", str(cfg), "--mode", "leaf", "--out", str(out)]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("LEAF_SEED", "-1")
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    # The workspace has 8 labels with 8 train instances and 6 descriptions
    # each; 4 are base labels, so 4 are left for 2 tasks x 2 ways.
    @pytest.mark.parametrize("command,section,line", [
        ("pretrain-base", "run", "n_base_labels = 8"),
        ("train", "continual", "k_shot = 9"),
        ("train", "continual", "num_tasks = 3"),
        ("train", "continual", "n_descriptions = 7")])
    def test_config_the_data_refutes_is_usage_error(self, workspace, capsys,
                                                    command, section, line):
        root, cfg = workspace
        bad = config_with(cfg, section, line, root / "refuted.ini")
        out = root / "refuted_out"
        argv = [command, "--config", str(bad), "--out", str(out)]
        assert main(argv + (["--mode", "leaf"] if command == "train" else [])) == 2
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_components_grid_shape(self, workspace):
        root, cfg = workspace
        out = root / "ablate_components"
        assert main(["ablate", "--config", str(cfg), "--axis", "components",
                     "--out", str(out), "--seed", "0"]) == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["setting", "seed"]
        assert "cumulative_micro" in header and "task_2" in header
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4 * 2  # ladder steps x n_seeds
        assert [r[0] for r in rows[::2]] == ["baseline", "+experts",
                                             "+distill", "+labels"]
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + 4
        assert "±" in summary[1]

    def test_every_setting_checked_before_the_first_run(self, workspace, capsys):
        root, cfg = workspace
        data = root / "data"
        kept, per_label = [], {}
        for line in (data / "descriptions.tsv").read_text().splitlines():
            label = line.split("\t")[0]
            per_label[label] = per_label.get(label, 0) + 1
            if per_label[label] <= 4:
                kept.append(line)
        few = root / "four_descriptions.tsv"
        few.write_text("\n".join(kept) + "\n")
        bad = config_with(cfg, "paths", f"descriptions = {few}", root / "few_desc.ini")
        out = root / "ablate_few_desc"
        # the 1- and 3-description settings fit; the 5-description one does not
        assert main(["ablate", "--config", str(bad), "--axis", "n_descriptions",
                     "--out", str(out), "--seed", "0"]) == 2
        assert "n_descriptions 5" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_axis_rejected(self, workspace):
        root, cfg = workspace
        assert main(["ablate", "--config", str(cfg), "--axis", "bogus",
                     "--out", str(root / "z")]) == 2


class TestGradcheckAndReport:
    def test_poisoned_input_is_numerical_error(self):
        assert main(["gradcheck", "--poison-nan"]) == 3

    def test_gradcheck_rejects_config_flag(self):
        assert main(["gradcheck", "--config", "x.ini"]) == 2

    def test_gradcheck_negative_seed_is_usage_error(self):
        assert main(["gradcheck", "--seed", "-1"]) == 2

    def test_report_aggregates_runs(self, workspace, capsys):
        root, cfg = workspace
        out = root / "report.csv"
        assert main(["report", "--runs", str(root / "det_a"),
                     str(root / "det_b"), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",") == ["task_1", "task_2", "cumulative_micro"]
        cells = lines[1].split(",")
        assert all("±" in c for c in cells)
        # identical runs aggregate with zero spread
        assert all(c.endswith("±0.0") for c in cells)

    def test_report_missing_dir_is_runtime_error(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_no_command_is_usage_error(self):
        assert main([]) == 2
