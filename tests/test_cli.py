"""End-to-end command-line tests on a tiny workspace: data generation,
base pretraining, continual training, ablation sweeps, reporting, seed
precedence, exit codes, and run-directory determinism."""

import argparse
import ast
import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leaf.cli as leaf_cli
from leaf import config as cfgmod
from leaf import encoder, harness, metrics
from leaf.cli import main
from leaf.data_synth import load_jsonl
from oracles import mul, run_files

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


@pytest.fixture(scope="module")
def det_runs(workspace):
    """Two `baseline-single-lora` runs at seed 1 in the workspace."""
    root, cfg = workspace
    runs = root / "det_a", root / "det_b"
    for out in runs:
        assert main(["train", "--config", str(cfg), "--mode", "baseline-single-lora",
                     "--out", str(out), "--seed", "1"]) == 0
    return runs


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

    def test_out_that_holds_files_is_usage_error(self, workspace, capsys):
        """A run dir holds one run: `train` or `ablate` into a dir that holds
        files exits 2 and leaves them byte-unchanged; an empty dir is fine."""
        root, cfg = workspace
        out = root / "one_run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        before = run_files(out)
        assert "checkpoints/task_2.bin" in before
        one_task = config_with(cfg, "continual", "num_tasks = 1", root / "one_task.ini")
        for argv in (["train"], ["ablate", "--axis", "components"]):
            assert main(argv + ["--config", str(one_task), "--out", str(out)]) == 2
            assert "already holds files" in capsys.readouterr().err
        assert run_files(out) == before
        empty = root / "empty_out"
        empty.mkdir()
        assert main(["train", "--config", str(one_task), "--out", str(empty)]) == 0
        assert sorted(os.listdir(empty / "checkpoints")) == ["task_1.bin"]

    def test_out_that_is_a_file_is_usage_error(self, workspace, capsys):
        """`train` or `ablate` with `--out` an existing regular file exits 2,
        says that the path is a file, and leaves the file as it was."""
        root, cfg = workspace
        out = root / "a_file"
        out.write_bytes(b"keep")
        for argv in (["train"], ["ablate", "--axis", "components"]):
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"--out {out} is a file, not a directory" in err
            assert "already holds files" not in err
        assert out.read_bytes() == b"keep"

    def test_determinism_bit_identical(self, det_runs):
        a, b = det_runs
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

    def test_seed_precedence(self, workspace, det_runs):
        root, cfg = workspace
        seed_1 = config_with(cfg, "run", "seed = 1", root / "seed_1.ini")
        config_out = root / "seed_config"
        assert main(["train", "--config", str(seed_1), "--mode",
                     "baseline-single-lora", "--out", str(config_out)]) == 0
        assert json.loads((config_out / "metrics.json").read_text())["seed"] == 1
        # --seed beats [run] seed
        flag_out = root / "seed_flag"
        assert main(["train", "--config", str(seed_1), "--mode",
                     "baseline-single-lora", "--out", str(flag_out),
                     "--seed", "2"]) == 0
        assert json.loads((flag_out / "metrics.json").read_text())["seed"] == 2
        # [run] seed 1 matches an explicit --seed 1 run bit for bit
        assert (config_out / "metrics.json").read_bytes() == \
            (det_runs[0] / "metrics.json").read_bytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_loss_is_numerical_error(self, workspace, monkeypatch, capsys):
        from leaf import objectives

        root, cfg = workspace
        real_ce = objectives.ce_loss
        monkeypatch.setattr(objectives, "ce_loss",
                            lambda *a, **kw: mul(real_ce(*a, **kw), float("inf")))
        assert main(["train", "--config", str(cfg), "--mode", "leaf",
                     "--out", str(root / "inf_loss"), "--seed", "0"]) == 3
        assert "task 1, step 1" in capsys.readouterr().err

    def test_checkpoint_as_base_weights_is_runtime_error(self, workspace, capsys):
        root, cfg = workspace
        src = root / "ckpt_src"
        assert main(["train", "--config", str(cfg), "--mode", "baseline-single-lora",
                     "--out", str(src), "--seed", "0"]) == 0
        bad = config_with(cfg, "paths", f"weights = {src / 'checkpoints' / 'task_1.bin'}",
                          root / "ckpt_weights.ini")
        out = root / "ckpt_run"
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--mode", "leaf",
                     "--out", str(out), "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "no encoder config" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_base_weights_missing_a_tensor_is_runtime_error(self, workspace, capsys):
        from leaf import encoder

        root, cfg = workspace
        arrays, meta = encoder.load_tensors(root / "base" / "base_weights.bin")
        del arrays["encoder/tok_emb"]
        encoder.save_tensors(arrays, root / "no_tok_emb.bin", meta=meta)
        bad = config_with(cfg, "paths", f"weights = {root / 'no_tok_emb.bin'}",
                          root / "no_tok_emb.ini")
        out = root / "no_tok_emb_run"
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--mode", "leaf",
                     "--out", str(out), "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'tok_emb' is missing" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit,code,message", [
        (lambda m: m.pop("vocab"), 1, "the vocabulary is not a list of"),
        (lambda m: m.update(vocab=5), 1, "the vocabulary is not a list of"),
        (lambda m: m.update(vocab="abc"), 1, "the vocabulary is not a list of"),
        (lambda m: m.update(vocab=m["vocab"][:50]), 1, "the vocabulary is not a list of"),
        (lambda m: m.pop("base_labels"), 1, "base_labels is not a list of label names"),
        (lambda m: m.update(base_labels=5), 1, "base_labels is not a list of label names"),
        (lambda m: m.update(base_labels=["nope"]), 2,
         "base label 'nope' of the weights is not a label")],
        ids=["no-vocab", "vocab-5", "vocab-abc", "vocab-first-50", "no-base-labels",
             "base-labels-5", "base-labels-nope"])
    def test_bad_base_weights_header(self, workspace, capsys, edit, code, message):
        root, cfg = workspace
        arrays, meta = encoder.load_tensors(root / "base" / "base_weights.bin")
        edit(meta)
        encoder.save_tensors(arrays, root / "bad_header.bin", meta=meta)
        bad = config_with(cfg, "paths", f"weights = {root / 'bad_header.bin'}",
                          root / "bad_header.ini")
        out = root / "bad_header_run"
        capsys.readouterr()
        assert main(["train", "--config", str(bad), "--mode", "leaf",
                     "--out", str(out), "--seed", "0"]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_encoder_config_the_weights_refute_is_usage_error(self, workspace, capsys,
                                                              command):
        root, cfg = workspace
        bad = config_with(cfg, "encoder", "ffn_dim = 64", root / "ffn_dim.ini")
        out = root / f"ffn_dim_{command}"
        argv = [command, "--config", str(bad), "--out", str(out)]
        argv += ["--mode", "leaf"] if command == "train" else ["--axis", "components"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "[encoder] ffn_dim = 64, but the base weights" in err
        assert "have ffn_dim = 32" in err
        assert not out.exists()

    @pytest.mark.parametrize("section,line", [
        ("moe", "routing = nope"), ("moe", "combine_mode = bogus"),
        ("moe", "projections = x, y"), ("continual", "sigma_aug = -1"),
        ("losses", "temperature = 0"), ("moe", "topk = 5"), ("continual", "lr = nan"),
        ("encoder", "layernorm_eps = 1e-6"), ("moe", "routing_l2 = 0"),
        ("continual", "aug_copies = 2")])
    def test_bad_config_value_is_usage_error(self, workspace, section, line, capsys):
        root, cfg = workspace
        bad = config_with(cfg, section, line, root / "bad.ini")
        out = root / "bad_run"
        assert main(["train", "--config", str(bad), "--mode", "leaf",
                     "--out", str(out), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        key = line.split(" =")[0]
        if key in ("layernorm_eps", "projections", "routing_l2", "sigma_aug", "aug_copies",
                   "combine_mode"):
            # settings that became constants or were removed: any value is an unknown key
            assert f"unknown config key [{section}] {key}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,section,line,message", [
        ("train", "DEFAULT", "lr = 5", "unknown config section [DEFAULT]"),
        ("ablate", "run", "n_seeds = 1", "bad value for [run] n_seeds")])
    def test_parse_time_config_error_leaves_no_run_dir(self, workspace, capsys, command,
                                                       section, line, message):
        root, cfg = workspace
        bad = config_with(cfg, section, line, root / f"{command}_parse_error.ini")
        out = root / f"{command}_parse_error"
        argv = [command, "--config", str(bad), "--out", str(out), "--seed", "0"]
        assert main(argv + (["--mode", "leaf"] if command == "train" else
                            ["--axis", "components"])) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, workspace, capsys):
        root, cfg = workspace
        out = root / "negative_seed_flag"
        argv = ["train", "--config", str(cfg), "--mode", "leaf", "--out", str(out),
                "--seed", "-1"]
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

    def test_base_label_without_train_instances_is_usage_error(self, workspace, capsys):
        """A label whose records are all test ones can still be picked as a
        base label; pretraining would look up its train texts."""
        root, cfg = workspace
        lines = (root / "data" / "dataset.jsonl").read_text().splitlines()
        name = json.loads(lines[0])["label"]
        kept = [ln for ln in lines
                if (json.loads(ln)["label"], json.loads(ln)["split"]) != (name, "train")]
        data = root / "no_train_label.jsonl"
        data.write_text("\n".join(kept) + "\n")
        dataset = load_jsonl(data)
        assert name in dataset.label_names and not dataset.train.get(
            dataset.label_names.index(name))
        seed = next(s for s in range(100) if name in harness.pick_base_labels(dataset, 4, s))
        bad = config_with(cfg, "paths", f"dataset = {data}", root / "no_train_label.ini")
        out = root / "no_train_label_out"
        assert main(["pretrain-base", "--config", str(bad), "--out", str(out),
                     "--seed", str(seed)]) == 2
        assert f"base label {name!r}, picked for seed {seed}, has no train instances" in (
            capsys.readouterr().err)
        assert not out.exists()

    @staticmethod
    def bad_record_run(workspace, capsys, command, key, value):
        """Exit code and stderr of `command` on the workspace's dataset with
        `key` of its first test record set to `value`, and that line's
        `path:line`; no output may exist."""
        root, cfg = workspace
        lines = (root / "data" / "dataset.jsonl").read_text().splitlines()
        lineno = next(i for i, ln in enumerate(lines, 1) if '"split": "test"' in ln)
        record = json.loads(lines[lineno - 1])
        record[key] = value
        lines[lineno - 1] = json.dumps(record, sort_keys=True)
        data = root / f"bad_{key}.jsonl"
        data.write_text("\n".join(lines) + "\n")
        bad = config_with(cfg, "paths", f"dataset = {data}", root / f"bad_{key}.ini")
        out = root / f"bad_{key}_out"
        argv = [command, "--config", str(bad), "--out", str(out)]
        capsys.readouterr()
        code = main(argv + (["--mode", "leaf"] if command == "train" else []))
        assert not out.exists()
        return code, capsys.readouterr().err, f"{data}:{lineno}"

    @pytest.mark.parametrize("command", ["pretrain-base", "train"])
    def test_blank_text_is_runtime_error_before_any_output(self, workspace, capsys, command):
        code, err, where = self.bad_record_run(workspace, capsys, command, "text", " ")
        assert code == 1 and f"{where}: text ' ' has no word" in err

    @pytest.mark.parametrize("label", [None, ["x"], 7, " "],
                             ids=["null", "list", "number", "blank"])
    def test_label_that_is_not_a_string_is_runtime_error(self, workspace, capsys, label):
        # it used to load as the label "None", "['x']" or "7"
        code, err, where = self.bad_record_run(workspace, capsys, "train", "label", label)
        assert code == 1 and f"{where}: label {label!r} is not a non-blank string" in err

    def test_config_that_is_not_utf8_is_usage_error(self, workspace, capsys):
        root, cfg = workspace
        bad = root / "not_utf8.ini"
        bad.write_bytes(cfg.read_bytes() + b"# \xff\n")
        out = root / "not_utf8_out"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: malformed config {bad}: 'utf-8' codec can't decode" in err
        assert not out.exists()

    @pytest.mark.parametrize("key,name", [("dataset", "dataset.jsonl"),
                                          ("descriptions", "descriptions.tsv")])
    def test_input_that_is_not_utf8_is_runtime_error_naming_the_file(self, workspace, capsys,
                                                                     key, name):
        root, cfg = workspace
        bad = root / f"not_utf8_{name}"
        bad.write_bytes((root / "data" / name).read_bytes() + b"\xff\n")
        conf = config_with(cfg, "paths", f"{key} = {bad}", root / f"not_utf8_{key}.ini")
        out = root / f"not_utf8_{key}_out"
        assert main(["train", "--config", str(conf), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff" in err
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

    def test_config_a_setting_derives_is_checked_before_the_first_run(self, workspace,
                                                                         capsys):
        root, cfg = workspace
        bad = config_with(cfg, "moe", "num_experts = 6", root / "top5_of_6.ini")
        bad = config_with(bad, "moe", "topk = 5", bad)
        assert cfgmod.parse_config(bad)["moe"]["topk"] == 5  # 5 of 6 experts parses
        out = root / "ablate_top5_of_4"
        # the first setting, 4 experts, cannot route to 5 of them
        assert main(["ablate", "--config", str(bad), "--axis", "n_experts",
                     "--out", str(out), "--seed", "0"]) == 2
        assert "topk cannot exceed num_experts" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_axis_rejected(self, workspace):
        root, cfg = workspace
        assert main(["ablate", "--config", str(cfg), "--axis", "bogus",
                     "--out", str(root / "z")]) == 2


ONE_TASK_MATRIX = {"num_tasks": 1, "micro": [[0.5]], "macro": [[0.5]],
                   "cumulative_micro": [0.5], "cumulative_macro": [0.5]}
TWO_TASK_MATRIX = {"num_tasks": 2, "micro": [[0.5, None], [0.25, 0.75]],
                   "macro": [[0.5, None], [0.25, 0.75]], "cumulative_micro": [0.5, 0.5],
                   "cumulative_macro": [0.5, 0.5]}


class TestGradcheckAndReport:
    def test_poisoned_input_is_numerical_error(self, monkeypatch):
        real_init = encoder.init_encoder_weights

        def poisoned(*args, **kwargs):
            weights = real_init(*args, **kwargs)
            weights.tensors["tok_emb"].data[:, 0] = np.nan
            return weights

        monkeypatch.setattr(encoder, "init_encoder_weights", poisoned)
        assert main(["gradcheck"]) == 3

    def test_gradcheck_rejects_config_flag(self):
        assert main(["gradcheck", "--config", "x.ini"]) == 2

    def test_gradcheck_negative_seed_is_usage_error(self):
        assert main(["gradcheck", "--seed", "-1"]) == 2

    def test_report_aggregates_runs(self, workspace, det_runs, capsys):
        root, _ = workspace
        out = root / "report.csv"
        assert main(["report", "--runs", *map(str, det_runs), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",") == ["task_1", "task_2", "cumulative_micro"]
        cells = lines[1].split(",")
        assert all("±" in c for c in cells)
        # identical runs aggregate with zero spread
        assert all(c.endswith("±0.0") for c in cells)

    def test_report_of_one_dir_twice_is_usage_error(self, det_runs, tmp_path, capsys):
        """Every run is read first; then a dir named twice, by any path, exits 2."""
        run, other = det_runs
        link = tmp_path / "link"
        link.symlink_to(run)
        out = tmp_path / "r.csv"
        for again in (str(run), f"{run}/", str(run.parent / "." / run.name), str(link)):
            assert main(["report", "--runs", str(run), str(other), again,
                         "--out", str(out)]) == 2
            assert (f"config error: --runs names the directory {os.path.realpath(run)} twice "
                    f"({run} and {again})") in capsys.readouterr().err
        assert main(["report", "--runs", str(run), str(run), str(tmp_path / "nope"),
                     "--out", str(out)]) == 1  # a run that cannot be read answers first
        assert not out.exists()

    def test_report_missing_dir_is_runtime_error(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "nope"), str(tmp_path / "nope2"),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_report_of_one_run_is_usage_error_before_any_read(self, tmp_path, capsys):
        """A mean±std needs two runs, as `[run] n_seeds` does: one `--runs`
        dir exits 2 before it is read (this one does not exist)."""
        out = tmp_path / "r.csv"
        assert main(["report", "--runs", str(tmp_path / "nope"), "--out", str(out)]) == 2
        assert "--runs needs at least 2 run dirs, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", ['{"seed": 0}', "[1, 2]", '"matrix"',
                                         '{"matrix": [[0.5]]}', '{"matrix": {}}',
                                         '{"seed": 0,\n'] + [
        json.dumps({"matrix": matrix}) for matrix in (
            {k: v for k, v in ONE_TASK_MATRIX.items() if k != "macro"},
            {**ONE_TASK_MATRIX, "micro": "x"}, {**ONE_TASK_MATRIX, "num_tasks": 2})])
    def test_report_metrics_without_matrix_is_runtime_error(self, tmp_path, capsys, payload):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.json").write_text(payload + "\n")
        out = tmp_path / "r.csv"
        assert main(["report", "--runs", str(run), str(run), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{run}: metrics.json holds no metric matrix" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("matrix", [
        {**TWO_TASK_MATRIX, "micro": [[0.5, None], [None, None]]},
        {**TWO_TASK_MATRIX, "macro": [[0.5, None], [None, 0.5]]},
        {**TWO_TASK_MATRIX, "micro": [[0.5, None], [7.5, 0.5]]},
        {**TWO_TASK_MATRIX, "cumulative_micro": [0.5, -3]},
        {**TWO_TASK_MATRIX, "cumulative_macro": [0.5, float("nan")]},
        {**TWO_TASK_MATRIX, "cumulative_micro": [float("inf"), 0.5]},
        {**ONE_TASK_MATRIX, "num_tasks": True}, {**ONE_TASK_MATRIX, "num_tasks": 1.0},
        {"num_tasks": 0, "micro": [], "macro": [], "cumulative_micro": [],
         "cumulative_macro": []}],
        ids=["final-row-null", "macro-null", "micro-above-1", "cumulative-negative",
             "cumulative-nan", "cumulative-inf", "num-tasks-bool", "num-tasks-float",
             "no-tasks"])
    def test_report_rejects_incomplete_or_out_of_range_matrix(self, tmp_path, capsys, matrix):
        """Two runs, so the table could be built: a missing cell, a fraction
        outside [0, 1] or a `num_tasks` that is not a positive int is an
        error naming the run, not a row of nan or 750.0."""
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            run.mkdir()
            (run / "metrics.json").write_text(json.dumps({"matrix": matrix}) + "\n")
        out = tmp_path / "r.csv"
        assert main(["report", "--runs", *map(str, runs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{runs[0]}: metrics.json holds no metric matrix" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_no_command_is_usage_error(self):
        assert main([]) == 2


class _HalfWriter:
    """A file handle that writes half of its first chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:max(1, len(text) // 2)])
        raise OSError("disk full")


class _LineWriter:
    """A file handle that writes its first chunk whole, then fails: a write
    interrupted at a line boundary."""

    def __init__(self, fh):
        self.fh, self.chunks = fh, 0

    def write(self, text):
        if self.chunks:
            raise OSError("disk full")
        self.chunks += 1
        self.fh.write(text)


def fail_writing(monkeypatch, *names, writer=_HalfWriter):
    """Make every `encoder.atomic_open` of a file called one of `names`
    fail mid-way."""
    real = encoder.atomic_open

    @contextlib.contextmanager
    def atomic_open(path, mode="w"):
        with real(path, mode) as fh:
            yield writer(fh) if os.path.basename(path) in names else fh

    monkeypatch.setattr(encoder, "atomic_open", atomic_open)


def matrix_of(rows=([0.5], [0.25, 0.75])):
    m = metrics.MetricMatrix(num_tasks=len(rows))
    for t, row in enumerate(rows):
        for i, v in enumerate(row):
            m.record(t, i, v, v)
        m.record_cumulative(t, float(np.mean(row)), float(np.mean(row)))
    return m


class TestAtomicOutputs:
    """A writer that fails mid-way leaves neither its target nor a `.tmp`."""

    def test_fingerprint(self, workspace, tmp_path, monkeypatch):
        _, cfg = workspace
        fail_writing(monkeypatch, "fingerprint.txt")
        assert main(["pretrain-base", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base_weights.bin"]

    @pytest.mark.parametrize("name", ["dataset.jsonl", "descriptions.tsv"])
    def test_gen_data_interrupted_at_a_line_boundary(self, workspace, tmp_path, monkeypatch,
                                                     name):
        """A corpus cut after whole lines would still load; none is left."""
        root, _ = workspace
        fail_writing(monkeypatch, name, writer=_LineWriter)
        out = tmp_path / "data"
        assert main(["gen-data", "--spec", str(root / "gen.ini"), "--out", str(out)]) == 1
        written = ["dataset.jsonl"] if name == "descriptions.tsv" else []
        assert sorted(p.name for p in out.iterdir()) == written

    def test_report(self, tmp_path, monkeypatch):
        runs = [str(tmp_path / f"run{k}") for k in range(2)]
        for k, run in enumerate(runs):
            harness.write_run_dir(run, cfgmod.defaults(), k, matrix_of())
        fail_writing(monkeypatch, "report.csv")
        assert main(["report", "--runs", *runs, "--out", str(tmp_path / "report.csv")]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run0", "run1"]

    def test_grid_and_summary(self, tmp_path, monkeypatch):
        runs = [("a", 0, matrix_of()), ("a", 1, matrix_of())]
        harness.write_grid_csv(tmp_path / "grid.csv", runs)
        harness.write_summary_csv(tmp_path / "summary.csv", runs)
        done = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(done) == ["grid.csv", "summary.csv"]
        # the cells come from each matrix's last row: after task 2, task 1
        # is at 0.25 (forgetting 0.5 - 0.25) and task 2 at 0.75
        assert done["grid.csv"].decode().splitlines() == [
            "setting,seed,task_1,task_2,cumulative_micro,forgetting_mean",
            "a,0,0.250000,0.750000,0.500000,0.250000",
            "a,1,0.250000,0.750000,0.500000,0.250000"]
        assert done["summary.csv"].decode().splitlines() == [
            "setting,task_1,task_2,cumulative_micro", "a,25.0±0.0,75.0±0.0,50.0±0.0"]
        out = tmp_path / "failed"
        out.mkdir()
        fail_writing(monkeypatch, *done)
        with pytest.raises(OSError):
            harness.write_grid_csv(out / "grid.csv", runs)
        with pytest.raises(OSError):
            harness.write_summary_csv(out / "summary.csv", runs)
        assert list(out.iterdir()) == []
        monkeypatch.undo()
        # a run the writer rejects after the header is out leaves nothing
        # too: one with more tasks, a setting with one run
        three_tasks = matrix_of(([0.5], [0.5, 0.5], [0.5, 0.5, 0.5]))
        with pytest.raises(ValueError, match="3 tasks, not 2"):
            harness.write_grid_csv(tmp_path / "grid.csv", runs + [("b", 0, three_tasks)])
        with pytest.raises(ValueError, match="at least 2 runs"):
            harness.write_summary_csv(tmp_path / "summary.csv",
                                      runs + [("b", 0, matrix_of())])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == done


# ----------------------------------------------------------- BLAS threads

# Imports the CLI's module the way the `leaf` entry point does (before
# NumPy), then prints OpenBLAS's thread count, or -1 when this NumPy ships
# no OpenBLAS that reports it.
BLAS_PROBE = """
import ctypes, glob, os
import leaf.cli
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "*openblas*.so*"))
for lib in map(ctypes.CDLL, libs):
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            print(getattr(lib, name)())
            raise SystemExit
print(-1)
"""

# Imports the CLI's module the same way, then prints as JSON whether the
# whole of `scipy.special` came with it (its `__init__` loads SciPy's own
# OpenBLAS), the `scipy.libs` libraries mapped into the process (null without
# /proc/self/maps), and whether `leaf`'s erf is the package's once the
# package is imported.
SCIPY_PROBE = """
import json, os, sys
import leaf.cli
maps = "/proc/self/maps"
report = {
    "modules": sorted({"scipy.special", "scipy.special._ufuncs"} & set(sys.modules)),
    "libs": sorted({line.split()[-1] for line in open(maps) if "scipy.libs" in line})
            if os.path.exists(maps) else None,
}
import scipy.special
import leaf.tensor
report["same_erf"] = leaf.tensor.erf is scipy.special.erf
print(json.dumps(report))
"""

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def leaf_env(**env_vars) -> dict:
    """This process's environment without the BLAS variables, with `leaf`
    importable and `env_vars` set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = os.path.dirname(os.path.dirname(os.path.abspath(leaf_cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **env_vars}


def blas_threads(**env_vars) -> int:
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=leaf_env(**env_vars),
                          capture_output=True, text=True, check=True, timeout=60)
    return int(proc.stdout)


def test_leaf_process_runs_one_blas_thread_unless_set_outside():
    threads = blas_threads()
    if threads == -1:
        pytest.skip("this NumPy's BLAS does not report its thread count")
    assert threads == 1
    if (os.cpu_count() or 1) >= 2:  # OpenBLAS caps the count at the CPUs it sees
        assert blas_threads(OPENBLAS_NUM_THREADS="2") == 2


def test_leaf_process_loads_scipys_erf_alone():
    """`leaf` takes SciPy's erf without `scipy.special` and the libraries
    that package loads, and the package exports that same ufunc."""
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=leaf_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    report = json.loads(proc.stdout)
    assert report["modules"] == []
    if report["libs"] is not None:
        assert report["libs"] == []
    assert report["same_erf"]


def test_blas_thread_count_does_not_move_bytes(workspace):
    """`leaf train` writes the same bytes, checkpoints included, with BLAS
    on one thread and on two."""
    root, cfg = workspace
    runs = []
    for n in ("1", "2"):
        out = root / f"blas_threads_{n}"
        subprocess.run([sys.executable, "-m", "leaf.cli", "train", "--config", str(cfg),
                        "--out", str(out)], env=leaf_env(OPENBLAS_NUM_THREADS=n,
                                                         OMP_NUM_THREADS=n),
                       capture_output=True, check=True, timeout=300)
        runs.append(run_files(out))
    assert {"metrics.json", "losses.csv", "checkpoints/task_2.bin"} <= set(runs[0])
    assert runs[0] == runs[1]


class TestLogLevel:
    @staticmethod
    def train(workspace, name, *argv, config=None):
        """stderr of `leaf [argv] train` in a child process: the logging
        set-up of a real `leaf` process, not the test runner's."""
        root, cfg = workspace
        proc = subprocess.run([sys.executable, "-m", "leaf.cli", *argv, "train", "--config",
                               str(config or cfg), "--mode", "leaf", "--out", str(root / name)],
                              env=leaf_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    def test_clean_run_stderr_is_unchanged_at_the_default(self, workspace):
        lines = self.train(workspace, "log_default").splitlines()
        assert len(lines) == 2 and lines[0] == "training mode=leaf seed=0"
        assert lines[1].startswith("final cumulative micro-F1: ")

    def test_level_filters_the_loader_warnings(self, workspace):
        """A descriptions file that repeats a line warns at the default
        level; `--log-level ERROR` silences the warning, not the run."""
        root, cfg = workspace
        data = root / "data" / "descriptions.tsv"
        lines = data.read_text().splitlines()
        repeated = root / "repeated_descriptions.tsv"
        repeated.write_text("\n".join(lines + lines[:1]) + "\n")
        config = config_with(cfg, "paths", f"descriptions = {repeated}",
                             root / "repeated_desc.ini")
        warned = self.train(workspace, "log_warning", config=config)
        assert re.search(r"^WARNING:leaf\.descriptions:.*duplicate description", warned, re.M)
        quiet = self.train(workspace, "log_error", "--log-level", "ERROR", config=config)
        assert "WARNING:" not in quiet
        assert quiet.splitlines()[-1].startswith("final cumulative micro-F1: ")

    def test_unknown_level_is_usage_error(self, capsys):
        assert main(["--log-level", "TRACE", "gradcheck"]) == 2
        assert "invalid choice: 'TRACE'" in capsys.readouterr().err


# Every subcommand with its option strings, in `build_parser` order.
CLI_SURFACE = {
    "gen-data": ["--spec", "--out"],
    "pretrain-base": ["--config", "--out", "--seed"],
    "train": ["--config", "--out", "--mode", "--seed"],
    "ablate": ["--config", "--axis", "--out", "--seed"],
    "gradcheck": ["--seed"],
    "report": ["--runs", "--out"],
}


def option_strings(parser: argparse.ArgumentParser) -> list[str]:
    return [s for action in parser._actions for s in action.option_strings
            if s not in ("-h", "--help")]


def env_reads(tree: ast.AST) -> list[int]:
    """Lines of `os.getenv` and of every `os.environ` use but a
    `.setdefault` write (`.get`, `[...]`, `in`, iteration)."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os" and node.attr in ("environ", "getenv")
            and not (node.attr == "environ" and isinstance(parent[node], ast.Attribute)
                     and parent[node].attr == "setdefault")]


def test_cli_flags_and_environment_are_the_settable_surface():
    """The commands, their options and the global `--log-level` are the
    listed ones, and no module reads an environment variable (the BLAS
    pins are `setdefault` writes), so a new flag or variable shows in the
    test diff, as a new config key does in `test_config`."""
    parser = leaf_cli.build_parser()
    assert option_strings(parser) == ["--log-level"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: option_strings(p) for name, p in sub.choices.items()} == CLI_SURFACE
    assert list(sub.choices) == list(CLI_SURFACE)
    reads = {path.name: env_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(Path(leaf_cli.__file__).parent.glob("*.py"))}
    assert {"__init__.py", "cli.py"} <= reads.keys()
    assert {name: lines for name, lines in reads.items() if lines} == {}
