"""Golden digests: the sha256 of every output a benchmark run writes.

The runs are those of `perfbench/run.py`: the reference INI files with one
training epoch, the generator seeded with the run's seed, and modes `leaf`
(workload leaf-ref) and `mole-token`, at seeds 0 and 21. A change that
should keep the numerics leaves every digest as it is. A change that
moves them on purpose updates GOLDEN and says so, with the reference
table of tests 6 and 7.

The digests depend on the NumPy and BLAS build and on the CPU, so a
failure prints both."""

import ast
import hashlib
import json
import os

import numpy as np
import pytest

from leaf import config as cfgmod
from leaf import data_synth, harness

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPERIMENT_INI = os.path.join(REPO, "configs", "experiment.ini")
GENERATOR_INI = os.path.join(REPO, "configs", "generator.ini")

GOLDEN = {
    ("leaf", 0, "checkpoints/task_1.bin"):
        "1b73642753efec2b6089dd323e171c5301d5dbc259d077401ba9baa030f77152",
    ("leaf", 0, "checkpoints/task_2.bin"):
        "6d34c672486dad1a7ad3080a30dc400667749b4a102517df655247f4212aeb8d",
    ("leaf", 0, "checkpoints/task_3.bin"):
        "e3848bd5f807e828c540b041bc9e00352b5dca9b0693e7baedcacac6b551b748",
    ("leaf", 0, "checkpoints/task_4.bin"):
        "0a8a80dace867c058ac45206243f3bc94269bcf6c9425817d3ef2148fcab9ec0",
    ("leaf", 0, "checkpoints/task_5.bin"):
        "70d0411a0a98f4d2f7389f09819dfade09e50e1424b05e0734b627cc81f29183",
    ("leaf", 0, "losses.csv"):
        "c133cd9bba605db7c7ef8e2b22fcf65a678eeb584925cf6c616c358075f74d03",
    ("leaf", 0, "metrics.json"):
        "576ad0a415a56c888d60c3691151dfe7e4fc8911e4bb154e6f30abe5c55c4e60",
    ("leaf", 21, "checkpoints/task_1.bin"):
        "ab906410649b4d4eae9c429775d9a458143b5e8fdb8d7bce545c556146e7d5ac",
    ("leaf", 21, "checkpoints/task_2.bin"):
        "498584484b0f5269f4b1331af91a1ca3855307cdcf68c765b12cff4071c20ab4",
    ("leaf", 21, "checkpoints/task_3.bin"):
        "42e723ba63c788b07a64f0db3f57621e3f99af129d62bf0b3ed7d6e1dfcfe0cf",
    ("leaf", 21, "checkpoints/task_4.bin"):
        "e28e42b5553c1f4a99c42aad83b65bbbe217a04e27c4f0bb4d8beed705623604",
    ("leaf", 21, "checkpoints/task_5.bin"):
        "5c16199ffe637c45ad61c67fa8072f9c492d817d9dd240fe8931c82e8760fc9a",
    ("leaf", 21, "losses.csv"):
        "dd03554f856b62fa8432f920a6afb110831fba28fab430b0f9b64119a63df2de",
    ("leaf", 21, "metrics.json"):
        "4d2f6fbe8586d26f4ba521df146deb0be1630ea9655e40e4198b1b3b37282ee4",
    ("mole-token", 0, "checkpoints/task_1.bin"):
        "9344d3d6e96a732e7d02c5137ff36c56188f48caa3323b5d558ba71b0e941a23",
    ("mole-token", 0, "checkpoints/task_2.bin"):
        "ff4e81b7de48a135840201bf917637e34fd556e3d3731a18bb3867a08386f706",
    ("mole-token", 0, "checkpoints/task_3.bin"):
        "5b4f6693e1eb87663614ba713111b2800226c08c8de8b5c0d5a75e8ec93378cc",
    ("mole-token", 0, "checkpoints/task_4.bin"):
        "c94da745fd49b088594783980d37119ccd7290f058caebad00459c4f7433819a",
    ("mole-token", 0, "checkpoints/task_5.bin"):
        "43dd8ddd3d854820a9bdf1c9952e01a1081320f6359fff252a30ece1d113871d",
    ("mole-token", 0, "losses.csv"):
        "cd0fe846779ffbaeb93d6fcd1de8017117453731e4dca23e51702a8490ed78ae",
    ("mole-token", 0, "metrics.json"):
        "ca6fcbd4c54a671cdba76e18f00b23e3c8718ab883d1ca02d7702f2d37e92cdf",
    ("mole-token", 21, "checkpoints/task_1.bin"):
        "cbdbb73b09399db62f9bdda583d10ef5b3e31ade4365d5f27c18afad68245f62",
    ("mole-token", 21, "checkpoints/task_2.bin"):
        "5eb6d01fc2b69a990d7a25935c046d04c34e7bb078bbbd3ad790359314182bbe",
    ("mole-token", 21, "checkpoints/task_3.bin"):
        "9d17254de2fc4ebc072afc5ad68c85d101de9175cdebe6b185a9d981b8ed870c",
    ("mole-token", 21, "checkpoints/task_4.bin"):
        "34d05159440ff89fc1ceb12ee5e39bb8fc0e39a6f9a047128e934fee1568914e",
    ("mole-token", 21, "checkpoints/task_5.bin"):
        "70750fc8c9319e2f380e33220eb9d815719615c23e0691f0e6d695ca9d9f4402",
    ("mole-token", 21, "losses.csv"):
        "80f9567c8924d265d7f13af92dceb570c57d85d98df5455e1cb697ef67ee9b48",
    ("mole-token", 21, "metrics.json"):
        "9fe04a0910427d9375193e1bf772a2c143ab3122f1cd81ce6ad1a43efde19bce",
}


def build_environment() -> str:
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.25 prints its config and returns None
        return f"NumPy {np.__version__}"
    blas = cfg["Build Dependencies"]["blas"]
    return (f"NumPy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', '')}), "
            f"machine {json.dumps(cfg.get('Machine Information', {}))}")


def run_digests(root, seed: int) -> dict:
    """{(mode, seed, file): sha256} of one seed's benchmark runs."""
    spec = cfgmod.parse_config(GENERATOR_INI, schema=cfgmod.GENERATOR_SCHEMA)
    spec["generator"]["seed"] = seed
    dataset = data_synth.generate(cfgmod.generator_spec(spec))
    resolved = cfgmod.parse_config(EXPERIMENT_INI)
    resolved["continual"]["epochs"] = 1
    weights, vocab, base_names = harness.pretrain_base(dataset, resolved, seed)
    out = {}
    for mode in sorted({mode for mode, _, _ in GOLDEN}):
        run_dir = root / f"{mode}_{seed}"
        harness.run_once(dataset, weights, vocab, base_names,
                         harness.apply_mode(resolved, mode), seed, out_dir=str(run_dir))
        files = ["metrics.json", "losses.csv"] + sorted(
            f"checkpoints/{p.name}" for p in (run_dir / "checkpoints").iterdir())
        for name in files:
            out[(mode, seed, name)] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("seed", [0, 21])
def test_benchmark_runs_match_golden_digests(tmp_path, seed):
    got = run_digests(tmp_path, seed)
    want = {k: v for k, v in GOLDEN.items() if k[1] == seed}
    changed = sorted(f"{m} seed {s} {f}" for (m, s, f) in got.keys() | want.keys()
                     if got.get((m, s, f)) != want.get((m, s, f)))
    assert not changed, (f"{len(changed)} run files differ from their golden digests: "
                         f"{changed}; built with {build_environment()}")


def benchmark_modes() -> dict:
    """{workload: mode} of every workload `BENCHMARK.json` names, mapped by
    `perfbench/run.py`'s `WORKLOADS`, which is read, not run."""
    with open(os.path.join(REPO, "perfbench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    workloads = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["WORKLOADS"])
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert set(names) <= workloads.keys(), f"workloads perfbench/run.py lacks: {names}"
    return {name: workloads[name] for name in names}


def test_every_benchmark_workload_is_pinned():
    """A workload the benchmark adds gets golden digests for its mode, at
    both seeds, in the same change."""
    modes = benchmark_modes()
    assert modes
    for workload, mode in modes.items():
        for seed in (0, 21):
            files = {f for m, s, f in GOLDEN if (m, s) == (mode, seed)}
            assert {"metrics.json", "losses.csv", "checkpoints/task_1.bin"} <= files, (
                f"workload {workload} (mode {mode}) has no golden digests at seed {seed}")
