#!/usr/bin/env python3
"""Benchmark of leaf continual runs.

    python3 perfbench/run.py --workload leaf-ref --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; it imports `leaf` from `src/` of that
checkout and reads `configs/`. One caller in one process, closed loop:

1. Set-up, timed as `setup_s`: generate the corpus from `--seed`, pretrain
   and freeze the base encoder, build the task stream and the description
   bank. With `--trace 0` this runs SETUPS times and the median is reported.
2. Complete continual runs back to back for `--seconds` (at least
   MIN_RUNS of them), each writing a run directory with checkpoints into a
   temporary directory under `.perfbench_out/`. A run mirrors
   `harness.run_once`, with the stream and the bank built once in set-up.
3. Every run is checked: finite losses at every step, every F1 in [0, 1],
   the final F1 matrix equal to the accuracy of the predictions it was
   scored from, and `metrics.json` and `losses.csv` byte-identical to
   those of the first run of the same seed. A run that fails a check, or
   raises, counts in `failed`; the benchmark goes on.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. Those runs
carry only boundary probes (train_task, forward_features, predict and the
optimizer step: a few hundred calls per run) to time steps and count rows.
A host-speed probe (hostspeed.py) runs before the first set-up and after
every set-up and run; each timing is scaled by the host factor of its
section, so that it reads as time on the reference machine and drifts of
the shared host's speed cancel. The raw wall-clock figures are printed as
`raw.*` and kept in the result file.

`--trace 1` reports the per-layer metrics of BENCHMARK.json. It sets up
once with the set-up functions traced, then runs pairs of an untraced and a
traced run; the difference of their median wall times is the tracing
overhead. The exact counts must repeat across traced runs.

Spans and a result record (machine, config deltas, per-run figures) are
written to `.perfbench_out/` when the benchmark ends. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = "1"
NPROC = len(os.sched_getaffinity(0))

# BLAS reads its thread count when NumPy loads, so set it before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    import leaf  # noqa: E402
    from leaf import (config as cfgmod, continual, data_synth, descriptions,  # noqa: E402
                      encoder, harness, metrics, moe, objectives, tensor)
except ImportError as exc:
    sys.exit(f"perfbench: cannot import leaf from {SRC}: {exc}")
if not os.path.abspath(leaf.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: leaf was imported from {leaf.__file__}, not from {SRC}")

from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, write_jsonl  # noqa: E402

# workload -> harness mode preset. Every workload uses configs/experiment.ini
# and configs/generator.ini with one delta, EPOCHS, so that a run fits the
# measuring window several times over; why each workload was chosen is in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "leaf-ref": "leaf",
    "mole-token": "mole-token",
}
EPOCHS = 1
SETUPS = 3
MIN_RUNS = 2          # the determinism check needs two runs of one seed
TAIL_BEYOND = 10      # samples beyond the reported tail percentile
LOSS_KEYS = ("ce", "router", "label", "fd", "pd", "total")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken set-up (1 base-encoder epoch, done once) "
                        "for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# the system under test


class Setup:
    def __init__(self, resolved, seed, weights, vocab, bank, stream):
        self.resolved, self.seed = resolved, seed
        self.weights, self.vocab, self.bank, self.stream = weights, vocab, bank, stream


def reference_config() -> dict:
    return cfgmod.parse_config(os.path.join(ROOT, "configs", "experiment.ini"))


def workload_config(workload: str, smoke: bool) -> dict:
    resolved = reference_config()
    resolved["continual"]["epochs"] = EPOCHS
    if smoke:
        resolved["run"]["base_epochs"] = 1
    return harness.apply_mode(resolved, WORKLOADS[workload])


def set_up(resolved: dict, seed: int) -> Setup:
    spec = cfgmod.parse_config(os.path.join(ROOT, "configs", "generator.ini"),
                               schema=cfgmod.GENERATOR_SCHEMA)
    spec["generator"]["seed"] = seed
    dataset = data_synth.generate(cfgmod.generator_spec(spec))
    weights, vocab, base_names = harness.pretrain_base(dataset, resolved, seed)
    stream, state = harness.setup_run(dataset, dataset.descriptions, weights, vocab,
                                      base_names, resolved, seed)
    return Setup(resolved, seed, weights, vocab, state.bank, stream)


def continual_run(setup: Setup, run_dir: str):
    """One complete continual run, as `harness.run_once` does it."""
    tc = cfgmod.train_config(setup.resolved, seed=setup.seed)
    state = continual.init_state(setup.weights, setup.vocab, setup.bank, tc)
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    os.makedirs(ckpt_dir)

    def after_task(t, st):
        harness._save_checkpoint(st, os.path.join(ckpt_dir, f"task_{t + 1}.bin"))

    matrix = continual.run_experiment(setup.stream, state, after_task=after_task)
    harness.write_run_dir(run_dir, setup.resolved, setup.seed, matrix, state)
    return matrix, state


# ---------------------------------------------------------------------------
# probes


def install_probes(tracer: Tracer, predictions: list) -> None:
    """Boundary probes of every run: steps, training rows, predictions."""

    def forward_name(args, kwargs):
        state = args[0]
        pools = kwargs.get("pools", args[2] if len(args) > 2 else None)
        teacher = (pools is not None and state.snapshot is not None
                   and pools is state.snapshot.pools)
        return f"continual.forward_features.{'teacher' if teacher else 'student'}"

    def train_rows(args, kwargs, counts):
        if tensor.grad_enabled():
            counts["train_rows"] += len(args[1])

    def record_predictions(args, kwargs, result, counts):
        counts["continual.predict.rows"] += len(args[1])
        predictions.append(([inst.label for inst in args[1]], list(result)))

    tracer.wrap(continual, "train_task", "continual.train_task")
    tracer.wrap(tensor.Adam, "step", "tensor.Adam.step")
    tracer.wrap(continual, "forward_features", forward_name, before=train_rows)
    tracer.wrap(continual, "predict", "continual.predict", after=record_predictions)


def install_layers(tracer: Tracer) -> None:
    """Spans around the public functions of every layer a run goes through."""
    seen_inputs = set()

    def base_rows(args, kwargs, counts):
        ids, mask = np.asarray(args[0]), np.asarray(args[1])
        noise = kwargs.get("embed_noise", args[3] if len(args) > 3 else None)
        if ids.ndim == 1:
            ids, mask = ids[None], mask[None]
            noise = None if noise is None else np.asarray(noise)[None]
        counts["encoder.encode_base.rows"] += len(ids)
        for i in range(len(ids)):
            key = ids[i].tobytes() + mask[i].tobytes()
            if noise is not None and np.any(noise[i]):
                key += np.ascontiguousarray(noise[i]).tobytes()
            digest = hashlib.blake2b(key, digest_size=16).digest()
            if digest in seen_inputs:
                counts["encoder.encode_base.repeat_rows"] += 1
            else:
                seen_inputs.add(digest)

    def expert_rows(args, kwargs, counts):
        ids = np.asarray(args[0])
        counts["encoder.encode_with_experts.rows"] += ids.shape[0] if ids.ndim > 1 else 1

    def mix_entries(args, kwargs, counts):
        mix = args[2].data
        counts["moe.pool_delta.mix_entries"] += mix.size
        counts["moe.pool_delta.mix_nonzero"] += np.count_nonzero(mix)

    def graph_nodes(args, kwargs, counts):
        loss = args[0]
        seen, stack = {id(loss)}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        counts["tensor.graph_nodes"] += len(seen)

    def file_bytes(args, kwargs, result, counts):
        counts["encoder.save_tensors.bytes"] += os.path.getsize(args[1])

    tracer.wrap(encoder, "tokenize", "encoder.tokenize")
    tracer.wrap(encoder, "encode_base", "encoder.encode_base", before=base_rows)
    tracer.wrap(encoder, "encode_with_experts", "encoder.encode_with_experts",
                before=expert_rows)
    tracer.wrap(moe, "route_instance", "moe.route_instance")
    tracer.wrap(moe, "token_mix_weights", "moe.token_mix_weights")
    tracer.wrap(moe, "pool_delta", "moe.pool_delta", before=mix_entries)
    tracer.wrap(moe, "router_loss", "moe.router_loss")
    for name in ("ce_loss", "label_contrastive_loss", "feature_distill_loss",
                 "prediction_distill_loss", "total_loss"):
        tracer.wrap(objectives, name, f"objectives.{name}")
    tracer.wrap(tensor.Tensor, "backward", "tensor.backward", before=graph_nodes)
    tracer.wrap(continual, "select_exemplar", "continual.select_exemplar")
    tracer.wrap(harness, "write_run_dir", "harness.write_run_dir")
    tracer.wrap(encoder, "save_tensors", "encoder.save_tensors", after=file_bytes)
    tracer.wrap(metrics, "micro_f1", "metrics.score")
    tracer.wrap(metrics, "macro_f1", "metrics.score")


def install_setup_probes(tracer: Tracer) -> None:
    tracer.wrap(data_synth, "generate", "data_synth.generate")
    tracer.wrap(encoder, "train_base_task", "encoder.train_base_task")
    tracer.wrap(descriptions, "encode_bank", "descriptions.encode_bank")


# ---------------------------------------------------------------------------
# one measured run


def check_run(matrix, state, predictions) -> list[str]:
    """What is wrong with a run's outputs; empty when nothing is."""
    problems = []
    for row in state.loss_rows:
        bad = [k for k in LOSS_KEYS if not math.isfinite(row[k])]
        if bad:
            problems.append(f"non-finite {','.join(bad)} loss at step {row['step']}")
            break
    n = matrix.num_tasks
    scores = np.concatenate([matrix.micro[np.tril_indices(n)], matrix.macro[np.tril_indices(n)],
                             matrix.cumulative_micro, matrix.cumulative_macro])
    if not ((scores >= 0.0) & (scores <= 1.0)).all():
        problems.append("an F1 score is outside [0, 1] or missing")
    if len(predictions) != n * (n + 1) // 2:
        problems.append(f"{len(predictions)} evaluations for {n} tasks")
    else:
        # After the last task every task's test set is predicted once, in order;
        # micro-F1 over one gold and one predicted label per instance is accuracy.
        final = predictions[-n:]
        for i, (gold, pred) in enumerate(final):
            if not math.isclose(np.mean(np.equal(gold, pred)), matrix.micro[n - 1, i],
                                rel_tol=0.0, abs_tol=1e-12):
                problems.append(f"final micro-F1 of task {i + 1} is not its accuracy")
        pooled = np.concatenate([np.equal(g, p) for g, p in final]).mean()
        if not math.isclose(pooled, matrix.final_cumulative_micro(), rel_tol=0.0, abs_tol=1e-12):
            problems.append("final cumulative micro-F1 is not the pooled accuracy")
    return problems


def measure_run(setup: Setup, run_dir: str, run_id: str, traced: bool):
    """Run once; return (record, tracer, output files). Raises what the run raises."""
    tracer = Tracer(run_id)
    predictions = []
    install_probes(tracer, predictions)
    if traced:
        install_layers(tracer)
    start = time.perf_counter()
    try:
        matrix, state = continual_run(setup, run_dir)
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start

    task_start, last_end, steps, task_s = {}, {}, [], []
    for i, (name, begin, end, parent) in enumerate(tracer.spans):
        if name == "continual.train_task":
            task_start[i] = begin
            task_s.append(end - begin)
        elif name == "tensor.Adam.step" and parent in task_start:
            steps.append(end - last_end.get(parent, task_start[parent]))
            last_end[parent] = end
    outputs = {}
    for name in ("metrics.json", "losses.csv"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    shutil.rmtree(run_dir)
    record = {
        "run": run_id, "traced": traced, "run_s": wall, "step_s": steps, "task_s": task_s,
        "train_rows": tracer.counts["train_rows"], "train_s": sum(steps),
        "eval_rows": tracer.counts["continual.predict.rows"],
        "eval_s": tracer.stats["continual.predict"][2],
        "final_micro_f1": matrix.final_cumulative_micro(),
        "forgetting_mean": metrics.forgetting(matrix)[1],
        "problems": check_run(matrix, state, predictions),
    }
    return record, tracer, outputs


class Runs:
    """Runs of one seed: records, tracers, failures and the determinism gate."""

    def __init__(self, setup: Setup, tmp: str, label: str):
        self.setup, self.tmp, self.label = setup, tmp, label
        self.records, self.tracers = [], []
        self.attempted = self.failed = 0
        self._reference = None

    def run(self, traced: bool):
        """One run; returns its record, or None when it raised."""
        run_id = f"{self.label}-run{self.attempted}"
        self.attempted += 1
        try:
            record, tracer, outputs = measure_run(
                self.setup, os.path.join(self.tmp, run_id), run_id, traced)
        except Exception:  # a failing run is counted, not fatal
            self.failed += 1
            log(f"{run_id} raised:\n{traceback.format_exc()}")
            return None
        if self._reference is None:
            self._reference = outputs
        for name, data in outputs.items():
            if data != self._reference[name]:
                record["problems"].append(f"{name} differs from the first run of this seed")
        self.records.append(record)
        self.tracers.append(tracer)
        if record["problems"]:
            self.failed += 1
        log(f"{run_id}: {record['run_s']:.3f} s{' traced' if traced else ''}"
            + "".join(f"; FAILED: {p}" for p in record["problems"]))
        return record

    def fail(self, record, problem: str) -> None:
        if not record["problems"]:
            self.failed += 1
        record["problems"].append(problem)
        log(f"{record['run']}: FAILED: {problem}")


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(steps_per_run: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples beyond it in MIN_RUNS
    runs, so that it is the same for every run of a workload."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / (MIN_RUNS * steps_per_run))))


def end_to_end(records, setups, scaled: bool = True) -> tuple[dict, dict]:
    """End-to-end figures. Each record and set-up carries the host factor of
    the section it ran in; `scaled=False` gives the raw wall-clock figures."""
    def f(item):
        return item["host_factor"] if scaled else 1.0

    steps = np.concatenate([np.asarray(r["step_s"]) * f(r) for r in records])
    pct = tail_percentile(len(records[0]["step_s"]))
    values = {
        "setup_s": statistics.median(s["setup_s"] * f(s) for s in setups),
        "run_s": statistics.median(r["run_s"] * f(r) for r in records),
        "train_inst_per_s": (sum(r["train_rows"] for r in records)
                             / sum(r["train_s"] * f(r) for r in records)),
        "step_ms_p50": float(np.median(steps)) * 1e3,
        # per run, then the median over runs, as run_s: each run has its own factor
        "step_ms_tail": statistics.median(
            float(np.percentile(np.asarray(r["step_s"]) * f(r), pct)) for r in records) * 1e3,
        "eval_inst_per_s": (sum(r["eval_rows"] for r in records)
                            / sum(r["eval_s"] * f(r) for r in records)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"step_ms_tail_percentile": pct, "step_count": int(steps.size), "runs": len(records)}
    return values, extra


EXACT_SUFFIXES = (".calls", ".rows", ".bytes", "_ratio", "_per_step", ".steps")


def layer_values(record: dict, tracer: Tracer, reported_tasks: int) -> dict:
    """Per-layer figures of one traced run."""
    st, ct = tracer.stats, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    v = {}
    for name in ("encoder.tokenize", "encoder.encode_base", "encoder.encode_with_experts",
                 "moe.route_instance", "moe.token_mix_weights", "moe.pool_delta",
                 "tensor.backward", "encoder.save_tensors"):
        v[f"{name}.calls"] = st[name][0]
    for name in ("encoder.tokenize", "encoder.encode_base", "encoder.encode_with_experts",
                 "continual.forward_features.student", "continual.forward_features.teacher",
                 "moe.route_instance", "moe.token_mix_weights", "moe.pool_delta",
                 "moe.router_loss", "objectives.ce_loss", "objectives.label_contrastive_loss",
                 "objectives.feature_distill_loss", "objectives.prediction_distill_loss",
                 "objectives.total_loss", "tensor.backward", "tensor.Adam.step",
                 "continual.train_task", "continual.predict", "metrics.score",
                 "continual.select_exemplar", "harness.write_run_dir", "encoder.save_tensors"):
        v[f"{name}.s"] = st[name][1]
    for role in ("student", "teacher"):
        v[f"continual.forward_features.{role}.total_s"] = st[f"continual.forward_features.{role}"][2]
    v["encoder.encode_base.rows"] = ct["encoder.encode_base.rows"]
    v["encoder.encode_base.repeat_ratio"] = ratio(ct["encoder.encode_base.repeat_rows"],
                                                  ct["encoder.encode_base.rows"])
    v["encoder.encode_with_experts.rows"] = ct["encoder.encode_with_experts.rows"]
    v["moe.pool_delta.useful_ratio"] = ratio(ct["moe.pool_delta.mix_nonzero"],
                                             ct["moe.pool_delta.mix_entries"])
    v["tensor.graph_nodes_per_step"] = ratio(ct["tensor.graph_nodes"], st["tensor.backward"][0])
    v["continual.steps"] = st["tensor.Adam.step"][0]
    v["continual.predict.rows"] = ct["continual.predict.rows"]
    v["encoder.save_tensors.bytes"] = ct["encoder.save_tensors.bytes"]
    task_s = record["task_s"]
    for t in range(max(reported_tasks, len(task_s))):
        v[f"continual.train_task.task{t + 1}.total_s"] = task_s[t] if t < len(task_s) else 0.0
    return v


def per_layer(runs: Runs, setup_tracer: Tracer, reported_tasks: int) -> dict:
    traced = [(r, t) for r, t in zip(runs.records, runs.tracers) if r["traced"]]
    untraced = [r["run_s"] for r in runs.records if not r["traced"]]
    per_run = [layer_values(r, t, reported_tasks) for r, t in traced]
    values = {}
    for name, first in per_run[0].items():
        if name.endswith(EXACT_SUFFIXES):
            for (record, _), other in zip(traced[1:], per_run[1:]):
                if other[name] != first:
                    runs.fail(record, f"counter {name} drifted: {first} then {other[name]}")
            values[name] = first
        else:
            values[name] = statistics.median(v[name] for v in per_run)
    for name in ("data_synth.generate", "encoder.train_base_task", "descriptions.encode_bank"):
        values[f"{name}.s"] = setup_tracer.stats[name][1]
    traced_s = statistics.median(r["run_s"] for r, _ in traced)
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(untraced)
    values["quality.final_micro_f1"] = runs.records[0]["final_micro_f1"]
    values["quality.forgetting_mean"] = runs.records[0]["forgetting_mean"]
    return values


# ---------------------------------------------------------------------------
# main


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def config_delta(base: dict, final: dict) -> dict:
    return {f"{sec}.{key}": [base[sec][key], final[sec][key]]
            for sec in final for key in final[sec] if base[sec][key] != final[sec][key]}


def measure(args, resolved, tmp):
    """Set up, then run until the window closes.

    With --trace 0 the host-speed probe (a child process, stopped before
    this returns) runs before the first set-up and after every set-up and
    run, and each of them records the host factor of its section (see
    hostspeed.py). Returns (runs, set-ups, set-up tracer or
    None, host probe or None)."""
    label = f"{args.workload}-seed{args.seed}"
    setups, setup_tracer, speed = [], None, None
    if args.trace:
        setup_tracer = Tracer(f"{label}-setup")
        install_setup_probes(setup_tracer)
    else:
        speed = HostSpeed()

    def probe_after(item) -> None:
        if speed is not None:
            speed.take()
            if item is not None:
                item["host_factor"] = speed.factor(len(speed.samples) - 2)

    try:
        if speed is not None:
            speed.take()
        try:
            for _ in range(1 if args.trace or args.smoke else SETUPS):
                start = time.perf_counter()
                setup = set_up(resolved, args.seed)
                setups.append({"setup_s": time.perf_counter() - start})
                probe_after(setups[-1])
                log(f"set-up {setups[-1]['setup_s']:.3f} s")
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()

        runs = Runs(setup, tmp, label)
        deadline = time.perf_counter() + args.seconds
        # One round is one run, or with --trace 1 an untraced and a traced run.
        rounds, last = 0, 0.0
        while rounds < MIN_RUNS or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            for traced in ((False, True) if args.trace else (False,)):
                probe_after(runs.run(traced))
            last = time.perf_counter() - start
            rounds += 1
    finally:
        if speed is not None:
            speed.close()
    return runs, setups, setup_tracer, speed


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the program and the host-speed probe's child, so that the
    # probe times the core the program runs on. The program is one thread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    reference = reference_config()
    resolved = workload_config(args.workload, args.smoke)
    deltas = config_delta(reference, resolved)
    log(f"workload {args.workload} (mode {WORKLOADS[args.workload]}), seed {args.seed}, "
        f"trace {args.trace}; config deltas {deltas}")

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="runs-", dir=OUT_DIR)
    try:
        runs, setups, setup_tracer, speed = measure(args, resolved, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    write_jsonl(([setup_tracer] if setup_tracer else []) + runs.tracers, stem + ".spans.jsonl")
    kinds = {r["traced"] for r in runs.records}
    if kinds != ({False, True} if args.trace else {False}):
        log("too few runs completed; nothing to report")
        return 1
    if args.trace:
        values, extra = per_layer(runs, setup_tracer, reference["continual"]["num_tasks"]), {}
    else:
        values, extra = end_to_end(runs.records, setups)
        raw, _ = end_to_end(runs.records, setups, scaled=False)
        extra["host_factor_median"] = statistics.median(
            r["host_factor"] for r in runs.records)
        extra.update({f"raw.{name}": value for name, value in raw.items()
                      if name != "peak_rss_mb"})
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "workload": args.workload,
                   "mode": WORKLOADS[args.workload], "seed": args.seed,
                   "config_deltas": deltas, "setups": setups, "values": values,
                   "extra": extra, "host_probe_s": speed.all_probes() if speed else [],
                   "runs": [{k: v for k, v in r.items() if k != "step_s"}
                            for r in runs.records]}, fh, indent=1)

    shown = dict(values)
    if not args.trace:
        shown.update({"fail_ratio": runs.failed / runs.attempted,
                      "final_micro_f1": runs.records[0]["final_micro_f1"],
                      "forgetting_mean": runs.records[0]["forgetting_mean"]})
    units = {m["name"]: m["unit"] for m in listed}
    for name in sorted(shown):
        print(f"{name:48s} {shown[name]:>16.6f} {units.get(name, '')}")
    for name, value in extra.items():
        unit = units.get(name.removeprefix("raw."), "")
        print(f"{name:48s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"{name:48s} {value:>16}")
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
