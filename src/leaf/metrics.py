"""F1 computation, the per-task tracking matrix, forgetting, and
multi-seed aggregation.

In this closed-set, single-label setting micro-F1 equals accuracy;
macro-F1 is logged alongside as a secondary diagnostic. Values are
stored as fractions and rendered as percentages with one decimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def micro_f1(gold, pred, label_set) -> float:
    """Micro-averaged F1 over the label set (= accuracy here, since every
    instance carries exactly one gold and one predicted label)."""
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    labels = set(label_set)
    for y in gold:
        if y not in labels:
            raise ValueError(f"gold label {y} outside label set")
    if not gold:
        return 0.0
    tp = sum(1 for g, p in zip(gold, pred) if g == p)
    fp = sum(1 for g, p in zip(gold, pred) if g != p and p in labels)
    fn = sum(1 for g, p in zip(gold, pred) if g != p)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1(gold, pred, label_set) -> float:
    """Unweighted mean of per-class F1. Classes absent from gold are
    skipped unless they were predicted (then they contribute F1=0)."""
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    scores = []
    for y in sorted(label_set):
        tp = sum(1 for g, p in zip(gold, pred) if g == y and p == y)
        fp = sum(1 for g, p in zip(gold, pred) if g != y and p == y)
        fn = sum(1 for g, p in zip(gold, pred) if g == y and p != y)
        if tp + fn == 0 and fp == 0:
            continue
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores)) if scores else 0.0


@dataclass
class MetricMatrix:
    """Lower-triangular tracker: rows = after-task t, columns = task i <= t."""
    num_tasks: int
    micro: np.ndarray = field(default=None)
    macro: np.ndarray = field(default=None)
    cumulative_micro: np.ndarray = field(default=None)
    cumulative_macro: np.ndarray = field(default=None)

    def __post_init__(self):
        T = self.num_tasks
        if self.micro is None:
            self.micro = np.full((T, T), np.nan)
        if self.macro is None:
            self.macro = np.full((T, T), np.nan)
        if self.cumulative_micro is None:
            self.cumulative_micro = np.full(T, np.nan)
        if self.cumulative_macro is None:
            self.cumulative_macro = np.full(T, np.nan)

    def record(self, after_task: int, task: int, micro: float, macro: float) -> None:
        if task > after_task:
            raise ValueError("matrix is lower-triangular: task > after_task")
        self.micro[after_task, task] = micro
        self.macro[after_task, task] = macro

    def record_cumulative(self, after_task: int, micro: float, macro: float) -> None:
        self.cumulative_micro[after_task] = micro
        self.cumulative_macro[after_task] = macro

    def final_cumulative_micro(self) -> float:
        return float(self.cumulative_micro[-1])

    def to_dict(self) -> dict:
        return {
            "num_tasks": self.num_tasks,
            "micro": [[None if np.isnan(v) else v for v in row] for row in self.micro],
            "macro": [[None if np.isnan(v) else v for v in row] for row in self.macro],
            "cumulative_micro": list(self.cumulative_micro),
            "cumulative_macro": list(self.cumulative_macro),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricMatrix":
        m = cls(num_tasks=d["num_tasks"])
        m.micro = np.array([[np.nan if v is None else v for v in row] for row in d["micro"]])
        m.macro = np.array([[np.nan if v is None else v for v in row] for row in d["macro"]])
        m.cumulative_micro = np.asarray(d["cumulative_micro"], dtype=np.float64)
        m.cumulative_macro = np.asarray(d["cumulative_macro"], dtype=np.float64)
        return m


def forgetting(matrix: MetricMatrix) -> tuple[list[float], float]:
    """Per earlier task: best-ever micro-F1 minus final micro-F1; plus mean.

    A single-task experiment has nothing to forget and returns ([], 0.0).
    """
    T = matrix.num_tasks
    if np.isnan(matrix.micro[np.tril_indices(T)]).any():
        raise ValueError("metric matrix incomplete")
    per_task = []
    for i in range(T - 1):
        best = float(np.nanmax(matrix.micro[i:, i]))
        per_task.append(best - float(matrix.micro[T - 1, i]))
    mean = float(np.mean(per_task)) if per_task else 0.0
    return per_task, mean


@dataclass
class SeedAggregate:
    mean_micro: np.ndarray
    std_micro: np.ndarray
    mean_cumulative: np.ndarray
    std_cumulative: np.ndarray
    n_runs: int


def aggregate_runs(matrices: list[MetricMatrix]) -> SeedAggregate:
    """Element-wise mean and population standard deviation over runs."""
    if len(matrices) < 2:
        raise ValueError("aggregation needs at least 2 runs")
    shape = matrices[0].micro.shape
    for m in matrices[1:]:
        if m.micro.shape != shape:
            raise ValueError(f"matrix shape mismatch: {m.micro.shape} vs {shape}")
    micro = np.stack([m.micro for m in matrices])
    cum = np.stack([m.cumulative_micro for m in matrices])
    return SeedAggregate(
        mean_micro=micro.mean(axis=0), std_micro=micro.std(axis=0),
        mean_cumulative=cum.mean(axis=0), std_cumulative=cum.std(axis=0),
        n_runs=len(matrices))


def format_cell(mean: float, std: float) -> str:
    """Render a fraction pair the way the report tables print it, e.g.
    (0.512, 0.006) -> '51.2±0.6'."""
    return f"{mean * 100:.1f}±{std * 100:.1f}"


def final_row_cells(matrices: list[MetricMatrix]) -> dict[str, str]:
    """The report-table row of a set of runs: mean±std over runs of each
    task's micro-F1 after the last task, then of the cumulative micro-F1,
    keyed task_1 .. task_T, cumulative_micro."""
    agg = aggregate_runs(matrices)
    last = agg.mean_micro.shape[0] - 1
    cells = {f"task_{i + 1}": format_cell(float(agg.mean_micro[last, i]),
                                          float(agg.std_micro[last, i]))
             for i in range(last + 1)}
    cells["cumulative_micro"] = format_cell(float(agg.mean_cumulative[-1]),
                                            float(agg.std_cumulative[-1]))
    return cells
