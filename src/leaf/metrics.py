"""F1 computation, the per-task tracking matrix, forgetting, and
multi-seed aggregation.

In this closed-set, single-label setting micro-F1 equals accuracy;
macro-F1 is logged alongside as a secondary diagnostic. Values are
stored as fractions and rendered as percentages with one decimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _arrays(gold, pred) -> tuple[np.ndarray, np.ndarray]:
    gold, pred = np.asarray(list(gold)), np.asarray(list(pred))
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    return gold, pred


def micro_f1(gold, pred, label_set) -> float:
    """Micro-averaged F1 over the label set (= accuracy here, since every
    instance carries exactly one gold and one predicted label)."""
    gold, pred = _arrays(gold, pred)
    labels = list(label_set)
    outside = ~np.isin(gold, labels)
    if outside.any():
        raise ValueError(f"gold label {gold[np.argmax(outside)]} outside label set")
    if not len(gold):
        return 0.0
    wrong = gold != pred
    tp = int(np.count_nonzero(~wrong))
    fp = int(np.count_nonzero(wrong & np.isin(pred, labels)))
    fn = int(np.count_nonzero(wrong))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1(gold, pred, label_set) -> float:
    """Unweighted mean of per-class F1. Classes absent from gold are
    skipped unless they were predicted (then they contribute F1=0)."""
    gold, pred = _arrays(gold, pred)
    labels = np.asarray(sorted(label_set))
    is_gold = gold[:, None] == labels          # [n, L]
    is_pred = pred[:, None] == labels
    tp = np.count_nonzero(is_gold & is_pred, axis=0)
    fp = np.count_nonzero(~is_gold & is_pred, axis=0)
    fn = np.count_nonzero(is_gold & ~is_pred, axis=0)
    kept = (tp + fn > 0) | (fp > 0)  # so every kept class has 2tp + fp + fn > 0
    scores = 2 * tp[kept] / (2 * tp + fp + fn)[kept]
    return float(np.mean(scores)) if len(scores) else 0.0


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
        """Inverse of `to_dict` (None reads as NaN) for a complete matrix;
        ValueError unless `num_tasks` is a positive int and every field is
        numeric with the shape it gives, with each lower-triangle and
        cumulative cell a fraction in [0, 1]."""
        T = d["num_tasks"]
        if type(T) is not int or T < 1:
            raise ValueError(f"num_tasks {T!r} is not a positive integer")
        m = cls(T, *(np.array(d[k], dtype=np.float64) for k in
                     ("micro", "macro", "cumulative_micro", "cumulative_macro")))
        if not (m.micro.shape == m.macro.shape == (T, T)
                and m.cumulative_micro.shape == m.cumulative_macro.shape == (T,)):
            raise ValueError(f"metric matrix fields do not fit num_tasks = {T}")
        low = np.tril_indices(T)
        cells = np.concatenate([m.micro[low], m.macro[low], m.cumulative_micro,
                                m.cumulative_macro])
        if not (np.isfinite(cells).all() and cells.min() >= 0.0 and cells.max() <= 1.0):
            raise ValueError("a metric matrix cell is missing or outside [0, 1]")
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


def format_cell(mean: float, std: float) -> str:
    """Render a fraction pair the way the report tables print it, e.g.
    (0.512, 0.006) -> '51.2±0.6'."""
    return f"{mean * 100:.1f}±{std * 100:.1f}"


def final_row_cells(matrices: list[MetricMatrix]) -> dict[str, str]:
    """The report-table row of a set of runs: mean±std (population std)
    over runs of each task's micro-F1 after the last task, then of the
    final cumulative micro-F1, keyed task_1 .. task_T, cumulative_micro."""
    if len(matrices) < 2:
        raise ValueError("aggregation needs at least 2 runs")
    shapes = {m.micro.shape for m in matrices}
    if len(shapes) > 1:
        raise ValueError(f"matrix shape mismatch: {sorted(shapes)}")
    finals = np.stack([np.append(m.micro[-1], m.cumulative_micro[-1]) for m in matrices])
    keys = [f"task_{i + 1}" for i in range(matrices[0].num_tasks)] + ["cumulative_micro"]
    return {key: format_cell(float(mean), float(std))
            for key, mean, std in zip(keys, finals.mean(axis=0), finals.std(axis=0))}
