"""Metric oracles: F1 by hand, the tracking matrix, forgetting,
multi-seed aggregation, and the report cell format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leaf.metrics as metrics
from oracles import macro_f1_loop, micro_f1_loop


# ---------------------------------------------------------------- f1


def test_micro_f1_equals_accuracy_in_closed_set():
    gold = [0, 1, 2, 1, 0, 2]
    pred = [0, 1, 1, 1, 2, 2]
    acc = np.mean([g == p for g, p in zip(gold, pred)])
    assert abs(metrics.micro_f1(gold, pred, {0, 1, 2}) - acc) <= 1e-12


def test_micro_f1_hand_case():
    # 2 of 4 correct: micro precision = recall = 0.5 -> F1 = 0.5
    assert abs(metrics.micro_f1([0, 0, 1, 1], [0, 1, 0, 1], {0, 1}) - 0.5) <= 1e-12


def test_micro_f1_perfect_and_empty():
    assert metrics.micro_f1([1, 2], [1, 2], {1, 2}) == 1.0
    assert metrics.micro_f1([], [], {1}) == 0.0


def test_micro_f1_validates_inputs():
    with pytest.raises(ValueError):
        metrics.micro_f1([0], [0, 1], {0, 1})
    with pytest.raises(ValueError):
        metrics.micro_f1([5], [5], {0, 1})


def test_macro_f1_hand_case_one_third():
    # class 0: tp=1 fp=2 fn=0 -> F1 = 2/(2+2) = 0.5
    # class 1: tp=0 fp=0 fn=1 -> F1 = 0
    # class 2: tp=0 fp=0 fn=1 -> F1 = 0
    # macro = 0.5/3 ... construct instead the documented 1/3 case:
    # three classes, only one predicted perfectly, others fully wrong
    gold = [0, 1, 2]
    pred = [0, 2, 1]
    val = metrics.macro_f1(gold, pred, {0, 1, 2})
    assert abs(val - 1.0 / 3.0) <= 1e-12


def test_macro_f1_skips_absent_unpredicted_classes():
    # class 3 never appears in gold or pred: ignored, not counted as 0
    assert metrics.macro_f1([0, 1], [0, 1], {0, 1, 3}) == 1.0
    # but an absent class that IS predicted drags the mean down
    assert metrics.macro_f1([0, 0], [0, 3], {0, 3}) < 1.0


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=300)
@given(data=st.data())
def test_f1_equals_the_row_loops_exactly(data):
    """Counts by NumPy give the loops' floats bit for bit, and the same
    ValueError (length mismatch, gold label outside the set)."""
    n = data.draw(st.integers(0, 30), label="n")
    labels = st.integers(-1, 7)
    gold = data.draw(st.lists(labels, min_size=n, max_size=n), label="gold")
    pred = data.draw(st.lists(labels, min_size=n, max_size=n + data.draw(
        st.sampled_from([0, 0, 0, 1]))), label="pred")
    label_set = data.draw(st.sets(labels, max_size=9), label="label_set")
    if data.draw(st.booleans(), label="gold within set"):
        label_set |= set(gold)
    for fn, oracle in ((metrics.micro_f1, micro_f1_loop), (metrics.macro_f1, macro_f1_loop)):
        got, want = _outcome(fn, gold, pred, label_set), _outcome(oracle, gold, pred, label_set)
        assert got == want
        assert type(got[1]) is type(want[1])


# ---------------------------------------------------------------- matrix


def full_matrix(vals):
    """Build a complete lower-triangular MetricMatrix from a list of rows."""
    m = metrics.MetricMatrix(num_tasks=len(vals))
    for t, row in enumerate(vals):
        for i, v in enumerate(row):
            m.record(t, i, v, v)
        m.record_cumulative(t, float(np.mean(row)), float(np.mean(row)))
    return m


def test_matrix_rejects_upper_triangle():
    m = metrics.MetricMatrix(num_tasks=3)
    with pytest.raises(ValueError):
        m.record(0, 1, 0.5, 0.5)


def test_matrix_roundtrip_dict():
    m = full_matrix([[0.9], [0.8, 0.7]])
    m2 = metrics.MetricMatrix.from_dict(m.to_dict())
    np.testing.assert_allclose(m2.micro[np.tril_indices(2)], m.micro[np.tril_indices(2)])
    np.testing.assert_allclose(m2.cumulative_micro, m.cumulative_micro)


def test_forgetting_oracle():
    # task0 best 0.9 (rises to 0.95 at t=1), final 0.6 -> forgets 0.35
    # task1 best 0.8, final 0.8 -> forgets 0.0
    m = full_matrix([[0.9], [0.95, 0.8], [0.6, 0.8, 0.7]])
    per_task, mean = metrics.forgetting(m)
    np.testing.assert_allclose(per_task, [0.35, 0.0], atol=1e-12)
    assert abs(mean - 0.175) <= 1e-12


def test_forgetting_single_task_is_zero():
    per_task, mean = metrics.forgetting(full_matrix([[0.9]]))
    assert per_task == [] and mean == 0.0


def test_forgetting_requires_complete_matrix():
    m = metrics.MetricMatrix(num_tasks=2)
    m.record(0, 0, 0.9, 0.9)
    with pytest.raises(ValueError):
        metrics.forgetting(m)


# ---------------------------------------------------------------- aggregation


def test_final_row_cells_population_std_oracle():
    # last rows {0.2, 0.4} and {0.4, 0.8}, cumulative {0.3, 0.6}: population
    # std exactly half the spread; the first rows never enter the table
    a = full_matrix([[0.4], [0.2, 0.4]])
    b = full_matrix([[0.6], [0.4, 0.8]])
    assert metrics.final_row_cells([a, b]) == {
        "task_1": "30.0±10.0", "task_2": "60.0±20.0", "cumulative_micro": "45.0±15.0"}


def test_final_row_cells_identical_runs_zero_std():
    runs = [full_matrix([[0.7], [0.6, 0.5]]) for _ in range(5)]
    assert metrics.final_row_cells(runs) == {
        "task_1": "60.0±0.0", "task_2": "50.0±0.0", "cumulative_micro": "55.0±0.0"}


def test_final_row_cells_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        metrics.final_row_cells([full_matrix([[0.5]]), full_matrix([[0.5], [0.5, 0.5]])])


def test_final_row_cells_needs_two_runs():
    with pytest.raises(ValueError, match="at least 2 runs"):
        metrics.final_row_cells([full_matrix([[0.5]])])


def test_format_cell_table_style():
    assert metrics.format_cell(0.512, 0.006) == "51.2±0.6"
    assert metrics.format_cell(1.0, 0.0) == "100.0±0.0"
    assert metrics.format_cell(0.05549, 0.025) == "5.5±2.5"
