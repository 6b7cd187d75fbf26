"""The verdict of ``tools/bench_gate.py`` on synthetic result lines.

The gate itself runs ``perfbench/run.py`` in two checkouts; tier-1
checks only how it judges the result lines those runs print.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = [
    {"name": "op_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "ops_per_ref", "unit": "1/ref", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate_under_test", os.path.join(REPO, "tools", "bench_gate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(correct=True, attempted=100, failed=0, **metrics) -> dict:
    """One ``perfbench/run.py`` result line."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "ref"}
                        for name, value in metrics.items()}}


def runs(*values, name="op_ref", **other) -> list[dict]:
    return [line(**{name: value}, **other) for value in values]


def judge(gate, base, head):
    return gate.verdict(END_TO_END, {"emu-1core": base}, {"emu-1core": head})


@pytest.mark.parametrize("head,passes", [
    ((1.2, 1.24, 1.1), True),     # median 1.2: 20 % slower, inside 25 %
    ((1.3, 1.26, 1.4), False),    # median 1.3: 30 % slower
    ((0.5, 0.6, 0.4), True),      # faster always passes
])
def test_lower_better_metric(gate, head, passes):
    failures, report = judge(gate, runs(1.0, 1.0, 1.0), runs(*head))
    assert (failures == []) is passes
    if not passes:
        assert len(failures) == 1
        assert "emu-1core" in failures[0] and "op_ref" in failures[0]
    assert any("op_ref" in row for row in report)


@pytest.mark.parametrize("head,passes", [
    ((0.8, 0.85, 0.9), True),     # median 0.85: 15 % fewer ops
    ((0.7, 0.6, 0.74), False),    # median 0.7: 30 % fewer ops
    ((2.0, 2.0, 2.0), True),
])
def test_higher_better_metric(gate, head, passes):
    base = runs(1.0, 1.0, 1.0, name="ops_per_ref")
    failures, _ = judge(gate, base, runs(*head, name="ops_per_ref"))
    assert (failures == []) is passes
    if not passes:
        assert "ops_per_ref" in failures[0] and "emu-1core" in failures[0]


def test_median_outvotes_one_slow_run(gate):
    failures, _ = judge(gate, runs(1.0, 1.0, 1.0), runs(1.0, 9.0, 1.0))
    assert failures == []


def test_incorrect_head_run_fails(gate):
    head = runs(1.0, 1.0) + [line(correct=False, op_ref=1.0)]
    failures, _ = judge(gate, runs(1.0, 1.0, 1.0), head)
    assert failures and "correct is false" in failures[0]


def test_crashed_head_run_fails(gate):
    crashed = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
               "error": "exit 1: Traceback"}
    failures, _ = judge(gate, runs(1.0, 1.0), runs(1.0, 1.0) + [crashed])
    assert any("exit 1" in f for f in failures)


def test_more_failed_ops_than_base_fails(gate):
    base = runs(1.0, 1.0, correct=False, failed=1)
    head = runs(1.0, 1.0, correct=False, failed=3)
    failures, _ = judge(gate, base, head)
    assert any("failed ops" in f for f in failures)


def test_failed_share_not_count_is_compared(gate):
    # Twice the ops attempted, twice the failures: the same share.
    base = runs(1.0, 1.0, attempted=100, failed=0)
    head = runs(1.0, 1.0, attempted=200, failed=0)
    assert judge(gate, base, head)[0] == []


def test_null_metric(gate):
    # No value on either side (no op of that class ran): skipped.
    failures, report = judge(gate, runs(None, None), runs(None, None))
    assert failures == [] and not any("op_ref" in row for row in report)
    # A value at the base and none at the head: the metric vanished.
    failures, _ = judge(gate, runs(1.0, 1.0), runs(None, None))
    assert failures and "no value at head" in failures[0]
    # Nulls among values: the median is over the values.
    failures, _ = judge(gate, runs(1.0, 1.0), runs(1.1, None))
    assert failures == []


def test_head_only_metric_is_new(gate):
    base = runs(None, None)
    failures, report = judge(gate, base, runs(5.0, 5.0))
    assert failures == []
    assert "emu-1core op_ref: new, not gated" in report


def test_head_only_workload_is_new(gate):
    failures, report = gate.verdict(
        END_TO_END, {}, {"baseline-sim": runs(1.0, 1.0)})
    assert failures == []
    assert report == ["baseline-sim: new, not gated"]
    # ...but its correctness is still gated.
    failures, _ = gate.verdict(
        END_TO_END, {}, {"baseline-sim": [line(correct=False)]})
    assert failures
