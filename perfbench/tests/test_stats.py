"""Percentiles, the ten-beyond rule, and span self time."""

import pytest

from pbench.stats import (
    Span,
    latency_summary,
    percentile,
    samples_beyond,
    self_time_by_name,
    self_times,
    tail_percentile,
)


def test_percentile_interpolates():
    assert percentile([3, 1, 2], 0.5) == 2
    assert percentile([1, 2, 3, 4], 0.5) == 2.5
    assert percentile(list(range(101)), 0.9) == pytest.approx(90.0)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("n, beyond", [(100, 10), (99, 9), (110, 11),
                                       (10, 1), (0, 0)])
def test_samples_beyond_p90(n, beyond):
    assert samples_beyond(n, 0.9) == beyond


def test_p90_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 0.9) is None
    assert tail_percentile(list(range(100)), 0.9) == pytest.approx(89.1)


def test_latency_summary_reports_counts_in_ms():
    summary = latency_summary([0.001] * 50 + [0.002] * 49)
    assert summary["n"] == 99
    assert summary["beyond_p90"] == 9
    assert summary["p90_ms"] is None
    assert summary["p50_ms"] == pytest.approx(1.0)
    summary = latency_summary([0.001] * 100)
    assert summary["p90_ms"] == pytest.approx(1.0)


def test_self_time_subtracts_nested_children():
    spans = [Span(0, "engine", 0.0, 10.0),
             Span(1, "smc", 2.0, 6.0, parent=0),
             Span(2, "device", 3.0, 4.0, parent=1)]
    own = self_times(spans)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(3.0),
                   2: pytest.approx(1.0)}
    # Self times partition the root's wall time.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_with_siblings():
    spans = [Span(0, "engine", 0.0, 10.0),
             Span(1, "smc", 1.0, 3.0, parent=0),
             Span(2, "smc", 4.0, 5.0, parent=0),
             Span(3, "cache", 7.0, 9.5, parent=0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 1.0 - 2.5)
    totals = self_time_by_name(spans)
    assert totals["smc"] == (pytest.approx(3.0), 2)
    assert totals["cache"] == (pytest.approx(2.5), 1)


def test_overlapping_siblings_are_not_subtracted_twice():
    spans = [Span(0, "server", 0.0, 10.0),
             Span(1, "store", 1.0, 5.0, parent=0),
             Span(2, "store", 4.0, 12.0, parent=0)]   # overlaps and overruns
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_children_of_unknown_parents_are_roots():
    spans = [Span(5, "a", 0.0, 2.0, parent=99)]
    assert self_times(spans) == {5: pytest.approx(2.0)}
