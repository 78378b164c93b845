"""Tests of the harness's own arithmetic (no program under test needed)."""

from __future__ import annotations

import statistics

import pytest

from perfbench import load_spec, stats
from perfbench.trace import Span


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, 0, 0)


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_p90_reportable_only_with_ten_samples_beyond():
    assert stats.samples_beyond(list(range(100)), 90) == 10
    assert stats.tail_reportable(list(range(100)), 90)
    assert not stats.tail_reportable(list(range(90)), 90)
    assert not stats.tail_reportable([], 90)
    # Ties at the cut do not count as beyond it.
    assert stats.samples_beyond([1.0] * 200, 90) == 0


def test_host_scale_normalizes_to_the_reference_host():
    # This host's kernel takes twice the reference time: it is half as
    # fast, so its timings are halved.
    scale = stats.host_scale(0.005, 0.010)
    assert scale == pytest.approx(0.5)
    assert 0.200 * scale == pytest.approx(0.100)
    with pytest.raises(ValueError):
        stats.host_scale(0.005, 0.0)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)


def test_covered_length_merges_and_clips_children():
    assert stats.covered_length((0.0, 10.0), []) == 0.0
    assert stats.covered_length((0.0, 10.0), [(1, 3), (2, 5)]) == 4.0
    assert stats.covered_length((0.0, 10.0), [(-2, 1), (9, 12)]) == 2.0
    assert stats.covered_length((0.0, 10.0), [(11, 12)]) == 0.0


def test_self_time_subtracts_children_only_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 6.0, 7.0, parent=1),
        # Another thread's span attached to the same parent overlaps 2.
        _span(5, 3.0, 5.0, parent=1),
    ]
    self_s = stats.self_times(spans)
    assert self_s[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s[2] == pytest.approx(2.0)
    assert self_s[3] == pytest.approx(1.0)
    assert self_s[4] == pytest.approx(1.0)
    assert self_s[5] == pytest.approx(2.0)
    # Self times of a single-threaded tree add up to the root duration.
    tree = stats.self_times(spans[:4])
    assert sum(tree.values()) == pytest.approx(10.0)


def test_spec_names_each_metric_once_with_setup_s_gated():
    spec = load_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    gated = {m["name"]: m for m in spec["end_to_end"]}
    assert gated["setup_s"]["unit"] == "s"
    assert gated["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in gated.values())
    assert 2 <= len(spec["workloads"]) <= 8
