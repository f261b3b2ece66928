"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from benchlib import (
    fit_exponent,
    golden_mismatches,
    peak_rss_mb,
    report_digest,
    scaling_exponent,
    self_times,
    tail_percentile,
)


class TestTailPercentile:
    def test_leaves_exactly_ten_samples_beyond(self):
        samples = list(range(1, 101))
        pct, value, count = tail_percentile(samples)
        assert count == 100
        assert value == 90
        assert sum(s > value for s in samples) == 10
        assert pct == 90.0

    def test_thousand_samples_give_p99(self):
        pct, value, _ = tail_percentile(range(1000))
        assert pct == 99.0
        assert value == 989

    def test_order_does_not_matter(self):
        assert tail_percentile([5, 1, 4, 2, 3] * 3) == tail_percentile(
            sorted([5, 1, 4, 2, 3] * 3)
        )

    def test_needs_more_than_ten_samples(self):
        with pytest.raises(ValueError):
            tail_percentile(range(10))


class TestExponent:
    def test_recovers_a_power_law(self):
        xs = [128, 256, 512, 1024, 2048]
        ys = [3e-9 * x ** 1.9 for x in xs]
        assert fit_exponent(xs, ys) == pytest.approx(1.9)

    def test_scaling_exponent_uses_medians(self):
        # One outlier per size must not move the fit.
        samples = {m: [m ** 2, m ** 2, 1e9] for m in (16, 32, 64)}
        assert scaling_exponent(samples) == pytest.approx(2.0)

    def test_rejects_a_single_size(self):
        with pytest.raises(ValueError):
            fit_exponent([4, 4], [1.0, 2.0])


def _usage(self_kib, children_kib):
    def usage(who):
        import resource

        kib = self_kib if who == resource.RUSAGE_SELF else children_kib
        return SimpleNamespace(ru_maxrss=kib)

    return usage


class TestPeakRss:
    def test_takes_the_larger_of_self_and_children(self):
        assert peak_rss_mb(_usage(2048, 1024)) == 2.0
        assert peak_rss_mb(_usage(1024, 3072)) == 3.0

    def test_reads_this_process(self):
        assert peak_rss_mb() > 1.0


class TestGoldens:
    def test_equal_lists_match(self):
        assert golden_mismatches(["a", "b"], ["a", "b"]) == []

    def test_reports_changed_positions(self):
        assert golden_mismatches(["a", "x", "c"], ["a", "b", "c"]) == [1]

    def test_length_difference_counts(self):
        assert golden_mismatches(["a"], ["a", "b", "c"]) == [1, 2]

    def test_digest_ignores_host_timings(self):
        doc = {"delivered": 7, "offered": 9, "elapsed": 0.5}
        same = dict(doc, elapsed=1.5, timings={"run": 0.1})
        assert report_digest(doc) == report_digest(same)
        assert report_digest(doc) != report_digest(dict(doc, delivered=8))


def _span(pid, sid, parent, dur, name="x"):
    return {
        "ev": "span", "pid": pid, "id": sid, "parent": parent,
        "dur": dur, "name": name,
    }


class TestSelfTimes:
    def test_subtracts_direct_children_only(self):
        events = [
            _span(1, 3, 2, 1.0),   # grandchild
            _span(1, 2, 1, 4.0),   # child
            _span(1, 4, 1, 2.0),   # child
            _span(1, 1, None, 10.0),
        ]
        own = self_times(events)
        assert own[(1, 1)] == pytest.approx(4.0)
        assert own[(1, 2)] == pytest.approx(3.0)
        assert own[(1, 3)] == pytest.approx(1.0)
        assert math.fsum(own.values()) == pytest.approx(10.0)

    def test_processes_do_not_mix(self):
        events = [_span(1, 1, None, 5.0), _span(2, 2, 1, 3.0)]
        own = self_times(events)
        assert own[(1, 1)] == 5.0
        assert own[(2, 2)] == 3.0

    def test_ignores_non_span_events(self):
        events = [{"ev": "metrics", "pid": 1}, _span(1, 1, None, 2.0)]
        assert self_times(events) == {(1, 1): 2.0}
