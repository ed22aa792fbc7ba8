"""Tests of the benchmark's own bookkeeping: percentiles, failures, spans."""

from __future__ import annotations

import threading

import pytest

from perfbench.spans import Span, SpanRecorder, self_times, unattributed, union_length
from perfbench.stats import DeterminismGuard, Outcome, Rep, rate_wall, tail_percentile
from repro.analysis.latency import percentile


class TestTailPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        tail = tail_percentile(range(1, 1001))
        assert (tail.level, tail.samples, tail.beyond) == (99.0, 1000, 10)
        assert tail.value == pytest.approx(990.01)

    def test_falls_back_when_p99_has_too_few_samples_beyond(self):
        # 999 samples: p99 sits at rank 990 with 9 beyond, p98 at 980 with 19.
        tail = tail_percentile(range(1, 1000))
        assert (tail.level, tail.beyond) == (98.0, 19)
        assert tail.value == pytest.approx(979.04)

    def test_small_sample_falls_to_the_median(self):
        tail = tail_percentile(range(20))
        assert (tail.level, tail.value, tail.beyond) == (50.0, 9.5, 10)
        assert tail.describe() == "p50 of 20 samples (10 beyond)"

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            tail_percentile(range(19))

    def test_order_of_input_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 40
        assert tail_percentile(values) == tail_percentile(sorted(values))

    def test_value_is_the_serving_report_percentile(self):
        values = [float(v * v % 97) for v in range(2000)]
        assert tail_percentile(values).value == percentile(values, 99.0)


class TestOutcome:
    def test_uncompleted_jobs_and_failed_checks_both_count(self):
        outcome = Outcome()
        outcome.attempt(100, 97)
        outcome.attempt(100, 100)
        outcome.check(False, "job x: output differs")
        outcome.check(True, "never recorded")
        assert (outcome.attempted, outcome.failed) == (200, 4)
        assert outcome.failed_share == pytest.approx(4 / 200)

    def test_clean_run_has_zero_share(self):
        outcome = Outcome()
        outcome.attempt(8, 8)
        assert outcome.failed_share == 0.0 and outcome.reasons == []

    def test_share_without_attempts_is_an_error(self):
        with pytest.raises(ValueError):
            Outcome().failed_share

    def test_more_completed_than_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            Outcome().attempt(1, 2)

    def test_determinism_mismatch_is_a_failure(self):
        outcome = Outcome()
        outcome.attempt(10, 10)
        guard = DeterminismGuard(outcome)
        guard.observe("rep 1", {"sim_makespan_cycles": 100, "hits": 5})
        guard.observe("rep 2", {"sim_makespan_cycles": 100, "hits": 5})
        assert outcome.failed == 0
        guard.observe("rep 3", {"sim_makespan_cycles": 101, "hits": 5})
        assert outcome.failed == 1
        assert "sim_makespan_cycles" in outcome.reasons[0]


class TestRateWall:
    def test_whole_repetitions_take_the_median_net_of_steal(self):
        # Without steal, one fast outlier moves the median no more than a slow one.
        reps = [Rep(wall, 1, 1, 1, {}) for wall in (3.0, 1.0, 3.2, 2.9, 9.0)]
        assert rate_wall(reps) == 3.0
        stolen = [
            Rep(wall, 1, 1, 1, {}, steal_s=steal)
            for wall, steal in ((3.0, 0.0), (4.0, 1.0), (5.0, 2.0))
        ]
        assert rate_wall(stolen) == 3.0

    def test_steal_is_credited_up_to_half_the_wall_time(self):
        reps = [Rep(2.0, 1, 1, 1, {}, steal_s=1.5)]
        assert rate_wall(reps) == 1.0

    def test_parts_sum_each_part_fastest_draw(self):
        # No single repetition is undisturbed, but every part once is.
        reps = [
            Rep(7.0, 2, 2, 1, {}, parts_s=(1.0, 6.0)),
            Rep(7.0, 2, 2, 1, {}, parts_s=(5.0, 2.0)),
        ]
        assert rate_wall(reps) == 3.0


def span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, None, 0)


class TestSpans:
    def test_union_merges_overlaps(self):
        assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert union_length([]) == 0

    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            span(1, "rep", 0.0, 10.0),
            span(2, "plan", 0.0, 4.0, parent=1),
            span(3, "price", 1.0, 2.0, parent=2),
            span(4, "price", 1.5, 3.0, parent=2),
        ]
        times = self_times(spans)
        assert times["plan"] == pytest.approx(2.0)
        assert times["price"] == pytest.approx(2.5)
        assert times["rep"] == pytest.approx(6.0)
        assert unattributed(spans[0], spans) == pytest.approx(6.0)
        assert unattributed(spans[0], spans, extra=[(8.0, 12.0)]) == pytest.approx(4.0)

    def test_pool_thread_spans_parent_to_the_root(self):
        recorder = SpanRecorder()
        with recorder.root_span("rep") as root:
            with recorder.span("plan", job_id="j0") as plan:
                worker = threading.Thread(target=lambda: recorder.wrap(len, "batch")([1]))
                worker.start()
                worker.join(timeout=5)
            assert not worker.is_alive()
        spans = {record.name: record for record in recorder.take()}
        assert spans["plan"].parent == root and spans["plan"].job_id == "j0"
        assert spans["batch"].parent == root
        assert spans["rep"].parent is None and recorder.take() == []
        assert plan != root
