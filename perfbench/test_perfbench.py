"""Tests of the benchmark's own helpers (pure; no program code runs)."""

import math

import pytest

import host
from measure import (Span, median, nearest_rank, open_loop, self_times,
                     speed_factors, tail)
from spans import Tracer, inclusive_totals


# ----------------------------------------------------------------------
# Nearest-rank percentiles and the >=10-beyond tail rule
# ----------------------------------------------------------------------
def test_nearest_rank_picks_observed_values():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.0) == 1.0
    assert nearest_rank(values, 50.0) == 3.0
    assert nearest_rank(values, 80.0) == 4.0
    assert nearest_rank(values, 81.0) == 5.0
    assert nearest_rank(values, 100.0) == 5.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101.0)


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    values = values[::7] + [v for v in values if v not in values[::7]]
    result = tail(values)
    assert result.value == 90.0
    assert result.samples == 100
    assert result.beyond == 10
    assert result.percentile == pytest.approx(90.0)
    # The reported percentile's nearest rank is the chosen sample.
    assert nearest_rank(values, result.percentile) == result.value
    # Any higher percentile would leave fewer than ten samples beyond.
    higher = math.nextafter(result.percentile, 101.0)
    assert sum(v > nearest_rank(values, higher) for v in values) < 10


@pytest.mark.parametrize("n", [11, 37, 200, 1001])
def test_tail_rule_holds_for_any_sample_size(n):
    values = [float(v) for v in range(n)]
    result = tail(values)
    assert sum(v > result.value for v in values) == 10
    assert result.percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    assert tail([float(v) for v in range(11)]).value == 0.0


# ----------------------------------------------------------------------
# Self time with nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, "ingest", 0.0, 10.0),
        Span(2, "stage", 1.0, 4.0, parent=1),
        Span(3, "query", 2.0, 3.0, parent=2),      # grandchild of 1
        Span(4, "stage", 5.0, 9.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        Span(1, "ingest", 0.0, 10.0),
        Span(2, "a", 1.0, 5.0, parent=1),
        Span(3, "b", 3.0, 7.0, parent=1),    # overlaps a (another thread)
        Span(4, "c", 9.0, 12.0, parent=1),   # runs past the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_per_thread_and_inherits_bin():
    tracer = Tracer()
    outer = tracer.open("session.ingest", bin=7)
    inner = tracer.open("pipeline.ExecutionStage")
    tracer.close(inner)
    tracer.close(outer)
    spans = {span.name: span for span in tracer.span_objects()}
    child = spans["pipeline.ExecutionStage"]
    assert child.parent == spans["session.ingest"].id
    assert child.bin == 7
    own = self_times(tracer.span_objects())
    assert own[spans["session.ingest"].id] == pytest.approx(
        spans["session.ingest"].duration - child.duration)


def test_tracer_wraps_and_restores_methods():
    class Base:
        def work(self, n):
            return n * 2

    class Leaf(Base):
        @classmethod
        def build(cls, n):
            return cls().work(n)

    tracer = Tracer()
    seen = []
    tracer.wrap(Leaf, "work", "leaf.work",
                lambda args, result, seconds: seen.append((args[1], result)))
    tracer.wrap(Leaf, "build", "leaf.build")
    assert Leaf.build(3) == 6
    assert seen == [(3, 6)]
    names = [span.name for span in tracer.span_objects()]
    assert names == ["leaf.work", "leaf.build"]
    work, build = tracer.span_objects()
    assert work.parent == build.id
    tracer.uninstall()
    assert "work" not in Leaf.__dict__
    assert isinstance(Leaf.__dict__["build"], classmethod)
    Leaf.build(1)
    assert len(tracer.spans) == 2


def test_inclusive_totals_skip_same_name_nesting():
    spans = [
        Span(1, "query.p2p", 0.0, 4.0),
        Span(2, "query.p2p", 1.0, 2.0, parent=1),
        Span(3, "features", 2.0, 3.0, parent=1),
    ]
    assert inclusive_totals(spans) == {"query.p2p": 4.0, "features": 1.0}


# ----------------------------------------------------------------------
# Open-loop due times and late bins
# ----------------------------------------------------------------------
def test_open_loop_measures_from_due_time():
    period = 0.025
    starts = [100.000, 100.030, 100.055]
    ends = [100.010, 100.052, 100.070]
    timing = open_loop(100.0, period, starts, ends)
    assert timing.latency == pytest.approx([0.010, 0.027, 0.020])
    assert timing.queue_wait == pytest.approx([0.0, 0.005, 0.005])
    # Bin 1 completes at 100.052, after bin 2 was due (100.050): late.
    assert timing.late == [False, True, False]


def test_open_loop_charges_a_stall_to_every_queued_bin():
    # Bin 0 stalls for 0.1 s; bins 1..3 fall due meanwhile and queue up
    # behind it; bin 4 is the first to finish before its successor is due.
    period = 0.025
    starts = [0.0, 0.100, 0.105, 0.110, 0.115]
    ends = [0.100, 0.105, 0.110, 0.115, 0.120]
    timing = open_loop(0.0, period, starts, ends)
    assert timing.latency == pytest.approx([0.100, 0.080, 0.060, 0.040,
                                            0.020])
    assert timing.queue_wait == pytest.approx([0.0, 0.075, 0.055, 0.035,
                                               0.015])
    assert timing.late == [True, True, True, True, False]


def test_open_loop_validates_input():
    with pytest.raises(ValueError):
        open_loop(0.0, 0.025, [0.0], [])
    with pytest.raises(ValueError):
        open_loop(0.0, 0.0, [0.0], [0.1])


# ----------------------------------------------------------------------
# Host speed normalisation
# ----------------------------------------------------------------------
def test_speed_factors_use_a_centred_rolling_median():
    units = [1.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0]
    # Window 3: centred medians, the window clipped inside at both ends.
    assert speed_factors(units, 2.0, window=3) == pytest.approx(
        [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5])
    # One unit a hiccup hit does not move its neighbours' factors.
    steady = [0.5] * 7 + [5.0] + [0.5] * 7
    assert speed_factors(steady, 0.5) == pytest.approx([1.0] * 15)
    # Fewer samples than the window: one median over all of them.
    assert speed_factors([1.0, 3.0], 1.0) == pytest.approx([1.0, 1.0])


def test_speed_factors_validate_input():
    with pytest.raises(ValueError):
        speed_factors([1.0], 1.0, window=0)
    with pytest.raises(ValueError):
        speed_factors([1.0], 0.0)
    assert speed_factors([], 1.0) == []


def test_reference_clock_scales_each_step_by_the_blocks_around_it(
        monkeypatch):
    blocks = iter([[host.REFERENCE_UNIT_S * 2] * 3,   # before step 1
                   [host.REFERENCE_UNIT_S * 2] * 3,   # after step 1
                   [host.REFERENCE_UNIT_S] * 3])      # after step 2
    monkeypatch.setattr(host, "calibrate", lambda units: next(blocks))
    ticks = iter([0.0, 1.0, 1.0, 2.0])
    monkeypatch.setattr(host, "perf_counter", lambda: next(ticks))
    clock = host.ReferenceClock(units=3)
    assert clock.step(lambda x: x + 1, 41) == 42
    # Host at half the reference speed: one wall second is half a
    # reference second.
    assert clock.reference == pytest.approx(0.5)
    clock.step(lambda: None)
    # Median of the six units on either side of step 2 (nearest rank of
    # the sorted block: the slower half wins the tie).
    assert clock.wall == pytest.approx(2.0)
    assert clock.reference == pytest.approx(1.0)


def test_calibration_unit_leaves_the_collector_as_it_found_it():
    import gc
    assert gc.isenabled()
    assert host.calibration_unit() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        host.calibration_unit()
        assert not gc.isenabled()
    finally:
        gc.enable()
