"""Tests for the metrics registry."""

import pytest

from repro.common.metrics import MetricsRegistry


class TestPhases:
    def test_charges_attribute_to_current_phase(self):
        m = MetricsRegistry()
        m.push_phase("rule_generation")
        m.charge(2.0)
        m.pop_phase()
        m.charge(1.0)
        assert m.phase("rule_generation") == pytest.approx(2.0)
        assert m.phase("unattributed") == pytest.approx(1.0)
        assert m.simulated_seconds == pytest.approx(3.0)

    def test_nested_phases_attribute_to_innermost(self):
        m = MetricsRegistry()
        m.push_phase("outer")
        m.push_phase("inner")
        m.charge(1.0)
        m.pop_phase()
        m.charge(1.0)
        m.pop_phase()
        assert m.phase("inner") == pytest.approx(1.0)
        assert m.phase("outer") == pytest.approx(1.0)

    def test_unknown_phase_reads_zero(self):
        assert MetricsRegistry().phase("nope") == 0.0


class TestCounters:
    def test_increment_accumulates(self):
        m = MetricsRegistry()
        m.increment("tasks")
        m.increment("tasks", 4)
        assert m.counter("tasks") == 5

    def test_missing_counter_is_zero(self):
        assert MetricsRegistry().counter("nothing") == 0


class TestSnapshotAndMerge:
    def test_snapshot_is_detached(self):
        m = MetricsRegistry()
        m.charge(1.0)
        snap = m.snapshot()
        m.charge(1.0)
        assert snap["simulated_seconds"] == pytest.approx(1.0)
        assert m.simulated_seconds == pytest.approx(2.0)

    def test_merge_folds_totals(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.push_phase("x")
        a.charge(1.0)
        b.push_phase("x")
        b.charge(2.0)
        b.increment("tasks", 3)
        a.merge(b)
        assert a.phase("x") == pytest.approx(3.0)
        assert a.counter("tasks") == 3


class TestMemoryTimeline:
    def test_timeline_records_time_and_bytes(self):
        m = MetricsRegistry()
        m.charge(5.0)
        m.record_memory(1024)
        assert m.memory_timeline == [(5.0, 1024)]
