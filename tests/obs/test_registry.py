"""Unit tests for the metrics registry: counters, gauges, histograms."""

import math

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    null_registry,
    set_registry,
    use_registry,
)


class TestCounters:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a")
        assert registry.counter_value("a") == 2.0

    def test_inc_custom_value(self):
        registry = MetricsRegistry()
        registry.inc("a", 5)
        registry.inc("a", 2.5)
        assert registry.counter_value("a") == 7.5

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never") == 0.0

    def test_snapshot_counter_default(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot.counter("never") == 0.0
        assert snapshot.counter("never", default=-1.0) == -1.0


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1)
        registry.set_gauge("g", 9.5)
        assert registry.snapshot().gauge("g") == 9.5

    def test_value_coerced_to_float(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 3)
        assert isinstance(registry.snapshot().gauge("g"), float)


class TestHistogram:
    def test_bucket_assignment_and_aggregates(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 3.0, 5.0):
            registry.observe("h", value, buckets=(1.0, 2.0, 4.0))
        h = registry.snapshot().histogram("h")
        assert h.counts == (1, 1, 1, 1)  # one per bucket incl. overflow
        assert h.count == 4
        assert h.sum == 10.0
        assert h.max == 5.0
        assert h.min == 0.5

    def test_buckets_fixed_on_first_touch(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.1, buckets=(1.0, 2.0))
        registry.observe("h", 0.2, buckets=(99.0,))  # ignored
        assert registry.snapshot().histogram("h").buckets == (1.0, 2.0)

    def test_default_buckets(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.001)
        h = registry.snapshot().histogram("h")
        assert h.buckets == DEFAULT_LATENCY_BUCKETS

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_quantiles_interpolate_within_bucket(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 3.0, 5.0):
            registry.observe("h", value, buckets=(1.0, 2.0, 4.0))
        h = registry.snapshot().histogram("h")
        assert h.p50 == pytest.approx(2.0)
        # Ranks landing in the overflow bucket report the exact max.
        assert h.quantile(1.0) == 5.0
        # The low end is clamped to the exact observed minimum.
        assert h.quantile(0.0) == 0.5

    def test_quantile_never_exceeds_observed_extremes(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.3, buckets=(1.0,))
        h = registry.snapshot().histogram("h")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert 0.3 <= h.quantile(q) <= 0.3

    def test_quantile_out_of_range_rejected(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        with pytest.raises(ValueError):
            registry.snapshot().histogram("h").quantile(1.5)

    def test_empty_histogram_statistics(self):
        h = HistogramSnapshot(
            buckets=(1.0,), counts=(0, 0), count=0, sum=0.0, max=0.0, min=0.0
        )
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.mean)
        d = h.as_dict()
        assert d["p50"] is None and d["mean"] is None and d["max"] is None

    def test_as_dict_round_numbers(self):
        registry = MetricsRegistry()
        registry.observe("h", 2.0, buckets=(1.0, 4.0))
        d = registry.snapshot().histogram("h").as_dict()
        assert d["buckets"] == [1.0, 4.0]
        assert d["counts"] == [0, 1, 0]
        assert d["count"] == 1
        assert d["sum"] == 2.0
        assert d["p50"] == d["p90"] == d["p99"] == 2.0

    def test_timer_observes_wall_time(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        h = registry.snapshot().histogram("t")
        assert h.count == 1
        assert h.sum >= 0.0


class TestDelta:
    def test_counter_and_histogram_delta(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.observe("h", 1.0, buckets=(2.0,))
        before = registry.snapshot()
        registry.inc("c", 2)
        registry.observe("h", 5.0)
        delta = registry.snapshot().delta(before)
        assert delta.counter("c") == 2.0
        h = delta.histogram("h")
        assert h.count == 1
        assert h.counts == (0, 1)
        assert h.sum == 5.0

    def test_new_metrics_taken_whole(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.inc("fresh", 7)
        registry.observe("hist", 1.0)
        delta = registry.snapshot().delta(before)
        assert delta.counter("fresh") == 7.0
        assert delta.histogram("hist").count == 1

    def test_mismatched_buckets_rejected(self):
        a = Histogram((1.0,)).snapshot()
        b = Histogram((2.0,)).snapshot()
        with pytest.raises(ValueError):
            a.delta(b)

    def test_snapshot_is_isolated_from_later_mutation(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 1.0)
        snapshot = registry.snapshot()
        registry.inc("c")
        registry.observe("h", 2.0)
        assert snapshot.counter("c") == 1.0
        assert snapshot.histogram("h").count == 1

    def test_snapshot_survives_histogram_created_mid_walk(self):
        # The daemon snapshots on its worker thread while the event loop
        # may create a histogram on first use; a histogram's snapshot()
        # is Python code, so the insert can land mid-walk. Model that
        # deterministically: one histogram's snapshot() creates another.
        registry = MetricsRegistry()
        registry.observe("before", 1.0)

        class Inserting(Histogram):
            __slots__ = ()

            def snapshot(self):
                registry.observe("created.mid.walk", 2.0)
                return super().snapshot()

        registry._histograms["inserting"] = Inserting(DEFAULT_LATENCY_BUCKETS)
        snapshot = registry.snapshot()
        assert set(snapshot.histograms) == {"before", "inserting"}
        assert "created.mid.walk" in registry.snapshot().histograms


class TestRegistryLifecycle:
    def test_clear_and_len(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 1.0)
        registry.observe("c", 1.0)
        assert len(registry) == 3
        registry.clear()
        assert len(registry) == 0
        assert registry.snapshot().as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_use_registry_scopes_the_default(self):
        scoped = MetricsRegistry()
        outer = get_registry()
        with use_registry(scoped) as active:
            assert active is scoped
            assert get_registry() is scoped
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        replacement = MetricsRegistry()
        previous = set_registry(replacement)
        try:
            assert get_registry() is replacement
        finally:
            set_registry(previous)


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullRegistry()
        registry.inc("a", 10)
        registry.set_gauge("b", 1.0)
        registry.observe("c", 1.0)
        with registry.timer("d"):
            pass
        assert len(registry) == 0
        assert registry.snapshot().as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_disabled_flag(self):
        assert MetricsRegistry().enabled is True
        assert NullRegistry().enabled is False

    def test_shared_instance(self):
        assert null_registry() is null_registry()
        assert isinstance(null_registry(), NullRegistry)
