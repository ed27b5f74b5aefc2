"""Unit tests for the JSON / Prometheus / table exporters."""

import json

import pytest

from repro.obs.export import (
    SCHEMA,
    prometheus_name,
    render_prometheus,
    render_table,
    snapshot_to_json,
    validate_metrics_json,
    write_metrics_files,
)
from repro.obs.registry import MetricsRegistry


@pytest.fixture()
def snapshot():
    registry = MetricsRegistry()
    registry.inc("search.requests", 3)
    registry.set_gauge("cache.tier.entries.hit_ratio", 0.75)
    for value in (0.0002, 0.0007, 0.004):
        registry.observe("search.latency_seconds", value,
                         buckets=(0.0005, 0.001, 0.005))
    return registry.snapshot()


class TestJsonSchema:
    def test_round_trip_validates(self, snapshot):
        payload = snapshot_to_json(snapshot)
        assert payload["schema"] == SCHEMA
        validate_metrics_json(payload)
        # Survives an actual serialize/parse cycle.
        validate_metrics_json(json.loads(json.dumps(payload)))

    def test_histogram_payload_contents(self, snapshot):
        payload = snapshot_to_json(snapshot)
        h = payload["histograms"]["search.latency_seconds"]
        assert h["count"] == 3
        assert sum(h["counts"]) == 3
        assert h["p50"] is not None and h["p99"] is not None

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            validate_metrics_json([1, 2])

    def test_wrong_schema_rejected(self, snapshot):
        payload = snapshot_to_json(snapshot)
        payload["schema"] = "repro.metrics/v0"
        with pytest.raises(ValueError, match="schema"):
            validate_metrics_json(payload)

    @pytest.mark.parametrize("section", ["counters", "gauges", "histograms"])
    def test_missing_section_rejected(self, snapshot, section):
        payload = snapshot_to_json(snapshot)
        del payload[section]
        with pytest.raises(ValueError, match=section):
            validate_metrics_json(payload)

    @pytest.mark.parametrize("bad", ["3", None, True])
    def test_non_numeric_counter_rejected(self, snapshot, bad):
        payload = snapshot_to_json(snapshot)
        payload["counters"]["search.requests"] = bad
        with pytest.raises(ValueError, match="not a number"):
            validate_metrics_json(payload)

    def test_histogram_missing_field_rejected(self, snapshot):
        payload = snapshot_to_json(snapshot)
        del payload["histograms"]["search.latency_seconds"]["p90"]
        with pytest.raises(ValueError, match="missing 'p90'"):
            validate_metrics_json(payload)

    def test_unsorted_buckets_rejected(self, snapshot):
        payload = snapshot_to_json(snapshot)
        payload["histograms"]["search.latency_seconds"]["buckets"] = [2.0, 1.0, 3.0]
        with pytest.raises(ValueError, match="not sorted"):
            validate_metrics_json(payload)

    def test_counts_length_mismatch_rejected(self, snapshot):
        payload = snapshot_to_json(snapshot)
        payload["histograms"]["search.latency_seconds"]["counts"] = [1, 2]
        with pytest.raises(ValueError, match="expected buckets"):
            validate_metrics_json(payload)

    def test_count_total_mismatch_rejected(self, snapshot):
        payload = snapshot_to_json(snapshot)
        payload["histograms"]["search.latency_seconds"]["count"] = 99
        with pytest.raises(ValueError, match="counts sum"):
            validate_metrics_json(payload)

    def test_nonempty_histogram_without_percentiles_rejected(self, snapshot):
        payload = snapshot_to_json(snapshot)
        payload["histograms"]["search.latency_seconds"]["p50"] = None
        with pytest.raises(ValueError, match="no percentiles"):
            validate_metrics_json(payload)


class TestPrometheusNames:
    @pytest.mark.parametrize("dotted, expected", [
        ("search.latency_seconds", "repro_search_latency_seconds"),
        ("cache.tier.entries.hit-ratio",
         "repro_cache_tier_entries_hit_ratio"),
        ("phase.summarize.rcl.no_overlap.seconds",
         "repro_phase_summarize_rcl_no_overlap_seconds"),
        (".edge.case.", "repro_edge_case"),
    ])
    def test_sanitization(self, dotted, expected):
        assert prometheus_name(dotted) == expected


class TestPrometheusRendering:
    def test_type_lines_and_series(self, snapshot):
        text = render_prometheus(snapshot)
        assert "# TYPE repro_search_requests counter" in text
        assert "repro_search_requests 3" in text
        assert ("# TYPE repro_cache_tier_entries_hit_ratio gauge"
                in text)
        assert "repro_cache_tier_entries_hit_ratio 0.75" in text
        assert "# TYPE repro_search_latency_seconds histogram" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self, snapshot):
        lines = render_prometheus(snapshot).splitlines()
        buckets = [l for l in lines
                   if l.startswith("repro_search_latency_seconds_bucket")]
        # Observations 0.0002, 0.0007, 0.004 against (0.0005, 0.001, 0.005).
        assert buckets == [
            'repro_search_latency_seconds_bucket{le="0.0005"} 1',
            'repro_search_latency_seconds_bucket{le="0.001"} 2',
            'repro_search_latency_seconds_bucket{le="0.005"} 3',
            'repro_search_latency_seconds_bucket{le="+Inf"} 3',
        ]
        assert "repro_search_latency_seconds_count 3" in lines
        assert any(l.startswith("repro_search_latency_seconds_sum ")
                   for l in lines)

    def test_integral_floats_render_without_trailing_zero(self):
        registry = MetricsRegistry()
        registry.inc("c", 5)
        registry.observe("h", 1.0, buckets=(2.0,))
        text = render_prometheus(registry.snapshot())
        assert "repro_c 5\n" in text
        assert 'repro_h_bucket{le="2"} 1' in text


class TestTableRendering:
    def test_scalar_and_histogram_tables(self, snapshot):
        tables = render_table(snapshot, title="Check")
        assert len(tables) == 2
        rendered = "\n".join(str(t) for t in tables)
        assert "search.requests" in rendered
        assert "search.latency_seconds" in rendered

    def test_no_histogram_table_when_empty(self):
        registry = MetricsRegistry()
        registry.inc("only.counter")
        assert len(render_table(registry.snapshot())) == 1


class TestWriteMetricsFiles:
    def test_writes_json_and_prom_sibling(self, snapshot, tmp_path):
        json_path = tmp_path / "metrics.json"
        prom_path = write_metrics_files(snapshot, json_path)
        assert prom_path == tmp_path / "metrics.prom"
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        validate_metrics_json(payload)
        assert "# TYPE repro_search_requests counter" in prom_path.read_text(
            encoding="utf-8"
        )

    def test_explicit_prom_destination(self, snapshot, tmp_path):
        prom_path = write_metrics_files(
            snapshot, tmp_path / "m.json", prom_path=tmp_path / "custom.txt"
        )
        assert prom_path == tmp_path / "custom.txt"
        assert prom_path.exists()
