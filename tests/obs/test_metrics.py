"""Metrics layer: counters/gauges/histograms, exposition, registry."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    TRAINING_FAMILIES,
    default_registry,
    exponential_buckets,
    observe_event,
    parse_exposition,
)

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")

finite_seconds = st.floats(
    min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False
)


def fresh_registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


def bucket_counts(histogram) -> list:
    """Per-bucket (non-cumulative) counts of an unlabelled histogram,
    overflow bucket last, read back from its exposition samples."""
    cumulative = [value for name, _, value in histogram.samples() if name.endswith("_bucket")]
    return [int(high - low) for low, high in zip([0.0] + cumulative, cumulative)]


class TestCounterAndGauge:
    def test_counter_accumulates_per_label_set(self):
        reg = fresh_registry()
        counter = reg.counter("c_total", "help text")
        counter.inc()
        counter.inc(2.0)
        counter.inc(result="hit")
        assert counter.value() == 3.0
        assert counter.value(result="hit") == 1.0
        assert counter.value(result="miss") == 0.0

    def test_counter_rejects_negative_increment(self):
        counter = fresh_registry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        gauge = fresh_registry().gauge("g")
        gauge.set(5.0, phase="a")
        gauge.inc(phase="a")
        gauge.inc(-2.0, phase="a")  # a gauge goes down by a negative inc
        assert gauge.value(phase="a") == 4.0

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("c_total")
        histogram = reg.histogram("h_seconds")
        counter.inc()
        histogram.observe(1.0)
        assert counter.value() == 0.0
        assert histogram.count() == 0
        reg.set_enabled(True)
        counter.inc()
        assert counter.value() == 1.0

    def test_invalid_names_rejected(self):
        reg = fresh_registry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        counter = reg.counter("ok_total")
        with pytest.raises(ValueError):
            counter.inc(**{"0bad": "x"})

    def test_kind_mismatch_raises(self):
        reg = fresh_registry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_get_or_create_is_idempotent(self):
        reg = fresh_registry()
        assert reg.counter("same") is reg.counter("same")

    def test_reset_clears_values_but_keeps_families(self):
        reg = fresh_registry()
        counter = reg.counter("c_total")
        counter.inc(5.0)
        reg.reset()
        assert counter.value() == 0.0
        assert reg.get("c_total") is counter


class TestHistogram:
    def test_bucket_bounds_validation(self):
        reg = fresh_registry()
        with pytest.raises(ValueError):
            reg.histogram("h1", buckets=[1.0, 1.0])
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=[1.0, math.inf])
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 3)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 3)

    def test_observe_le_semantics(self):
        histogram = fresh_registry().histogram("h", buckets=[1.0, 10.0])
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        # le=1 gets 0.5 and exactly 1.0; le=10 gets 5.0; +Inf gets 100.0
        assert bucket_counts(histogram) == [2, 1, 1]
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(106.5)

    def test_timer_context_manager(self):
        histogram = fresh_registry().histogram("h_seconds")
        with histogram.time(phase="x"):
            pass
        assert histogram.count(phase="x") == 1
        assert histogram.sum(phase="x") >= 0.0

    def test_quantile_empty_is_nan(self):
        histogram = fresh_registry().histogram("h")
        assert math.isnan(histogram.quantile(0.5))
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    @given(st.lists(finite_seconds, min_size=1, max_size=50))
    def test_bucketing_conserves_count_and_sum(self, values):
        histogram = fresh_registry().histogram("h")
        for value in values:
            histogram.observe(value)
        counts = bucket_counts(histogram)
        assert sum(counts) == histogram.count() == len(values)
        assert histogram.sum() == pytest.approx(sum(values))
        assert len(counts) == len(DEFAULT_BUCKETS) + 1

    @given(
        st.lists(finite_seconds, min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_stays_inside_observed_range(self, values, q):
        histogram = fresh_registry().histogram("h")
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        assert min(values) <= estimate <= max(values)

    @given(finite_seconds)
    def test_quantile_of_single_observation_is_exact(self, value):
        histogram = fresh_registry().histogram("h")
        histogram.observe(value)
        for q in (0.0, 0.5, 1.0):
            assert histogram.quantile(q) == pytest.approx(value)


label_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=12
)


class TestExposition:
    @given(
        st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            label_values,
            max_size=3,
        ),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    )
    def test_counter_gauge_round_trip(self, labels, value):
        reg = fresh_registry()
        reg.counter("events_total").inc(abs(value), **labels)
        reg.gauge("level").set(value, **labels)
        parsed = parse_exposition(reg.expose_text())
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        assert parsed[("events_total", key)] == pytest.approx(abs(value))
        assert parsed[("level", key)] == pytest.approx(value)

    @given(st.lists(finite_seconds, min_size=1, max_size=30))
    def test_histogram_exposition_round_trip(self, values):
        reg = fresh_registry()
        histogram = reg.histogram("h_seconds", "latency", buckets=[0.01, 1.0, 100.0])
        for value in values:
            histogram.observe(value, phase="p")
        parsed = parse_exposition(reg.expose_text())
        key = (("phase", "p"),)
        assert parsed[("h_seconds_count", key)] == len(values)
        assert parsed[("h_seconds_sum", key)] == pytest.approx(sum(values))
        # Cumulative bucket series is monotone and ends at the total count.
        series = [
            parsed[("h_seconds_bucket", tuple(sorted(key + (("le", le),))))]
            for le in ("0.01", "1", "100", "+Inf")
        ]
        assert series == sorted(series)
        assert series[-1] == len(values)

    def test_exposition_has_help_and_type_lines(self):
        reg = fresh_registry()
        reg.counter("c_total", "the help").inc()
        text = reg.expose_text()
        assert "# HELP c_total the help" in text
        assert "# TYPE c_total counter" in text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("!!! not exposition")


class TestRegistry:
    def test_snapshot_is_json_ready(self):
        reg = fresh_registry()
        reg.counter("c_total").inc(result="hit")
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        snapshot = json.loads(reg.snapshot_json())
        assert snapshot["c_total"]["series"] == [
            {"labels": {"result": "hit"}, "value": 1.0}
        ]
        series = snapshot["h"]["series"][0]
        assert series["counts"] == [1, 0]
        assert series["min"] == 0.5 and series["max"] == 0.5

    def test_training_families_derive_from_events(self):
        reg = fresh_registry()
        epoch = {"phase": "explainable", "epoch": 2, "loss": 0.5, "num_batches": 3,
                 "seconds": 0.25}
        observe_event("epoch", epoch, reg)
        observe_event("epoch", {**epoch, "epoch": 3, "loss": math.nan}, reg)
        observe_event("snapshot_event", {"phase": "explainable", "seconds": 0.1}, reg)
        observe_event("recovery_event", {"action": "rollback", "phase": "explainable"}, reg)
        observe_event("span", {"path": "explainable/epoch2"}, reg)  # feeds nothing
        assert reg.get("repro_train_epochs_total").value(phase="explainable") == 2
        assert reg.get("repro_train_batches_total").value(phase="explainable") == 6
        assert reg.get("repro_epoch_seconds").count(phase="explainable") == 2
        assert reg.get("repro_train_epoch").value(phase="explainable") == 4
        assert reg.get("repro_train_loss").value(phase="explainable") == 0.5  # NaN skipped
        assert reg.get("repro_snapshot_write_seconds").sum(phase="explainable") == 0.1
        recoveries = reg.get("repro_recovery_events_total")
        assert recoveries.value(action="rollback", phase="explainable") == 1
        assert sorted(reg.names()) == sorted(f.name for f in TRAINING_FAMILIES)

    def test_event_without_a_field_skips_its_rows(self):
        reg = fresh_registry()
        observe_event("epoch", {"phase": "predictive", "epoch": 0, "loss": 1.0}, reg)
        assert reg.get("repro_train_epochs_total").value(phase="predictive") == 1
        assert reg.get("repro_train_batches_total") is None
        assert reg.get("repro_epoch_seconds") is None

    def test_disabled_registry_ignores_events(self):
        reg = MetricsRegistry(enabled=False)
        observe_event("recovery_event", {"action": "abort", "phase": "predictive"}, reg)
        assert reg.names() == []

    def test_default_registry_exposes_training_families(self):
        names = set(default_registry().names())
        assert {f.name for f in TRAINING_FAMILIES} <= names

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


class TestTrainingIntegration:
    def test_cached_layout_reports_hits_and_misses(self):
        import numpy as np

        from repro.tensor.csr import cached_layout, clear_layout_cache

        registry = default_registry()
        counter = registry.counter("repro_csr_layout_cache_total")
        clear_layout_cache()
        before_miss = counter.value(result="miss")
        before_hit = counter.value(result="hit")
        ids = np.array([0, 0, 1, 2], dtype=np.int64)
        cached_layout(ids, 3)
        cached_layout(ids, 3)
        assert counter.value(result="miss") == before_miss + 1
        assert counter.value(result="hit") == before_hit + 1
