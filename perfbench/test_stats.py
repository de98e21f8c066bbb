"""Tests for the benchmark's own arithmetic and its declared metric set.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import request_plan, snapshot_name  # noqa: E402
from spec import END_TO_END, ENDPOINT_MIX, PER_LAYER, WORKLOADS  # noqa: E402
from stats import (  # noqa: E402
    Ratio,
    Tally,
    hit_ratio,
    iqr_spread,
    overhead_pct,
    percentile,
    percentile_supported,
    samples_beyond,
    windowed_rate,
    windows,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.5) == 50
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100
        assert percentile(list(reversed(samples)), 0.5) == 50

    def test_single_sample_and_tiny_q(self):
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([3.0, 1.0, 2.0], 0.001) == 1.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_samples_beyond_matches_the_sorted_tail(self):
        for count in (1, 99, 100, 999, 1000, 1001, 12345):
            ordered = list(range(count))
            p = percentile(ordered, 0.99)
            assert samples_beyond(count, 0.99) == sum(x > p for x in ordered)

    def test_ten_samples_beyond_rule(self):
        assert not percentile_supported(999, 0.99)
        assert percentile_supported(1000, 0.99)
        assert percentile_supported(20, 0.5)
        assert not percentile_supported(19, 0.5)
        assert not percentile_supported(0, 0.5)


class TestRatios:
    def test_ratio_keeps_its_base(self):
        ratio = hit_ratio(3, 1)
        assert ratio.value == 0.75
        assert ratio.base == 4

    def test_empty_base_is_not_a_rate(self):
        ratio = hit_ratio(0, 0)
        with pytest.raises(ZeroDivisionError):
            ratio.value
        assert ratio.value_or(0.0) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            hit_ratio(-1, 2)

    def test_overhead(self):
        assert overhead_pct(110.0, 100.0) == pytest.approx(10.0)
        assert overhead_pct(95.0, 100.0) == pytest.approx(-5.0)
        with pytest.raises(ValueError):
            overhead_pct(1.0, 0.0)

    def test_iqr_spread_uses_statistics_quantiles(self):
        values = [9.8, 10.1, 10.0, 10.4, 9.9, 10.2, 10.0, 9.7, 10.3, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert iqr_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
        with pytest.raises(ValueError):
            iqr_spread([1.0])

    def test_ratio_is_frozen(self):
        with pytest.raises(AttributeError):
            Ratio(1, 2).hits = 3


class TestWindows:
    def test_whole_windows_only(self):
        stamps = [0.1, 0.5, 1.2, 1.9, 2.5, 3.7]
        parts = windows(stamps, [1, 2, 3, 4, 5, 6], 1.0, span=3.2)
        assert parts == [[1, 2], [3, 4], [5]]
        assert windowed_rate(parts, 1.0) == 2.0


class TestTally:
    def test_failures_count_against_attempts(self):
        tally = Tally()
        tally.ok(5)
        tally.fail("status 503")
        tally.fail("status 503")
        tally.record(False, "dropped")
        tally.record(True, "unused")
        assert (tally.attempted, tally.failed) == (9, 3)
        assert tally.reasons == {"status 503": 2, "dropped": 1}

    def test_merge_and_round_trip(self):
        first, second = Tally(), Tally()
        first.ok(10)
        first.fail("reload timed out")
        second.ok(4)
        second.fail("reload timed out", 2)
        first.merge(second)
        assert (first.attempted, first.failed) == (17, 3)
        assert first.reasons == {"reload timed out": 3}
        assert Tally.from_dict(json.loads(json.dumps(first.to_dict()))) == first


class TestLoadInputs:
    def test_plan_is_a_function_of_the_seed(self):
        assert request_plan(3, 1000, 0, 500) == request_plan(3, 1000, 0, 500)
        assert request_plan(3, 1000, 0, 500) != request_plan(4, 1000, 0, 500)
        assert request_plan(3, 1000, 0, 500) != request_plan(3, 1000, 1, 500)

    def test_plan_mix_and_range(self):
        plan = request_plan(0, 50, 0, 60000)
        counts = {name: 0 for name, _ in ENDPOINT_MIX}
        for path in plan:
            _, endpoint, node = path.split("/")
            counts[endpoint] += 1
            assert 0 <= int(node) < 50
        total = sum(weight for _, weight in ENDPOINT_MIX)
        for name, weight in ENDPOINT_MIX:
            assert counts[name] / len(plan) == pytest.approx(weight / total, abs=0.01)

    def test_snapshot_name(self):
        body = json.dumps({"node": 1, "snapshot": "snap-serve-a.npz"}).encode()
        assert snapshot_name(body) == "snap-serve-a.npz"
        assert snapshot_name(b'{"node": 1}') is None


class TestDeclaredMetrics:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def load(self):
        return json.loads(BENCHMARK_JSON.read_text())

    def test_benchmark_json_matches_spec(self):
        bench = self.load()
        assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
        assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
        assert bench["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ]
        assert bench["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ]

    def test_contract_limits(self):
        bench = self.load()
        assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        assert len(names) == len(set(names))
        assert all(self.NAME.match(name) for name in names)
        assert all(self.UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
        assert 2 <= len(bench["workloads"]) <= 8
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        bounds = [m["bound"] for m in bench["end_to_end"]]
        assert all(0 < b <= 0.25 for b in bounds) and setup[0]["bound"] == max(bounds)
        assert 1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int)

    def test_every_layer_metric_names_what_it_moves(self):
        e2e = {m.name for m in END_TO_END}
        for metric in PER_LAYER:
            assert metric.moves and set(metric.moves.split()) <= e2e, metric.name
            assert metric.where == "all" or set(metric.where.split()) <= set(WORKLOADS)
            assert metric.better in ("higher", "lower")
