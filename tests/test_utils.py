"""Tests for the utils subpackage: timing, logging, seeding, validation."""

import time

import pytest

from repro.utils import (
    Stopwatch,
    check_positive,
    check_positive_int,
    check_probability,
    format_duration,
    format_table,
    get_logger,
    make_rng,
    timed,
)


class TestTiming:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.measure("a"):
            time.sleep(0.01)
        with watch.measure("a"):
            time.sleep(0.01)
        with watch.measure("b"):
            pass
        assert watch.durations["a"] >= 0.02
        assert watch.total() >= watch.durations["a"]
        assert "a:" in watch.report()

    def test_stopwatch_records_on_exception(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch.measure("x"):
                raise RuntimeError("boom")
        assert "x" in watch.durations

    def test_timed_returns_result_and_duration(self):
        result, seconds = timed(lambda: 42)
        assert result == 42
        assert seconds >= 0

    @pytest.mark.parametrize(
        "seconds,expected",
        [(4.3, "4.30s"), (34.0, "34.0s"), (73.0, "1 min 13s"), (590.0, "9 min 50s")],
    )
    def test_format_duration_matches_paper_style(self, seconds, expected):
        assert format_duration(seconds) == expected

    @pytest.mark.parametrize(
        "seconds,expected",
        [(119.7, "2 min 0s"), (119.4, "1 min 59s"), (59.9, "59.9s"), (3599.9, "60 min 0s")],
    )
    def test_format_duration_carries_rounded_seconds(self, seconds, expected):
        # Regression: 119.7 used to render as the impossible "1 min 60s".
        assert format_duration(seconds) == expected


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["col", "x"], [["a", 1.0], ["bb", 2.5]], title="T")
        lines = text.split("\n")
        assert lines[0] == "T"
        assert "col" in lines[1]
        assert all("|" in line for line in lines[1:] if line and "-+-" not in line)

    def test_format_table_float_format(self):
        text = format_table(["v"], [[3.14159]], float_format="{:.1f}")
        assert "3.1" in text and "3.14" not in text

    def test_logger_single_handler(self):
        first = get_logger("repro.test")
        second = get_logger("repro.test")
        assert first is second
        assert len(first.handlers) == 1


class TestSeeding:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()


class TestValidation:
    def test_check_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_check_positive(self):
        assert check_positive(0.5, "x") == 0.5
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_check_positive_int(self):
        assert check_positive_int(3, "n") == 3
        with pytest.raises(ValueError):
            check_positive_int(2.5, "n")
        with pytest.raises(ValueError):
            check_positive_int(-1, "n")
