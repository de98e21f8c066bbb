"""Shared utilities: seeding, timing, logging, validation."""

from .logging import format_table, get_logger
from .seed import capture_rng_state, make_rng, restore_rng_state
from .timing import Stopwatch, format_duration, timed
from .units import format_bytes
from .validation import check_positive, check_positive_int, check_probability

__all__ = [
    "make_rng",
    "capture_rng_state",
    "restore_rng_state",
    "Stopwatch",
    "timed",
    "format_duration",
    "format_bytes",
    "get_logger",
    "format_table",
    "check_probability",
    "check_positive",
    "check_positive_int",
]
