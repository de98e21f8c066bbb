"""Prometheus-style in-process metrics: counters, gauges, histograms.

The run records in :mod:`repro.obs.recorder` are *post-hoc* artefacts — a
training run is only inspectable after its ``.jsonl`` closes.  This module
is the *online* half of the observability layer: always-on process-wide
counters (``repro_train_epochs_total``), gauges (``repro_train_loss``) and
latency histograms (``repro_epoch_seconds``) that live code — the CSR
layout cache, the parallel and serving layers, and the training loop
through the events it records (:data:`TRAINING_FAMILIES`) — updates as it
goes, and that any in-process consumer (the ``run-ses --live`` dashboard,
the serving ``/metrics`` endpoint) can read at any moment.

Design choices, in decreasing order of importance:

* **Cheap when nobody is looking.**  ``Counter.inc`` on the no-label fast
  path is a dict lookup and a float add; a disabled registry
  (``set_enabled(False)``) short-circuits to a single attribute check.  The
  always-on overhead is gated below 5% of epoch time by
  ``benchmarks/bench_obs_metrics.py`` → ``results/BENCH_obs_metrics.json``.
* **Prometheus-compatible exposition.**  :meth:`MetricsRegistry.expose_text`
  renders the text format 0.0.4 (``# HELP`` / ``# TYPE`` / sample lines
  with escaped label values; histograms as cumulative ``_bucket`` series
  plus ``_sum``/``_count``), so the future serving layer only has to return
  the string.  :func:`parse_exposition` is the inverse used by the
  round-trip tests.
* **No imports from the rest of the package.**  ``repro.tensor.csr`` (a
  module *below* :mod:`repro.obs` in the layering) binds its cache counters
  lazily; keeping this module dependency-free makes that safe.

Histogram buckets default to :func:`exponential_buckets` spanning 1ms–100s,
the range of everything this repo times (op kernels to full phases).
Quantile estimates interpolate linearly inside the owning bucket — the
standard Prometheus estimator — and are exact at the recorded min/max.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TRAINING_FAMILIES",
    "TrainingFamily",
    "default_registry",
    "exponential_buckets",
    "observe_event",
    "parse_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    ``exponential_buckets(0.001, 4.0, 9)`` spans 1ms to ~65s — wide enough
    for everything from a single CSR kernel to a full training phase.
    """
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


DEFAULT_BUCKETS = exponential_buckets(0.001, 4.0, 10)  # 1ms .. ~262s


def _label_key(labels: Dict[str, str]) -> LabelKey:
    """Canonical (sorted) tuple form of a label set."""
    if not labels:
        return ()
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared machinery: a named family of label-keyed children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._registry = registry

    # Subclasses store children in ``self._children: Dict[LabelKey, ...]``.


class Counter(_Metric):
    """Monotonically increasing count (events, bytes, cache hits)."""

    kind = "counter"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, help, registry)
        self._children: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._children.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[str, LabelKey, float]]:
        for key, value in sorted(self._children.items()):
            yield self.name, key, value


class Gauge(_Metric):
    """A value that goes up and down (current loss, live bytes, epoch)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, help, registry)
        self._children: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        if not self._registry.enabled:
            return
        self._children[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._children.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[str, LabelKey, float]]:
        for key, value in sorted(self._children.items()):
            yield self.name, key, value


class _HistogramChild:
    __slots__ = ("counts", "total", "count", "min", "max")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * (num_buckets + 1)  # +1 for the +Inf overflow
        self.total = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Metric):
    """Distribution of observations over fixed exponential buckets.

    Buckets are *upper bounds*: an observation lands in the first bucket
    whose bound is >= the value (Prometheus ``le`` semantics); anything
    beyond the last bound lands in the implicit ``+Inf`` overflow bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help, registry)
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.buckets = bounds
        self._children: Dict[LabelKey, _HistogramChild] = {}

    def _child(self, key: LabelKey) -> _HistogramChild:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(len(self.buckets))
        return child

    def observe(self, value: float, **labels: str) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        key = _label_key(labels)
        child = self._child(key)
        # bisect over a ~10-entry tuple: a linear scan is as fast and simpler.
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        child.counts[index] += 1
        child.total += value
        child.count += 1
        if value < child.min:
            child.min = value
        if value > child.max:
            child.max = value

    def time(self, **labels: str):
        """Context manager observing the elapsed seconds of its block."""
        return _HistogramTimer(self, labels)

    def count(self, **labels: str) -> int:
        child = self._children.get(_label_key(labels))
        return 0 if child is None else child.count

    def sum(self, **labels: str) -> float:
        child = self._children.get(_label_key(labels))
        return 0.0 if child is None else child.total

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the owning bucket, clamped to the
        observed ``[min, max]`` so estimates never leave the data's range;
        NaN when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        child = self._children.get(_label_key(labels))
        if child is None or child.count == 0:
            return math.nan
        rank = q * child.count
        cumulative = 0
        lower = 0.0
        for i, upper in enumerate(self.buckets):
            previous = cumulative
            cumulative += child.counts[i]
            if cumulative >= rank and child.counts[i] > 0:
                fraction = (rank - previous) / child.counts[i]
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return max(child.min, min(child.max, estimate))
            lower = upper
        return child.max  # rank falls in the +Inf overflow bucket

    def samples(self) -> Iterator[Tuple[str, LabelKey, float]]:
        """Exposition samples: cumulative buckets, then sum and count."""
        for key, child in sorted(self._children.items()):
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, child.counts):
                cumulative += bucket_count
                yield f"{self.name}_bucket", key + (("le", _format_value(bound)),), float(cumulative)
            yield f"{self.name}_bucket", key + (("le", "+Inf"),), float(child.count)
            yield f"{self.name}_sum", key, child.total
            yield f"{self.name}_count", key, float(child.count)


class _HistogramTimer:
    """``with histogram.time():`` — observes elapsed seconds on exit."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: Histogram, labels: Dict[str, str]) -> None:
        self._histogram = histogram
        self._labels = labels

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start, **self._labels)


class MetricsRegistry:
    """Process-wide home of every metric family.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: registering
    the same name twice returns the existing family (with a kind check), so
    module-level call sites stay idempotent across reloads and tests.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()
        self.enabled = bool(enabled)

    # ------------------------------------------------------------------
    # Family factories
    # ------------------------------------------------------------------
    def _register(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def set_enabled(self, enabled: bool) -> None:
        """Flip the registry-wide kill switch (used by the overhead bench)."""
        self.enabled = bool(enabled)

    def reset(self) -> None:
        """Drop every recorded value (families stay registered).

        Tests and benchmarks use this to isolate runs without invalidating
        module-level metric handles bound at import time.
        """
        for metric in self._metrics.values():
            metric._children.clear()  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def expose_text(self) -> str:
        """Render every family in the Prometheus text format (0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, key, value in metric.samples():  # type: ignore[attr-defined]
                lines.append(f"{sample_name}{_render_labels(key)} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every family (raw values, no rendering).

        Histograms export raw per-bucket counts plus sum/count/min/max —
        the machine-consumable twin of :meth:`expose_text`, used by the
        live dashboard and bench tooling.
        """
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: Dict[str, Any] = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {
                        "labels": dict(key),
                        "counts": list(child.counts),
                        "sum": child.total,
                        "count": child.count,
                        "min": None if child.count == 0 else child.min,
                        "max": None if child.count == 0 else child.max,
                    }
                    for key, child in sorted(metric._children.items())
                ]
            else:
                entry["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(metric._children.items())  # type: ignore[attr-defined]
                ]
            out[name] = entry
        return out

    def snapshot_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def parse_exposition(text: str) -> Dict[Tuple[str, LabelKey], float]:
    """Parse Prometheus text exposition back into ``{(name, labels): value}``.

    The inverse of :meth:`MetricsRegistry.expose_text` — exists so the
    round-trip property tests (and any scraping consumer in this repo) never
    depend on an external Prometheus client library.
    """
    samples: Dict[Tuple[str, LabelKey], float] = {}
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"exposition line {number}: cannot parse {line!r}")
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        else:
            value = float(raw_value)
        labels: LabelKey = ()
        if match.group("labels"):
            labels = tuple(
                sorted(
                    (k, _unescape_label_value(v))
                    for k, v in _LABEL_PAIR_RE.findall(match.group("labels"))
                )
            )
        samples[(match.group("name"), labels)] = value
    return samples


class TrainingFamily(NamedTuple):
    """One row of :data:`TRAINING_FAMILIES`."""

    event: str
    kind: str
    name: str
    help: str
    reads: str
    """The payload field the update needs; an event without it skips the row."""
    update: Callable[[Any, Mapping[str, Any]], None]


def _set_finite_loss(gauge: Gauge, event: Mapping[str, Any]) -> None:
    if math.isfinite(event["loss"]):
        gauge.set(event["loss"], phase=event["phase"])


TRAINING_FAMILIES: Tuple[TrainingFamily, ...] = (
    TrainingFamily(
        "epoch", "counter", "repro_train_epochs_total",
        "Completed training epochs by phase",
        "phase", lambda m, e: m.inc(phase=e["phase"]),
    ),
    TrainingFamily(
        "epoch", "counter", "repro_train_batches_total",
        "Processed minibatches by phase",
        "num_batches", lambda m, e: m.inc(e["num_batches"], phase=e["phase"]),
    ),
    TrainingFamily(
        "epoch", "histogram", "repro_epoch_seconds",
        "Wall-clock seconds per completed training epoch",
        "seconds", lambda m, e: m.observe(e["seconds"], phase=e["phase"]),
    ),
    TrainingFamily(
        "epoch", "gauge", "repro_train_loss",
        "Most recent epoch loss by phase",
        "loss", _set_finite_loss,
    ),
    TrainingFamily(
        "epoch", "gauge", "repro_train_epoch",
        "Completed-epoch counter of the current run by phase",
        "epoch", lambda m, e: m.set(e["epoch"] + 1, phase=e["phase"]),
    ),
    TrainingFamily(
        "snapshot_event", "histogram", "repro_snapshot_write_seconds",
        "Wall-clock seconds spent writing one checkpoint snapshot to disk",
        "seconds", lambda m, e: m.observe(e["seconds"], phase=e["phase"]),
    ),
    TrainingFamily(
        "recovery_event", "counter", "repro_recovery_events_total",
        "Recovery-policy decisions (rollback/degrade/abort) by action",
        "action", lambda m, e: m.inc(action=e["action"], phase=e["phase"]),
    ),
)
"""The training families and the recorder event each is derived from.

Nothing updates these families directly: :func:`observe_event` (called by
every recorder's ``emit``, the disabled one included) applies the rows
matching an event to its payload, so the registry counts exactly the
epochs, snapshot writes and recovery decisions the run record holds.
"""

_FAMILIES_BY_EVENT: Dict[str, Tuple[TrainingFamily, ...]] = {
    event: tuple(row for row in TRAINING_FAMILIES if row.event == event)
    for event in {row.event for row in TRAINING_FAMILIES}
}


def _family(registry: MetricsRegistry, row: TrainingFamily) -> _Metric:
    return getattr(registry, row.kind)(row.name, row.help)


def observe_event(
    event: str, payload: Mapping[str, Any], registry: Optional[MetricsRegistry] = None
) -> None:
    """Fold one recorder event into the training families it feeds."""
    rows = _FAMILIES_BY_EVENT.get(event)
    if rows is None:
        return
    registry = registry if registry is not None else default_registry()
    if not registry.enabled:
        return
    for row in rows:
        if row.reads in payload:
            row.update(_family(registry, row), payload)


_DEFAULT_REGISTRY: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry every repro subsystem reports into.

    The training families are registered on creation, so they are exposed
    (empty) before the first epoch.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = MetricsRegistry()
        for row in TRAINING_FAMILIES:
            _family(_DEFAULT_REGISTRY, row)
    return _DEFAULT_REGISTRY
