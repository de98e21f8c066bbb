"""repro.obs — run telemetry, op-level profiling, and training health.

The observability layer of the reproduction (docs/OBSERVABILITY.md):

* :class:`OpProfiler` — zero-overhead-when-disabled op-level profiler for
  the autograd engine (per-op forward/backward counts, wall time, and
  bytes allocated; peak live tensor bytes via ``repro.tensor.alloc``).
* :class:`RunRecorder` / :class:`NullRecorder` — structured JSON-lines run
  records (``results/runs/*.jsonl``): epoch losses, mask sparsity, pair
  counts, phase timings, hierarchical trace spans, RNG seed and config
  hash.  Records finalize atomically (``.tmp`` + rename + fsync).
* :mod:`repro.obs.monitors` — training-health payload functions
  (gradient/parameter/activation statistics, SES mask health, triplet
  margins) and the :class:`NaNWatchdog` that turns NaN/Inf into structured
  ``numerical_event``\\ s naming the offending op.
* :mod:`repro.obs.report` — ``python -m repro obs-report run.jsonl``
  renders timings, span tree, health summaries and the op profile.
* :mod:`repro.obs.diff` — ``python -m repro obs-diff BASELINE CURRENT``
  diffs two records and exits non-zero on regressions (the CI gate).
* :mod:`repro.obs.metrics` — process-wide Prometheus-style metrics
  (:class:`Counter`, :class:`Gauge`, :class:`Histogram`,
  :class:`MetricsRegistry` with text exposition + JSON snapshot) fed by
  the CSR kernels, the parallel and serving layers, and — through
  :data:`TRAINING_FAMILIES` — by the recorders' training events.
* :mod:`repro.obs.trace` — ``python -m repro obs-trace run.jsonl``
  converts a run record into Chrome-trace/Perfetto JSON and collapsed
  flamegraph stacks.
* :class:`LiveDashboard` — the ``run-ses --live`` ANSI TTY dashboard, a
  recorder listener that reads rates from the metrics registry.
* :func:`make_event` / :func:`config_hash` / :data:`EVENT_TYPES` — the
  event schema itself.
"""

from .dashboard import LiveDashboard, sparkline
from .diff import DEFAULT_BASELINE, diff_metrics, run_metrics
from .events import EVENT_TYPES, SCHEMA_VERSION, config_hash, jsonable, make_event
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TRAINING_FAMILIES,
    TrainingFamily,
    default_registry,
    exponential_buckets,
    observe_event,
    parse_exposition,
)
from .monitors import (
    NaNWatchdog,
    activation_stats,
    grad_stats,
    mask_health,
    param_stats,
    triplet_margin,
)
from .profiler import OpProfiler, OpStat
from .recorder import (
    DEFAULT_RUNS_DIR,
    NullRecorder,
    RunRecorder,
    default_recorder,
    telemetry_enabled,
)
from .report import (
    load_events,
    normalize_span_path,
    render_report,
    report_path,
    summarize_run,
)
from .trace import chrome_trace, flamegraph_lines, validate_trace

__all__ = [
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "config_hash",
    "jsonable",
    "make_event",
    "OpProfiler",
    "OpStat",
    "DEFAULT_RUNS_DIR",
    "NullRecorder",
    "RunRecorder",
    "default_recorder",
    "telemetry_enabled",
    "grad_stats",
    "param_stats",
    "activation_stats",
    "mask_health",
    "triplet_margin",
    "NaNWatchdog",
    "load_events",
    "normalize_span_path",
    "render_report",
    "report_path",
    "summarize_run",
    "DEFAULT_BASELINE",
    "run_metrics",
    "diff_metrics",
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
    "chrome_trace",
    "flamegraph_lines",
    "validate_trace",
    "LiveDashboard",
    "sparkline",
]
