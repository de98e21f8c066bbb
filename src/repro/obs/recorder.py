"""Run recorder: structured JSON-lines telemetry for training runs.

A :class:`RunRecorder` turns a training run into an append-only
``.jsonl`` file under ``results/runs/`` — one :mod:`repro.obs.events`
event per line — so trajectories, phase timings and bench numbers become
machine-diffable artefacts instead of scrollback.  The recorder also
folds phase wall-clock into a shared :class:`~repro.utils.timing.Stopwatch`
so the Tables 6–8 harnesses and the telemetry layer read the *same*
timing path rather than racing two clocks.

:class:`NullRecorder` is the disabled twin: identical surface, no file,
no event objects — call sites stay unconditional (`recorder.epoch(...)`).
Both feed the training metric families from the events they are handed
(:data:`~repro.obs.metrics.TRAINING_FAMILIES`), so the always-on registry
and the run record count the same epochs, snapshot writes and recovery
decisions.
"""

from __future__ import annotations

import atexit
import io
import itertools
import json
import os
import re
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

from ..utils.timing import Stopwatch
from .events import config_hash, jsonable, make_event
from .metrics import observe_event
from .profiler import OpProfiler

DEFAULT_RUNS_DIR = os.path.join("results", "runs")

_RUN_COUNTER = itertools.count()


def telemetry_enabled() -> bool:
    """Whether run records should be written (``REPRO_TELEMETRY`` env var)."""
    return os.environ.get("REPRO_TELEMETRY", "").lower() not in ("", "0", "false", "no")


def default_recorder(name: str) -> "NullRecorder":
    """A :class:`RunRecorder` under ``results/runs/`` when telemetry is
    enabled, else the free :class:`NullRecorder`.

    This is the hook behind ``python -m repro <experiment> --telemetry``:
    :class:`~repro.core.ses.SESTrainer` calls it when no explicit recorder
    is passed, so every harness gains run records without threading a
    recorder through each call site.  Run ids are
    ``<name>-<UTC timestamp>-r<n>`` with a process-wide counter so
    repeated-seed loops never collide.
    """
    if not telemetry_enabled():
        return NullRecorder()
    slug = re.sub(r"[^\w.-]+", "-", name).strip("-") or "run"
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return RunRecorder(run_id=f"{slug}-{stamp}-r{next(_RUN_COUNTER)}")


class NullRecorder:
    """Stand-in used when telemetry is disabled.

    Every :class:`RunRecorder` method exists here.  :meth:`emit` writes
    nothing but still folds training events into the metrics registry;
    the rest are cheap no-ops, and the :meth:`phase` context manager still
    feeds the caller's stopwatch so the single timing path keeps working
    with telemetry off.
    """

    path: Optional[str] = None
    events: List[Dict[str, Any]] = []
    enabled = False
    """Call sites guard *optional, costly* payload computation (mask
    statistics, config serialisation) on this flag; the emitters themselves
    are always safe to call."""

    def emit(self, event: str, **payload: Any) -> None:
        """Feed the training metric families (the only effect when disabled)."""
        observe_event(event, payload)

    def add_listener(self, listener) -> None:
        pass

    def remove_listener(self, listener) -> None:
        pass

    def run_start(self, **payload: Any) -> None:
        pass

    def epoch(self, phase: str, epoch: int, loss: float, **payload: Any) -> None:
        """Per-epoch training state (loss, seconds, batches, val accuracy...)."""
        self.emit("epoch", phase=phase, epoch=epoch, loss=float(loss), **payload)

    def pairs(self, **payload: Any) -> None:
        pass

    def metric(self, name: str, value: Any, **payload: Any) -> None:
        pass

    def record_profile(self, profiler: OpProfiler) -> None:
        pass

    def run_end(self, **payload: Any) -> None:
        pass

    @contextmanager
    def phase(self, label: str, stopwatch: Optional[Stopwatch] = None) -> Iterator[None]:
        if stopwatch is not None:
            with stopwatch.measure(label):
                yield
        else:
            yield

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        yield

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class RunRecorder(NullRecorder):
    """Writes one JSON event per line to ``<runs_dir>/<run_id>.jsonl``.

    Parameters
    ----------
    run_id:
        Basename of the record (without extension).  Defaults to
        ``run-<UTC timestamp>``.
    path:
        Explicit output path; overrides ``runs_dir``/``run_id``.  Pass a
        file-like object (e.g. ``io.StringIO``) to capture events without
        touching the filesystem.
    runs_dir:
        Directory for the record, created on demand.

    Durability: events stream to ``<path>.tmp``; :meth:`close` flushes,
    ``fsync``\\ s and atomically renames the file into place, so a killed
    run never leaves a truncated ``.jsonl`` under ``results/runs/`` — at
    worst an orphaned ``.tmp`` that readers ignore.
    """

    enabled = True

    def __init__(
        self,
        run_id: Optional[str] = None,
        path: Union[None, str, io.TextIOBase] = None,
        runs_dir: str = DEFAULT_RUNS_DIR,
    ) -> None:
        self.run_id = run_id or time.strftime("run-%Y%m%d-%H%M%S", time.gmtime())
        if hasattr(path, "write"):
            self.path = None
            self._tmp_path = None
            self._handle = path
            self._owns_handle = False
        else:
            if path is None:
                path = os.path.join(runs_dir, f"{self.run_id}.jsonl")
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self.path = path
            self._tmp_path = path + ".tmp"
            self._handle = open(self._tmp_path, "w", encoding="utf-8")
            self._owns_handle = True
            # Safety net for call sites that never reach close() — e.g. a
            # harness that drives train_explainable() directly and never
            # calls fit(): without this the record would stay a .tmp.
            atexit.register(self.close)
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        self._span_stack: List[str] = []
        self._listeners: List[Any] = []

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------
    def emit(self, event: str, **payload: Any) -> None:
        """Append one event (envelope added, payload JSON-coerced)."""
        record = make_event(event, self._seq, **payload)
        super().emit(event, **payload)
        self._seq += 1
        self.events.append(record)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        for listener in self._listeners:
            listener(record)

    def add_listener(self, listener) -> None:
        """Register ``listener(event_dict)`` to run on every emitted event.

        The hook behind live sinks (the ``run-ses --live`` dashboard):
        listeners see the exact dict written to the record, synchronously,
        after the line is flushed.  A listener that raises aborts the
        emitting call site — keep them trivial.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Typed emitters (one per schema event; see docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def run_start(
        self,
        config: Any = None,
        seed: Optional[int] = None,
        dataset: Optional[str] = None,
        **payload: Any,
    ) -> None:
        """Record run provenance: config (+hash), RNG seed, dataset."""
        fields: Dict[str, Any] = {"run_id": self.run_id}
        if config is not None:
            fields["config"] = jsonable(config)
            fields["config_hash"] = config_hash(config)
        if seed is not None:
            fields["seed"] = seed
        if dataset is not None:
            fields["dataset"] = dataset
        fields.update(payload)
        self.emit("run_start", **fields)

    def pairs(self, **payload: Any) -> None:
        """Algorithm-1 pair-construction summary (anchor/pos/neg counts)."""
        self.emit("pairs", **payload)

    def metric(self, name: str, value: Any, **payload: Any) -> None:
        """A named scalar (bench mean, accuracy, ...)."""
        self.emit("metric", name=name, value=jsonable(value), **payload)

    def record_profile(self, profiler: OpProfiler) -> None:
        """One ``profile`` event per op plus one ``alloc`` totals event."""
        for record in profiler.records():
            self.emit("profile", **record)
        self.emit("alloc", **profiler.alloc_summary())

    def run_end(self, **payload: Any) -> None:
        self.emit("run_end", **payload)

    @contextmanager
    def phase(self, label: str, stopwatch: Optional[Stopwatch] = None) -> Iterator[None]:
        """Time a phase: emits start/end events and feeds ``stopwatch``.

        This is the single timing path — the elapsed seconds written to the
        ``phase_end`` event are the same ones accumulated into the
        stopwatch that the Tables 6–8 harnesses report.  A phase is also
        the root of the span hierarchy: :meth:`span` calls inside the block
        emit paths like ``explainable/epoch3/batch0``.
        """
        self.emit("phase_start", phase=label)
        self._span_stack.append(label)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._span_stack.pop()
            if stopwatch is not None:
                stopwatch.durations[label] = stopwatch.durations.get(label, 0.0) + elapsed
            self.emit("phase_end", phase=label, seconds=elapsed)

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        """Time a nested trace span (one ``span`` event on exit).

        Spans nest: entered inside a :meth:`phase` or another span, the
        emitted ``path`` joins every enclosing label with ``/`` —
        ``recorder.span("batch0")`` inside epoch 3 of phase 2 records
        ``path="predictive/epoch3/batch0"``.  ``obs-report`` aggregates
        spans into a tree (numeric suffixes folded, so all epochs of one
        phase collapse into a single ``epoch*`` row).
        """
        self._span_stack.append(label)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            path = "/".join(self._span_stack)
            depth = len(self._span_stack)
            self._span_stack.pop()
            self.emit("span", path=path, seconds=elapsed, depth=depth)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, ``fsync`` and atomically finalize the record.

        The ``.tmp`` stream is renamed to the final ``.jsonl`` path only
        here, so readers never observe a half-written record.
        """
        if not self._owns_handle:
            return
        atexit.unregister(self.close)
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
        if self._tmp_path is not None and os.path.exists(self._tmp_path):
            os.replace(self._tmp_path, self.path)

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
