"""Live ANSI training dashboard (``python -m repro run-ses --live``).

A curses-free TTY view of a running SES fit, redrawn in place on every
epoch event::

    run cora-gcn-seed0  dataset=cora  backbone=gcn  [00:41]
    phase predictive  epoch 12/40    |  2.31 epochs/s  ETA 12.1s
    loss 0.8342  val 0.9400  ▇▆▅▅▄▄▃▃▂▂▂▁▁▁▁
    masks feat 43.1% / struct 48.9% sparse  |  peak rss 412.3 MiB
    snapshots 3  recoveries 0  layout cache 97.2% hit

Two inputs drive it:

* the :class:`~repro.obs.recorder.RunRecorder` listener hook delivers every
  telemetry event (epoch losses, phase boundaries, mask sparsity, recovery
  and snapshot events) the instant it is written;
* the process-wide :class:`~repro.obs.metrics.MetricsRegistry` is read at
  render time for the online rates the record does not contain —
  epochs/sec from ``repro_epoch_seconds``, layout-cache hit ratio, snapshot
  write latency.

Rendering is plain ANSI: cursor-up + erase-line escapes on a TTY, one
compact status line per epoch on anything else (CI logs, pipes), nothing at
all once :meth:`LiveDashboard.close` has run.  The dashboard never touches
training state and its per-epoch cost is a handful of string formats —
measured alongside the always-on metrics in
``results/BENCH_obs_metrics.json`` (< 5% epoch-time overhead, gated by
``obs-diff``).
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..utils.timing import format_duration
from ..utils.units import format_bytes
from .metrics import MetricsRegistry, default_registry

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 24) -> str:
    """Render the last ``width`` values as a unicode block sparkline.

    Non-finite values (a NaN loss mid-recovery) are dropped rather than
    poisoning the scale.
    """
    tail = [v for v in values[-width:] if math.isfinite(v)]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return SPARK_CHARS[0] * len(tail)
    scale = (len(SPARK_CHARS) - 1) / (hi - lo)
    return "".join(SPARK_CHARS[int((v - lo) * scale)] for v in tail)


def _peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process (portable best effort)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is in bytes on macOS and in KiB on Linux and the BSDs.
    return rss if sys.platform == "darwin" else rss * 1024


class LiveDashboard:
    """In-place ANSI dashboard fed by recorder events + the metrics registry.

    Parameters
    ----------
    stream:
        Where to draw (default ``sys.stderr``, keeping stdout clean for the
        run's own output).  Non-TTY streams get one plain line per epoch.
    registry:
        Metrics registry to read rates from (default: the process one).
    force_tty:
        Treat ``stream`` as a TTY regardless of ``isatty()`` (tests).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        registry: Optional[MetricsRegistry] = None,
        force_tty: Optional[bool] = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.registry = registry if registry is not None else default_registry()
        isatty = getattr(self.stream, "isatty", lambda: False)
        self.tty = bool(isatty()) if force_tty is None else force_tty
        self.renders = 0
        self._lines_drawn = 0
        self._closed = False
        self._recorder = None
        self._start = time.time()
        # --- state folded from events -------------------------------------
        self.run_id = "?"
        self.dataset = "?"
        self.backbone = "?"
        self.phase = "starting"
        self.epoch: Dict[str, int] = {}
        self.planned: Dict[str, int] = {}
        self.losses: Dict[str, List[float]] = {}
        self.val_accuracy: Optional[float] = None
        self.mask_sparsity: Dict[str, float] = {}
        self.snapshots = 0
        self.recoveries = 0
        self.final: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, recorder) -> "LiveDashboard":
        """Subscribe to a recorder; returns self for chaining."""
        recorder.add_listener(self.on_event)
        self._recorder = recorder
        return self

    def close(self) -> None:
        """Final render; detach; leave the last frame on screen."""
        if self._closed:
            return
        self._closed = True
        if self._recorder is not None:
            self._recorder.remove_listener(self.on_event)
            self._recorder = None
        if self.renders and self.tty:
            self.stream.write("\n")
            self.stream.flush()

    # ------------------------------------------------------------------
    # Event folding
    # ------------------------------------------------------------------
    def on_event(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "run_start":
            self.run_id = event.get("run_id", self.run_id)
            self.dataset = event.get("dataset", self.dataset)
            self.backbone = event.get("backbone", self.backbone)
            config = event.get("config") or {}
            for phase, field in (
                ("explainable", "explainable_epochs"),
                ("predictive", "predictive_epochs"),
            ):
                if isinstance(config.get(field), int):
                    self.planned[phase] = config[field]
        elif kind == "phase_start":
            self.phase = event.get("phase", self.phase)
            self.render()
        elif kind == "epoch":
            phase = event.get("phase", "?")
            self.phase = phase
            self.epoch[phase] = int(event.get("epoch", -1)) + 1
            loss = event.get("loss")
            if isinstance(loss, (int, float)):
                self.losses.setdefault(phase, []).append(float(loss))
            if isinstance(event.get("val_accuracy"), (int, float)):
                self.val_accuracy = float(event["val_accuracy"])
            for mask in ("feature", "structure"):
                value = event.get(f"{mask}_mask_sparsity")
                if isinstance(value, (int, float)):
                    self.mask_sparsity[mask] = float(value)
            self.render()
        elif kind == "snapshot_event":
            self.snapshots += 1
        elif kind == "recovery_event":
            self.recoveries += 1
            self.render()
        elif kind == "run_end":
            self.final = {
                k: event.get(k)
                for k in ("test_accuracy", "val_accuracy", "readout")
                if event.get(k) is not None
            }
            self.render()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _epoch_rate_and_eta(self) -> Tuple[Optional[float], Optional[float]]:
        histogram = self.registry.get("repro_epoch_seconds")
        if histogram is None:
            return None, None
        total_seconds = 0.0
        total_count = 0
        mean_by_phase: Dict[str, float] = {}
        for phase in ("explainable", "predictive"):
            count = histogram.count(phase=phase)
            seconds = histogram.sum(phase=phase)
            total_count += count
            total_seconds += seconds
            if count:
                mean_by_phase[phase] = seconds / count
        if total_count == 0 or total_seconds <= 0.0:
            return None, None
        rate = total_count / total_seconds
        remaining = 0.0
        for phase in ("explainable", "predictive"):
            left = self.planned.get(phase, 0) - self.epoch.get(phase, 0)
            if left > 0:
                # Unstarted phases borrow the running mean of whatever has
                # been timed so far — a coarse but honest ETA.
                mean = mean_by_phase.get(phase, total_seconds / total_count)
                remaining += left * mean
        return rate, remaining

    def _counter_value(self, name: str, **labels) -> float:
        metric = self.registry.get(name)
        return 0.0 if metric is None else metric.value(**labels)

    def lines(self) -> List[str]:
        """The dashboard frame as a list of lines (render target agnostic)."""
        elapsed = format_duration(time.time() - self._start)
        planned = self.planned.get(self.phase)
        done = self.epoch.get(self.phase, 0)
        progress = f"epoch {done}/{planned}" if planned else f"epoch {done}"
        rate, eta = self._epoch_rate_and_eta()
        pace = ""
        if rate is not None:
            pace = f"  |  {rate:.2f} epochs/s"
            if eta is not None and eta > 0:
                pace += f"  ETA {format_duration(eta)}"
        losses = self.losses.get(self.phase) or []
        loss_text = f"loss {losses[-1]:.4f}" if losses else "loss -"
        val_text = f"val {self.val_accuracy:.4f}" if self.val_accuracy is not None else "val -"
        mask_text = "masks -"
        if self.mask_sparsity:
            feat = self.mask_sparsity.get("feature")
            struct = self.mask_sparsity.get("structure")
            parts = []
            if feat is not None:
                parts.append(f"feat {100.0 * feat:.1f}%")
            if struct is not None:
                parts.append(f"struct {100.0 * struct:.1f}%")
            mask_text = "masks " + " / ".join(parts) + " sparse"
        rss = _peak_rss_bytes()
        rss_text = f"peak rss {format_bytes(rss)}" if rss is not None else "peak rss -"
        hits = self._counter_value("repro_csr_layout_cache_total", result="hit")
        misses = self._counter_value("repro_csr_layout_cache_total", result="miss")
        cache_text = "layout cache -"
        if hits + misses > 0:
            cache_text = f"layout cache {100.0 * hits / (hits + misses):.1f}% hit"
        lines = [
            f"run {self.run_id}  dataset={self.dataset}  "
            f"backbone={self.backbone}  [{elapsed}]",
            f"phase {self.phase}  {progress}{pace}",
            f"{loss_text}  {val_text}  {sparkline(losses)}",
            f"{mask_text}  |  {rss_text}",
            f"snapshots {self.snapshots}  recoveries {self.recoveries}  {cache_text}",
        ]
        if self.final:
            detail = "  ".join(
                f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in self.final.items()
            )
            lines.append(f"done: {detail}")
        return lines

    def render(self) -> None:
        if self._closed:
            return
        self.renders += 1
        if not self.tty:
            # Non-interactive: one compact line per render, no escapes.
            frame = self.lines()
            self.stream.write(" | ".join(frame[1:3]) + "\n")
            self.stream.flush()
            return
        lines = self.lines()
        out = []
        if self._lines_drawn:
            out.append(f"\x1b[{self._lines_drawn}F")  # to top of previous frame
        for line in lines:
            out.append("\x1b[2K" + line + "\n")  # erase + redraw
        if self._lines_drawn > len(lines):  # frame shrank: clear leftovers
            out.append("\x1b[J")
        self.stream.write("".join(out))
        self.stream.flush()
        self._lines_drawn = len(lines)

    def __enter__(self) -> "LiveDashboard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
