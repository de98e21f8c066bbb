"""Atomic state holder + snapshot hot-reload watcher.

The serving process must pick up new snapshots (a training run is still
checkpointing, or a newer model was promoted) *without dropping in-flight
requests*.  The mechanism is two small pieces:

* :class:`StateHolder` — one mutable reference to the current
  :class:`~repro.serve.state.ServingState` behind a lock.  Request handlers
  call :meth:`StateHolder.get` once and use that state for the whole
  request; :meth:`StateHolder.swap` replaces the reference atomically, so a
  reload never mutates a state a request is reading.
* :class:`SnapshotWatcher` — a daemon thread polling the snapshot
  directory's ``LATEST`` pointer.  When the pointer names a snapshot the
  holder is not serving, the watcher loads the *entire* new state (graph,
  model, explanations — the expensive part) off the request path, then
  swaps.  Load failures (half-written snapshot, corrupt file) are counted
  on ``repro_serve_reloads_total{result=error}`` and the old state keeps
  serving — a bad promotion degrades to "stale", never to "down".

The watcher also performs the *initial* load: start the server with an
empty holder and the endpoints answer 503 until the first poll completes,
which is the contract the API tests pin.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Optional

from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.recorder import NullRecorder
from ..resilience.snapshot import snapshot_candidates
from .state import ServingState

__all__ = ["StateHolder", "SnapshotWatcher", "current_snapshot_token"]


def current_snapshot_token(directory: Path) -> Optional[str]:
    """Identify the snapshot the directory currently advertises.

    The file name the ``LATEST`` pointer names when it is usable, else the
    newest ``.npz`` filename, else ``None`` (nothing to serve yet); see
    :func:`~repro.resilience.snapshot.snapshot_candidates`.  The token is
    compared against the token the live state was loaded under, so a stale
    pointer that fell back does not retrigger a reload every poll.
    """
    _, candidates = snapshot_candidates(directory)
    return candidates[0].name if candidates else None


class StateHolder:
    """One atomically-swappable reference to the live serving state."""

    def __init__(
        self,
        state: Optional[ServingState] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._state = state
        registry = registry if registry is not None else default_registry()
        self._ready_gauge = registry.gauge(
            "repro_serve_ready", "1 once a snapshot is loaded and serving."
        )
        self._ready_gauge.set(0.0 if state is None else 1.0)

    def get(self) -> Optional[ServingState]:
        with self._lock:
            return self._state

    def swap(self, state: ServingState) -> Optional[ServingState]:
        """Install ``state``; return the one it replaced."""
        with self._lock:
            old, self._state = self._state, state
        self._ready_gauge.set(1.0)
        return old

    @property
    def ready(self) -> bool:
        return self.get() is not None


class SnapshotWatcher:
    """Daemon thread keeping a :class:`StateHolder` on the newest snapshot.

    ``loader`` is called as ``loader(token)`` off the request path and must
    return a :class:`ServingState` whose ``source_token`` is ``token`` (the
    :mod:`repro.serve.cli` wiring does exactly that via
    :func:`~repro.serve.state.load_serving_state`).
    """

    def __init__(
        self,
        holder: StateHolder,
        directory: Path,
        loader: Callable[[str], ServingState],
        interval: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        recorder: Optional[NullRecorder] = None,
    ) -> None:
        self.holder = holder
        self.directory = Path(directory)
        self._loader = loader
        self.interval = float(interval)
        registry = registry if registry is not None else default_registry()
        self._reloads_total = registry.counter(
            "repro_serve_reloads_total", "Snapshot hot-reload attempts by result."
        )
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.last_error: Optional[str] = None
        self.swaps = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-watcher", daemon=True
        )

    # ------------------------------------------------------------------
    def poll_once(self) -> bool:
        """One poll: load + swap if the advertised snapshot changed.

        Returns ``True`` when a swap happened.  Safe to call directly from
        tests (no thread involved).
        """
        token = current_snapshot_token(self.directory)
        if token is None:
            return False
        state = self.holder.get()
        if state is not None and state.source_token == token:
            return False
        try:
            fresh = self._loader(token)
        except Exception as error:  # noqa: BLE001 - stay up on any load failure
            self.last_error = f"{type(error).__name__}: {error}"
            self._reloads_total.inc(result="error")
            self.recorder.emit(
                "serve_reload", ok=False, token=token, error=self.last_error
            )
            return False
        self.holder.swap(fresh)
        self.swaps += 1
        self.last_error = None
        self._reloads_total.inc(result="ok")
        self.recorder.emit(
            "serve_reload", ok=True, token=token, snapshot=fresh.snapshot_name
        )
        return True

    def _run(self) -> None:
        # First poll immediately: the watcher owns the initial load.
        while not self._stop.is_set():
            self.poll_once()
            self._stop.wait(self.interval)

    def start(self) -> "SnapshotWatcher":
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)
