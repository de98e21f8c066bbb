"""Explanation-serving layer: SES predictions + explanations over HTTP.

ROADMAP item 1 made concrete (docs/SERVING.md): a
:class:`~repro.resilience.TrainingSnapshot` is loaded into an
inference-ready :class:`~repro.serve.state.ServingState`, per-node
explanation payloads are memoised in an LRU-bounded
:class:`~repro.serve.store.ExplanationStore`, and a stdlib
``ThreadingHTTPServer`` answers ``/predict``, ``/explain``,
``/neighbors``, ``/healthz`` and ``/metrics`` under concurrent load —
with snapshot hot-reload (:class:`~repro.serve.watcher.SnapshotWatcher`)
swapping model + store atomically while requests are in flight.

Entry point: ``python -m repro serve --snapshot-dir <dir>``.
"""

from .server import SESRequestHandler, SESServer, create_server
from .state import ServeError, ServingState, load_serving_state
from .store import ExplanationStore
from .watcher import SnapshotWatcher, StateHolder, current_snapshot_token

__all__ = [
    "ExplanationStore",
    "SESRequestHandler",
    "SESServer",
    "ServeError",
    "ServingState",
    "SnapshotWatcher",
    "StateHolder",
    "create_server",
    "current_snapshot_token",
    "load_serving_state",
]
