"""Structured telemetry events (the JSON-lines run-record schema).

Every line in a ``results/runs/*.jsonl`` file is one event: a flat JSON
object with four envelope fields added by :func:`make_event` —

* ``event`` — the event type (one of :data:`EVENT_TYPES`),
* ``seq``   — 0-based position of the event within its run,
* ``ts``    — wall-clock UNIX timestamp at emission,
* ``schema_version`` — :data:`SCHEMA_VERSION` at emission, so mixed-age
  archives under ``results/runs/`` stay interpretable line-by-line.

plus the type-specific payload documented in ``docs/OBSERVABILITY.md``.
Events stay flat and JSON-primitive on purpose: a run record must survive
``json.loads`` line-by-line with no custom decoder so that bench history
and training trajectories are diffable with standard tools.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Mapping

SCHEMA_VERSION = 3
"""Bumped whenever an existing event type changes shape.

v2: ``schema_version`` moved into the envelope of *every* event (it was a
``run_start`` payload field in v1), and the monitor/span/alloc event types
below were added.

v3: the training metric families are derived from events, so ``epoch``
carries ``seconds`` and ``num_batches`` in every mode (``num_shards`` is
gone) and ``snapshot_event`` carries ``seconds``.
"""

EVENT_TYPES = (
    "run_start",
    "phase_start",
    "phase_end",
    "span",
    "epoch",
    "pairs",
    "metric",
    "profile",
    "alloc",
    "grad_stats",
    "param_stats",
    "activation_stats",
    "mask_health",
    "triplet_margin",
    "numerical_event",
    "recovery_event",
    "snapshot_event",
    "run_end",
)
"""Every event type the recorder may emit (see docs/OBSERVABILITY.md)."""


def jsonable(value: Any) -> Any:
    """Coerce ``value`` into something ``json.dumps`` accepts.

    Numpy scalars/arrays, dataclasses and nested mappings all appear in
    telemetry payloads (losses, mask stats, configs); everything is folded
    down to plain python primitives so the emitted line round-trips through
    ``json.loads`` without a custom decoder.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and getattr(value, "size", None) == 1:
        return value.item()  # 0-d numpy scalars
    if hasattr(value, "tolist"):
        return value.tolist()  # numpy arrays
    if isinstance(value, float):
        return value
    return value


def make_event(event: str, seq: int, **payload: Any) -> Dict[str, Any]:
    """Assemble one schema-conforming event dict (envelope + payload)."""
    if event not in EVENT_TYPES:
        raise ValueError(f"unknown event type {event!r}; known: {EVENT_TYPES}")
    record: Dict[str, Any] = {
        "event": event,
        "seq": seq,
        "ts": time.time(),
        "schema_version": SCHEMA_VERSION,
    }
    for key, value in payload.items():
        if key in record:
            raise ValueError(f"payload field {key!r} collides with the envelope")
        record[key] = jsonable(value)
    return record


def config_hash(config: Any) -> str:
    """Short stable hash of a config (dataclass or mapping).

    Two runs with identical hyper-parameters hash identically, so run
    records can be grouped/diffed by configuration without comparing every
    field.  The hash is the first 12 hex digits of the SHA-256 of the
    key-sorted JSON rendering.
    """
    payload = json.dumps(jsonable(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
