"""Serving state: a training snapshot made inference-ready.

:func:`load_serving_state` turns a :class:`~repro.resilience.TrainingSnapshot`
on disk into everything the HTTP layer needs to answer requests, from the
snapshot file alone:

* the training graph and its k-hop edge list, stored in the snapshot;
* an :class:`~repro.core.ses.SESModel` holding the tracked best-validation
  parameters when the run kept them (``keep_best``), else the last ones —
  exactly the model an uninterrupted ``fit()`` would have returned;
* full-graph logits/predictions computed once at load time by the same
  :mod:`repro.core.ses` inference functions the trainer uses (prediction is
  a dict lookup per request, not a forward pass);
* the :class:`~repro.serve.store.ExplanationStore` lazily materialising
  per-node explanation payloads from the assembled ``E_feat``/``E_sub``.

A :class:`ServingState` is immutable once built.  Hot reload
(:mod:`repro.serve.watcher`) builds a *new* state from the new snapshot and
swaps the holder's reference atomically; in-flight requests keep using the
state they captured, so a reload never changes data mid-response.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from ..core.config import SESConfig
from ..core.explanations import Explanations
from ..core.ses import (
    SESModel,
    align_base_edges,
    assemble_explanations,
    readout_logits,
)
from ..graph import Graph, unpack_graph
from ..metrics import logits_to_predictions
from ..obs.metrics import MetricsRegistry
from ..resilience.snapshot import find_latest_snapshot, load_snapshot
from ..resilience.storage import PathLike
from .store import ExplanationStore

__all__ = ["ServeError", "ServingState", "load_serving_state"]


class ServeError(RuntimeError):
    """A snapshot cannot be served (taken before the masks froze, no config)."""


@dataclass
class ServingState:
    """One loaded snapshot, ready to answer predict/explain/neighbors."""

    graph: Graph
    explanations: Explanations
    logits: np.ndarray
    predictions: np.ndarray
    snapshot_path: Path
    store: ExplanationStore
    readout: str
    completed: Dict[str, int]
    source_token: Optional[str] = None
    explain_top_k: int = 16
    loaded_at: float = field(default_factory=time.time)

    @property
    def num_nodes(self) -> int:
        return int(self.graph.num_nodes)

    @property
    def snapshot_name(self) -> str:
        return self.snapshot_path.name

    def valid_node(self, node: int) -> bool:
        return 0 <= node < self.num_nodes

    # ------------------------------------------------------------------
    # Per-endpoint payloads (plain dicts, JSON-ready)
    # ------------------------------------------------------------------
    def predict_payload(self, node: int) -> Dict[str, Any]:
        return {
            "node": int(node),
            "prediction": int(self.predictions[node]),
            "logits": [float(x) for x in self.logits[node]],
            "readout": self.readout,
            "snapshot": self.snapshot_name,
        }

    def explain_payload(self, node: int) -> Dict[str, Any]:
        """Cache-miss compute for :class:`ExplanationStore`."""
        node = int(node)
        explanations = self.explanations
        k = min(self.explain_top_k, self.graph.num_features)
        top = explanations.top_features(node, k=k)
        scores = explanations.feature_explanation[node]
        ranked = explanations.ranked_neighbors(node)
        return {
            "node": node,
            "prediction": int(self.predictions[node]),
            "top_features": [int(i) for i in top],
            "feature_scores": [float(scores[i]) for i in top],
            "neighbors": [
                {"node": int(n), "weight": float(w)}
                for n, w in ranked[: self.explain_top_k]
            ],
            "num_khop_neighbors": len(ranked),
            "snapshot": self.snapshot_name,
        }

    def neighbors_payload(self, node: int) -> Dict[str, Any]:
        neighbors = self.graph.neighbors(int(node))
        return {
            "node": int(node),
            "degree": int(len(neighbors)),
            "neighbors": [int(n) for n in neighbors],
            "snapshot": self.snapshot_name,
        }

    def describe(self) -> Dict[str, Any]:
        """The ready half of the ``/healthz`` payload."""
        return {
            "snapshot": self.snapshot_name,
            "completed": dict(self.completed),
            "num_nodes": self.num_nodes,
            "readout": self.readout,
            "cache": self.store.stats(),
        }


def _config_from_manifest(manifest: Dict[str, Any]) -> SESConfig:
    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ServeError("snapshot manifest carries no config; cannot rebuild the model")
    known = {f.name for f in dataclass_fields(SESConfig)}
    return SESConfig(**{k: v for k, v in raw.items() if k in known})


def load_serving_state(
    source: PathLike,
    cache_size: int = 1024,
    explain_top_k: int = 16,
    registry: Optional[MetricsRegistry] = None,
    source_token: Optional[str] = None,
) -> ServingState:
    """Load a snapshot file or directory into a :class:`ServingState`.

    A directory resolves to its newest valid snapshot, honouring the
    ``LATEST`` pointer with fallback.  Raises :class:`ServeError` when the
    snapshot predates mask freezing — explanations only exist once
    explainable training has completed — and
    :class:`~repro.resilience.CheckpointError` on damage or an unsupported
    format version.  A version-2 snapshot with deflated members, as earlier
    versions wrote them, serves the same logits as a stored one.
    """
    path = Path(source)
    if path.is_dir():
        snapshot, path = find_latest_snapshot(path)
    else:
        snapshot = load_snapshot(path)

    manifest, arrays = snapshot.manifest, snapshot.arrays
    if not (manifest.get("has_frozen_feature") and manifest.get("has_frozen_structure")):
        raise ServeError(
            f"snapshot at {path} predates mask freezing "
            f"(completed={snapshot.completed}); serve needs a snapshot taken "
            "after explainable training finished"
        )
    config = _config_from_manifest(manifest)
    graph = unpack_graph(snapshot.section("graph"))
    khop_edges = arrays["khop/edges"]
    feature_mask = arrays["frozen/feature_mask"]
    structure_values = arrays["frozen/structure_values"]

    model = SESModel(graph.num_features, graph.num_classes, config)
    # Mirror the end of fit(): serve the best-validation parameters, not
    # whatever the last epoch left behind.
    use_best = config.keep_best and manifest.get("has_best")
    model.load_state_dict(snapshot.section("best" if use_best else "model"))

    readout = manifest["best_readout"]
    edge_index = graph.edge_index()
    logits = readout_logits(
        model, config, readout, graph.features, edge_index, feature_mask,
        structure_values, align_base_edges(khop_edges, edge_index, graph.num_nodes),
    )
    state = ServingState(
        graph=graph,
        explanations=assemble_explanations(
            config, graph.features, khop_edges, feature_mask, structure_values,
            arrays["sens/edge_sensitivity"],
        ),
        logits=logits,
        predictions=logits_to_predictions(logits),
        snapshot_path=path,
        store=None,  # type: ignore[arg-type]  # bound just below
        readout=readout,
        completed=snapshot.completed,
        source_token=source_token,
        explain_top_k=int(explain_top_k),
    )
    state.store = ExplanationStore(
        state.explain_payload, capacity=cache_size, registry=registry
    )
    return state
