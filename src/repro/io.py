"""Serialisation: graphs, model checkpoints and explanations.

Everything round-trips through numpy ``.npz`` archives so a trained SES
model or a generated dataset can be saved, shipped and reloaded without
pickle (safe to load from untrusted sources).

* :func:`save_graph` / :func:`load_graph` — a full :class:`~repro.graph.Graph`
  including splits and synthetic ground-truth masks.
* :func:`save_checkpoint` / :func:`load_checkpoint` — any
  :class:`~repro.tensor.Module` parameter state.
* :func:`save_explanations` / :func:`load_explanations` — SES
  :class:`~repro.core.explanations.Explanations`.

Durability (docs/ROBUSTNESS.md): every save streams to a ``.tmp`` sibling
(members stored, not deflated; deflated files from earlier versions still
load) and is fsynced before an atomic rename — the same pattern the telemetry
recorder uses — so a kill mid-save never leaves a corrupt file at the final
path.  Every load converts the opaque ``zipfile.BadZipFile`` / ``KeyError``
that numpy raises on truncated or damaged archives into a
:class:`~repro.resilience.storage.CheckpointError` naming the path and the
failure.  Full *training-state* snapshots (optimizer moments, RNG streams,
epoch counters) live one level up in :mod:`repro.resilience.snapshot`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np
import scipy.sparse as sp

from .core.explanations import Explanations
from .graph import Graph, pack_graph, unpack_graph
from .resilience.storage import CheckpointError, atomic_savez, open_npz
from .tensor import Module

PathLike = Union[str, Path]

__all__ = [
    "CheckpointError",
    "save_graph",
    "load_graph",
    "save_checkpoint",
    "load_checkpoint",
    "save_explanations",
    "load_explanations",
]


def save_graph(graph: Graph, path: PathLike) -> None:
    """Write a graph (topology, features, labels, splits, ground truth).

    Crash-safe: the archive is written to a ``.tmp`` sibling, fsynced, then
    atomically renamed into place.  The layout is
    :func:`~repro.graph.pack_graph`'s, which training snapshots share.
    """
    atomic_savez(Path(path), **pack_graph(graph))


def load_graph(path: PathLike) -> Graph:
    """Read a graph written by :func:`save_graph`.

    Raises :class:`CheckpointError` on a missing, truncated or corrupted
    archive instead of surfacing ``zipfile.BadZipFile`` / ``KeyError``.
    """
    with open_npz(Path(path), what="graph archive") as archive:
        return unpack_graph(archive)


def save_checkpoint(module: Module, path: PathLike) -> None:
    """Write a module's parameters (dotted names become archive keys).

    Crash-safe (tmp → fsync → atomic rename).  For *resumable* training
    state — optimizer moments, RNG streams, epoch counters — use
    :func:`repro.resilience.save_snapshot` instead.
    """
    state = module.state_dict()
    atomic_savez(Path(path), **{k.replace(".", "/"): v for k, v in state.items()})


def load_checkpoint(module: Module, path: PathLike) -> Module:
    """Load parameters written by :func:`save_checkpoint` into ``module``.

    Raises :class:`CheckpointError` on a missing, truncated or corrupted
    archive; parameter-name/shape mismatches keep their specific
    ``KeyError`` / ``ValueError`` from :meth:`Module.load_state_dict`.
    """
    with open_npz(Path(path), what="model checkpoint") as archive:
        state = {key.replace("/", "."): archive[key] for key in archive.files}
    module.load_state_dict(state)
    return module


def save_explanations(explanations: Explanations, path: PathLike) -> None:
    """Write an :class:`Explanations` bundle (crash-safe)."""
    structure = explanations.structure_mask.tocoo()
    atomic_savez(
        Path(path),
        feature_mask=explanations.feature_mask,
        feature_explanation=explanations.feature_explanation,
        structure_row=structure.row.astype(np.int64),
        structure_col=structure.col.astype(np.int64),
        structure_data=structure.data,
        num_nodes=np.array(explanations.feature_mask.shape[0]),
        khop_edge_index=explanations.khop_edge_index,
    )


def load_explanations(path: PathLike) -> Explanations:
    """Read an explanations bundle written by :func:`save_explanations`.

    Raises :class:`CheckpointError` on damaged archives.
    """
    with open_npz(Path(path), what="explanations archive") as archive:
        num_nodes = int(archive["num_nodes"])
        structure = sp.coo_matrix(
            (
                archive["structure_data"],
                (archive["structure_row"], archive["structure_col"]),
            ),
            shape=(num_nodes, num_nodes),
        ).tocsr()
        return Explanations(
            feature_mask=archive["feature_mask"],
            feature_explanation=archive["feature_explanation"],
            structure_mask=structure,
            subgraph_explanation=structure,
            khop_edge_index=archive["khop_edge_index"],
        )
