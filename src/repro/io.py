"""Serialisation of graphs: :func:`save_graph` / :func:`load_graph`.

A graph (topology, features, labels, splits and synthetic ground-truth
masks) round-trips through a numpy ``.npz`` archive without pickle, so it
is safe to load from untrusted sources.  A trained model ships as a serving
snapshot instead (:meth:`repro.core.SESTrainer.save_snapshot_to`, read back
by :func:`repro.serve.load_serving_state`); full *training-state* snapshots
live in :mod:`repro.resilience.snapshot`.

Durability (docs/ROBUSTNESS.md): a save streams to a ``.tmp`` sibling
(members stored, not deflated; deflated files from earlier versions still
load) and is fsynced before an atomic rename — the same pattern the telemetry
recorder uses — so a kill mid-save never leaves a corrupt file at the final
path.  A load converts the opaque ``zipfile.BadZipFile`` / ``KeyError``
that numpy raises on truncated or damaged archives into a
:class:`~repro.resilience.storage.CheckpointError` naming the path and the
failure.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .graph import Graph, pack_graph, unpack_graph
from .resilience.storage import CheckpointError, atomic_savez, open_npz

PathLike = Union[str, Path]

__all__ = ["CheckpointError", "save_graph", "load_graph"]


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
