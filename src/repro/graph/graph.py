"""Core graph container used across the SES reproduction.

:class:`Graph` is the analogue of a PyG ``Data`` object: it stores node
features ``X``, an undirected adjacency ``A`` (scipy CSR), optional labels
``Y`` and split masks, and caches derived artifacts (edge index, degrees,
k-hop expansions) that the model stack queries repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np
import scipy.sparse as sp


def _validate_adjacency(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Coerce to CSR, drop explicit zeros and self-loops, and symmetrise."""
    adj = sp.csr_matrix(adjacency, dtype=np.float64)
    if adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got {adj.shape}")
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    # Symmetrise: every graph in the paper is undirected.
    adj = adj.maximum(adj.T)
    adj.sort_indices()
    return adj


@dataclass
class Graph:
    """An attributed, undirected graph.

    Parameters
    ----------
    adjacency:
        ``(N, N)`` scipy sparse matrix; symmetrised and de-looped on entry.
    features:
        ``(N, F)`` dense node features ``X``.
    labels:
        Optional ``(N,)`` integer class labels ``Y``.
    train_mask / val_mask / test_mask:
        Optional boolean masks for transductive splits.
    name:
        Dataset name for logging.
    extra:
        Free-form metadata — synthetic datasets store their ground-truth
        explanation edges here under ``"gt_edge_mask"``.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    extra: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = _validate_adjacency(self.adjacency)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[0] != self.adjacency.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows for "
                f"{self.adjacency.shape[0]} adjacency rows"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.num_nodes,):
                raise ValueError(f"labels must have shape ({self.num_nodes},)")
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, mask_name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self.num_nodes,):
                    raise ValueError(f"{mask_name} must have shape ({self.num_nodes},)")
                setattr(self, mask_name, mask)
        self._cache: Dict = {}

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of directed edge entries (2x the undirected edge count)."""
        return int(self.adjacency.nnz)

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        return int(self.labels.max()) + 1

    def degrees(self) -> np.ndarray:
        """Node degrees (weighted if the adjacency carries weights)."""
        if "degrees" not in self._cache:
            self._cache["degrees"] = np.asarray(self.adjacency.sum(axis=1)).ravel()
        return self._cache["degrees"]

    # ------------------------------------------------------------------
    # Edge representations
    # ------------------------------------------------------------------
    def edge_index(self) -> np.ndarray:
        """``(2, E)`` array of (source, destination) pairs, both directions."""
        if "edge_index" not in self._cache:
            coo = self.adjacency.tocoo()
            self._cache["edge_index"] = np.vstack([coo.row, coo.col]).astype(np.int64)
        return self._cache["edge_index"]

    def edge_weights(self) -> np.ndarray:
        """``(E,)`` weights aligned with :meth:`edge_index`."""
        if "edge_weights" not in self._cache:
            coo = self.adjacency.tocoo()
            self._cache["edge_weights"] = coo.data.astype(np.float64)
        return self._cache["edge_weights"]

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node``."""
        start, stop = self.adjacency.indptr[node], self.adjacency.indptr[node + 1]
        return self.adjacency.indices[start:stop]

    def subgraph_nodes(self, center: int, hops: int) -> np.ndarray:
        """Node ids within ``hops`` of ``center`` (excluding the center)."""
        frontier = {center}
        reached = {center}
        for _ in range(hops):
            nxt = set()
            for node in frontier:
                nxt.update(self.neighbors(node).tolist())
            frontier = nxt - reached
            reached |= nxt
            if not frontier:
                break
        reached.discard(center)
        return np.array(sorted(reached), dtype=np.int64)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        features: Optional[np.ndarray] = None,
        **kwargs,
    ) -> "Graph":
        """Build a graph from an ``(E, 2)`` undirected edge array."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            adj = sp.csr_matrix((num_nodes, num_nodes))
        else:
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError("edges must be (E, 2)")
            data = np.ones(len(edges))
            adj = sp.coo_matrix(
                (data, (edges[:, 0], edges[:, 1])), shape=(num_nodes, num_nodes)
            ).tocsr()
        if features is None:
            features = np.ones((num_nodes, 1))
        return cls(adjacency=adj, features=features, **kwargs)

    def summary(self) -> str:
        """One-line description used by example scripts."""
        parts = [
            f"{self.name}: {self.num_nodes} nodes",
            f"{self.num_edges // 2} undirected edges",
            f"{self.num_features} features",
        ]
        if self.labels is not None:
            parts.append(f"{self.num_classes} classes")
        return ", ".join(parts)


def pack_graph(graph: Graph) -> Dict[str, np.ndarray]:
    """Flatten a graph into named arrays: topology, features, labels, splits
    and synthetic ground truth.  :func:`unpack_graph` inverts it.

    The arrays are the graph's own (features, labels, masks, the cached edge
    index), not copies: a graph is never mutated once built.
    """
    edge_index = graph.edge_index()
    packed = {
        "num_nodes": np.array(graph.num_nodes),
        "edge_row": edge_index[0],
        "edge_col": edge_index[1],
        "edge_data": graph.edge_weights(),
        "features": graph.features,
        "name": np.array(graph.name),
    }
    if graph.labels is not None:
        packed["labels"] = graph.labels
    for mask_name in ("train_mask", "val_mask", "test_mask"):
        mask = getattr(graph, mask_name)
        if mask is not None:
            packed[mask_name] = mask
    gt = graph.extra.get("gt_edge_mask")
    # `is not None`, not truthiness: an explicitly-empty mask ({}) means
    # "annotated, zero positive edges" and must round-trip as such.
    if gt is not None:
        edges = np.array(sorted(gt), dtype=np.int64).reshape(-1, 2)
        packed["gt_edges"] = edges
        packed["gt_values"] = np.array(
            [gt[tuple(edge)] for edge in edges], dtype=np.float64
        )
    if "motif_nodes" in graph.extra:
        packed["motif_nodes"] = graph.extra["motif_nodes"]
    return packed


def unpack_graph(arrays: Mapping[str, np.ndarray]) -> Graph:
    """Rebuild the graph :func:`pack_graph` flattened (``arrays`` may be an
    open ``.npz`` archive)."""
    num_nodes = int(arrays["num_nodes"])
    adjacency = sp.coo_matrix(
        (arrays["edge_data"], (arrays["edge_row"], arrays["edge_col"])),
        shape=(num_nodes, num_nodes),
    ).tocsr()
    graph = Graph(
        adjacency=adjacency,
        features=arrays["features"],
        name=str(arrays["name"]),
        **{
            key: arrays[key]
            for key in ("labels", "train_mask", "val_mask", "test_mask")
            if key in arrays
        },
    )
    if "gt_edges" in arrays:
        edges, values = arrays["gt_edges"], arrays["gt_values"]
        graph.extra["gt_edge_mask"] = {
            (int(u), int(v)): float(w) for (u, v), w in zip(edges, values)
        }
    if "motif_nodes" in arrays:
        graph.extra["motif_nodes"] = arrays["motif_nodes"]
    return graph
