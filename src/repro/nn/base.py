"""Shared machinery for graph convolution layers.

Every conv in :mod:`repro.nn` follows the same calling convention::

    out = conv(x, edge_index, num_nodes, edge_weight=None)

* ``x`` — ``(N, F)`` node-feature :class:`~repro.tensor.Tensor`.
* ``edge_index`` — ``(2, E)`` numpy array of (source, destination) pairs.
* ``edge_weight`` — optional ``(E,)`` :class:`Tensor` of differentiable
  per-edge multipliers.  This is how the SES structure mask ``M̂_s ⊙ A``
  (paper Eqs. 8/10) enters the aggregation: the structural normalisation
  coefficients stay constant while the mask weights receive gradients.

Layers cache per-``edge_index`` constants (self-looped indices, degree
normalisation, CSR segment layouts) keyed on the builder and the array's
content, since the topology is fixed throughout a training run.  The convs
of one model share one bounded cache (:func:`share_edge_cache`), so the
layers of an encoder build each edge list's constants once.  The cached
:class:`~repro.tensor.csr.EdgeLayouts` pair — one destination-sorted layout
for the scatter side, one source-sorted layout for the gather adjoints — is
threaded into every ``segment_*``/``gather_rows``/``edge_spmm`` call so the
hot path never re-sorts or re-hashes the edge list (see docs/PERF.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

from ..graph.normalize import gcn_edge_norm
from ..tensor import (
    CSRSegmentLayout,
    Module,
    Tensor,
    as_tensor,
    edge_spmm,
    functional as F,
    segment_sum,
)
from ..tensor.csr import EdgeLayouts, edge_layouts


def add_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Append the ``N`` self-loop edges to ``edge_index``."""
    loops = np.arange(num_nodes, dtype=np.int64)
    return np.hstack([edge_index, np.vstack([loops, loops])])


def looped_constants(
    edge_index: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, EdgeLayouts, CSRSegmentLayout]:
    """Self-looped edge index, its CSR layout pair, and the destination
    layout of the un-looped edges (for :func:`extend_edge_weight_scaled`)."""
    full_index = add_self_loops(edge_index, num_nodes)
    return (
        full_index,
        edge_layouts(full_index, num_nodes),
        CSRSegmentLayout(edge_index[1], num_nodes),
    )


def extend_edge_weight(edge_weight: Optional[Tensor], num_nodes: int) -> Optional[Tensor]:
    """Extend differentiable edge weights with unit self-loop weights."""
    if edge_weight is None:
        return None
    ones = as_tensor(np.ones(num_nodes))
    return F.concatenate([edge_weight, ones], axis=0)


def extend_edge_weight_scaled(
    edge_weight: Optional[Tensor], dst_layout: CSRSegmentLayout
) -> Optional[Tensor]:
    """Extend mask weights with *mean-scaled* self-loop weights.

    The self-loop of node ``v`` gets the mean of v's incident mask weights
    (1 for isolated nodes).  Together with degree renormalisation this makes
    the masked aggregation exactly invariant to a uniform rescaling of the
    mask — the classification loss can only profit from the mask by
    *re-ranking* neighbours, never by inflating or deflating all weights
    (which would otherwise let it bypass the subgraph loss).  ``dst_layout``
    is the destination layout of the un-looped edges that ``edge_weight``
    is aligned with (the third entry of :func:`looped_constants`).
    """
    if edge_weight is None:
        return None
    counts = dst_layout.counts.astype(np.float64)
    isolated = counts == 0
    safe_counts = np.maximum(counts, 1.0)
    incoming_sum = segment_sum(
        edge_weight, dst_layout.segment_ids, dst_layout.num_segments, layout=dst_layout
    )
    self_weights = incoming_sum * as_tensor(1.0 / safe_counts)
    if isolated.any():
        self_weights = self_weights + as_tensor(isolated.astype(np.float64))
    return F.concatenate([edge_weight, self_weights], axis=0)


class EdgeConstantCache:
    """Least-recently-used edge constants, keyed on builder and content.

    Keys hold the builder, the node count and the edge array's length and
    byte hash — not object identity: numpy reuses ids of collected arrays,
    and explainers feed many distinct subgraphs through the same conv.
    Hashing the raw bytes is O(E), negligible next to the aggregation.
    """

    ENTRIES_PER_CONV = 9

    def __init__(self, limit: int = ENTRIES_PER_CONV) -> None:
        self.limit = limit
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, builder: Callable, edge_index: np.ndarray, num_nodes: int):
        """``builder(edge_index, num_nodes)``, built once per key."""
        key = (builder, num_nodes, edge_index.shape[1], hash(edge_index.tobytes()))
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            return value
        while len(self._entries) >= self.limit:
            self._entries.popitem(last=False)
        value = self._entries[key] = builder(edge_index, num_nodes)
        return value


class GraphConv(Module):
    """Abstract base conv providing the edge-constant cache."""

    def __init__(self) -> None:
        super().__init__()
        self._edge_cache = EdgeConstantCache()

    def _cached(self, builder: Callable, edge_index: np.ndarray, num_nodes: int):
        """``builder(edge_index, num_nodes)`` from this conv's edge cache."""
        return self._edge_cache.get(builder, edge_index, num_nodes)

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tensor:
        raise NotImplementedError


def share_edge_cache(*convs: GraphConv) -> None:
    """Give the convs of one model a single edge-constant cache.

    Layers that see the same edge list then build its constants once.  The
    shared cache holds as many entries as the convs' own caches together.
    """
    shared = EdgeConstantCache(sum(conv._edge_cache.limit for conv in convs))
    for conv in convs:
        conv._edge_cache = shared


def weighted_aggregate(
    h: Tensor,
    edge_index: np.ndarray,
    num_nodes: int,
    coefficients: np.ndarray,
    edge_weight: Optional[Tensor],
    layouts: Optional[EdgeLayouts] = None,
) -> Tensor:
    """Aggregate ``sum_e coeff_e * w_e * h[src_e]`` onto destination nodes.

    ``coefficients`` are constant structural terms; ``edge_weight`` is an
    optional differentiable multiplier aligned with the same edges, folded
    into one per-edge weight ``coeff_e * w_e`` before the product.
    ``layouts`` threads the conv's cached CSR layouts into
    :func:`~repro.tensor.edge_spmm`.
    """
    weight = as_tensor(coefficients)
    if edge_weight is not None:
        weight = weight * edge_weight
    return edge_spmm(h, weight, edge_index, num_nodes, layouts=layouts)


def gcn_constants(
    edge_index: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray, EdgeLayouts]:
    """Self-looped edge index, symmetric-normalisation coefficients, and the
    CSR layout pair of the self-looped edge list."""
    full_index, coefficients = gcn_edge_norm(edge_index, num_nodes)
    return full_index, coefficients, edge_layouts(full_index, num_nodes)
