"""Neighbor-sampled minibatching for SES training (docs/PERF.md).

The phase-1 objective scores a mask weight for *every* k-hop edge, so the
full-batch loop materialises ``O(|A^(k)|)`` pair features per epoch — the
memory wall between Cora-scale runs and larger graphs.  This module supplies
the ingredients of the minibatch path:

* :class:`AnchorBatchSampler` — partitions the node set into shuffled anchor
  batches from a **dedicated** RNG stream.  Keeping the sampler's draws out
  of the trainer's shared generator is what makes ``batch_size=N`` reproduce
  the full-batch trajectory bit-for-bit: a single covering batch consumes
  *zero* sampler draws, so every dropout / negative-sampling draw of the
  trainer happens in exactly the full-batch order.
* :func:`extract_phase1_batch` / :func:`extract_phase2_batch` — k-hop
  subgraph extraction with node relabeling.  Edge subsets are selected as
  *ascending column positions* of the global edge lists, so the global
  ordering (and therefore every cached CSR segment layout and conv
  edge-constant) is preserved; with a single covering batch the extraction
  degenerates to the identity.
* :class:`BatchCache` — the LRU of extracted batches that the trainer and
  the data-parallel workers share.

The locality argument mirrors GNNExplainer/SE-GNN: a node's explanation and
its triplet pairs live inside its k-hop computation subgraph, so scoring
masks per sampled neighbourhood loses only cross-batch boundary pairs.  That
truncation is the standard neighbour-sampling approximation — exactness is
guaranteed (and tested) for ``batch_size >= num_nodes``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..utils.seed import capture_rng_state, restore_rng_state

# Sampler streams are derived from (seed, _SAMPLER_STREAM) so they can never
# collide with the trainer's make_rng(seed) stream.
_SAMPLER_STREAM = 0x5E5B


class AnchorBatchSampler:
    """Shuffled anchor-batch partitions from a dedicated RNG stream.

    Parameters
    ----------
    num_anchors:
        Total number of anchor nodes (batches partition ``range(num_anchors)``).
    batch_size:
        Anchors per batch.  ``batch_size >= num_anchors`` yields one covering
        batch in natural order and consumes **no** RNG draws (the parity
        guarantee of docs/PERF.md).
    seed:
        Base seed; the actual stream is ``default_rng((seed, 0x5E5B))`` so it
        is independent of the trainer's generator for the same seed.
    """

    def __init__(self, num_anchors: int, batch_size: int, seed: int = 0) -> None:
        num_anchors = int(num_anchors)
        batch_size = int(batch_size)
        if num_anchors <= 0:
            raise ValueError(f"num_anchors must be positive, got {num_anchors}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.num_anchors = num_anchors
        self.batch_size = batch_size
        self.seed = int(seed)
        self.rng = np.random.default_rng((self.seed, _SAMPLER_STREAM))
        # Completed permutation draws; with the (epoch-boundary) snapshot
        # discipline of the trainer this doubles as the batch cursor — a
        # restored sampler always resumes at batch 0 of the next epoch.
        self.epochs_sampled = 0

    @property
    def num_batches(self) -> int:
        return -(-self.num_anchors // self.batch_size)

    def epoch_batches(self) -> List[np.ndarray]:
        """Anchor-id batches for one epoch (each sorted ascending).

        A single covering batch is returned in natural order without touching
        the RNG; otherwise one permutation is drawn and split.
        """
        if self.batch_size >= self.num_anchors:
            return [np.arange(self.num_anchors, dtype=np.int64)]
        order = self.rng.permutation(self.num_anchors)
        self.epochs_sampled += 1
        return [
            np.sort(order[start:start + self.batch_size]).astype(np.int64)
            for start in range(0, self.num_anchors, self.batch_size)
        ]

    def state_dict(self) -> Dict:
        """JSON-safe state for snapshot/restore (bit-identical resume)."""
        return {
            "num_anchors": self.num_anchors,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "epochs_sampled": self.epochs_sampled,
            "rng_state": capture_rng_state(self.rng),
        }

    def load_state_dict(self, state: Dict) -> None:
        if int(state["num_anchors"]) != self.num_anchors:
            raise ValueError(
                f"sampler state covers {state['num_anchors']} anchors; "
                f"this sampler has {self.num_anchors}"
            )
        if int(state["batch_size"]) != self.batch_size:
            raise ValueError(
                f"sampler state was taken at batch_size={state['batch_size']}; "
                f"this sampler has batch_size={self.batch_size}"
            )
        self.epochs_sampled = int(state["epochs_sampled"])
        restore_rng_state(self.rng, state["rng_state"])

    def __repr__(self) -> str:
        return (
            f"AnchorBatchSampler(anchors={self.num_anchors}, "
            f"batch_size={self.batch_size}, batches={self.num_batches})"
        )


@dataclass
class SubgraphBatch:
    """One anchor batch's relabeled computation subgraph.

    All ``*_positions`` arrays are ascending column positions into the
    corresponding *global* edge list, so per-edge state (frozen mask values,
    accumulated edge sensitivity) maps between batch and graph by plain
    indexing.  All edge/pair arrays are relabeled to ``range(len(nodes))``.
    """

    anchors: np.ndarray
    """Global ids of the batch anchors (sorted)."""
    nodes: np.ndarray
    """Sorted global ids of every node in the subgraph."""
    anchor_local: np.ndarray
    """Positions of the anchors inside ``nodes``."""
    edge_index: np.ndarray
    """(2, e) relabeled base edges induced on ``nodes``."""
    edge_positions: np.ndarray
    """Global columns of ``edge_index`` in the graph's edge list."""
    khop_edges: Optional[np.ndarray] = None
    """(2, m) relabeled k-hop pairs touching the batch (phase 1 only)."""
    khop_positions: Optional[np.ndarray] = None
    """Global k-hop columns kept (ascending — global order preserved)."""
    khop_center_in_batch: Optional[np.ndarray] = None
    """Bool over kept k-hop columns: centre endpoint is a batch anchor.
    Drives L_sub so each k-hop edge is supervised exactly once per epoch."""
    negative_pairs: Optional[np.ndarray] = None
    """(2, q) relabeled negative pairs anchored in the batch (phase 1)."""
    negative_positions: Optional[np.ndarray] = None
    """Global negative-pair columns kept."""
    pooled: Optional[tuple] = None
    """Relabeled ``pooled_pair_indices`` tuple for the batch (phase 2)."""

    @property
    def num_local_nodes(self) -> int:
        return int(self.nodes.shape[0])

    def anchor_mask(self) -> np.ndarray:
        """Local boolean mask selecting the batch anchors."""
        mask = np.zeros(self.num_local_nodes, dtype=bool)
        mask[self.anchor_local] = True
        return mask


class BatchCache:
    """Least-recently-used memo of extracted batch subgraphs.

    Keys are ``(phase, anchor bytes)``.  Eviction drops one entry at a
    time, like ``tensor.csr.cached_layout``: a wholesale clear on overflow
    would throw away a minibatch epoch's whole working set.  Owners clear it
    whenever the inputs baked into cached batches change (negative
    resampling, snapshot restore, a constants re-ship).
    """

    LIMIT = 32

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple, SubgraphBatch]" = OrderedDict()

    def get(
        self, phase: str, anchors: np.ndarray, extract: Callable[[], SubgraphBatch]
    ) -> SubgraphBatch:
        key = (phase, anchors.tobytes())
        batch = self._entries.get(key)
        if batch is not None:
            self._entries.move_to_end(key)
            return batch
        while len(self._entries) >= self.LIMIT:
            self._entries.popitem(last=False)
        batch = self._entries[key] = extract()
        return batch

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def bfs_closure(adjacency: sp.csr_matrix, seeds: np.ndarray, hops: int) -> np.ndarray:
    """Sorted node ids within ``hops`` base-graph hops of ``seeds``."""
    num_nodes = adjacency.shape[0]
    reached = np.zeros(num_nodes, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    reached[seeds] = True
    frontier = seeds
    for _ in range(int(hops)):
        if frontier.size == 0:
            break
        starts = adjacency.indptr[frontier]
        stops = adjacency.indptr[frontier + 1]
        if int((stops - starts).sum()) == 0:
            break
        neighbor_chunks = [
            adjacency.indices[a:b] for a, b in zip(starts, stops) if b > a
        ]
        neighbors = np.unique(np.concatenate(neighbor_chunks))
        fresh = neighbors[~reached[neighbors]]
        reached[fresh] = True
        frontier = fresh
    return np.flatnonzero(reached).astype(np.int64)


def _relabel(nodes: np.ndarray, global_ids: np.ndarray) -> np.ndarray:
    """Map global node ids (all present in ``nodes``) to local positions."""
    return np.searchsorted(nodes, global_ids).astype(np.int64)


def _induced_edges(
    graph, nodes: np.ndarray
) -> tuple:
    """Base edges with both endpoints in ``nodes``: (local (2, e), positions)."""
    edge_index = graph.edge_index()
    in_sub = np.zeros(graph.num_nodes, dtype=bool)
    in_sub[nodes] = True
    positions = np.flatnonzero(in_sub[edge_index[0]] & in_sub[edge_index[1]])
    local = np.vstack(
        [
            _relabel(nodes, edge_index[0][positions]),
            _relabel(nodes, edge_index[1][positions]),
        ]
    )
    return local, positions.astype(np.int64)


def extract_phase1_batch(
    graph,
    anchors: np.ndarray,
    khop_edges: np.ndarray,
    negative_pairs: np.ndarray,
    hops: int,
) -> SubgraphBatch:
    """Phase-1 computation subgraph for one anchor batch.

    Keeps every global k-hop column touching the batch (centre *or* other
    endpoint — the masked forward aggregates along both directions) and every
    negative pair anchored in the batch, then closes the node set under
    ``hops`` base-graph hops so the plain forward sees each anchor's full
    receptive field.  Column subsets are ascending, so with a covering batch
    the extraction is the identity and all edge-content caches hit.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    in_batch = np.zeros(graph.num_nodes, dtype=bool)
    in_batch[anchors] = True

    khop_positions = np.flatnonzero(
        in_batch[khop_edges[0]] | in_batch[khop_edges[1]]
    ).astype(np.int64)
    kept_khop = khop_edges[:, khop_positions]
    center_in_batch = in_batch[kept_khop[0]]

    if negative_pairs.shape[1]:
        negative_positions = np.flatnonzero(in_batch[negative_pairs[0]]).astype(np.int64)
    else:
        negative_positions = np.empty(0, dtype=np.int64)
    kept_negative = negative_pairs[:, negative_positions]

    seed_parts = [anchors, kept_khop.ravel(), kept_negative.ravel()]
    seeds = np.unique(np.concatenate(seed_parts))
    nodes = bfs_closure(graph.adjacency, seeds, hops)

    edge_local, edge_positions = _induced_edges(graph, nodes)
    return SubgraphBatch(
        anchors=anchors,
        nodes=nodes,
        anchor_local=_relabel(nodes, anchors),
        edge_index=edge_local,
        edge_positions=edge_positions,
        khop_edges=np.vstack(
            [_relabel(nodes, kept_khop[0]), _relabel(nodes, kept_khop[1])]
        ),
        khop_positions=khop_positions,
        khop_center_in_batch=center_in_batch,
        negative_pairs=np.vstack(
            [_relabel(nodes, kept_negative[0]), _relabel(nodes, kept_negative[1])]
        ),
        negative_positions=negative_positions,
    )


def extract_phase2_batch(
    graph,
    anchors: np.ndarray,
    pooled: tuple,
    hops: int,
) -> SubgraphBatch:
    """Phase-2 subgraph for one anchor batch.

    ``pooled`` is the *global-id* pooled-pair tuple restricted to this
    batch's anchors (``pooled_pair_indices(..., anchors=...)``); its node
    indices are relabeled here alongside the induced base edges.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    pair_anchors, pos_index, pos_segment, neg_index, neg_segment = pooled
    seeds = np.unique(np.concatenate([anchors, pair_anchors, pos_index, neg_index]))
    nodes = bfs_closure(graph.adjacency, seeds, hops)
    edge_local, edge_positions = _induced_edges(graph, nodes)
    local_pooled = (
        _relabel(nodes, pair_anchors),
        _relabel(nodes, pos_index),
        np.asarray(pos_segment, dtype=np.int64),
        _relabel(nodes, neg_index),
        np.asarray(neg_segment, dtype=np.int64),
    )
    return SubgraphBatch(
        anchors=anchors,
        nodes=nodes,
        anchor_local=_relabel(nodes, anchors),
        edge_index=edge_local,
        edge_positions=edge_positions,
        pooled=local_pooled,
    )
