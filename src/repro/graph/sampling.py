"""Negative-neighbour sampling for the SES structure mask (paper §4.1.2).

For each node ``v_i`` the paper samples a negative set ``P_n(v_i)`` of the
same size as its k-hop neighbourhood ``P_r(v_i)``, drawn from the complement
of ``A^(k)`` and — when labels are available — restricted to nodes of a
*different* label than ``v_i``.  Only training labels steer that choice.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .graph import Graph
from .khop import khop_adjacency


def sample_negative_sets(
    graph: Graph,
    k: int,
    rng: np.random.Generator,
    max_per_node: Optional[int] = None,
) -> Dict[int, np.ndarray]:
    """``P_n``: per-node negatives sampled from the complement of ``A^(k)``.

    Parameters
    ----------
    graph, k:
        Graph and neighbourhood radius.
    rng:
        Random generator (negatives are resampled per run, per the paper).
        Where the graph has labels, negatives prefer nodes whose training
        label differs from the anchor's — the variant the paper describes
        ("not part of the subgraph of the central node and with different
        labels"); a graph without labels samples label-free.
    max_per_node:
        Optional cap, handy for very dense graphs.

    Returns
    -------
    dict
        node → array of negative node ids, same length as its k-hop
        neighbourhood (capped by availability).
    """
    num_nodes = graph.num_nodes
    reach = khop_adjacency(graph, k)
    labels = graph.labels
    if labels is not None and graph.train_mask is not None:
        # Only training labels may steer sampling — using test labels here
        # would leak supervision into the mask.
        labels = np.where(graph.train_mask, labels, -1)
    label_of = labels.tolist() if labels is not None else None
    negatives: Dict[int, np.ndarray] = {}
    # Degree-MATCHED negatives: for every k-hop neighbour k of the anchor we
    # sample one non-neighbour k' of (approximately) the same degree.  This
    # is essential for unbiased masks: with uniform negatives the scorer can
    # separate positives from negatives by endpoint-degree/composition alone
    # — a shortcut that *inverts* explanations on structural-role datasets
    # (motif nodes all have small degree).  Matching forces the scorer to
    # rely on signals that genuinely distinguish neighbours (shared context,
    # label agreement).
    #
    # A neighbour of degree d draws positions in ``[low, high)`` of the
    # degree-sorted node order: every node whose degree is within ±50% of d,
    # widened by four places each side when fewer than four nodes qualify.
    degrees = np.asarray(graph.adjacency.getnnz(axis=1), dtype=np.int64)
    node_at = np.argsort(degrees, kind="mergesort")
    sorted_degrees = degrees[node_at]
    band_low = np.searchsorted(sorted_degrees, (degrees * 0.5).astype(np.int64), "left")
    band_high = np.searchsorted(sorted_degrees, np.ceil(degrees * 1.5).astype(np.int64), "right")
    narrow = band_high - band_low < 4  # widen degenerate bands (unique hub degrees)
    band_low = np.where(narrow, np.maximum(0, band_low - 4), band_low)
    band_high = np.where(narrow, np.minimum(num_nodes, band_high + 4), band_high)

    for node in range(num_nodes):
        khop_ids = reach.indices[reach.indptr[node]: reach.indptr[node + 1]]
        need = len(khop_ids)
        if max_per_node is not None:
            need = min(need, max_per_node)
        if need == 0:
            negatives[node] = np.empty(0, dtype=np.int64)
            continue
        neighbor_ids = khop_ids
        if need < len(khop_ids):
            neighbor_ids = rng.choice(khop_ids, size=need, replace=False)
        # The anchor, its whole k-hop set, and every negative already taken.
        excluded = set(khop_ids.tolist())
        excluded.add(node)
        node_label = label_of[node] if label_of is not None else -1
        avoid = node_label if node_label >= 0 else None
        low = band_low[neighbor_ids][:, None]
        high = band_high[neighbor_ids][:, None]
        chosen: list = []
        start, batch = 0, need
        while start < need:
            # Attempt 0 of the next ``batch`` neighbours in one call: a
            # broadcast draw consumes the generator exactly like one ``size=6``
            # call per row (tests/graph/test_sampler_oracle.py pins this).
            stop = min(need, start + batch)
            saved = rng.bit_generator.state
            rows = node_at[rng.integers(low[start:stop], high[start:stop], size=(stop - start, 6))]
            for row, candidates in enumerate(rows.tolist(), start):
                pick = _first_acceptable(candidates, excluded, label_of, avoid)
                if pick is None:
                    break
                chosen.append(pick)
                excluded.add(pick)
            else:
                start, batch = stop, 2 * batch
                continue
            # Row ``row`` took nothing: rewind and redraw rows up to it, so
            # its attempts 1-9 come next in the stream, as row by row.
            rng.bit_generator.state = saved
            rng.integers(low[start: row + 1], high[start: row + 1], size=(row + 1 - start, 6))
            for attempt in range(1, 10):
                candidates = node_at[rng.integers(low[row, 0], high[row, 0], size=6)]
                # Prefer different-label negatives (paper §4.1.2); relax after
                # several rounds so tiny or single-class graphs still get
                # negatives.
                pick = _first_acceptable(
                    candidates.tolist(), excluded, label_of, avoid if attempt < 6 else None
                )
                if pick is not None:
                    chosen.append(pick)
                    excluded.add(pick)
                    break
            # Size the next batch from the run of acceptances just seen, so
            # anchors whose rows often fail redraw little.
            start, batch = row + 1, 2 * (row + 1 - start)
        negatives[node] = np.array(chosen, dtype=np.int64)
    return negatives


def _first_acceptable(candidates, excluded, label_of, avoid_label):
    """The first candidate not excluded and, when ``avoid_label`` is set, not
    of that label; ``None`` when every candidate is rejected."""
    for candidate in candidates:
        if candidate in excluded:
            continue
        if avoid_label is not None and label_of[candidate] == avoid_label:
            continue
        return candidate
    return None


def negative_edge_index(negatives: Dict[int, np.ndarray]) -> np.ndarray:
    """Flatten ``P_n`` into a ``(2, M)`` (anchor, negative) pair list."""
    sources, targets = [], []
    for node, negs in negatives.items():
        if len(negs) == 0:
            continue
        sources.append(np.full(len(negs), node, dtype=np.int64))
        targets.append(negs)
    if not sources:
        return np.zeros((2, 0), dtype=np.int64)
    return np.vstack([np.concatenate(sources), np.concatenate(targets)])
