"""Dataset plumbing shared by synthetic and surrogate generators.

Ground-truth explanation labels for the synthetic datasets are stored in
``Graph.extra``:

* ``"gt_edge_mask"`` — dict mapping an (u, v) ordered edge tuple to 1.0 for
  motif-internal edges (the GNNExplainer evaluation convention).
* ``"motif_nodes"`` — array of node ids that belong to attached motifs;
  explanation accuracy is evaluated on these nodes.
* ``"role_ids"`` — fine-grained structural roles (used as labels).
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from ..graph import Graph

EdgeSet = Set[Tuple[int, int]]


def directed_pairs(edges: Iterable[Tuple[int, int]]) -> EdgeSet:
    """Expand undirected pairs into both directions."""
    out: EdgeSet = set()
    for u, v in edges:
        out.add((int(u), int(v)))
        out.add((int(v), int(u)))
    return out


def attach_ground_truth(graph: Graph, motif_edges: EdgeSet, motif_nodes: Iterable[int]) -> None:
    """Record motif membership on the graph for explanation scoring."""
    graph.extra["gt_edge_mask"] = {edge: 1.0 for edge in motif_edges}
    graph.extra["motif_nodes"] = np.array(sorted(set(int(n) for n in motif_nodes)), dtype=np.int64)


def perturb_with_random_edges(
    edges: List[Tuple[int, int]],
    num_nodes: int,
    fraction: float,
    rng: np.random.Generator,
) -> List[Tuple[int, int]]:
    """Add ``fraction * len(edges)`` random noise edges (GNNExplainer setup)."""
    existing = directed_pairs(edges)
    target = int(round(fraction * len(edges)))
    added: List[Tuple[int, int]] = []
    attempts = 0
    while len(added) < target and attempts < 50 * max(target, 1):
        attempts += 1
        u, v = rng.integers(0, num_nodes, size=2)
        if u == v or (int(u), int(v)) in existing:
            continue
        pair = (int(u), int(v))
        existing.update(directed_pairs([pair]))
        added.append(pair)
    return edges + added
