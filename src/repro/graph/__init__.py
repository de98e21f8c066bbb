"""Graph data structures and graph-level preprocessing."""

from .graph import Graph, pack_graph, unpack_graph
from .khop import khop_adjacency, khop_edge_index, scatter_edge_values
from .minibatch import (
    AnchorBatchSampler,
    BatchCache,
    SubgraphBatch,
    bfs_closure,
    extract_phase1_batch,
    extract_phase2_batch,
)
from .normalize import gcn_edge_norm
from .sampling import negative_edge_index, sample_negative_sets
from .splits import apply_split, classification_split, explanation_split, random_split

__all__ = [
    "Graph",
    "pack_graph",
    "unpack_graph",
    "khop_adjacency",
    "khop_edge_index",
    "scatter_edge_values",
    "AnchorBatchSampler",
    "BatchCache",
    "SubgraphBatch",
    "bfs_closure",
    "extract_phase1_batch",
    "extract_phase2_batch",
    "gcn_edge_norm",
    "sample_negative_sets",
    "negative_edge_index",
    "random_split",
    "apply_split",
    "classification_split",
    "explanation_split",
]
