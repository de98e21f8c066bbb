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
from .normalize import (
    gcn_edge_norm,
    gcn_normalized_adjacency,
    row_normalize_features,
    row_normalized_adjacency,
)
from .sampling import negative_edge_index, relational_neighbor_sets, sample_negative_sets
from .splits import apply_split, classification_split, explanation_split, random_split
from .stats import (
    GraphProfile,
    connected_components,
    degree_gini,
    edge_homophily,
    feature_class_correlation,
    profile_graph,
)

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
    "gcn_normalized_adjacency",
    "gcn_edge_norm",
    "row_normalized_adjacency",
    "row_normalize_features",
    "relational_neighbor_sets",
    "sample_negative_sets",
    "negative_edge_index",
    "random_split",
    "apply_split",
    "GraphProfile",
    "profile_graph",
    "edge_homophily",
    "degree_gini",
    "feature_class_correlation",
    "connected_components",
    "classification_split",
    "explanation_split",
]
