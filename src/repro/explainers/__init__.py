"""Post-hoc explainer baselines and the shared evaluation protocol."""

from .attention import AttentionExplainer
from .base import Explainer, NodeExplanation, khop_subgraph
from .evaluation import candidate_edges_for_nodes, evaluate_edge_auc, sample_motif_nodes
from .gnn_explainer import GNNExplainer
from .grad import GradExplainer
from .graphlime import GraphLIME
from .pg_explainer import PGExplainer
from .pgm_explainer import PGMExplainer

__all__ = [
    "Explainer",
    "NodeExplanation",
    "khop_subgraph",
    "GradExplainer",
    "AttentionExplainer",
    "GNNExplainer",
    "PGExplainer",
    "PGMExplainer",
    "GraphLIME",
    "evaluate_edge_auc",
    "candidate_edges_for_nodes",
    "sample_motif_nodes",
]
