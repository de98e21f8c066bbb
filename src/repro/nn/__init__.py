"""Graph convolution layers and the shared SES graph encoder."""

from .asdgn import ASDGNConv
from .base import (
    GraphConv,
    add_self_loops,
    extend_edge_weight,
    share_edge_cache,
    weighted_aggregate,
)
from .encoder import GraphEncoder
from .fusedgat import FusedGATConv
from .gat import GATConv
from .gcn import GCNConv
from .unimp import TransformerConv

__all__ = [
    "GraphConv",
    "add_self_loops",
    "extend_edge_weight",
    "share_edge_cache",
    "weighted_aggregate",
    "GCNConv",
    "GATConv",
    "FusedGATConv",
    "TransformerConv",
    "ASDGNConv",
    "GraphEncoder",
]
