"""Graph convolution layers and the shared SES graph encoder."""

from .arma import ARMAConv
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
from .gin import GINConv
from .sage import SAGEConv
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
    "SAGEConv",
    "GINConv",
    "ARMAConv",
    "TransformerConv",
    "ASDGNConv",
    "GraphEncoder",
]
