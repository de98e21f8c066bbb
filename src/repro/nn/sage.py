"""GraphSAGE layer with mean aggregation (Hamilton et al., 2017).

``out = x W_self + mean_{u in N(v)} x_u W_neigh``.  With differentiable
edge weights the neighbour term becomes a weighted mean whose denominator
is the (differentiable) weight sum, so a structure mask rescales neighbour
influence smoothly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, as_tensor, gather_rows, segment_mean, segment_sum
from ..tensor.init import xavier_uniform, zeros_init
from .base import GraphConv, edge_layouts


class SAGEConv(GraphConv):
    """One GraphSAGE (mean aggregator) convolution."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight_self = xavier_uniform(in_features, out_features, rng)
        self.weight_neigh = xavier_uniform(in_features, out_features, rng)
        self.bias = zeros_init((out_features,)) if bias else None

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tensor:
        layouts = self._cached(edge_layouts, edge_index, num_nodes)
        src, dst = edge_index
        messages = gather_rows(x, src, layout=layouts.src)
        if edge_weight is None:
            aggregated = segment_mean(messages, dst, num_nodes, layout=layouts.dst)
        else:
            w = edge_weight.reshape(-1, 1)
            weighted = segment_sum(messages * w, dst, num_nodes, layout=layouts.dst)
            denom = segment_sum(
                edge_weight, dst, num_nodes, layout=layouts.dst
            ) + as_tensor(1e-12)
            aggregated = weighted / denom.reshape(-1, 1)
        out = x @ self.weight_self + aggregated @ self.weight_neigh
        if self.bias is not None:
            out = out + self.bias
        return out
