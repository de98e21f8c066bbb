"""Graph Isomorphism Network layer (Xu et al., 2019).

``out = MLP((1 + eps) * x + sum_{u in N(v)} w_uv * x_u)`` with a learnable
``eps``.  GIN is part of the paper's "trivial GNN" taxonomy (Table 1) and
serves as an extra backbone in ablation benches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import MLP, Tensor, as_tensor, gather_rows, segment_sum
from ..tensor.tensor import Tensor as _Tensor
from .base import GraphConv, edge_layouts


class GINConv(GraphConv):
    """One GIN convolution with a 2-layer MLP update."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden_features: Optional[int] = None,
        train_eps: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        hidden_features = hidden_features or out_features
        self.in_features = in_features
        self.out_features = out_features
        self.mlp = MLP((in_features, hidden_features, out_features), rng=rng)
        self.eps = _Tensor(np.zeros(1), requires_grad=train_eps)
        if train_eps:
            self._parameters["eps"] = self.eps

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
        if edge_weight is not None:
            messages = messages * edge_weight.reshape(-1, 1)
        aggregated = segment_sum(messages, dst, num_nodes, layout=layouts.dst)
        combined = x * (as_tensor(1.0) + self.eps) + aggregated
        return self.mlp(combined)
