"""Graph Convolutional Network layer (Kipf & Welling, 2017).

``out = D̂^{-1/2}(A + I)D̂^{-1/2} (X W) + b`` with optional differentiable
per-edge mask weights multiplying the normalised coefficients (self-loops
keep unit weight, so a node never masks out its own features).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, as_tensor, edge_spmm, gather_rows, segment_sum
from ..tensor.init import xavier_uniform, zeros_init
from .base import (
    GraphConv,
    extend_edge_weight_scaled,
    gcn_constants,
    looped_constants,
    weighted_aggregate,
)


class GCNConv(GraphConv):
    """One GCN convolution."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = xavier_uniform(in_features, out_features, rng)
        self.bias = zeros_init((out_features,))

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tensor:
        h = x @ self.weight
        if edge_weight is None:
            full_index, coefficients, layouts = self._cached(
                gcn_constants, edge_index, num_nodes
            )
            out = weighted_aggregate(
                h, full_index, num_nodes, coefficients, None, layouts=layouts
            )
        else:
            out = self._masked_aggregate(h, edge_index, num_nodes, edge_weight)
        return out + self.bias

    def _masked_aggregate(
        self, h: Tensor, edge_index: np.ndarray, num_nodes: int, edge_weight: Tensor
    ) -> Tensor:
        """Symmetric normalisation computed from the *masked* degrees.

        ``out_v = sum_e w_e / sqrt(d_src d_dst) * h_src`` with
        ``d_v = 1 + sum of incident mask weights`` — fully differentiable in
        the mask.  Normalising by the masked degree means a uniform
        inflation of all mask values cancels out, so the mask can only help
        the classification loss by *re-weighting* neighbours (the behaviour
        Eq. 8 is meant to train).
        """
        full_index, layouts, edge_dst = self._cached(
            looped_constants, edge_index, num_nodes
        )
        w = extend_edge_weight_scaled(edge_weight, edge_dst)
        src, dst = full_index
        degree = segment_sum(w, dst, num_nodes, layout=layouts.dst) + as_tensor(1e-9)
        inv_sqrt = degree ** -0.5
        coeff = (
            w
            * gather_rows(inv_sqrt, src, layout=layouts.src)
            * gather_rows(inv_sqrt, dst, layout=layouts.dst)
        )
        return edge_spmm(h, coeff, full_index, num_nodes, layouts=layouts)
