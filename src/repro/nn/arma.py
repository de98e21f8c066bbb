"""ARMA graph convolution (Bianchi et al., 2021).

A stack of ``K`` parallel auto-regressive moving-average filters, each
iterated ``T`` times::

    X_k^{(t+1)} = sigma( L_hat X_k^{(t)} W_k + X V_k )

with the outputs averaged over stacks.  ``L_hat`` is the symmetric GCN
normalisation here.  ARMA is one of the stronger "trivial GNN" baselines
referenced by the paper's related work.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, functional as F
from ..tensor.init import xavier_uniform, zeros_init
from .base import GraphConv, extend_edge_weight, gcn_constants, weighted_aggregate


class ARMAConv(GraphConv):
    """One ARMA layer with ``num_stacks`` filters iterated ``num_layers`` times."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_stacks: int = 2,
        num_layers: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.num_stacks = num_stacks
        self.num_layers = num_layers
        for k in range(num_stacks):
            setattr(self, f"init_weight_{k}", xavier_uniform(in_features, out_features, rng))
            setattr(self, f"conv_weight_{k}", xavier_uniform(out_features, out_features, rng))
            setattr(self, f"root_weight_{k}", xavier_uniform(in_features, out_features, rng))
            setattr(self, f"bias_{k}", zeros_init((out_features,)))

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tensor:
        full_index, coefficients, layouts = self._cached(
            gcn_constants, edge_index, num_nodes
        )
        w = extend_edge_weight(edge_weight, num_nodes)
        output = None
        for k in range(self.num_stacks):
            state = x @ getattr(self, f"init_weight_{k}")
            for t in range(self.num_layers):
                propagated = weighted_aggregate(
                    state, full_index, num_nodes, coefficients, w, layouts=layouts
                )
                if t == 0:
                    mix = propagated
                else:
                    mix = weighted_aggregate(
                        state @ getattr(self, f"conv_weight_{k}"),
                        full_index,
                        num_nodes,
                        coefficients,
                        w,
                        layouts=layouts,
                    )
                state = F.relu(mix + x @ getattr(self, f"root_weight_{k}") + getattr(self, f"bias_{k}"))
            output = state if output is None else output + state
        return output * (1.0 / self.num_stacks)
