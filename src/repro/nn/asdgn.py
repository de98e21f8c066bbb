"""Anti-Symmetric Deep Graph Network layer (Gravina et al., ICLR 2023).

A-SDGN views a deep GNN as the forward-Euler discretisation of a stable,
non-dissipative ODE.  Stability is obtained by making the recurrent weight
antisymmetric::

    x^{(t+1)} = x^{(t)} + eps * tanh( (W - W^T - gamma*I) x^{(t)}
                                      + Phi(A) x^{(t)} V + b )

iterated ``num_iters`` times with shared weights; ``Phi(A)`` is the
symmetric GCN aggregation here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, as_tensor, functional as F
from ..tensor.init import xavier_uniform, zeros_init
from .base import GraphConv, extend_edge_weight, gcn_constants, weighted_aggregate


class ASDGNConv(GraphConv):
    """Antisymmetric DGN block operating at a fixed hidden width."""

    def __init__(
        self,
        hidden_features: int,
        num_iters: int = 4,
        epsilon: float = 0.1,
        gamma: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.hidden_features = hidden_features
        self.num_iters = num_iters
        self.epsilon = epsilon
        self.gamma = gamma
        self.weight = xavier_uniform(hidden_features, hidden_features, rng)
        self.weight_agg = xavier_uniform(hidden_features, hidden_features, rng)
        self.bias = zeros_init((hidden_features,))

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tensor:
        if x.shape[1] != self.hidden_features:
            raise ValueError(
                f"ASDGNConv expects width {self.hidden_features}, got {x.shape[1]}"
            )
        full_index, coefficients, layouts = self._cached(
            gcn_constants, edge_index, num_nodes
        )
        w = extend_edge_weight(edge_weight, num_nodes)
        identity = as_tensor(self.gamma * np.eye(self.hidden_features))
        antisymmetric = self.weight - self.weight.T - identity
        state = x
        for _ in range(self.num_iters):
            aggregated = weighted_aggregate(
                state, full_index, num_nodes, coefficients, w, layouts=layouts
            )
            update = F.tanh(state @ antisymmetric + aggregated @ self.weight_agg + self.bias)
            state = state + update * self.epsilon
        return state
