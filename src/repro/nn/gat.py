"""Graph Attention Network layer (Velickovic et al., 2018).

Multi-head additive attention with LeakyReLU(0.2) scoring and per-
destination softmax.  After every forward pass the layer stores the raw
attention coefficients in :attr:`last_attention` — the ATT explainer
(paper §5.2 baselines) reads edge importances from there.

Optional differentiable ``edge_weight`` multiplies the attention
coefficients after the softmax, which is how the SES structure mask scales
neighbour contributions without being renormalised away.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, as_tensor, functional as F, gather_rows, segment_softmax, segment_sum
from ..tensor.csr import EdgeLayouts
from ..tensor.init import xavier_uniform, xavier_uniform_shape, zeros_init
from .base import GraphConv, extend_edge_weight_scaled, looped_constants


class GATConv(GraphConv):
    """One multi-head GAT convolution.

    Parameters
    ----------
    in_features, out_features:
        ``out_features`` is the *total* output width, the concatenation of
        the heads; it must be divisible by ``heads``.
    heads:
        Number of attention heads.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        heads: int = 4,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        if out_features % heads:
            raise ValueError(f"out_features={out_features} not divisible by heads={heads}")
        self.head_dim = out_features // heads
        self.in_features = in_features
        self.out_features = out_features
        self.heads = heads
        self.weight = xavier_uniform(in_features, heads * self.head_dim, rng)
        self.att_src = xavier_uniform_shape((heads, self.head_dim), rng)
        self.att_dst = xavier_uniform_shape((heads, self.head_dim), rng)
        self.bias = zeros_init((out_features,))
        self.last_attention: Optional[np.ndarray] = None
        self.last_edge_index: Optional[np.ndarray] = None

    def _edge_scores(
        self, h: Tensor, src: np.ndarray, dst: np.ndarray, layouts: EdgeLayouts
    ) -> Tensor:
        """``(E, H)`` additive scores ``a_s . h_src + a_d . h_dst`` per edge."""
        score_src = (h * self.att_src).sum(axis=-1)  # (N, H)
        score_dst = (h * self.att_dst).sum(axis=-1)
        return gather_rows(score_src, src, layout=layouts.src) + gather_rows(
            score_dst, dst, layout=layouts.dst
        )

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tensor:
        full_index, layouts, edge_dst = self._cached(
            looped_constants, edge_index, num_nodes
        )
        src, dst = full_index
        h = (x @ self.weight).reshape(num_nodes, self.heads, self.head_dim)
        # Additive attention: alpha_e = leakyrelu(a_s . h_src + a_d . h_dst).
        edge_scores = F.leaky_relu(self._edge_scores(h, src, dst, layouts))
        alpha = segment_softmax(edge_scores, dst, num_nodes, layout=layouts.dst)  # (E, H)
        self.last_attention = alpha.data.copy()
        self.last_edge_index = full_index
        w = extend_edge_weight_scaled(edge_weight, edge_dst)
        if w is not None:
            # Mask-reweighted attention, renormalised per destination so a
            # uniform mask inflation cannot game the classification loss.
            alpha = alpha * w.reshape(-1, 1)
            totals = segment_sum(alpha, dst, num_nodes, layout=layouts.dst) + as_tensor(1e-9)
            alpha = alpha / gather_rows(totals, dst, layout=layouts.dst)
        messages = gather_rows(h, src, layout=layouts.src) * alpha.reshape(-1, self.heads, 1)
        out = segment_sum(messages, dst, num_nodes, layout=layouts.dst)  # (N, H, D)
        return out.reshape(num_nodes, self.heads * self.head_dim) + self.bias

    def edge_attention_scores(self) -> np.ndarray:
        """Head-averaged attention per edge of the last forward pass."""
        if self.last_attention is None:
            raise RuntimeError("run a forward pass before reading attention scores")
        return self.last_attention.mean(axis=-1)
