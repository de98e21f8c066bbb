"""FusedGAT layer (Zhang et al., MLSys 2022).

FusedGAT's contribution is *computational*: it fuses the gather →
attention → scatter pipeline of GAT into single kernels to cut memory
traffic, while producing numerically identical outputs.  Our reproduction
mirrors that contract: :class:`FusedGATConv` computes the same attention as
:class:`~repro.nn.gat.GATConv` but fuses the per-edge score computation
(one gather of pre-reduced scalars instead of two gathers of full feature
rows), which is the same algebraic refactoring the paper exploits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, as_tensor, functional as F, gather_rows, segment_softmax, segment_sum
from .base import extend_edge_weight_scaled, looped_constants
from .gat import GATConv


class FusedGATConv(GATConv):
    """GAT with fused edge-score computation (same math, less edge memory)."""

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
        # Fusion: reduce the attention dot products to per-node scalars
        # *before* the edge gather, so the edge stage only touches (N, H)
        # arrays — the "coordinated computation" trick of FusedGAT.
        node_scores = F.concatenate(
            [
                ((h * self.att_src).sum(axis=-1)).reshape(num_nodes, self.heads, 1),
                ((h * self.att_dst).sum(axis=-1)).reshape(num_nodes, self.heads, 1),
            ],
            axis=2,
        )
        gathered_src = gather_rows(node_scores, src, layout=layouts.src)
        gathered_dst = gather_rows(node_scores, dst, layout=layouts.dst)
        edge_scores = gathered_src[:, :, 0] + gathered_dst[:, :, 1]
        edge_scores = F.leaky_relu(edge_scores, self.negative_slope)
        alpha = segment_softmax(edge_scores, dst, num_nodes, layout=layouts.dst)
        self.last_attention = alpha.data.copy()
        self.last_edge_index = full_index
        w = extend_edge_weight_scaled(edge_weight, edge_dst)
        if w is not None:
            # Renormalise mask-reweighted attention per destination (see GATConv).
            alpha = alpha * w.reshape(-1, 1)
            totals = segment_sum(alpha, dst, num_nodes, layout=layouts.dst) + as_tensor(1e-9)
            alpha = alpha / gather_rows(totals, dst, layout=layouts.dst)
        messages = gather_rows(h, src, layout=layouts.src) * alpha.reshape(-1, self.heads, 1)
        out = segment_sum(messages, dst, num_nodes, layout=layouts.dst)
        if self.concat:
            out = out.reshape(num_nodes, self.heads * self.head_dim)
        else:
            out = out.mean(axis=1)
        if self.bias is not None:
            out = out + self.bias
        return out
