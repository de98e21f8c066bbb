"""FusedGAT layer (Zhang et al., MLSys 2022).

FusedGAT's contribution is *computational*: it fuses the gather →
attention → scatter pipeline of GAT into single kernels to cut memory
traffic, while producing numerically identical outputs.  Our reproduction
mirrors that contract: :class:`FusedGATConv` computes the same attention as
:class:`~repro.nn.gat.GATConv` but fuses the per-edge score computation
(one gather of pre-reduced scalars instead of two gathers of full feature
rows), which is the same algebraic refactoring the paper exploits.  It
overrides only that step (:meth:`GATConv._edge_scores`); masking, messages
and the head merge are GAT's own.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, functional as F, gather_rows
from ..tensor.csr import EdgeLayouts
from .gat import GATConv


class FusedGATConv(GATConv):
    """GAT with fused edge-score computation (same math, less edge memory)."""

    def _edge_scores(
        self, h: Tensor, src: np.ndarray, dst: np.ndarray, layouts: EdgeLayouts
    ) -> Tensor:
        # Fusion: reduce the attention dot products to per-node scalars
        # *before* the edge gather, so the edge stage only touches (N, H)
        # arrays — the "coordinated computation" trick of FusedGAT.
        num_nodes = h.shape[0]
        node_scores = F.concatenate(
            [
                ((h * self.att_src).sum(axis=-1)).reshape(num_nodes, self.heads, 1),
                ((h * self.att_dst).sum(axis=-1)).reshape(num_nodes, self.heads, 1),
            ],
            axis=2,
        )
        gathered_src = gather_rows(node_scores, src, layout=layouts.src)
        gathered_dst = gather_rows(node_scores, dst, layout=layouts.dst)
        return gathered_src[:, :, 0] + gathered_dst[:, :, 1]
