"""UniMP-style transformer convolution (Shi et al., 2021).

UniMP is a unified message-passing model that (a) aggregates with scaled
dot-product graph attention (TransformerConv) and (b) propagates *labels*
alongside features: training labels are embedded and added to node inputs,
with a random portion masked each epoch so the model learns to reconstruct
them.  The label-propagation half lives in
:class:`repro.models.classifiers.UniMPClassifier`; this module provides the
attention layer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, as_tensor, gather_rows, segment_softmax, segment_sum
from ..tensor.init import xavier_uniform, zeros_init
from .base import GraphConv, extend_edge_weight_scaled, looped_constants


class TransformerConv(GraphConv):
    """Scaled dot-product graph attention with a gated root skip."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        heads: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        if out_features % heads:
            raise ValueError(f"out_features={out_features} not divisible by heads={heads}")
        self.in_features = in_features
        self.out_features = out_features
        self.heads = heads
        self.head_dim = out_features // heads
        self.weight_query = xavier_uniform(in_features, out_features, rng)
        self.weight_key = xavier_uniform(in_features, out_features, rng)
        self.weight_value = xavier_uniform(in_features, out_features, rng)
        self.weight_skip = xavier_uniform(in_features, out_features, rng)
        self.bias = zeros_init((out_features,))
        self.last_attention: Optional[np.ndarray] = None

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
        shape = (num_nodes, self.heads, self.head_dim)
        query = (x @ self.weight_query).reshape(*shape)
        key = (x @ self.weight_key).reshape(*shape)
        value = (x @ self.weight_value).reshape(*shape)
        scores = (
            gather_rows(query, dst, layout=layouts.dst)
            * gather_rows(key, src, layout=layouts.src)
        ).sum(axis=-1)
        scores = scores * (1.0 / np.sqrt(self.head_dim))
        alpha = segment_softmax(scores, dst, num_nodes, layout=layouts.dst)
        self.last_attention = alpha.data.copy()
        w = extend_edge_weight_scaled(edge_weight, edge_dst)
        if w is not None:
            # Renormalise mask-reweighted attention per destination (see GATConv).
            alpha = alpha * w.reshape(-1, 1)
            totals = segment_sum(alpha, dst, num_nodes, layout=layouts.dst) + as_tensor(1e-9)
            alpha = alpha / gather_rows(totals, dst, layout=layouts.dst)
        messages = gather_rows(value, src, layout=layouts.src) * alpha.reshape(-1, self.heads, 1)
        out = segment_sum(messages, dst, num_nodes, layout=layouts.dst).reshape(
            num_nodes, self.out_features
        )
        return out + x @ self.weight_skip + self.bias
