"""The two-layer graph encoder shared by both SES phases (paper Eq. 2).

``Z = Conv2(sigma(Conv1(A, X)), A)`` where ``H = Conv1(A, X)`` — the first
layer's *pre-activation* hidden representation — also feeds the mask
generator (Eq. 3).  The backbone conv is one of :data:`BACKBONES` ("gcn"
or "gat", following §5.2: "We only report results of SES with GCN and
GAT", plus "fusedgat", the same attention as "gat" for Table 3).

The encoder accepts an optional differentiable ``edge_weight`` so the same
parameters serve the plain forward (Eq. 2), the masked forward of
explainable training (Eq. 8, over ``A^(k)``) and the masked forward of
enhanced predictive learning (Eq. 10, over ``A``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Linear, Module, Tensor, functional as F
from .fusedgat import FusedGATConv
from .base import share_edge_cache
from .gat import GATConv
from .gcn import GCNConv

BACKBONES = ("gcn", "gat", "fusedgat")


def _make_conv(backbone: str, in_features: int, out_features: int, rng, heads: int):
    if backbone == "gcn":
        return GCNConv(in_features, out_features, rng=rng)
    if backbone == "gat":
        return GATConv(in_features, out_features, heads=heads, rng=rng)
    if backbone == "fusedgat":
        return FusedGATConv(in_features, out_features, heads=heads, rng=rng)
    raise ValueError(f"unknown backbone {backbone!r}; expected one of {BACKBONES}")


class GraphEncoder(Module):
    """Two-layer GNN producing hidden states ``H`` and logits ``Z``.

    Parameters
    ----------
    in_features / hidden_features / out_features:
        Input width, hidden width (128 in the paper) and class count.
    backbone:
        One of :data:`BACKBONES`: ``"gcn"``, ``"gat"`` or ``"fusedgat"``.
    dropout:
        Rate of the dropout applied to the activated hidden layer in training.
    heads:
        Attention heads of the first layer for attention backbones (the
        output layer has 1 head, as in the original GAT).
    """

    #: Message-passing depth; minibatch and shard extraction read it as
    #: the receptive-field hop count.
    num_layers = 2

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        backbone: str = "gcn",
        dropout: float = 0.5,
        heads: int = 4,
        representation_head: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.backbone = backbone
        self.hidden_features = hidden_features
        self.out_features = out_features
        self.dropout_p = dropout
        self._rng = rng
        self.representation_head = representation_head
        self.conv1 = _make_conv(backbone, in_features, hidden_features, rng, heads)
        # With a representation head (the SES configuration — the paper's
        # Fig. 5 embeddings are 128-d), conv2 keeps the hidden width and a
        # linear head produces class logits; the triplet loss then operates
        # on the representation, not the logits.
        conv2_out = hidden_features if representation_head else out_features
        # One output head for the attention backbones, as in the original
        # GAT; GCN takes no heads.
        self.conv2 = _make_conv(backbone, hidden_features, conv2_out, rng, heads=1)
        self.head = (
            Linear(hidden_features, out_features, rng=rng) if representation_head else None
        )
        share_edge_cache(self.conv1, self.conv2)
        self.activation = F.elu if backbone in ("gat", "fusedgat") else F.relu

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tensor:
        """Return logits ``Z``."""
        _, logits = self.forward_with_hidden(x, edge_index, num_nodes, edge_weight)
        return logits

    def forward_with_hidden(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Return ``(H, Z)`` — hidden states for the mask generator and logits."""
        hidden, _, logits = self.forward_full(x, edge_index, num_nodes, edge_weight)
        return hidden, logits

    def forward_full(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        edge_weight: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Return ``(H, R, Z)``: first-layer hidden states, the output
        representation (equal to ``Z`` without a representation head), and
        class logits."""
        hidden = self.conv1(x, edge_index, num_nodes, edge_weight)
        activated = self.activation(hidden)
        if self.dropout_p > 0:
            activated = F.dropout(
                activated, self.dropout_p, training=self.training, rng=self._rng
            )
        representation = self.conv2(activated, edge_index, num_nodes, edge_weight)
        if self.head is not None:
            logits = self.head(self.activation(representation))
        else:
            logits = representation
        return hidden, representation, logits
