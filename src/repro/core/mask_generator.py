"""The SES global mask generator (paper §4.1.2, Fig. 3).

Produces, from the graph encoder's first-layer hidden states ``H``:

* the **feature mask** ``M_f = MLP(H)`` (Eq. 3) — one importance weight per
  node and feature dimension, squashed to (0, 1) by a sigmoid;
* the **structure mask** ``M_s`` (Eq. 4) — one weight per k-hop edge,
  scored by a *shared* scorer over the concatenated endpoint hidden states
  ``cat(h_i, h_k)`` followed by a sigmoid (evaluated by
  :func:`repro.tensor.pair_mlp` without materialising the concatenation).
  The trainer scores the encoder's output representation here rather than
  ``H`` (see :func:`repro.core.ses.phase1_batch_loss`);
* the **negative structure mask** ``M_sneg`` — the same scorer applied to
  the sampled negative pairs ``P_n``, used only by the subgraph loss.

Because the generator is a global model (not per-instance optimisation),
explanations for every node drop out of a single forward pass — the source
of SES's speed advantage in Table 6.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import MLP, Module, Tensor, functional as F, pair_mlp

TEMPERATURE = 3.0
"""Divisor of the scorer logits before the sigmoid.  Without it the subgraph
loss saturates the scorer within a few epochs and the masked cross-entropy of
Eq. 8 — the term that keeps classification-critical edges alive — is left
with a dead gradient (sigma' ~ 0)."""


class MaskGenerator(Module):
    """Jointly produces feature and structure masks from hidden states."""

    def __init__(
        self,
        hidden_features: int,
        num_features: int,
        mlp_hidden: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.hidden_features = hidden_features
        self.num_features = num_features
        self.feature_mlp = MLP(
            (hidden_features, mlp_hidden, num_features),
            final_activation=F.sigmoid,
            rng=rng,
        )
        # Shared weights of Eq. 4 scoring the pair (h_i, h_k).  Two
        # strengthenings over a single affine map on the concatenation
        # (DESIGN.md §5): an MLP (a linear score of a concatenation is
        # additive in the endpoints and cannot express their *agreement*),
        # and an explicit elementwise-product term h_i ⊙ h_k appended to the
        # input — endpoint similarity is the signal the subgraph loss
        # supervises, and the product makes it linearly accessible instead
        # of requiring the MLP to discover multiplication.
        self.edge_scorer = MLP((3 * hidden_features, mlp_hidden, 1), rng=rng)

    def feature_mask(self, hidden: Tensor) -> Tensor:
        """``M_f``: (N, F) feature importance in (0, 1) (Eq. 3)."""
        return self.feature_mlp(hidden)

    def _score_pairs(self, hidden: Tensor, pairs: np.ndarray) -> Tensor:
        """Sigmoid edge scores for ``(2, M)`` (center, other) pairs."""
        if pairs.shape[1] == 0:
            return Tensor(np.zeros(0))
        # Eq. 4 in decomposed form: ``pair_mlp`` scores the pairs without
        # building their (M, 3d) concatenated input (DESIGN.md §5).
        logits = pair_mlp(self.edge_scorer, hidden, pairs) * (1.0 / TEMPERATURE)
        return F.sigmoid(logits)

    def structure_mask(self, hidden: Tensor, khop_edges: np.ndarray) -> Tensor:
        """``M_s``: (N_k,) importance of each k-hop edge (Eq. 4)."""
        return self._score_pairs(hidden, khop_edges)

    def negative_mask(self, hidden: Tensor, negative_pairs: np.ndarray) -> Tensor:
        """``M_sneg``: scores for the sampled negative pairs (Eq. 4)."""
        return self._score_pairs(hidden, negative_pairs)

    def forward(
        self,
        hidden: Tensor,
        khop_edges: np.ndarray,
        negative_pairs: np.ndarray,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Return ``(M_f, M_s, M_sneg)`` in one pass."""
        return (
            self.feature_mask(hidden),
            self.structure_mask(hidden, khop_edges),
            self.negative_mask(hidden, negative_pairs),
        )
