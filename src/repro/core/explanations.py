"""Containers for SES explanation outputs (paper §4.2).

After explainable training, SES yields for every node simultaneously:

* ``E_feat = M_f ⊙ X`` — feature explanations, and
* ``E_sub = M̂_s ⊙ A^(k)`` — subgraph explanations over the k-hop
  neighbourhood.

:class:`Explanations` wraps both with convenience accessors used by the
evaluation harnesses (Tables 4–5, Fig. 6, Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp


@dataclass
class Explanations:
    """Feature and structure explanations for every node."""

    feature_mask: np.ndarray
    """``M_f``: (N, F) learned feature importance in (0, 1)."""

    feature_explanation: np.ndarray
    """``E_feat = M_f ⊙ X``: (N, F) masked features."""

    structure_mask: sp.csr_matrix
    """``M̂_s``: (N, N) sparse edge-weight matrix aligned with ``A^(k)``."""

    subgraph_explanation: sp.csr_matrix
    """``E_sub = M̂_s ⊙ A^(k)``; equals ``structure_mask`` for binary ``A^(k)``."""

    khop_edge_index: np.ndarray
    """``(2, N_k)`` edges of ``A^(k)`` the structure mask scores."""

    def edge_scores(self) -> Dict[Tuple[int, int], float]:
        """Directed edge → importance mapping for AUC evaluation."""
        coo = self.subgraph_explanation.tocoo()
        return {
            (int(u), int(v)): float(w)
            for u, v, w in zip(coo.row, coo.col, coo.data)
        }

    def top_features(self, node: int, k: int = 5) -> np.ndarray:
        """Indices of the ``k`` most important features of ``node``."""
        return np.argsort(-self.feature_explanation[node])[:k]

    def ranked_neighbors(self, node: int) -> List[Tuple[int, float]]:
        """Neighbours of ``node`` in ``A^(k)`` sorted by mask weight (desc)."""
        csr = self.subgraph_explanation
        start, stop = csr.indptr[node], csr.indptr[node + 1]
        neighbor_ids = csr.indices[start:stop]
        weights = csr.data[start:stop]
        order = np.argsort(-weights, kind="mergesort")
        return [(int(neighbor_ids[i]), float(weights[i])) for i in order]

    @property
    def num_nodes(self) -> int:
        return self.feature_mask.shape[0]
