"""Graph-operator normalisations for message passing.

These produce the *constant* structural coefficients of each convolution
(e.g. the symmetric GCN normalisation).  When a structure mask is applied,
the differentiable mask weights multiply these constants per edge, so
gradients flow to the mask while the normalisation itself stays fixed —
the scheme described in DESIGN.md §5.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def gcn_edge_norm(edge_index: np.ndarray, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Edge-list form of the GCN normalisation, with self-loops appended.

    Returns
    -------
    (edge_index_with_loops, coefficients):
        ``edge_index_with_loops`` is ``(2, E + N)``; ``coefficients[e]`` is
        ``1/sqrt(d_src * d_dst)`` computed on the self-looped degree.
    """
    src, dst = edge_index
    loops = np.arange(num_nodes, dtype=np.int64)
    full_src = np.concatenate([src, loops])
    full_dst = np.concatenate([dst, loops])
    degrees = np.bincount(full_dst, minlength=num_nodes).astype(np.float64)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
    coefficients = inv_sqrt[full_src] * inv_sqrt[full_dst]
    return np.vstack([full_src, full_dst]), coefficients
