"""The edge-weighted sparse product of message passing.

A weighted edge list ``(src_e, dst_e, w_e)`` is the sparse matrix
``A_w[v, u] = Σ_{e: src_e = u, dst_e = v} w_e``, and the weighted-sum
aggregation of a GCN layer is the product ``A_w @ h``::

    out[v] = Σ_{e: dst_e = v} w_e · h[src_e]

:func:`edge_spmm` computes it, and both adjoints, without an ``(E, d)``
message array.  The forward is one ``csr_matvecs`` pass over the
destination-sorted layout with the permuted weights as CSR data; ``dh`` is
one pass over the source-sorted layout (``A_wᵀ @ grad``).  When ``w``
requires grad, ``dw_e = Σ_j grad[dst_e, j] · h[src_e, j]``.  The tape keeps
only ``h``, ``w`` and the cached layouts.

The products and the summation order are those of the composed
``gather_rows → * w → segment_sum`` path, so the result is the same bit
for bit (``tests/tensor/test_edge_spmm.py`` pins it).  A constant sparse
operator is the case where ``w`` does not require grad.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .csr import EdgeLayouts, cached_layout, csr_matvecs
from .tensor import ArrayLike, Tensor, as_tensor


def edge_spmm(
    h: Tensor,
    weight: ArrayLike,
    edge_index: np.ndarray,
    num_nodes: int,
    layouts: Optional[EdgeLayouts] = None,
) -> Tensor:
    """``out[v] = Σ_{e: dst_e = v} weight_e · h[src_e]`` for ``v < num_nodes``.

    Parameters
    ----------
    h:
        ``(M,)`` or ``(M, d)`` source rows; sources index ``[0, M)``.
    weight:
        ``(E,)`` per-edge multipliers — a tensor (differentiable or not) or
        a constant array.
    edge_index:
        ``(2, E)`` (source, destination) pairs; duplicates add up.
    layouts:
        The edge list's cached :class:`~repro.tensor.csr.EdgeLayouts`
        (src over ``M`` rows, dst over ``num_nodes``).  Without one, both
        layouts come from the process-wide memo.
    """
    weight = as_tensor(weight)
    edge_index = np.asarray(edge_index, dtype=np.int64)
    num_edges = edge_index.shape[1]
    num_sources = h.shape[0]
    if weight.shape != (num_edges,):
        raise ValueError(f"weight has shape {weight.shape}; expected ({num_edges},)")
    if layouts is None:
        layouts = EdgeLayouts(
            cached_layout(edge_index[0], num_sources),
            cached_layout(edge_index[1], num_nodes),
        )
    elif (
        layouts.src.num_segments != num_sources
        or layouts.dst.num_segments != num_nodes
        or layouts.dst.num_items != num_edges
    ):
        raise ValueError(
            f"layouts cover {layouts.dst.num_items} edges from "
            f"{layouts.src.num_segments} rows to {layouts.dst.num_segments}; call "
            f"has {num_edges} edges from {num_sources} rows to {num_nodes}"
        )
    h_data, w_data = h.data, weight.data
    trailing = h.shape[1:]
    dst = layouts.dst
    out_data = np.zeros((num_nodes, *trailing))
    csr_matvecs(
        dst.indptr, layouts.src_by_dst, w_data[dst.perm], np.ascontiguousarray(h_data), out_data
    )

    def backward(grad: np.ndarray) -> None:
        grad = np.ascontiguousarray(grad)
        if h.requires_grad:
            src = layouts.src
            d_h = np.zeros(h.shape)
            csr_matvecs(src.indptr, layouts.dst_by_src, w_data[src.perm], grad, d_h)
            h._accumulate(d_h, owned=True)
        if weight.requires_grad:
            src_ids, dst_ids = layouts.src.segment_ids, dst.segment_ids
            d_w = grad[dst_ids] * h_data[src_ids]
            if d_w.ndim > 1:
                d_w = d_w.sum(axis=tuple(range(1, d_w.ndim)))
            weight._accumulate(d_w, owned=True)

    return Tensor._make(out_data, (h, weight), backward)
