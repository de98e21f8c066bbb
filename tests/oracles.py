"""Dense reference implementations the library's fast paths are checked against.

* The scatter primitives, written with ``np.add.at`` / ``np.maximum.at`` in
  edge order and wired into the tape with hand-written adjoints.  The
  library's CSR segment kernels must agree with them to float summation
  order (``tests/tensor/test_scatter_differential.py``), and their own
  gradients are pinned by ``tests/tensor/test_gradcheck_ops.py``.
* A dense ``softmax`` with its own adjoint, the reference for
  ``repro.tensor.functional.log_softmax``.
* The Kipf–Welling operator ``D̂^{-1/2}(A + I)D̂^{-1/2}`` as a dense matrix,
  the oracle for the edge-list form ``repro.graph.gcn_edge_norm`` and for
  ``GCNConv``.
"""

from __future__ import annotations

import numpy as np

from repro.graph import Graph
from repro.tensor import Tensor, as_tensor


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """``x[index]``; the adjoint scatter-adds with ``np.add.at``."""
    index = np.asarray(index, dtype=np.int64)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros(x.shape, dtype=np.float64)
        np.add.at(full, index, grad)
        x._accumulate(full, owned=True)

    return Tensor._make(x.data[index], (x,), backward)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Scatter-add rows into segments with ``np.add.at``; the adjoint gathers."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments, *x.shape[1:]), dtype=np.float64)
    np.add.at(out, segment_ids, x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[segment_ids], owned=True)

    return Tensor._make(out, (x,), backward)


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment mean; empty segments give zero rows."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    shape = (num_segments,) + (1,) * (x.ndim - 1)
    scale = 1.0 / np.maximum(counts, 1.0).reshape(shape)
    return segment_sum(x, segment_ids, num_segments) * as_tensor(scale)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax per segment, shifted by an ``np.maximum.at`` segment max."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full((num_segments, *scores.shape[1:]), -np.inf)
    np.maximum.at(seg_max, segment_ids, scores.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    exp = (scores - as_tensor(seg_max[segment_ids])).exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    return exp / gather_rows(denom, segment_ids)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (x,), backward)


def gcn_normalized_adjacency(graph: Graph) -> np.ndarray:
    """Dense ``D̂^{-1/2}(A + I)D̂^{-1/2}`` with self-loop-inclusive degrees."""
    adjacency = graph.adjacency.toarray() + np.eye(graph.num_nodes)
    inv_sqrt = adjacency.sum(axis=1) ** -0.5
    return inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
