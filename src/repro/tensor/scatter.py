"""Gather / segment primitives for differentiable message passing.

Attention convs (GAT, FusedGAT, UniMP), SAGE and GIN are expressed in the
gather–scatter idiom: gather source-node rows along the edge list,
transform per edge, then segment-sum back onto destination nodes.  The
masked convs' degree and normalisation terms use the same primitives.
Because the SES structure mask multiplies per-edge weights inside this
pipeline (paper Eq. 8), all of them are differentiable — including with
respect to the edge weights.  A plain edge-weighted sum (the GCN-family
aggregation) is one fused op instead, :func:`repro.tensor.sparse.edge_spmm`,
which never forms the per-edge message array.

Each primitive reduces over a destination-sorted edge layout
(:class:`~repro.tensor.csr.CSRSegmentLayout`): sums ride the layout's CSR
aggregation operator through scipy's C SpMM kernel, maxima use
``np.maximum.reduceat`` over the sorted runs, and the backward closures
reuse the layout's scratch buffers.  Callers with a fixed topology pass the
memoised layout via ``layout=``; otherwise a content-keyed global cache
resolves it transparently.  The dense-scatter ``np.add.at`` /
``np.maximum.at`` reference these kernels are checked against lives in the
tests (``tests/oracles.py``) and in ``scripts/selfcheck.py``; both agree
with the kernels up to float summation order.

:func:`pair_mlp` builds on the same layouts: it scores endpoint pairs with
a 2-layer MLP over their concatenated rows without forming that
concatenation, and its backward reduces to nodes through each endpoint's
layout (docs/PERF.md, "Phase 1: the Eq. 4 pair scorer").

Backward closures that allocate a gradient for one parent alone hand it
over (``Tensor._accumulate(..., owned=True)``); layout scratch never is.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .csr import CSRSegmentLayout, cached_layout
from .tensor import Tensor, as_tensor


def _resolve_layout(
    layout: Optional[CSRSegmentLayout],
    segment_ids: np.ndarray,
    num_segments: int,
    num_items: int,
) -> CSRSegmentLayout:
    """Validate an explicit layout or fall back to the global memo."""
    if layout is None:
        return cached_layout(segment_ids, num_segments)
    if layout.num_segments != num_segments or layout.num_items != num_items:
        raise ValueError(
            f"layout covers {layout.num_items} items / {layout.num_segments} "
            f"segments, call has {num_items} items / {num_segments} segments"
        )
    return layout


def gather_rows(
    x: Tensor,
    index: np.ndarray,
    layout: Optional[CSRSegmentLayout] = None,
) -> Tensor:
    """Select rows ``x[index]``; the adjoint scatter-adds into the source.

    ``index`` may repeat (it is typically the source column of an edge
    list).  The backward segment-sums the incoming gradient through the
    cached layout's aggregation operator into a reused workspace.
    """
    index = np.asarray(index, dtype=np.int64)
    out_data = x.data[index]
    n_rows = x.shape[0]
    trailing = x.shape[1:]
    # The CSR adjoint requires a flat, in-range index (layouts reject
    # anything else); other gathers scatter with ``np.add.at``.
    csr_adjoint = index.ndim == 1 and (
        layout is not None or not index.size or int(index.min()) >= 0
    )
    if csr_adjoint:

        def backward(grad: np.ndarray) -> None:
            resolved = _resolve_layout(layout, index, n_rows, index.shape[0])
            x._accumulate(resolved.scatter_add(grad, role="gather_rows"))

    else:

        def backward(grad: np.ndarray) -> None:
            full = np.zeros((n_rows, *trailing), dtype=np.float64)
            np.add.at(full, index, grad)
            x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def pair_mlp(mlp, hidden: Tensor, pairs: np.ndarray) -> Tensor:
    """``(E,)`` logits of a 2-layer ReLU ``mlp`` on ``[h_i, h_k(, h_i⊙h_k)]``.

    Equal to ``mlp(concatenate([h[i], h[k], h[i] * h[k]], axis=1))`` for
    the ``(2, E)`` pair list ``(i, k)``, but that ``(E, 3d)`` input is never
    built.  The first weight splits by input block into ``W_a, W_b(, W_c)``.
    The endpoint blocks are linear in one node each, so they are projected
    per node (``H·W_a`` and ``H·W_b``: N rows, not E) and then gathered by
    pair; only the product block, the ReLU and the second layer do per-pair
    work.  The product block is present when the first weight has ``3d``
    rows and absent when it has ``2d``.

    The backward segment-sums the contiguous pre-activation gradient, and
    beside it the product block's endpoint gradient, to nodes through each
    endpoint's cached layout.  ``W_a``, ``W_b`` and ``dH`` then take N-row
    matmuls.  The tape keeps alive only the ``(E, hidden)`` ReLU output and,
    with the product block, the ``(E, d)`` product ``h_i⊙h_k``.
    """
    linears = getattr(mlp, "linears", ())
    if (
        len(linears) != 2
        or mlp.final_activation is not None
        or any(layer.bias is None for layer in linears)
        or linears[1].out_features != 1
    ):
        raise ValueError(
            "pair_mlp needs a 2-layer MLP with biases, one output "
            "and no final activation"
        )
    first, second = linears
    num_nodes, d = hidden.shape
    rows = first.weight.shape[0]
    if rows not in (2 * d, 3 * d):
        raise ValueError(
            f"pair_mlp first-layer weight has {rows} rows; expected {2 * d} "
            f"or {3 * d} for {d}-wide hidden states"
        )
    product = rows == 3 * d
    pairs = np.asarray(pairs, dtype=np.int64)
    center, other = pairs[0], pairs[1]
    h = hidden.data
    w1, w2 = first.weight.data, second.weight.data
    w_a, w_b, w_c = w1[:d], w1[d : 2 * d], w1[2 * d :]

    if product:
        pair_product = np.take(h, center, axis=0)
        pair_product *= np.take(h, other, axis=0)
        z = pair_product @ w_c
        z += np.take(h @ w_a, center, axis=0)
    else:
        z = np.take(h @ w_a, center, axis=0)
    z += np.take(h @ w_b, other, axis=0)
    z += first.bias.data
    activated = np.maximum(z, 0.0, out=z)
    out_data = (activated @ w2).reshape(-1) + second.bias.data

    def backward(grad: np.ndarray) -> None:
        dz = grad[:, None] * w2[:, 0]
        np.multiply(dz, activated > 0, out=dz)
        # The product block's gradient towards the endpoint being scattered
        # to (trainable H only), rebuilt in one contiguous buffer per endpoint.
        with_product = product and hidden.requires_grad
        if with_product:
            d_product = dz @ w_c.T
            partner_grad = np.empty_like(d_product)
        d_blocks = []
        d_hidden = None
        # A scatter's result is layout scratch, overwritten by the next
        # scatter through the same layout and role: consume it inside the
        # iteration.
        for index, w_block, partner in ((center, w_a, other), (other, w_b, center)):
            layout = cached_layout(index, num_nodes)
            summed = layout.scatter_add(dz, role="pair_mlp")
            d_blocks.append(h.T @ summed)
            if hidden.requires_grad:
                part = summed @ w_block.T
                if with_product:
                    np.multiply(d_product, np.take(h, partner, axis=0), out=partner_grad)
                    part += layout.scatter_add(partner_grad, role="pair_mlp_product")
                if d_hidden is None:
                    d_hidden = part
                else:
                    d_hidden += part
        if product:
            d_blocks.append(pair_product.T @ dz)
        first.weight._accumulate(np.concatenate(d_blocks, axis=0), owned=True)
        first.bias._accumulate(dz.sum(axis=0), owned=True)
        second.weight._accumulate(activated.T @ grad[:, None], owned=True)
        second.bias._accumulate(np.atleast_1d(grad.sum()), owned=True)
        if d_hidden is not None:
            hidden._accumulate(d_hidden, owned=True)

    parents = (hidden, first.weight, first.bias, second.weight, second.bias)
    return Tensor._make(out_data, parents, backward)


def segment_sum(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    layout: Optional[CSRSegmentLayout] = None,
) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``segment_ids``.

    The forward is the scatter-add of message passing; its adjoint is a
    plain gather.  Contiguous destination-sorted runs are summed via the
    layout's aggregation operator.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != x.shape[0]:
        raise ValueError(
            f"segment_ids has {segment_ids.shape[0]} entries for {x.shape[0]} rows"
        )
    resolved = _resolve_layout(layout, segment_ids, num_segments, x.shape[0])
    # Forward output becomes tensor storage — allocated fresh, never the
    # layout's scratch.
    out_data = resolved.segment_add(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[segment_ids], owned=True)

    return Tensor._make(out_data, (x,), backward)


def segment_mean(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    layout: Optional[CSRSegmentLayout] = None,
) -> Tensor:
    """Average rows per segment (GraphSAGE's mean aggregator).

    Empty segments produce zero rows rather than NaNs.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != x.shape[0]:
        raise ValueError(
            f"segment_ids has {segment_ids.shape[0]} entries for {x.shape[0]} rows"
        )
    layout = _resolve_layout(layout, segment_ids, num_segments, x.shape[0])
    counts = np.maximum(layout.counts.astype(np.float64), 1.0)
    summed = segment_sum(x, segment_ids, num_segments, layout=layout)
    shape = (num_segments,) + (1,) * (x.ndim - 1)
    return summed * as_tensor(1.0 / counts.reshape(shape))


def segment_softmax(
    scores: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    layout: Optional[CSRSegmentLayout] = None,
) -> Tensor:
    """Softmax over edges grouped by destination node (GAT attention).

    ``scores`` may be ``(E,)`` or ``(E, H)`` for multi-head attention.
    Composed from differentiable primitives so the adjoint is exact: the
    per-segment max is subtracted as a constant for numerical stability
    (subtracting a constant does not change softmax or its gradient).

    Segments with no incoming edges have their ``-inf`` max substituted by
    ``0.0``; since no score row belongs to such a segment, the substitution
    is never gathered and the op stays NaN-free with exactly zero gradient
    contribution from empty segments — see the regression tests in
    ``tests/tensor/test_scatter_differential.py``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != scores.shape[0]:
        raise ValueError(
            f"segment_ids has {segment_ids.shape[0]} entries for "
            f"{scores.shape[0]} rows"
        )
    layout = _resolve_layout(layout, segment_ids, num_segments, scores.shape[0])
    seg_max = layout.segment_max(scores.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = scores - as_tensor(seg_max[segment_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments, layout=layout)
    return exp / gather_rows(denom, segment_ids, layout=layout)
