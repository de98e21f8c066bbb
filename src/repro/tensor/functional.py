"""Differentiable functions built on top of :class:`repro.tensor.Tensor`.

Activations, log-softmax, dropout, structural ops (concatenate / stack /
where) and the loss functions used throughout the SES reproduction.  Each
function constructs the forward value with plain numpy and wires a closure
computing the exact local adjoint.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, as_tensor, unbroadcast

# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    mask = x.data > 0

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def leaky_relu(x: Tensor) -> Tensor:
    """Leaky ReLU with the PyG-default slope of 0.2 (used by GAT)."""
    mask = x.data > 0
    slope = np.where(mask, 1.0, 0.2)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * slope)

    return Tensor._make(x.data * slope, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    mask = x.data > 0
    exp_part = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(mask, x.data, exp_part)
    local = np.where(mask, 1.0, exp_part + alpha)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * local)

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid; the activation of the SES structure-mask scorer."""
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent (used by the A-SDGN layer)."""
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (paper's ``cat`` operator)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        for t, piece in zip(tensors, np.split(grad, boundaries, axis=axis)):
            t._accumulate(piece)

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors on a new axis (paper's ``stk`` operator)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where`` over a boolean (non-differentiable) mask."""
    a, b = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(np.where(condition, grad, 0.0), a.shape))
        b._accumulate(unbroadcast(np.where(condition, 0.0, grad), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties send the full gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    choose_a = a.data >= b.data
    out_data = np.where(choose_a, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(np.where(choose_a, grad, 0.0), a.shape))
        b._accumulate(unbroadcast(np.where(choose_a, 0.0, grad), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def dropout(x: Tensor, p: float, training: bool = True, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability ``p``, rescale survivors."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    keep = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * keep)

    return Tensor._make(x.data * keep, (x,), backward)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax cross-entropy over integer ``labels`` (paper Eq. 6).

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalised scores.
    labels:
        ``(N,)`` integer class ids.
    mask:
        Optional boolean/index array restricting the loss to labelled nodes
        (the :math:`l \\in Y_L` sum of Eq. 6); the result is averaged over
        the selected rows.
    """
    labels = np.asarray(labels)
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(len(labels))
    picked = log_probs[rows, labels]
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            picked = picked[np.flatnonzero(mask)]
        else:
            picked = picked[mask]
    return -picked.mean()


def l1_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error, the form of the subgraph loss (paper Eq. 7)."""
    target_tensor = as_tensor(target)
    return (prediction - target_tensor).abs().mean()


def pairwise_l2(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise euclidean distance ``||a_i - b_i||_2`` (paper Eq. 12 terms)."""
    diff = a - b
    return ((diff * diff).sum(axis=-1) + eps).sqrt()


def triplet_margin_loss(anchor: Tensor, positive: Tensor, negative: Tensor, margin: float = 1.0) -> Tensor:
    """Triplet loss of paper Eq. 12, averaged over anchors."""
    pos_dist = pairwise_l2(anchor, positive)
    neg_dist = pairwise_l2(anchor, negative)
    hinge = relu(pos_dist - neg_dist + margin)
    return hinge.mean()
