"""From-scratch autograd stack: tensors, functionals, modules, optimisers.

This subpackage replaces PyTorch for the SES reproduction.  Public surface:

* :class:`Tensor`, :func:`as_tensor`, :class:`no_grad` — autograd core.
* :mod:`repro.tensor.functional` (imported as ``F``) — activations/losses.
* :func:`gather_rows`, :func:`segment_sum`, :func:`segment_mean`,
  :func:`segment_softmax` — message-passing primitives on CSR segment
  layouts (:class:`CSRSegmentLayout`, :func:`cached_layout`).
* :func:`pair_mlp` — a 2-layer MLP over concatenated endpoint pairs,
  evaluated without building the concatenation (the SES Eq. 4 scorer).
* :func:`edge_spmm` — the edge-weighted sparse product ``A_w @ h`` of
  message passing, differentiable in ``h`` and in the edge weights.
* :class:`Module`, :class:`Linear`, :class:`MLP` — NN building blocks.
* :class:`Adam` — the optimiser (on the :class:`Optimizer` base).
* :class:`AllocationTracker` — passive byte accounting used by the
  observability layer (:mod:`repro.obs`).
"""

from . import functional
from .alloc import AllocationTracker
from .csr import CSRSegmentLayout, cached_layout, clear_layout_cache
from .init import xavier_uniform, xavier_uniform_shape, zeros_init
from .module import MLP, Linear, Module
from .optim import Adam, Optimizer
from .scatter import gather_rows, pair_mlp, segment_mean, segment_softmax, segment_sum
from .sparse import edge_spmm
from .tensor import Tensor, as_tensor, no_grad, ones, unbroadcast, zeros

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "unbroadcast",
    "zeros",
    "ones",
    "functional",
    "CSRSegmentLayout",
    "cached_layout",
    "clear_layout_cache",
    "gather_rows",
    "pair_mlp",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
    "edge_spmm",
    "Module",
    "Linear",
    "MLP",
    "xavier_uniform",
    "xavier_uniform_shape",
    "zeros_init",
    "Optimizer",
    "Adam",
    "AllocationTracker",
]
