"""SES loss terms (paper Eqs. 6–9, 12–13)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, as_tensor, functional as F


def subgraph_loss(
    structure_mask: Tensor,
    negative_mask: Tensor,
    khop_edges: np.ndarray,
    negative_pairs: np.ndarray,
    labels: Optional[np.ndarray] = None,
    train_mask: Optional[np.ndarray] = None,
    target_mode: str = "structure",
) -> Tensor:
    """``L_sub`` of Eq. 7: mean |stk(M_s, M_sneg) − stk(Y_s, Y_sneg)|.

    Targets ``Y_s`` / ``Y_sneg`` follow the link-prediction reading the
    paper motivates: mask weights of genuine k-hop edges are pulled towards
    1, scores of negative (non-neighbour, different-label) pairs towards 0.
    With ``target_mode="label"`` the positive targets are refined to label
    agreement where both endpoints are labelled training nodes.
    """
    if target_mode not in ("structure", "label"):
        raise ValueError("target_mode must be 'structure' or 'label'")
    positive_targets = np.ones(khop_edges.shape[1])
    supervised = np.ones(khop_edges.shape[1], dtype=bool)
    if target_mode == "label" and labels is not None:
        known = (
            train_mask[khop_edges[0]] & train_mask[khop_edges[1]]
            if train_mask is not None
            else np.ones(khop_edges.shape[1], dtype=bool)
        )
        agree = labels[khop_edges[0]] == labels[khop_edges[1]]
        positive_targets = np.where(agree, 1.0, 0.0)
        # Only label-known pairs are supervised; the scorer generalises to
        # the rest through cat(h_i, h_k), and the masked cross-entropy of
        # Eq. 8 provides their training signal.
        supervised = known
    negative_targets = np.zeros(negative_pairs.shape[1])

    if not supervised.all():
        structure_mask = structure_mask[np.flatnonzero(supervised)]
        positive_targets = positive_targets[supervised]
    if structure_mask.shape[0] + negative_mask.shape[0] == 0:
        # No supervised pairs at all (tiny graphs with no labelled edges and
        # no complement to sample from): the loss is vacuously zero rather
        # than an empty-mean NaN that would poison the optimiser.
        return as_tensor(0.0)
    stacked_masks = F.concatenate([structure_mask, negative_mask], axis=0)
    stacked_targets = np.concatenate([positive_targets, negative_targets])
    # Class-balanced mean: without it the (far more numerous) target-1 edges
    # saturate the sigmoid scorer at 1 early and the L1 gradient vanishes
    # before the target-0 edges can carve out low weights.
    ones = stacked_targets > 0.5
    num_ones, num_zeros = int(ones.sum()), int((~ones).sum())
    if num_ones == 0 or num_zeros == 0:
        return F.l1_loss(stacked_masks, stacked_targets)
    weights = np.where(ones, 0.5 / num_ones, 0.5 / num_zeros)
    deviations = (stacked_masks - as_tensor(stacked_targets)).abs()
    return (deviations * weights).sum()


def explainable_training_loss(
    plain_xent: Tensor,
    masked_xent: Optional[Tensor],
    sub_loss: Tensor,
    alpha: float,
) -> Tensor:
    """Phase-1 objective, Eq. 9: ``alpha (L_sub + L_xent^m) + (1-alpha) L_xent``.

    ``masked_xent`` may be ``None`` for the −{L_xent^m} ablation (Table 5).
    """
    mask_term = sub_loss if masked_xent is None else sub_loss + masked_xent
    return mask_term * alpha + plain_xent * (1.0 - alpha)


def predictive_learning_loss(
    triplet: Optional[Tensor],
    xent: Optional[Tensor],
    beta: float,
) -> Tensor:
    """Phase-2 objective, Eq. 13: ``beta L_triplet + (1-beta) L_xent``.

    Either term may be ``None`` for the −{Triplet} / −{L_xent} ablations
    (Table 10); at least one must be present.
    """
    if triplet is None and xent is None:
        raise ValueError("phase-2 loss needs at least one active term")
    if triplet is None:
        return xent * (1.0 - beta)
    if xent is None:
        return triplet * beta
    return triplet * beta + xent * (1.0 - beta)
