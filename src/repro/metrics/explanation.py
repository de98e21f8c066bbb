"""Explanation-quality metrics: ROC-AUC against ground truth (Table 4) and
Fidelity+ (Table 5, Eq. 14)."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np


def roc_auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Binary ROC-AUC via the Mann–Whitney U statistic (ties handled).

    Equivalent to sklearn's implementation for binary labels.
    """
    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError(f"shape mismatch: {labels.shape} vs {scores.shape}")
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both positive and negative samples")
    # Midranks handle tied scores: every member of a tie group gets the mean
    # of the group's 1-based rank range.  ``np.unique`` yields the groups in
    # sorted order, so group g occupies sorted positions
    # [ends[g] - counts[g], ends[g]) and its midrank is
    # 0.5 * (start + end - 1) + 1.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    midranks = 0.5 * (2.0 * ends - counts - 1.0) + 1.0
    ranks = midranks[inverse]
    rank_sum = ranks[labels].sum()
    u_statistic = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_statistic / (n_pos * n_neg))


def fidelity_plus(
    predict: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    labels: np.ndarray,
    feature_importance: np.ndarray,
    top_k: int = 5,
    mask: Optional[np.ndarray] = None,
) -> float:
    """Fidelity+\\ :sup:`acc` (paper Eq. 14).

    Measures the accuracy drop when the ``top_k`` most important features of
    each node (per ``feature_importance``) are removed::

        Fidelity+ = mean_i [ 1(ŷ_i = y_i) − 1(ŷ_i^{1−m_i} = y_i) ]

    Parameters
    ----------
    predict:
        Function mapping a feature matrix to predicted class ids (the
        trained GNN with the graph structure closed over).
    features:
        Original ``(N, F)`` features.
    labels:
        True labels.
    feature_importance:
        ``(N, F)`` importance weights from the explainer.
    top_k:
        Number of important features to zero per node (paper: top-5).
    mask:
        Optional node subset (e.g. test nodes).
    """
    features = np.asarray(features, dtype=np.float64)
    importance = np.asarray(feature_importance, dtype=np.float64)
    if importance.shape != features.shape:
        raise ValueError(
            f"importance shape {importance.shape} != features shape {features.shape}"
        )
    original_predictions = predict(features)

    masked = features.copy()
    # top_k beyond the feature count means "remove everything".
    top_k = min(int(top_k), features.shape[1])
    ranked = np.argsort(-importance, axis=1)[:, :top_k]
    rows = np.repeat(np.arange(features.shape[0]), top_k)
    masked[rows, ranked.ravel()] = 0.0
    masked_predictions = predict(masked)

    correct_before = (original_predictions == labels).astype(np.float64)
    correct_after = (masked_predictions == labels).astype(np.float64)
    deltas = correct_before - correct_after
    if mask is not None:
        deltas = deltas[np.asarray(mask, dtype=bool)]
    return float(deltas.mean())
