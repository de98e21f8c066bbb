"""Evaluation metrics: classification, explanation quality, clustering."""

from .classification import accuracy, logits_to_predictions
from .clustering import calinski_harabasz_score, silhouette_score
from .explanation import fidelity_plus, roc_auc_score

__all__ = [
    "accuracy",
    "logits_to_predictions",
    "roc_auc_score",
    "fidelity_plus",
    "silhouette_score",
    "calinski_harabasz_score",
]
