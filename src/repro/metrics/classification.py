"""Node-classification metrics (Table 3)."""

from __future__ import annotations

from typing import Optional

import numpy as np


def accuracy(predictions: np.ndarray, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Fraction of correct predictions, optionally restricted to ``mask``."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        predictions, labels = predictions[mask], labels[mask]
    if len(labels) == 0:
        raise ValueError("no nodes selected for accuracy computation")
    return float((predictions == labels).mean())


def logits_to_predictions(logits: np.ndarray) -> np.ndarray:
    """Argmax over the class axis."""
    return np.asarray(logits).argmax(axis=-1)
