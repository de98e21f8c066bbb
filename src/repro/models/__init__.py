"""Baseline models: trivial GNN classifiers, SEGNN, ProtGNN."""

from .classifiers import (
    ASDGNClassifier,
    ClassifierResult,
    UniMPClassifier,
    build_model,
    train_node_classifier,
)
from .protgnn import ProtGNN, ProtGNNResult
from .segnn import SEGNN, SEGNNResult

__all__ = [
    "build_model",
    "train_node_classifier",
    "ClassifierResult",
    "ASDGNClassifier",
    "UniMPClassifier",
    "SEGNN",
    "SEGNNResult",
    "ProtGNN",
    "ProtGNNResult",
]
