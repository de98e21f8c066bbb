"""Baseline node classifiers for Table 3.

A single harness, :func:`train_node_classifier`, trains any of the
"trivial GNN" baselines (GCN, GAT, FusedGAT, A-SDGN) plus the UniMP
label-propagation model, with the paper's settings (Adam, lr 3e-3,
hidden 128, 60/20/20 split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..graph import Graph
from ..metrics import accuracy, logits_to_predictions
from ..nn import ASDGNConv, GraphEncoder, TransformerConv, share_edge_cache
from ..nn.encoder import BACKBONES
from ..tensor import Adam, Linear, Module, Tensor, functional as F, no_grad
from ..utils import make_rng


class ASDGNClassifier(Module):
    """Linear lift → antisymmetric DGN iterations → linear readout."""

    def __init__(self, num_features: int, hidden: int, num_classes: int, rng) -> None:
        super().__init__()
        self.lift = Linear(num_features, hidden, rng=rng)
        self.dgn = ASDGNConv(hidden, num_iters=4, rng=rng)
        self.readout = Linear(hidden, num_classes, rng=rng)

    def forward(self, x, edge_index, num_nodes, edge_weight=None):
        _, logits = self.forward_with_hidden(x, edge_index, num_nodes, edge_weight)
        return logits

    def forward_with_hidden(self, x, edge_index, num_nodes, edge_weight=None):
        h = self.dgn(self.lift(x), edge_index, num_nodes, edge_weight)
        return h, self.readout(h)


class UniMPClassifier(Module):
    """UniMP: transformer convs with masked label propagation.

    Training labels are embedded and added to the lifted inputs; each epoch
    a random fraction is masked so the model learns to propagate partial
    label information (Shi et al., 2021).
    """

    def __init__(
        self,
        num_features: int,
        hidden: int,
        num_classes: int,
        rng,
        label_mask_rate: float = 0.3,
    ) -> None:
        super().__init__()
        self.lift = Linear(num_features, hidden, rng=rng)
        self.label_embed = Linear(num_classes, hidden, bias=False, rng=rng)
        self.conv1 = TransformerConv(hidden, hidden, heads=2, rng=rng)
        self.conv2 = TransformerConv(hidden, num_classes, heads=1, rng=rng)
        share_edge_cache(self.conv1, self.conv2)
        self.num_classes = num_classes
        self.label_mask_rate = label_mask_rate
        self._rng = rng

    def _label_input(self, num_nodes: int, labels, train_mask) -> np.ndarray:
        onehot = np.zeros((num_nodes, self.num_classes))
        if labels is not None and train_mask is not None:
            visible = train_mask.copy()
            if self.training:
                drop = self._rng.random(num_nodes) < self.label_mask_rate
                visible = visible & ~drop
            rows = np.flatnonzero(visible)
            onehot[rows, labels[rows]] = 1.0
        return onehot

    def forward(
        self, x, edge_index, num_nodes, edge_weight=None, labels=None, train_mask=None
    ):
        _, logits = self.forward_with_hidden(
            x, edge_index, num_nodes, edge_weight, labels=labels, train_mask=train_mask
        )
        return logits

    def forward_with_hidden(
        self, x, edge_index, num_nodes, edge_weight=None, labels=None, train_mask=None
    ):
        label_onehot = self._label_input(num_nodes, labels, train_mask)
        h = self.lift(x) + self.label_embed(Tensor(label_onehot))
        h = F.relu(self.conv1(h, edge_index, num_nodes, edge_weight))
        return h, self.conv2(h, edge_index, num_nodes, edge_weight)


_MODEL_NAMES = BACKBONES + ("unimp", "asdgn")


def build_model(
    name: str,
    num_features: int,
    hidden: int,
    num_classes: int,
    rng: np.random.Generator,
    heads: int = 4,
    dropout: float = 0.5,
) -> Module:
    """Instantiate a baseline model by name."""
    key = name.lower()
    if key in BACKBONES:
        return GraphEncoder(
            num_features, hidden, num_classes, backbone=key, dropout=dropout,
            heads=heads, rng=rng,
        )
    if key == "unimp":
        return UniMPClassifier(num_features, hidden, num_classes, rng)
    if key == "asdgn":
        return ASDGNClassifier(num_features, hidden, num_classes, rng)
    raise ValueError(f"unknown model {name!r}; expected one of {_MODEL_NAMES}")


@dataclass
class ClassifierResult:
    """Output of :func:`train_node_classifier`."""

    name: str
    test_accuracy: float
    val_accuracy: float
    losses: List[float]
    logits: np.ndarray
    hidden: np.ndarray
    predictions: np.ndarray
    model: Module
    graph: Graph

    def predict(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Predictions, optionally from perturbed features (Fidelity+)."""
        x = self.graph.features if features is None else features
        logits = _forward_eval(self.model, self.graph, np.asarray(x, dtype=np.float64))
        return logits_to_predictions(logits)


def _forward_eval(model: Module, graph: Graph, features: np.ndarray) -> np.ndarray:
    model.eval()
    kwargs = {}
    if isinstance(model, UniMPClassifier):
        kwargs = {"labels": graph.labels, "train_mask": graph.train_mask}
    with no_grad():
        logits = model(Tensor(features), graph.edge_index(), graph.num_nodes, **kwargs)
    return logits.data


def train_node_classifier(
    graph: Graph,
    name: str = "gcn",
    hidden: int = 128,
    epochs: int = 200,
    learning_rate: float = 3e-3,
    weight_decay: float = 5e-4,
    dropout: float = 0.5,
    heads: int = 4,
    seed: int = 0,
) -> ClassifierResult:
    """Train a baseline classifier with the paper's settings and evaluate it."""
    if graph.labels is None or graph.train_mask is None:
        raise ValueError("graph needs labels and split masks")
    rng = make_rng(seed)
    model = build_model(
        name, graph.num_features, hidden, graph.num_classes, rng,
        heads=heads, dropout=dropout,
    )
    optimizer = Adam(model.parameters(), lr=learning_rate, weight_decay=weight_decay)
    features = Tensor(graph.features)
    edge_index = graph.edge_index()
    kwargs: Dict = {}
    if isinstance(model, UniMPClassifier):
        kwargs = {"labels": graph.labels, "train_mask": graph.train_mask}

    losses: List[float] = []
    for _ in range(epochs):
        model.train()
        optimizer.zero_grad()
        logits = model(features, edge_index, graph.num_nodes, **kwargs)
        loss = F.cross_entropy(logits, graph.labels, mask=graph.train_mask)
        loss.backward()
        optimizer.step()
        losses.append(loss.item())

    logits = _forward_eval(model, graph, graph.features)
    model.eval()
    with no_grad():
        hidden_out, _ = model.forward_with_hidden(
            features, edge_index, graph.num_nodes, **kwargs
        )
    predictions = logits_to_predictions(logits)
    return ClassifierResult(
        name=name,
        test_accuracy=accuracy(predictions, graph.labels, mask=graph.test_mask),
        val_accuracy=(
            accuracy(predictions, graph.labels, mask=graph.val_mask)
            if graph.val_mask is not None and graph.val_mask.any()
            else float("nan")
        ),
        losses=losses,
        logits=logits,
        hidden=hidden_out.data,
        predictions=predictions,
        model=model,
        graph=graph,
    )
