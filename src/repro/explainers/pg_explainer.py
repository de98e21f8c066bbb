"""PGExplainer (Luo et al., NeurIPS 2020).

Trains one shared MLP that maps concatenated endpoint embeddings
``[z_u || z_v]`` to an edge importance logit.  Edge masks are sampled with
the binary-concrete relaxation under an annealed temperature, and the MLP
is optimised so the masked graph preserves the model's predictions on a
set of training nodes — after which *all* instances are explained by a
single forward pass (the multi-instance advantage the paper highlights).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..tensor import MLP, Adam, Tensor, functional as F, no_grad, pair_mlp
from ..utils import make_rng
from .base import Explainer, NodeExplanation


class PGExplainer(Explainer):
    """Parameterised, multi-instance edge explainer."""

    name = "PGExplainer"

    def __init__(
        self,
        model,
        graph,
        epochs: int = 30,
        learning_rate: float = 0.01,
        size_weight: float = 0.01,
        entropy_weight: float = 0.1,
        temperature: Tuple[float, float] = (5.0, 1.0),
        num_train_nodes: int = 64,
        train_nodes: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(model, graph)
        self.epochs = epochs
        self.size_weight = size_weight
        self.entropy_weight = entropy_weight
        self.temperature = temperature
        self.rng = make_rng(seed)
        self._trained = False
        hidden = self._node_embeddings().shape[1]
        self.edge_mlp = MLP((2 * hidden, 32, 1), rng=self.rng)
        self.optimizer = Adam(self.edge_mlp.parameters(), lr=learning_rate)
        if train_nodes is not None:
            # Train the mask predictor on the instances it will explain —
            # the PGExplainer protocol (explanations are learned from the
            # population of target instances).
            self.train_nodes = np.asarray(train_nodes, dtype=np.int64)
        else:
            candidates = np.arange(graph.num_nodes)
            take = min(num_train_nodes, len(candidates))
            self.train_nodes = self.rng.choice(candidates, size=take, replace=False)

    def _node_embeddings(self) -> np.ndarray:
        """Hidden representations from the target model (detached)."""
        self.model.eval()
        with no_grad():
            if hasattr(self.model, "forward_with_hidden"):
                hidden, _ = self.model.forward_with_hidden(
                    Tensor(self.graph.features), self.edge_index, self.graph.num_nodes
                )
                return hidden.data
            logits = self._forward(
                Tensor(self.graph.features), self.edge_index, self.graph.num_nodes
            )
            return logits.data

    def _edge_logits(self, embeddings: Optional[np.ndarray] = None) -> Tensor:
        """``(E,)`` logits of ``edge_mlp`` on ``[z_src || z_dst]`` per edge.

        ``embeddings`` are the frozen target model's node embeddings; pass
        them when scoring repeatedly, since they cannot change between calls.
        """
        if embeddings is None:
            embeddings = self._node_embeddings()
        return pair_mlp(self.edge_mlp, Tensor(embeddings), self.edge_index)

    def _concrete_sample(self, logits: Tensor, temperature: float) -> Tensor:
        """Binary-concrete relaxation of Bernoulli edge masks."""
        uniform = self.rng.uniform(1e-6, 1.0 - 1e-6, size=logits.shape)
        gumbel = np.log(uniform) - np.log(1.0 - uniform)
        return F.sigmoid((logits + Tensor(gumbel)) * (1.0 / temperature))

    def fit(self) -> "PGExplainer":
        """Train the shared edge-mask predictor."""
        graph = self.graph
        targets = self.original_predictions()
        features = Tensor(graph.features)
        node_mask = np.zeros(graph.num_nodes, dtype=bool)
        node_mask[self.train_nodes] = True
        t_start, t_end = self.temperature
        # Only edge_mlp is optimised and the target model runs in eval mode,
        # so its embeddings are fixed for the whole fit.
        embeddings = self._node_embeddings()
        for epoch in range(self.epochs):
            temperature = t_start * (t_end / t_start) ** (epoch / max(1, self.epochs - 1))
            self.optimizer.zero_grad()
            logits = self._edge_logits(embeddings)
            mask = self._concrete_sample(logits, temperature)
            predictions = self._forward(features, self.edge_index, graph.num_nodes, mask)
            loss = (
                F.cross_entropy(predictions, targets, mask=node_mask)
                + mask.mean() * self.size_weight
                + _entropy(mask) * self.entropy_weight
            )
            loss.backward()
            self.optimizer.step()
        self._trained = True
        return self

    def edge_scores(self, nodes: Optional[Iterable[int]] = None) -> Dict[Tuple[int, int], float]:
        if not self._trained:
            self.fit()
        with no_grad():
            logits = self._edge_logits()
        probabilities = 1.0 / (1.0 + np.exp(-logits.data))
        src, dst = self.edge_index
        return {
            (int(u), int(v)): float(p) for u, v, p in zip(src, dst, probabilities)
        }

    def explain_node(self, node: int) -> NodeExplanation:
        scores = self.edge_scores()
        incident = {
            edge: score
            for edge, score in scores.items()
            if edge[0] == node or edge[1] == node
        }
        return NodeExplanation(node=node, edge_scores=incident or scores)


def _entropy(p: Tensor, eps: float = 1e-9) -> Tensor:
    clipped = p.clip(eps, 1.0 - eps)
    return -(clipped * clipped.log() + (1.0 - clipped) * (1.0 - clipped).log()).mean()
