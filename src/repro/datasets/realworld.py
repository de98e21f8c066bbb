"""Surrogates for the paper's real-world datasets (§5.1.1).

Cora, CiteSeer, PolBlogs and Coauthor-CS cannot be downloaded in this
offline environment, so each is replaced by a generator that reproduces the
properties the experiments actually exercise (DESIGN.md §3):

* **homophily** — most edges connect same-class nodes, produced by a
  degree-corrected stochastic block model (power-law degree propensities);
* **class-correlated sparse features** — binary bag-of-words where each
  class has its own set of frequent "topic words" (PolBlogs keeps the
  paper's own convention of an identity feature matrix, since the real
  dataset has no node features);
* **scale ordering** — CS-like is several times larger than the citation
  surrogates, PolBlogs-like is small but dense.

Node counts are scaled down ~2–10× from the originals so the from-scratch
numpy stack trains in seconds; every size is a parameter.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..graph import Graph


def _degree_corrected_sbm(
    class_sizes: Sequence[int],
    mean_degree: float,
    homophily: float,
    rng: np.random.Generator,
    tail_exponent: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample an undirected DC-SBM.

    Parameters
    ----------
    class_sizes:
        Nodes per class.
    mean_degree:
        Target average degree.
    homophily:
        Fraction of edge endpoints that stay within the class (0.5 = random,
        1.0 = perfectly assortative).
    tail_exponent:
        Pareto tail exponent for per-node degree propensities; lower values
        give heavier tails (citation networks are heavy-tailed).

    Returns
    -------
    (edges, labels):
        ``(E, 2)`` unique undirected edges and ``(N,)`` labels.
    """
    labels = np.concatenate(
        [np.full(size, c, dtype=np.int64) for c, size in enumerate(class_sizes)]
    )
    num_nodes = len(labels)
    num_classes = len(class_sizes)
    propensity = rng.pareto(tail_exponent + 1.0, size=num_nodes) + 1.0
    target_edges = int(mean_degree * num_nodes / 2)

    # Pre-compute per-class node pools weighted by propensity.
    class_nodes: List[np.ndarray] = [np.flatnonzero(labels == c) for c in range(num_classes)]
    class_probs = []
    for nodes in class_nodes:
        weights = propensity[nodes]
        class_probs.append(weights / weights.sum())
    global_probs = propensity / propensity.sum()
    all_nodes = np.arange(num_nodes)

    edge_set = set()
    max_attempts = 30 * target_edges
    attempts = 0
    while len(edge_set) < target_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.choice(all_nodes, p=global_probs))
        if rng.random() < homophily:
            pool, probs = class_nodes[labels[u]], class_probs[labels[u]]
        else:
            pool, probs = all_nodes, global_probs
        v = int(rng.choice(pool, p=probs))
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        edge_set.add(edge)
    edges = np.array(sorted(edge_set), dtype=np.int64)
    return edges, labels


def _bag_of_words_features(
    labels: np.ndarray,
    feature_dim: int,
    words_per_class: int,
    topic_rate: float,
    background_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binary features with class-specific frequent words."""
    num_nodes = len(labels)
    num_classes = int(labels.max()) + 1
    if words_per_class * num_classes > feature_dim:
        raise ValueError("feature_dim too small for the requested topic words")
    features = (rng.random((num_nodes, feature_dim)) < background_rate).astype(np.float64)
    for c in range(num_classes):
        cols = slice(c * words_per_class, (c + 1) * words_per_class)
        members = labels == c
        topic_draws = rng.random((int(members.sum()), words_per_class)) < topic_rate
        features[members, cols] = np.maximum(features[members, cols], topic_draws)
    return features


def _ensure_connected_features(graph: Graph) -> Graph:
    """Guarantee every node has at least one nonzero feature."""
    empty = graph.features.sum(axis=1) == 0
    if empty.any():
        graph.features[empty, 0] = 1.0
    return graph


def cora_like(
    num_nodes: int = 1000,
    num_classes: int = 7,
    feature_dim: int = 280,
    mean_degree: float = 4.0,
    homophily: float = 0.72,
    seed: int = 0,
) -> Graph:
    """Citation-network surrogate for Cora (2708 nodes / 7 classes originally)."""
    rng = np.random.default_rng(seed)
    sizes = _class_sizes(num_nodes, num_classes, rng)
    edges, labels = _degree_corrected_sbm(sizes, mean_degree, homophily, rng)
    words = min(25, feature_dim // num_classes)
    features = _bag_of_words_features(labels, feature_dim, words, 0.10, 0.02, rng)
    graph = Graph.from_edges(num_nodes, edges, features=features, labels=labels, name="Cora-like")
    return _ensure_connected_features(graph)


def citeseer_like(
    num_nodes: int = 1100,
    num_classes: int = 6,
    feature_dim: int = 300,
    mean_degree: float = 2.8,
    homophily: float = 0.62,
    seed: int = 0,
) -> Graph:
    """Sparser, noisier citation surrogate for CiteSeer (accuracy sits below Cora)."""
    rng = np.random.default_rng(seed)
    sizes = _class_sizes(num_nodes, num_classes, rng)
    edges, labels = _degree_corrected_sbm(sizes, mean_degree, homophily, rng)
    words = min(22, feature_dim // num_classes)
    features = _bag_of_words_features(labels, feature_dim, words, 0.065, 0.025, rng)
    graph = Graph.from_edges(
        num_nodes, edges, features=features, labels=labels, name="CiteSeer-like"
    )
    return _ensure_connected_features(graph)


def polblogs_like(
    num_nodes: int = 500,
    mean_degree: float = 12.0,
    homophily: float = 0.75,
    seed: int = 0,
) -> Graph:
    """Dense two-community surrogate for PolBlogs.

    The real PolBlogs has no node features; the paper assigns an identity
    matrix ("We assign a unit matrix as the node features"), and so do we.
    """
    rng = np.random.default_rng(seed)
    sizes = _class_sizes(num_nodes, 2, rng)
    edges, labels = _degree_corrected_sbm(sizes, mean_degree, homophily, rng, tail_exponent=0.8)
    features = np.eye(num_nodes)
    return Graph.from_edges(
        num_nodes, edges, features=features, labels=labels, name="PolBlogs-like"
    )


def cs_like(
    num_nodes: int = 2000,
    num_classes: int = 12,
    feature_dim: int = 360,
    mean_degree: float = 9.0,
    homophily: float = 0.66,
    seed: int = 0,
) -> Graph:
    """Co-authorship surrogate for Coauthor-CS (18333 nodes / 15 classes originally)."""
    rng = np.random.default_rng(seed)
    sizes = _class_sizes(num_nodes, num_classes, rng)
    edges, labels = _degree_corrected_sbm(sizes, mean_degree, homophily, rng, tail_exponent=1.2)
    words = min(20, feature_dim // num_classes)
    features = _bag_of_words_features(labels, feature_dim, words, 0.065, 0.025, rng)
    graph = Graph.from_edges(num_nodes, edges, features=features, labels=labels, name="CS-like")
    return _ensure_connected_features(graph)


def _class_sizes(num_nodes: int, num_classes: int, rng: np.random.Generator) -> List[int]:
    """Slightly unbalanced class sizes summing to ``num_nodes``."""
    weights = rng.uniform(0.8, 1.2, size=num_classes)
    raw = weights / weights.sum() * num_nodes
    sizes = np.floor(raw).astype(int)
    sizes[: num_nodes - sizes.sum()] += 1
    return sizes.tolist()
