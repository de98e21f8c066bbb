"""Cross-module integration tests: the paper's claims at miniature scale.

Each test exercises a full pipeline (datasets → models → SES/explainers →
metrics) and asserts the *qualitative* result the paper reports, at sizes
that keep the suite fast.
"""

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import ba_shapes, cora_like
from repro.explainers import GNNExplainer, evaluate_edge_auc, sample_motif_nodes
from repro.graph import classification_split, explanation_split
from repro.metrics import fidelity_plus, roc_auc_score, silhouette_score
from repro.models import train_node_classifier


@pytest.fixture(scope="module")
def motif_setup():
    graph = ba_shapes(base_nodes=80, num_motifs=16, noise_fraction=0.05, seed=1)
    explanation_split(graph, seed=1)
    config = fast_config("gcn", explainable_epochs=150, predictive_epochs=5,
                         dropout=0.1, seed=1, learning_rate=0.01,
                         subgraph_target="structure",
                         structure_explanation="sensitivity")
    trainer = SESTrainer(graph, config)
    trainer.train_explainable()
    return graph, trainer


@pytest.fixture(scope="module")
def citation_setup():
    graph = cora_like(num_nodes=250, num_classes=5, feature_dim=120, seed=2)
    classification_split(graph, seed=2)
    config = fast_config("gcn", explainable_epochs=50, predictive_epochs=8, seed=2)
    trainer = SESTrainer(graph, config)
    result = trainer.fit()
    return graph, trainer, result


class TestExplanationQuality:
    def test_ses_motif_auc_beats_chance_clearly(self, motif_setup):
        graph, trainer = motif_setup
        eval_nodes = sample_motif_nodes(graph, 10, np.random.default_rng(0))
        scores = trainer.explanations().edge_scores()
        auc = evaluate_edge_auc(scores, graph, eval_nodes)
        assert auc > 0.65

    def test_ses_explains_all_nodes_in_one_pass(self, motif_setup):
        graph, trainer = motif_setup
        explanations = trainer.explanations()
        # Every node with a k-hop neighbourhood has ranked neighbours.
        covered = sum(
            1 for node in range(graph.num_nodes)
            if explanations.ranked_neighbors(node)
        )
        assert covered == graph.num_nodes

    def test_structure_mask_separates_same_class_neighbors(self, citation_setup):
        graph, trainer, _ = citation_setup
        khop = trainer.khop_edges
        mask = trainer._frozen_structure_values
        agree = graph.labels[khop[0]] == graph.labels[khop[1]]
        # The mask should be a usable same-class predictor (paper's Fig. 8
        # claim that SES ranks same-class neighbours first).
        assert roc_auc_score(agree, mask) > 0.75

    def test_ses_fidelity_positive(self, citation_setup):
        graph, trainer, _ = citation_setup
        explanations = trainer.explanations()
        test_nodes = np.flatnonzero(graph.test_mask)
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[test_nodes] = True
        fidelity = fidelity_plus(
            trainer.predict, graph.features, graph.labels,
            explanations.feature_explanation, top_k=5, mask=mask,
        )
        random_importance = np.random.default_rng(0).random(graph.features.shape)
        random_fidelity = fidelity_plus(
            trainer.predict, graph.features, graph.labels,
            random_importance, top_k=5, mask=mask,
        )
        assert fidelity >= random_fidelity


class TestPredictionQuality:
    def test_ses_competitive_with_gcn(self, citation_setup):
        graph, _, result = citation_setup
        gcn = train_node_classifier(graph, "gcn", hidden=32, epochs=50, seed=2)
        assert result.test_accuracy >= gcn.test_accuracy - 0.08

    def test_embeddings_cluster_by_class(self, citation_setup):
        graph, _, result = citation_setup
        assert silhouette_score(result.hidden, graph.labels) > 0.0

    def test_phase2_does_not_destroy_phase1(self, citation_setup):
        graph, trainer, result = citation_setup
        val_curve = result.history.phase2_val_accuracy
        assert val_curve[-1] >= val_curve[0] - 0.05


class TestTimingClaims:
    def test_ses_explains_faster_than_gnn_explainer(self, motif_setup):
        """Table 6's core claim: one SES training pass explains every node
        faster than GNNExplainer's per-node optimisation can."""
        import time

        graph, trainer = motif_setup
        ses_time = trainer.stopwatch.durations["explainable"]
        classifier = train_node_classifier(graph, "gcn", hidden=32, epochs=30,
                                           dropout=0.1, seed=1)
        explainer = GNNExplainer(classifier.model, graph, epochs=60, seed=0)
        sample = sample_motif_nodes(graph, 5, np.random.default_rng(0))
        start = time.perf_counter()
        for node in sample:
            explainer.explain_node(int(node))
        per_node = (time.perf_counter() - start) / len(sample)
        # GNNExplainer's cost scales linearly with node count while SES's
        # one co-training pass does not; extrapolate to the paper's
        # BAShapes size (700 nodes) where the comparison is made.
        gex_all_nodes = per_node * 700
        assert ses_time < gex_all_nodes


class TestMemoryLeanMode:
    def test_base_edges_always_survive_the_cap(self):
        # Phase 2 reads the mask value of every base edge, so A must lie
        # inside A^(k).
        graph = cora_like(num_nodes=120, num_classes=4, feature_dim=60, seed=3)
        classification_split(graph, seed=3)
        trainer = SESTrainer(
            graph,
            fast_config("gcn", explainable_epochs=3, predictive_epochs=1, seed=3),
        )
        khop_keys = set(
            (trainer.khop_edges[0] * graph.num_nodes + trainer.khop_edges[1]).tolist()
        )
        base_keys = set(
            (graph.edge_index()[0] * graph.num_nodes + graph.edge_index()[1]).tolist()
        )
        assert base_keys <= khop_keys
