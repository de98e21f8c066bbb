"""Unit/integration tests for the baseline models (Table 3 methods)."""

import numpy as np
import pytest

from repro.models import (
    SEGNN,
    ClassifierResult,
    ProtGNN,
    build_model,
    train_node_classifier,
)


class TestBuildModel:
    @pytest.mark.parametrize(
        "name", ["gcn", "gat", "fusedgat", "unimp", "asdgn"]
    )
    def test_all_names_build(self, name):
        model = build_model(name, 8, 16, 3, np.random.default_rng(0), heads=2)
        assert sum(param.size for param in model.parameters()) > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_model("gpt", 8, 16, 3, np.random.default_rng(0))


class TestTrainNodeClassifier:
    @pytest.mark.parametrize("name", ["gcn", "gat", "unimp", "asdgn"])
    def test_learns_tiny_graph(self, tiny_graph, name):
        result = train_node_classifier(
            tiny_graph, name, hidden=16, epochs=80, dropout=0.0, heads=2, seed=0
        )
        # Two linearly separable communities: training accuracy must be high.
        train_predictions = result.predictions[tiny_graph.train_mask]
        train_labels = tiny_graph.labels[tiny_graph.train_mask]
        assert (train_predictions == train_labels).mean() >= 0.8

    def test_beats_chance_on_surrogate(self, small_cora):
        result = train_node_classifier(small_cora, "gcn", hidden=24, epochs=60, seed=0)
        assert result.test_accuracy > 1.0 / small_cora.num_classes + 0.1

    def test_result_fields(self, small_cora):
        result = train_node_classifier(small_cora, "gcn", hidden=16, epochs=5, seed=0)
        assert isinstance(result, ClassifierResult)
        assert result.logits.shape == (small_cora.num_nodes, small_cora.num_classes)
        assert result.hidden.shape[0] == small_cora.num_nodes
        assert len(result.losses) == 5

    def test_predict_supports_feature_override(self, small_cora):
        result = train_node_classifier(small_cora, "gcn", hidden=16, epochs=20, seed=0)
        zeroed = result.predict(np.zeros_like(small_cora.features))
        assert zeroed.shape == (small_cora.num_nodes,)
        assert (zeroed != result.predictions).any()

    def test_requires_masks(self, small_cora):
        from repro.graph import Graph

        bare = Graph(adjacency=small_cora.adjacency, features=small_cora.features)
        with pytest.raises(ValueError):
            train_node_classifier(bare, "gcn")

    def test_unimp_label_masking_active_in_training(self, small_cora):
        result = train_node_classifier(small_cora, "unimp", hidden=16, epochs=5, seed=0)
        model = result.model
        model.train()
        onehot = model._label_input(small_cora.num_nodes, small_cora.labels, small_cora.train_mask)
        visible_fraction = onehot.sum() / small_cora.train_mask.sum()
        assert visible_fraction < 1.0  # some labels masked out
        model.eval()
        onehot_eval = model._label_input(
            small_cora.num_nodes, small_cora.labels, small_cora.train_mask
        )
        assert onehot_eval.sum() == small_cora.train_mask.sum()


class TestSEGNN:
    def test_fit_and_accuracy(self, small_cora):
        result = SEGNN(small_cora, hidden=16, k_nearest=5, seed=0).fit(epochs=10)
        assert result.test_accuracy > 1.0 / small_cora.num_classes
        assert result.hidden.shape[0] == small_cora.num_nodes

    def test_exemplars_are_labelled_nodes(self, small_cora):
        segnn = SEGNN(small_cora, hidden=16, k_nearest=4, seed=0)
        result = segnn.fit(epochs=5)
        labelled = set(np.flatnonzero(small_cora.train_mask).tolist())
        for node, exemplars in list(result.exemplars.items())[:20]:
            assert set(exemplars.tolist()) <= labelled

    def test_exemplar_count(self, small_cora):
        segnn = SEGNN(small_cora, hidden=16, k_nearest=4, seed=0)
        result = segnn.fit(epochs=3)
        assert all(len(e) == 4 for e in result.exemplars.values())

    def test_edge_scores_require_fit(self, small_cora):
        segnn = SEGNN(small_cora, hidden=16, seed=0)
        with pytest.raises(RuntimeError):
            segnn.edge_scores()

    def test_edge_scores_unit_interval(self, small_cora):
        segnn = SEGNN(small_cora, hidden=16, seed=0)
        segnn.fit(epochs=3)
        scores = np.array(list(segnn.edge_scores().values()))
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_requires_labels(self, small_cora):
        from repro.graph import Graph

        bare = Graph(adjacency=small_cora.adjacency, features=small_cora.features)
        with pytest.raises(ValueError):
            SEGNN(bare)


class TestProtGNN:
    def test_fit_and_accuracy(self, small_cora):
        result = ProtGNN(small_cora, hidden=16, prototypes_per_class=2, seed=0).fit(epochs=30)
        assert result.test_accuracy > 1.0 / small_cora.num_classes

    def test_prototypes_projected_onto_training_nodes(self, small_cora):
        protgnn = ProtGNN(small_cora, hidden=16, prototypes_per_class=2,
                          project_every=5, seed=0)
        result = protgnn.fit(epochs=10)
        train_nodes = set(np.flatnonzero(small_cora.train_mask).tolist())
        assert set(result.prototype_nodes.tolist()) <= train_nodes

    def test_prototype_class_assignment(self, small_cora):
        protgnn = ProtGNN(small_cora, hidden=16, prototypes_per_class=3, seed=0)
        expected = np.repeat(np.arange(small_cora.num_classes), 3)
        np.testing.assert_array_equal(protgnn.prototype_classes, expected)

    def test_projected_prototypes_match_class(self, small_cora):
        protgnn = ProtGNN(small_cora, hidden=16, prototypes_per_class=2,
                          project_every=5, seed=0)
        result = protgnn.fit(epochs=10)
        for proto, node in enumerate(result.prototype_nodes):
            if node >= 0:
                assert small_cora.labels[node] == protgnn.prototype_classes[proto]

    def test_requires_labels(self, small_cora):
        from repro.graph import Graph

        bare = Graph(adjacency=small_cora.adjacency, features=small_cora.features)
        with pytest.raises(ValueError):
            ProtGNN(bare)
