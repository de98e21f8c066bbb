"""Tests for serialisation (repro.io)."""

import numpy as np

from repro import io
from repro.graph import Graph
from repro.nn import GraphEncoder
from repro.tensor import Tensor


class TestGraphRoundtrip:
    def test_topology_and_features(self, tmp_path, small_cora):
        path = tmp_path / "graph.npz"
        io.save_graph(small_cora, path)
        loaded = io.load_graph(path)
        assert loaded.num_nodes == small_cora.num_nodes
        assert (loaded.adjacency != small_cora.adjacency).nnz == 0
        np.testing.assert_allclose(loaded.features, small_cora.features)
        np.testing.assert_array_equal(loaded.labels, small_cora.labels)
        np.testing.assert_array_equal(loaded.train_mask, small_cora.train_mask)
        assert loaded.name == small_cora.name

    def test_ground_truth_preserved(self, tmp_path, small_motif_graph):
        path = tmp_path / "motif.npz"
        io.save_graph(small_motif_graph, path)
        loaded = io.load_graph(path)
        assert loaded.extra["gt_edge_mask"] == small_motif_graph.extra["gt_edge_mask"]
        np.testing.assert_array_equal(
            loaded.extra["motif_nodes"], small_motif_graph.extra["motif_nodes"]
        )

    def test_unlabelled_graph(self, tmp_path):
        graph = Graph.from_edges(4, np.array([(0, 1), (2, 3)]))
        path = tmp_path / "bare.npz"
        io.save_graph(graph, path)
        loaded = io.load_graph(path)
        assert loaded.labels is None
        assert loaded.train_mask is None


class TestCheckpointRoundtrip:
    def test_encoder_state(self, tmp_path):
        a = GraphEncoder(6, 8, 3, rng=np.random.default_rng(0))
        b = GraphEncoder(6, 8, 3, rng=np.random.default_rng(1))
        path = tmp_path / "model.npz"
        io.save_checkpoint(a, path)
        io.load_checkpoint(b, path)
        for (name_a, param_a), (name_b, param_b) in zip(
            a.named_parameters(), b.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(param_a.data, param_b.data)

    def test_loaded_model_computes_identically(self, tmp_path, small_cora):
        a = GraphEncoder(small_cora.num_features, 8, small_cora.num_classes,
                         dropout=0.0, rng=np.random.default_rng(0))
        b = GraphEncoder(small_cora.num_features, 8, small_cora.num_classes,
                         dropout=0.0, rng=np.random.default_rng(1))
        path = tmp_path / "model.npz"
        io.save_checkpoint(a, path)
        io.load_checkpoint(b, path)
        x = Tensor(small_cora.features)
        edge_index = small_cora.edge_index()
        out_a = a(x, edge_index, small_cora.num_nodes).data
        out_b = b(x, edge_index, small_cora.num_nodes).data
        np.testing.assert_allclose(out_a, out_b)


class TestExplanationsRoundtrip:
    def test_roundtrip(self, tmp_path, small_cora):
        from repro.core import SESTrainer, fast_config

        trainer = SESTrainer(small_cora, fast_config(explainable_epochs=5, predictive_epochs=1))
        trainer.train_explainable()
        explanations = trainer.explanations()
        path = tmp_path / "explanations.npz"
        io.save_explanations(explanations, path)
        loaded = io.load_explanations(path)
        np.testing.assert_allclose(loaded.feature_mask, explanations.feature_mask)
        assert (loaded.structure_mask != explanations.structure_mask).nnz == 0
        assert loaded.ranked_neighbors(0) == explanations.ranked_neighbors(0)
