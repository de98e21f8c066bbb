"""Tests for serialisation (repro.io)."""

import numpy as np

from repro import io
from repro.graph import Graph


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

