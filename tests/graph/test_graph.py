"""Unit tests for the Graph container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import Graph


def _triangle() -> Graph:
    return Graph.from_edges(3, np.array([(0, 1), (1, 2), (2, 0)]))


class TestConstruction:
    def test_from_edges_symmetrises(self):
        graph = Graph.from_edges(3, np.array([(0, 1)]))
        assert graph.adjacency[0, 1] != 0
        assert graph.adjacency[1, 0] != 0

    def test_self_loops_removed(self):
        graph = Graph.from_edges(3, np.array([(0, 0), (0, 1)]))
        assert graph.adjacency[0, 0] == 0
        assert graph.num_edges == 2

    def test_duplicate_edges_collapse(self):
        graph = Graph.from_edges(3, np.array([(0, 1), (1, 0), (0, 1)]))
        assert graph.num_edges == 2

    def test_empty_edge_list(self):
        graph = Graph.from_edges(4, np.zeros((0, 2)))
        assert graph.num_edges == 0
        assert graph.num_nodes == 4

    def test_rejects_nonsquare_adjacency(self):
        with pytest.raises(ValueError):
            Graph(adjacency=sp.csr_matrix(np.ones((2, 3))), features=np.ones((2, 1)))

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(ValueError):
            Graph(adjacency=sp.identity(3, format="csr") * 0, features=np.ones((2, 1)))

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, np.array([(0, 1)]), features=np.ones(2))

    def test_rejects_bad_label_shape(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, np.array([(0, 1)]), labels=np.array([0, 1]))

    def test_rejects_bad_mask_shape(self):
        with pytest.raises(ValueError):
            Graph.from_edges(
                3, np.array([(0, 1)]), train_mask=np.array([True, False])
            )

    def test_rejects_bad_edge_shape(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, np.array([[0, 1, 2]]))


class TestAccessors:
    def test_degrees(self):
        graph = _triangle()
        np.testing.assert_allclose(graph.degrees(), [2.0, 2.0, 2.0])

    def test_edge_index_both_directions(self):
        graph = Graph.from_edges(2, np.array([(0, 1)]))
        edge_index = graph.edge_index()
        pairs = set(zip(edge_index[0].tolist(), edge_index[1].tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_edge_weights_align_with_index(self):
        graph = _triangle()
        assert graph.edge_weights().shape == (graph.edge_index().shape[1],)

    def test_neighbors(self):
        graph = Graph.from_edges(4, np.array([(0, 1), (0, 2)]))
        np.testing.assert_array_equal(np.sort(graph.neighbors(0)), [1, 2])
        assert len(graph.neighbors(3)) == 0

    def test_num_classes(self):
        graph = Graph.from_edges(3, np.array([(0, 1)]), labels=np.array([0, 2, 1]))
        assert graph.num_classes == 3

    def test_num_classes_requires_labels(self):
        with pytest.raises(ValueError):
            _ = _triangle().num_classes

    def test_summary_contains_name(self):
        assert "graph" in _triangle().summary()


class TestSubgraphNodes:
    def test_one_hop(self):
        graph = Graph.from_edges(5, np.array([(0, 1), (1, 2), (2, 3), (3, 4)]))
        np.testing.assert_array_equal(graph.subgraph_nodes(0, 1), [1])

    def test_two_hops(self):
        graph = Graph.from_edges(5, np.array([(0, 1), (1, 2), (2, 3), (3, 4)]))
        np.testing.assert_array_equal(graph.subgraph_nodes(0, 2), [1, 2])

    def test_excludes_center(self):
        graph = _triangle()
        assert 0 not in graph.subgraph_nodes(0, 2)

    def test_disconnected_node(self):
        graph = Graph.from_edges(3, np.array([(0, 1)]))
        assert len(graph.subgraph_nodes(2, 3)) == 0
