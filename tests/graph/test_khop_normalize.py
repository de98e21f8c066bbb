"""Unit tests for k-hop expansion and normalisations."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    gcn_edge_norm,
    khop_adjacency,
    khop_edge_index,
    scatter_edge_values,
)
from tests.oracles import gcn_normalized_adjacency


def _path(n: int = 5) -> Graph:
    edges = np.array([(i, i + 1) for i in range(n - 1)])
    return Graph.from_edges(n, edges)


class TestKhop:
    def test_k1_equals_adjacency(self):
        graph = _path()
        reach = khop_adjacency(graph, 1)
        np.testing.assert_allclose(reach.toarray(), (graph.adjacency != 0).toarray())

    def test_k2_on_path(self):
        graph = _path(4)
        reach = khop_adjacency(graph, 2).toarray()
        assert reach[0, 2] == 1
        assert reach[0, 3] == 0
        assert reach[0, 0] == 0  # no self-loops

    def test_k_large_saturates(self):
        graph = _path(4)
        reach = khop_adjacency(graph, 10).toarray()
        expected = np.ones((4, 4)) - np.eye(4)
        np.testing.assert_allclose(reach, expected)

    def test_symmetry(self):
        graph = _path(6)
        reach = khop_adjacency(graph, 3).toarray()
        np.testing.assert_allclose(reach, reach.T)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            khop_adjacency(_path(), 0)

    def test_cached(self):
        graph = _path()
        assert khop_adjacency(graph, 2) is khop_adjacency(graph, 2)

    def test_edge_index_matches_adjacency(self):
        graph = _path()
        idx = khop_edge_index(graph, 2)
        assert idx.shape[1] == khop_adjacency(graph, 2).nnz


class TestScatterEdgeValues:
    def test_roundtrip(self):
        graph = _path(4)
        idx = khop_edge_index(graph, 1)
        values = np.arange(idx.shape[1], dtype=np.float64) + 1.0
        matrix = scatter_edge_values(idx, values, 4)
        for column in range(idx.shape[1]):
            assert matrix[idx[0, column], idx[1, column]] == values[column]

    def test_length_mismatch(self):
        graph = _path(4)
        idx = khop_edge_index(graph, 1)
        with pytest.raises(ValueError):
            scatter_edge_values(idx, np.ones(idx.shape[1] + 1), 4)


class TestGCNNormalization:
    def test_rows_of_regular_graph(self):
        # A triangle with self-loops: every coefficient is 1/3.
        graph = Graph.from_edges(3, np.array([(0, 1), (1, 2), (2, 0)]))
        full_index, coefficients = gcn_edge_norm(graph.edge_index(), graph.num_nodes)
        assert full_index.shape == (2, 6 + 3)
        np.testing.assert_allclose(coefficients, 1.0 / 3.0, atol=1e-12)

    def test_isolated_node_stays_finite(self):
        graph = Graph.from_edges(3, np.array([(0, 1)]))
        full_index, coefficients = gcn_edge_norm(graph.edge_index(), graph.num_nodes)
        assert np.isfinite(coefficients).all()
        # Node 2's only edge is its self-loop, with coefficient 1.
        loop = (full_index[0] == 2) & (full_index[1] == 2)
        np.testing.assert_allclose(coefficients[loop], [1.0])

    def test_edge_norm_matches_matrix_form(self):
        graph = Graph.from_edges(4, np.array([(0, 1), (1, 2), (2, 3), (0, 3)]))
        matrix = gcn_normalized_adjacency(graph)
        full_index, coefficients = gcn_edge_norm(graph.edge_index(), graph.num_nodes)
        rebuilt = np.zeros((4, 4))
        rebuilt[full_index[0], full_index[1]] = coefficients
        # gcn_edge_norm scatters src->dst; matrix form is symmetric.
        np.testing.assert_allclose(rebuilt, matrix, atol=1e-12)
