"""Unit tests for the conv-layer helper functions in repro.nn.base."""

import numpy as np
import pytest

from repro.nn import GraphEncoder
from repro.nn.base import (
    EdgeConstantCache,
    add_self_loops,
    extend_edge_weight,
    extend_edge_weight_scaled,
    gcn_constants,
    looped_constants,
    weighted_aggregate,
)
from repro.tensor import Tensor


@pytest.fixture()
def edges():
    return np.array([[0, 1, 2], [1, 2, 0]], dtype=np.int64)


class TestSelfLoops:
    def test_add_self_loops_appends_n_edges(self, edges):
        full = add_self_loops(edges, 4)
        assert full.shape == (2, 3 + 4)
        np.testing.assert_array_equal(full[0, -4:], [0, 1, 2, 3])
        np.testing.assert_array_equal(full[0, -4:], full[1, -4:])

    def test_extend_edge_weight_unit_loops(self, edges):
        weights = Tensor(np.array([0.5, 0.6, 0.7]))
        extended = extend_edge_weight(weights, 4)
        np.testing.assert_allclose(extended.data[-4:], 1.0)
        np.testing.assert_allclose(extended.data[:3], [0.5, 0.6, 0.7])

    def test_extend_edge_weight_none_passthrough(self):
        assert extend_edge_weight(None, 4) is None

    def test_scaled_loops_use_mean_incident_weight(self, edges):
        weights = Tensor(np.array([0.4, 0.8, 0.2]))
        extended = extend_edge_weight_scaled(weights, looped_constants(edges, 4)[2])
        # Node 1 has one incoming edge (0 -> 1) of weight 0.4.
        np.testing.assert_allclose(extended.data[3 + 1], 0.4)
        # Node 3 is isolated: unit self-loop.
        np.testing.assert_allclose(extended.data[3 + 3], 1.0)

    def test_scaled_loops_gradient_flows(self, edges):
        weights = Tensor(np.array([0.4, 0.8, 0.2]), requires_grad=True)
        extended = extend_edge_weight_scaled(weights, looped_constants(edges, 4)[2])
        extended.sum().backward()
        assert weights.grad is not None
        # Each edge contributes once directly and once via its self-loop mean.
        np.testing.assert_allclose(weights.grad, [2.0, 2.0, 2.0])


class TestWeightedAggregate:
    def test_matches_manual_sum(self, edges):
        h = Tensor(np.arange(8.0).reshape(4, 2))
        coefficients = np.array([1.0, 2.0, 3.0])
        out = weighted_aggregate(h, edges, 4, coefficients, None)
        # dst 1 receives 1.0 * h[0]; dst 2 receives 2.0 * h[1]; dst 0 gets 3*h[2].
        np.testing.assert_allclose(out.data[1], 1.0 * h.data[0])
        np.testing.assert_allclose(out.data[2], 2.0 * h.data[1])
        np.testing.assert_allclose(out.data[0], 3.0 * h.data[2])
        np.testing.assert_allclose(out.data[3], 0.0)

    def test_edge_weight_multiplies(self, edges):
        h = Tensor(np.ones((4, 2)))
        coefficients = np.ones(3)
        weights = Tensor(np.array([0.5, 0.0, 2.0]))
        out = weighted_aggregate(h, edges, 4, coefficients, weights)
        np.testing.assert_allclose(out.data[1], 0.5)
        np.testing.assert_allclose(out.data[2], 0.0)
        np.testing.assert_allclose(out.data[0], 2.0)


class TestGCNConstants:
    def test_symmetric_pair_coefficients_equal(self, edges):
        sym_edges = np.array([[0, 1], [1, 0]], dtype=np.int64)
        full, coefficients, _layouts = gcn_constants(sym_edges, 2)
        forward = coefficients[0]
        backward = coefficients[1]
        assert forward == pytest.approx(backward)

    def test_self_loop_coefficient_of_isolated_node(self):
        no_edges = np.zeros((2, 0), dtype=np.int64)
        full, coefficients, _layouts = gcn_constants(no_edges, 2)
        # Isolated node with self-loop: degree 1 -> coefficient 1.
        np.testing.assert_allclose(coefficients, 1.0)


class TestEdgeConstantCache:
    def test_builds_once_per_builder_and_content(self, edges):
        calls = []

        def builder(edge_index, num_nodes):
            calls.append(num_nodes)
            return (edge_index.shape[1],)

        cache = EdgeConstantCache()
        assert cache.get(builder, edges, 4) == (3,)
        assert cache.get(builder, edges.copy(), 4) == (3,)
        cache.get(builder, edges, 5)
        cache.get(gcn_constants, edges, 4)
        assert calls == [4, 5] and len(cache) == 3

    def test_evicts_least_recently_used_at_its_limit(self):
        cache = EdgeConstantCache(limit=2)
        lists = [np.array([[i], [i + 1]], dtype=np.int64) for i in range(3)]
        cache.get(gcn_constants, lists[0], 4)
        cache.get(gcn_constants, lists[1], 4)
        first = cache.get(gcn_constants, lists[0], 4)  # refreshes entry 0
        cache.get(gcn_constants, lists[2], 4)  # evicts entry 1
        assert len(cache) == 2
        assert cache.get(gcn_constants, lists[0], 4) is first

    def test_encoder_convs_share_one_cache(self, edges):
        encoder = GraphEncoder(3, 4, 2, rng=np.random.default_rng(0))
        convs = [encoder.conv1, encoder.conv2]
        cache = encoder.conv1._edge_cache
        assert all(conv._edge_cache is cache for conv in convs)
        assert cache.limit == len(convs) * EdgeConstantCache.ENTRIES_PER_CONV
        x = Tensor(np.ones((4, 3)))
        encoder(x, edges, 4)
        encoder(x, edges, 4, edge_weight=Tensor(np.ones(3), requires_grad=True))
        # One plain and one self-looped entry for the edge list, not one per layer.
        assert len(cache) == 2
        assert cache.get(looped_constants, edges, 4)[0].shape == (2, 3 + 4)
