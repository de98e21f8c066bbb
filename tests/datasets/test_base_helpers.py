"""Unit tests for the dataset ground-truth helpers."""

import numpy as np

from repro.datasets.base import (
    attach_ground_truth,
    directed_pairs,
    perturb_with_random_edges,
)
from repro.graph import Graph


class TestDirectedPairs:
    def test_expands_both_directions(self):
        pairs = directed_pairs([(0, 1), (2, 3)])
        assert pairs == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_deduplicates(self):
        pairs = directed_pairs([(0, 1), (1, 0), (0, 1)])
        assert len(pairs) == 2

    def test_empty(self):
        assert directed_pairs([]) == set()


class TestAttachGroundTruth:
    def test_records_edges_and_nodes(self):
        graph = Graph.from_edges(4, np.array([(0, 1), (1, 2)]))
        attach_ground_truth(graph, directed_pairs([(0, 1)]), [0, 1])
        assert graph.extra["gt_edge_mask"] == {(0, 1): 1.0, (1, 0): 1.0}
        np.testing.assert_array_equal(graph.extra["motif_nodes"], [0, 1])

    def test_motif_nodes_deduplicated_and_sorted(self):
        graph = Graph.from_edges(4, np.array([(0, 1)]))
        attach_ground_truth(graph, set(), [3, 1, 1, 0])
        np.testing.assert_array_equal(graph.extra["motif_nodes"], [0, 1, 3])


class TestPerturbation:
    def test_adds_requested_fraction(self):
        edges = [(i, i + 1) for i in range(20)]
        rng = np.random.default_rng(0)
        perturbed = perturb_with_random_edges(edges, 21, 0.5, rng)
        assert len(perturbed) == len(edges) + 10

    def test_no_duplicates_or_self_loops(self):
        edges = [(0, 1), (1, 2)]
        rng = np.random.default_rng(0)
        perturbed = perturb_with_random_edges(edges, 10, 2.0, rng)
        added = perturbed[len(edges):]
        seen = directed_pairs(edges)
        for u, v in added:
            assert u != v
            assert (u, v) not in seen or (v, u) not in seen

    def test_zero_fraction_is_identity(self):
        edges = [(0, 1)]
        rng = np.random.default_rng(0)
        assert perturb_with_random_edges(edges, 5, 0.0, rng) == edges

    def test_saturated_graph_terminates(self):
        # Complete graph on 3 nodes: no room for new edges.
        edges = [(0, 1), (1, 2), (0, 2)]
        rng = np.random.default_rng(0)
        perturbed = perturb_with_random_edges(edges, 3, 5.0, rng)
        assert len(perturbed) == 3
