"""Unit tests for dataset generators and the registry."""

import numpy as np
import pytest

from repro.datasets import (
    ba_community,
    ba_shapes,
    citeseer_like,
    cora_like,
    cs_like,
    dataset_names,
    load_dataset,
    polblogs_like,
    tree_cycle,
    tree_grid,
)


def _homophily(graph) -> float:
    src, dst = graph.edge_index()
    return float((graph.labels[src] == graph.labels[dst]).mean())


class TestSynthetic:
    def test_ba_shapes_counts(self):
        graph = ba_shapes(base_nodes=100, num_motifs=10, seed=0)
        assert graph.num_nodes == 100 + 10 * 5
        assert graph.num_classes == 4
        assert len(graph.extra["motif_nodes"]) == 50

    def test_ba_shapes_roles(self):
        graph = ba_shapes(base_nodes=50, num_motifs=6, seed=0)
        roles = graph.extra["role_ids"]
        assert set(roles[:50]) == {0}
        assert set(roles[50:]) <= {1, 2, 3}

    def test_ground_truth_edges_exist_in_graph(self):
        graph = ba_shapes(base_nodes=50, num_motifs=6, noise_fraction=0.0, seed=0)
        for (u, v) in graph.extra["gt_edge_mask"]:
            assert graph.adjacency[u, v] != 0

    def test_ba_community_two_communities(self):
        graph = ba_community(base_nodes=60, num_motifs=8, seed=0)
        assert graph.num_classes == 8
        half = (60 + 8 * 5)
        assert graph.num_nodes == 2 * half
        # Community feature means differ (besides structural columns).
        first = graph.features[:half, 3:].mean()
        second = graph.features[half:, 3:].mean()
        assert abs(first - second) > 0.5

    def test_tree_cycle_classes(self):
        graph = tree_cycle(depth=5, num_motifs=8, seed=0)
        assert graph.num_classes == 2
        assert graph.num_nodes == (2 ** 6 - 1) + 8 * 6

    def test_tree_grid_classes(self):
        graph = tree_grid(depth=5, num_motifs=4, seed=0)
        assert graph.num_nodes == (2 ** 6 - 1) + 4 * 9
        assert set(graph.labels.tolist()) == {0, 1}

    def test_motifs_connected_to_base(self):
        graph = tree_cycle(depth=4, num_motifs=5, seed=0)
        base_nodes = 2 ** 5 - 1
        # Every motif component must reach the tree (single component check
        # via BFS from root over enough hops).
        reached = {0} | set(graph.subgraph_nodes(0, graph.num_nodes).tolist())
        assert len(reached) == graph.num_nodes

    def test_noise_fraction_adds_edges(self):
        quiet = ba_shapes(base_nodes=60, num_motifs=6, noise_fraction=0.0, seed=1)
        noisy = ba_shapes(base_nodes=60, num_motifs=6, noise_fraction=0.2, seed=1)
        assert noisy.num_edges > quiet.num_edges

    def test_structural_feature_columns(self):
        graph = ba_shapes(base_nodes=60, num_motifs=6, seed=0)
        np.testing.assert_allclose(graph.features[:, 0], 1.0)
        assert graph.features[:, 1].max() <= 1.0


class TestRealWorldSurrogates:
    @pytest.mark.parametrize(
        "factory,classes",
        [(cora_like, 7), (citeseer_like, 6), (cs_like, 12)],
        ids=["cora", "citeseer", "cs"],
    )
    def test_shapes_and_classes(self, factory, classes):
        graph = factory(num_nodes=300, seed=0)
        assert graph.num_nodes == 300
        assert graph.num_classes == classes
        assert graph.features.shape[0] == 300

    def test_homophily_above_random(self):
        graph = cora_like(num_nodes=400, seed=0)
        assert _homophily(graph) > 1.5 / graph.num_classes

    def test_features_correlate_with_class(self):
        graph = cora_like(num_nodes=400, seed=0)
        # Class-0 topic words occupy the first columns.
        class0 = graph.features[graph.labels == 0, :25].mean()
        other = graph.features[graph.labels != 0, :25].mean()
        assert class0 > other * 2

    def test_no_empty_feature_rows(self):
        graph = citeseer_like(num_nodes=300, seed=0)
        assert (graph.features.sum(axis=1) > 0).all()

    def test_polblogs_identity_features(self):
        graph = polblogs_like(num_nodes=100, seed=0)
        np.testing.assert_allclose(graph.features, np.eye(100))
        assert graph.num_classes == 2

    def test_deterministic_given_seed(self):
        a = cora_like(num_nodes=200, seed=5)
        b = cora_like(num_nodes=200, seed=5)
        np.testing.assert_allclose(a.features, b.features)
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_different_seeds_differ(self):
        a = cora_like(num_nodes=200, seed=5)
        b = cora_like(num_nodes=200, seed=6)
        assert (a.adjacency != b.adjacency).nnz > 0


class TestRegistry:
    def test_names(self):
        assert set(dataset_names()) == {
            "cora", "citeseer", "polblogs", "cs",
            "ba_shapes", "ba_community", "tree_cycle", "tree_grid",
        }
        assert len(dataset_names()) == 8

    def test_load_by_name_case_insensitive(self):
        graph = load_dataset("CORA", num_nodes=100)
        assert graph.name == "Cora-like"

    def test_load_synthetic_by_alias(self):
        graph = load_dataset("ba-shapes", base_nodes=40, num_motifs=4)
        assert graph.name == "BAShapes"

    def test_scale_shrinks_real(self):
        small = load_dataset("cora", scale=0.25)
        assert small.num_nodes == 250

    def test_scale_shrinks_synthetic(self):
        small = load_dataset("ba_shapes", scale=0.25)
        assert len(small.extra["motif_nodes"]) < 80 * 5

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")
