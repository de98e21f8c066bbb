"""Unit tests for negative sampling and dataset splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    apply_split,
    classification_split,
    explanation_split,
    khop_adjacency,
    negative_edge_index,
    random_split,
    sample_negative_sets,
)


def _community_graph() -> Graph:
    edges = np.array([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    labels = np.array([0, 0, 0, 1, 1, 1])
    graph = Graph.from_edges(6, edges, labels=labels)
    graph.train_mask = np.ones(6, dtype=bool)
    return graph


class TestNegativeSampling:
    def test_negatives_disjoint_from_khop(self):
        graph = _community_graph()
        rng = np.random.default_rng(0)
        negatives = sample_negative_sets(graph, 1, rng)
        reach = khop_adjacency(graph, 1)
        for node, negs in negatives.items():
            neighbors = set(reach.indices[reach.indptr[node]: reach.indptr[node + 1]].tolist())
            assert not set(negs.tolist()) & neighbors
            assert node not in negs

    def test_sizes_match_neighborhoods(self):
        graph = _community_graph()
        negatives = sample_negative_sets(graph, 1, np.random.default_rng(0))
        sizes = np.diff(khop_adjacency(graph, 1).indptr)
        for node, negs in negatives.items():
            # Every degree band spans all six nodes, so each neighbour finds a
            # negative while non-neighbours remain.
            available = graph.num_nodes - 1 - sizes[node]
            assert len(negs) == min(sizes[node], available)

    def test_label_preference(self):
        graph = _community_graph()
        negatives = sample_negative_sets(graph, 1, np.random.default_rng(0))
        # Node 0 (class 0) should mostly receive class-1 negatives.
        labels = graph.labels[negatives[0]]
        assert (labels == 1).all()

    def test_max_per_node_cap(self):
        graph = _community_graph()
        negatives = sample_negative_sets(
            graph, 2, np.random.default_rng(0), max_per_node=1
        )
        assert all(len(negs) <= 1 for negs in negatives.values())

    def test_no_labels_still_samples(self):
        edges = np.array([(0, 1), (2, 3)])
        graph = Graph.from_edges(5, edges)
        negatives = sample_negative_sets(graph, 1, np.random.default_rng(0))
        assert len(negatives[0]) == 1

    def test_negative_edge_index_shape(self):
        graph = _community_graph()
        negatives = sample_negative_sets(graph, 1, np.random.default_rng(0))
        pairs = negative_edge_index(negatives)
        assert pairs.shape[0] == 2
        total = sum(len(v) for v in negatives.values())
        assert pairs.shape[1] == total

    def test_negative_edge_index_empty(self):
        assert negative_edge_index({0: np.empty(0, dtype=np.int64)}).shape == (2, 0)

    def test_test_labels_not_used(self):
        """Negatives must not exploit labels outside the training mask."""
        edges = [(i, (i + 1) % 12) for i in range(12)]
        labels = np.array([0, 1] * 6)
        graph = Graph.from_edges(12, np.array(edges), labels=labels)
        graph.train_mask = np.zeros(12, dtype=bool)  # nothing is labelled
        rng = np.random.default_rng(0)
        negatives = sample_negative_sets(graph, 1, rng)
        # With no usable labels the sampler must still return full sets.
        assert all(len(v) > 0 for v in negatives.values())


def _random_graph(seed: int, num_nodes: int, density: float) -> Graph:
    """Random labelled graph with a random train mask.  Sparse ones leave
    isolated nodes; node 0 is a hub joined to a random half of the nodes, so
    some degree bands are too narrow and must be widened."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(int(density * num_nodes * num_nodes), 2))
    spokes = rng.choice(num_nodes, size=num_nodes // 2, replace=False)
    edges = np.concatenate([edges, np.stack([np.zeros_like(spokes), spokes], axis=1)])
    graph = Graph.from_edges(num_nodes, edges, labels=rng.integers(0, 3, size=num_nodes))
    graph.train_mask = rng.random(num_nodes) < 0.6
    return graph


def _in_degree_band(degrees: np.ndarray, target: int, candidate: int) -> bool:
    """``candidate``'s degree is within ±50% of ``target``'s, or — when fewer
    than four nodes have such a degree — within four places of that band in
    the degree-sorted node order."""
    low_degree = int(degrees[target] * 0.5)
    high_degree = int(np.ceil(degrees[target] * 1.5))
    if low_degree <= degrees[candidate] <= high_degree:
        return True
    sorted_degrees = np.sort(degrees, kind="mergesort")
    first = int(np.sum(sorted_degrees < low_degree))
    end = int(np.sum(sorted_degrees <= high_degree))
    if end - first >= 4:
        return False
    position = int(np.flatnonzero(np.argsort(degrees, kind="mergesort") == candidate)[0])
    return max(0, first - 4) <= position < min(len(degrees), end + 4)


class TestNegativeSamplingProperties:
    """The documented guarantees of ``sample_negative_sets`` on random graphs."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_nodes=st.integers(2, 40),
        density=st.sampled_from([0.02, 0.08, 0.3]),
        k=st.integers(1, 3),
    )
    def test_each_negative_matches_the_degree_of_its_neighbour(self, seed, num_nodes, density, k):
        graph = _random_graph(seed, num_nodes, density)
        degrees = np.asarray(graph.adjacency.getnnz(axis=1))
        reach = khop_adjacency(graph, k)
        negatives = sample_negative_sets(graph, k, np.random.default_rng(seed))
        for node, negs in negatives.items():
            # Uncapped, negatives follow the k-hop neighbours in order, one per
            # neighbour that found one: match them greedily as a subsequence.
            targets = iter(reach.indices[reach.indptr[node]: reach.indptr[node + 1]].tolist())
            for negative in negs.tolist():
                assert any(_in_degree_band(degrees, target, negative) for target in targets)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_nodes=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.02, 0.08, 0.3]),
        k=st.integers(1, 3),
        max_per_node=st.sampled_from([None, 1, 3]),
    )
    def test_negatives_are_distinct_and_outside_the_khop_set(
        self, seed, num_nodes, density, k, max_per_node
    ):
        graph = _random_graph(seed, num_nodes, density)
        reach = khop_adjacency(graph, k)
        negatives = sample_negative_sets(
            graph, k, np.random.default_rng(seed), max_per_node=max_per_node
        )
        assert sorted(negatives) == list(range(num_nodes))
        for node, negs in negatives.items():
            khop = set(reach.indices[reach.indptr[node]: reach.indptr[node + 1]].tolist())
            assert len(set(negs.tolist())) == len(negs)
            assert not set(negs.tolist()) & (khop | {node})
            assert len(negs) <= min(len(khop), max_per_node or len(khop))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_different_labels_taken_while_the_preference_applies(self, seed):
        # A circulant graph: every node has degree 4, so every degree band is
        # the whole graph and half of it has the other label.  Thirty-six
        # preferred draws per neighbour then find a different label.
        num_nodes = 60
        edges = [(i, (i + step) % num_nodes) for i in range(num_nodes) for step in (1, 2)]
        labels = np.random.default_rng(seed).permutation(np.arange(num_nodes) % 2)
        graph = Graph.from_edges(num_nodes, np.array(edges), labels=labels)
        graph.train_mask = np.ones(num_nodes, dtype=bool)
        preferred = sample_negative_sets(graph, 1, np.random.default_rng(seed))
        for node, negs in preferred.items():
            assert len(negs) == 4
            assert (labels[negs] != labels[node]).all()
        # On the same graph without labels the same draws do take
        # same-label negatives.
        unlabelled = Graph.from_edges(num_nodes, np.array(edges))
        plain = sample_negative_sets(unlabelled, 1, np.random.default_rng(seed))
        assert any((labels[negs] == labels[node]).any() for node, negs in plain.items())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_nodes=st.integers(2, 40),
        density=st.sampled_from([0.02, 0.08, 0.3]),
    )
    def test_labels_outside_train_mask_are_never_read(self, seed, num_nodes, density):
        graph = _random_graph(seed, num_nodes, density)
        held_out = np.flatnonzero(~graph.train_mask)
        shuffled = _random_graph(seed, num_nodes, density)
        # Permute the held-out labels, and move every other one to a class
        # no training node has, so that a permutation that happens to be the
        # identity still changes them.
        shuffled.labels = graph.labels.copy()
        permuted = np.random.default_rng(seed + 1).permutation(graph.labels[held_out])
        shuffled.labels[held_out] = permuted + 7 * (np.arange(len(held_out)) % 2)
        rng, shuffled_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = sample_negative_sets(graph, 2, rng)
        got = sample_negative_sets(shuffled, 2, shuffled_rng)
        for node in expected:
            np.testing.assert_array_equal(got[node], expected[node])
        assert rng.bit_generator.state == shuffled_rng.bit_generator.state


class TestSplits:
    def test_partition_covers_all_nodes(self):
        train, val, test = random_split(100, 0.6, 0.2, np.random.default_rng(0))
        combined = train.astype(int) + val.astype(int) + test.astype(int)
        np.testing.assert_array_equal(combined, np.ones(100, dtype=int))

    def test_fractions_approximate(self):
        train, val, test = random_split(1000, 0.6, 0.2, np.random.default_rng(0))
        assert abs(train.mean() - 0.6) < 0.02
        assert abs(val.mean() - 0.2) < 0.02

    def test_stratified_keeps_class_balance(self):
        labels = np.array([0] * 80 + [1] * 20)
        train, _, _ = random_split(100, 0.5, 0.2, np.random.default_rng(0), stratify=labels)
        train_labels = labels[train]
        assert abs((train_labels == 1).mean() - 0.2) < 0.06

    def test_invalid_fractions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_split(10, 0.0, 0.2, rng)
        with pytest.raises(ValueError):
            random_split(10, 0.8, 0.3, rng)

    def test_apply_split_sets_masks(self):
        graph = _community_graph()
        apply_split(graph, 0.5, 0.2, seed=1)
        assert graph.train_mask.sum() >= 1
        assert (graph.train_mask & graph.val_mask).sum() == 0

    def test_classification_split_ratio(self):
        graph = Graph.from_edges(200, np.array([(i, i + 1) for i in range(199)]),
                                 labels=np.zeros(200, dtype=int))
        classification_split(graph, seed=0)
        assert abs(graph.train_mask.mean() - 0.6) < 0.05

    def test_explanation_split_ratio(self):
        graph = Graph.from_edges(200, np.array([(i, i + 1) for i in range(199)]),
                                 labels=np.zeros(200, dtype=int))
        explanation_split(graph, seed=0)
        assert abs(graph.train_mask.mean() - 0.8) < 0.05

    def test_deterministic_given_seed(self):
        a = random_split(50, 0.6, 0.2, np.random.default_rng(7))
        b = random_split(50, 0.6, 0.2, np.random.default_rng(7))
        for mask_a, mask_b in zip(a, b):
            np.testing.assert_array_equal(mask_a, mask_b)

    def test_tiny_stratified_group_reaches_every_split(self):
        # Regression: a 3-node class at 60/20/20 used to round to
        # (2 train, 1 val, 0 test) — the class never appeared in the test set.
        labels = np.array([0] * 40 + [1] * 3)
        train, val, test = random_split(
            43, 0.6, 0.2, np.random.default_rng(0), stratify=labels
        )
        for mask in (train, val, test):
            assert mask[labels == 1].sum() == 1
        combined = train.astype(int) + val.astype(int) + test.astype(int)
        np.testing.assert_array_equal(combined, np.ones(43, dtype=int))

    def test_two_node_group_favors_test_over_val(self):
        labels = np.array([0] * 40 + [1] * 2)
        with pytest.warns(UserWarning, match="val split"):
            train, val, test = random_split(
                42, 0.6, 0.2, np.random.default_rng(0), stratify=labels
            )
        assert train[labels == 1].sum() == 1
        assert test[labels == 1].sum() == 1
        assert val[labels == 1].sum() == 0

    def test_single_node_group_warns(self):
        labels = np.array([0] * 40 + [1])
        with pytest.warns(UserWarning, match="too small"):
            train, _, _ = random_split(
                41, 0.6, 0.2, np.random.default_rng(0), stratify=labels
            )
        assert train[labels == 1].sum() == 1  # train keeps its guaranteed node

    def test_large_groups_keep_historical_counts(self):
        # The repair must be a no-op for groups big enough that plain
        # rounding already fills every split (committed splits are pinned).
        labels = np.repeat(np.arange(3), 20)
        train, val, test = random_split(
            60, 0.6, 0.2, np.random.default_rng(0), stratify=labels
        )
        for cls in range(3):
            group = labels == cls
            assert train[group].sum() == 12
            assert val[group].sum() == 4
            assert test[group].sum() == 4

    def test_stratify_defaults_to_none(self):
        import inspect

        signature = inspect.signature(random_split)
        assert signature.parameters["stratify"].default is None
