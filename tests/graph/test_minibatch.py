"""Unit tests for neighbor-sampled minibatching (repro.graph.minibatch)."""

import numpy as np
import pytest

from repro.graph import (
    AnchorBatchSampler,
    BatchCache,
    Graph,
    bfs_closure,
    extract_phase1_batch,
    extract_phase2_batch,
    khop_edge_index,
)


def _two_community_graph() -> Graph:
    edges = np.array([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    labels = np.array([0, 0, 0, 1, 1, 1])
    graph = Graph.from_edges(6, edges, labels=labels)
    graph.train_mask = np.ones(6, dtype=bool)
    return graph


class TestAnchorBatchSampler:
    def test_batches_partition_anchors(self):
        sampler = AnchorBatchSampler(10, 3, seed=0)
        batches = sampler.epoch_batches()
        assert sampler.num_batches == 4
        assert len(batches) == 4
        combined = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(combined), np.arange(10))

    def test_batches_sorted_ascending(self):
        sampler = AnchorBatchSampler(20, 7, seed=1)
        for batch in sampler.epoch_batches():
            np.testing.assert_array_equal(batch, np.sort(batch))

    def test_deterministic_given_seed(self):
        a = AnchorBatchSampler(30, 8, seed=5)
        b = AnchorBatchSampler(30, 8, seed=5)
        for _ in range(3):
            for batch_a, batch_b in zip(a.epoch_batches(), b.epoch_batches()):
                np.testing.assert_array_equal(batch_a, batch_b)

    def test_epochs_differ(self):
        sampler = AnchorBatchSampler(30, 8, seed=0)
        first = sampler.epoch_batches()
        second = sampler.epoch_batches()
        assert any(
            not np.array_equal(x, y) for x, y in zip(first, second)
        )

    def test_covering_batch_consumes_no_rng(self):
        sampler = AnchorBatchSampler(10, 10, seed=0)
        before = sampler.rng.bit_generator.state
        batches = sampler.epoch_batches()
        assert sampler.rng.bit_generator.state == before
        assert sampler.epochs_sampled == 0
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], np.arange(10))

    def test_oversized_batch_is_covering(self):
        sampler = AnchorBatchSampler(10, 999, seed=0)
        assert sampler.num_batches == 1
        np.testing.assert_array_equal(sampler.epoch_batches()[0], np.arange(10))

    def test_state_dict_roundtrip_resumes_stream(self):
        sampler = AnchorBatchSampler(25, 6, seed=3)
        sampler.epoch_batches()
        state = sampler.state_dict()
        expected = [b.copy() for b in sampler.epoch_batches()]
        fresh = AnchorBatchSampler(25, 6, seed=3)
        fresh.load_state_dict(state)
        assert fresh.epochs_sampled == 1
        for got, want in zip(fresh.epoch_batches(), expected):
            np.testing.assert_array_equal(got, want)

    def test_state_dict_is_json_safe(self):
        import json

        state = AnchorBatchSampler(10, 4, seed=0).state_dict()
        json.dumps(state)

    def test_load_state_dict_shape_mismatch(self):
        state = AnchorBatchSampler(10, 4, seed=0).state_dict()
        with pytest.raises(ValueError):
            AnchorBatchSampler(11, 4, seed=0).load_state_dict(state)
        with pytest.raises(ValueError):
            AnchorBatchSampler(10, 5, seed=0).load_state_dict(state)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            AnchorBatchSampler(0, 4)
        with pytest.raises(ValueError):
            AnchorBatchSampler(10, 0)


class TestBfsClosure:
    def test_reaches_exactly_k_hops(self):
        graph = _two_community_graph()
        one_hop = bfs_closure(graph.adjacency, np.array([0]), hops=1)
        np.testing.assert_array_equal(one_hop, [0, 1, 2])
        two_hop = bfs_closure(graph.adjacency, np.array([0]), hops=2)
        np.testing.assert_array_equal(two_hop, [0, 1, 2, 3])

    def test_zero_hops_returns_seeds(self):
        graph = _two_community_graph()
        np.testing.assert_array_equal(
            bfs_closure(graph.adjacency, np.array([4, 1]), hops=0), [1, 4]
        )

    def test_isolated_seed(self):
        graph = Graph.from_edges(3, np.empty((0, 2), dtype=np.int64))
        np.testing.assert_array_equal(
            bfs_closure(graph.adjacency, np.array([1]), hops=2), [1]
        )


class TestPhase1Extraction:
    def _inputs(self):
        graph = _two_community_graph()
        khop = khop_edge_index(graph, 2)
        negatives = np.array([[0, 3], [5, 0]])
        return graph, khop, negatives

    def test_covering_batch_is_identity(self):
        graph, khop, negatives = self._inputs()
        batch = extract_phase1_batch(
            graph, np.arange(graph.num_nodes), khop, negatives, hops=2
        )
        np.testing.assert_array_equal(batch.nodes, np.arange(graph.num_nodes))
        np.testing.assert_array_equal(batch.edge_index, graph.edge_index())
        np.testing.assert_array_equal(
            batch.edge_positions, np.arange(graph.edge_index().shape[1])
        )
        np.testing.assert_array_equal(batch.khop_edges, khop)
        np.testing.assert_array_equal(batch.khop_positions, np.arange(khop.shape[1]))
        assert batch.khop_center_in_batch.all()
        np.testing.assert_array_equal(batch.negative_pairs, negatives)

    def test_positions_ascending_and_relabel_consistent(self):
        graph, khop, negatives = self._inputs()
        anchors = np.array([0, 4])
        batch = extract_phase1_batch(graph, anchors, khop, negatives, hops=2)
        for positions in (batch.edge_positions, batch.khop_positions):
            assert (np.diff(positions) > 0).all()
        # Relabeled edges map back to exactly the selected global columns.
        np.testing.assert_array_equal(
            batch.nodes[batch.edge_index],
            graph.edge_index()[:, batch.edge_positions],
        )
        np.testing.assert_array_equal(
            batch.nodes[batch.khop_edges], khop[:, batch.khop_positions]
        )

    def test_keeps_khop_columns_touching_batch(self):
        graph, khop, negatives = self._inputs()
        anchors = np.array([5])
        batch = extract_phase1_batch(graph, anchors, khop, negatives, hops=2)
        touching = (khop[0] == 5) | (khop[1] == 5)
        np.testing.assert_array_equal(batch.khop_positions, np.flatnonzero(touching))
        np.testing.assert_array_equal(
            batch.khop_center_in_batch, khop[0, touching] == 5
        )

    def test_keeps_negatives_anchored_in_batch(self):
        graph, khop, negatives = self._inputs()
        batch = extract_phase1_batch(graph, np.array([0]), khop, negatives, hops=2)
        np.testing.assert_array_equal(batch.negative_positions, [0])
        np.testing.assert_array_equal(batch.nodes[batch.negative_pairs[1]], [5])

    def test_anchor_mask(self):
        graph, khop, negatives = self._inputs()
        anchors = np.array([1, 3])
        batch = extract_phase1_batch(graph, anchors, khop, negatives, hops=1)
        np.testing.assert_array_equal(batch.nodes[batch.anchor_mask()], anchors)


class TestPhase2Extraction:
    def test_relabels_pooled_tuple(self):
        graph = _two_community_graph()
        pooled = (
            np.array([0, 3]),           # pair anchors (global)
            np.array([1, 2, 4]),        # positive members
            np.array([0, 0, 1]),        # positive segments
            np.array([5, 0]),           # negative members
            np.array([0, 1]),           # negative segments
        )
        batch = extract_phase2_batch(graph, np.array([0, 3]), pooled, hops=1)
        anchors_l, pos_index, pos_segment, neg_index, neg_segment = batch.pooled
        np.testing.assert_array_equal(batch.nodes[anchors_l], [0, 3])
        np.testing.assert_array_equal(batch.nodes[pos_index], [1, 2, 4])
        np.testing.assert_array_equal(pos_segment, [0, 0, 1])
        np.testing.assert_array_equal(batch.nodes[neg_index], [5, 0])
        np.testing.assert_array_equal(neg_segment, [0, 1])

    def test_empty_pooled_tuple(self):
        graph = _two_community_graph()
        empty = np.empty(0, dtype=np.int64)
        pooled = (empty, empty, empty, empty, empty)
        batch = extract_phase2_batch(graph, np.array([2]), pooled, hops=1)
        assert all(part.size == 0 for part in batch.pooled)
        np.testing.assert_array_equal(batch.nodes, [0, 1, 2, 3])

    def test_covering_batch_is_identity(self):
        graph = _two_community_graph()
        empty = np.empty(0, dtype=np.int64)
        batch = extract_phase2_batch(
            graph, np.arange(6), (empty, empty, empty, empty, empty), hops=2
        )
        np.testing.assert_array_equal(batch.nodes, np.arange(6))
        np.testing.assert_array_equal(batch.edge_index, graph.edge_index())


class TestBatchCache:
    def _extractor(self, calls, value):
        def extract():
            calls.append(value)
            return value

        return extract

    def test_hit_skips_extraction(self):
        cache, calls = BatchCache(), []
        anchors = np.array([0, 1], dtype=np.int64)
        assert cache.get("explainable", anchors, self._extractor(calls, "a")) == "a"
        assert cache.get("explainable", anchors.copy(), self._extractor(calls, "b")) == "a"
        assert calls == ["a"]

    def test_phase_is_part_of_the_key(self):
        cache, calls = BatchCache(), []
        anchors = np.array([0, 1], dtype=np.int64)
        cache.get("explainable", anchors, self._extractor(calls, "p1"))
        assert cache.get("predictive", anchors, self._extractor(calls, "p2")) == "p2"
        assert len(cache) == 2

    def test_evicts_least_recently_used_one_at_a_time(self):
        cache, calls = BatchCache(), []
        keys = [np.array([i], dtype=np.int64) for i in range(BatchCache.LIMIT + 1)]
        for index, anchors in enumerate(keys[:-1]):
            cache.get("explainable", anchors, self._extractor(calls, index))
        cache.get("explainable", keys[0], self._extractor(calls, "again"))  # 0 is fresh
        cache.get("explainable", keys[-1], self._extractor(calls, "new"))  # evicts 1 only
        assert len(cache) == BatchCache.LIMIT
        assert cache.get("explainable", keys[0], self._extractor(calls, "x")) == 0
        assert cache.get("explainable", keys[2], self._extractor(calls, "x")) == 2
        assert cache.get("explainable", keys[1], self._extractor(calls, "refetch")) == "refetch"
        assert "again" not in calls and calls[-1] == "refetch"

    def test_clear(self):
        cache, calls = BatchCache(), []
        anchors = np.array([3], dtype=np.int64)
        cache.get("explainable", anchors, self._extractor(calls, "a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("explainable", anchors, self._extractor(calls, "b")) == "b"
