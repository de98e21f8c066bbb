"""Cross-cutting coverage: ASDGN stability, SEGNN internals, misc paths."""

import numpy as np

from repro.graph import Graph
from repro.models.segnn import _neighborhood_jaccard
from repro.nn import ASDGNConv, TransformerConv
from repro.tensor import Tensor


class TestASDGNStability:
    def test_many_iterations_stay_bounded(self):
        """A-SDGN's antisymmetric design promises non-exploding dynamics."""
        rng = np.random.default_rng(0)
        conv = ASDGNConv(8, num_iters=50, epsilon=0.05, rng=np.random.default_rng(0))
        edges = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        x = Tensor(rng.normal(size=(4, 8)))
        out = conv(x, edges, 4)
        assert np.isfinite(out.data).all()
        # tanh updates of eps magnitude: growth linear in iterations at worst.
        assert np.abs(out.data).max() <= np.abs(x.data).max() + 50 * 0.05 + 1e-9

    def test_effective_weight_is_antisymmetric_minus_gamma(self):
        conv = ASDGNConv(4, gamma=0.2, rng=np.random.default_rng(0))
        weight = conv.weight.data
        effective = weight - weight.T - 0.2 * np.eye(4)
        symmetric_part = (effective + effective.T) / 2
        np.testing.assert_allclose(symmetric_part, -0.2 * np.eye(4), atol=1e-12)


class TestTransformerConvDetails:
    def test_attention_stored_after_forward(self):
        conv = TransformerConv(4, 6, heads=2, rng=np.random.default_rng(0))
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        conv(Tensor(np.eye(4)[:3]), edges, 3)
        assert conv.last_attention is not None
        assert conv.last_attention.shape == (3 + 3, 2)  # edges + self-loops

    def test_attention_rows_normalised(self):
        conv = TransformerConv(4, 6, heads=1, rng=np.random.default_rng(0))
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        conv(Tensor(np.eye(4)[:3]), edges, 3)
        # per-destination attention sums to 1 (incl. self-loop)
        src = np.concatenate([edges[0], np.arange(3)])
        dst = np.concatenate([edges[1], np.arange(3)])
        for node in range(3):
            total = conv.last_attention[dst == node].sum()
            np.testing.assert_allclose(total, 1.0, atol=1e-10)


class TestSEGNNInternals:
    def test_jaccard_identical_neighborhoods(self):
        graph = Graph.from_edges(4, np.array([(0, 2), (0, 3), (1, 2), (1, 3)]))
        # Nodes 0 and 1 share exactly the same neighbour set {2, 3}.
        sim = _neighborhood_jaccard(graph, np.array([0]), np.array([1]))
        np.testing.assert_allclose(sim[0, 0], 1.0)

    def test_jaccard_disjoint_neighborhoods(self):
        graph = Graph.from_edges(6, np.array([(0, 2), (0, 3), (1, 4), (1, 5)]))
        sim = _neighborhood_jaccard(graph, np.array([0]), np.array([1]))
        np.testing.assert_allclose(sim[0, 0], 0.0)

    def test_jaccard_partial_overlap(self):
        graph = Graph.from_edges(5, np.array([(0, 2), (0, 3), (1, 3), (1, 4)]))
        sim = _neighborhood_jaccard(graph, np.array([0]), np.array([1]))
        np.testing.assert_allclose(sim[0, 0], 1.0 / 3.0)


class TestTableResultRaw:
    def test_experiments_preserve_raw_values(self):
        from repro.experiments.common import TableResult

        result = TableResult("t", ["a"], [["x"]], raw={"key": 1})
        assert result.raw["key"] == 1


class TestTable3SkipLogic:
    def test_segnn_skip_set(self):
        from repro.experiments.table3 import SEGNN_SKIP

        assert SEGNN_SKIP == {"polblogs", "cs"}
