"""Tests for the post-hoc explainer baselines.

Each explainer is checked on two levels: mechanical (returns well-formed
scores) and semantic (on a planted-motif graph with a competently trained
model, it should rank motif edges above random — AUC > 0.5).
"""

import numpy as np
import pytest

from repro.explainers import (
    AttentionExplainer,
    GNNExplainer,
    GradExplainer,
    GraphLIME,
    NodeExplanation,
    PGExplainer,
    PGMExplainer,
    candidate_edges_for_nodes,
    evaluate_edge_auc,
    khop_subgraph,
    sample_motif_nodes,
)
from repro.models import train_node_classifier


@pytest.fixture(scope="module")
def trained_gcn(small_motif_graph):
    return train_node_classifier(
        small_motif_graph, "gcn", hidden=24, epochs=150, dropout=0.1, seed=0
    )


@pytest.fixture(scope="module")
def trained_gat(small_motif_graph):
    return train_node_classifier(
        small_motif_graph, "gat", hidden=24, epochs=150, dropout=0.1, heads=2, seed=0
    )


@pytest.fixture(scope="module")
def eval_nodes(small_motif_graph):
    return sample_motif_nodes(small_motif_graph, 8, np.random.default_rng(0))


class TestBase:
    def test_khop_subgraph_contains_neighborhood(self, small_motif_graph):
        sub_nodes, sub_edges, center = khop_subgraph(small_motif_graph, 5, 2)
        assert sub_nodes[center] == 5
        expected = set(small_motif_graph.subgraph_nodes(5, 2).tolist()) | {5}
        assert set(sub_nodes.tolist()) == expected

    def test_khop_subgraph_edges_internal(self, small_motif_graph):
        sub_nodes, sub_edges, _ = khop_subgraph(small_motif_graph, 5, 1)
        assert sub_edges.max(initial=-1) < len(sub_nodes)

    def test_original_logits_cached(self, trained_gcn, small_motif_graph):
        explainer = GradExplainer(trained_gcn.model, small_motif_graph)
        first = explainer.original_logits()
        assert explainer.original_logits() is first

    def test_node_explanation_ranks_neighbors(self, small_motif_graph):
        node = 0
        neighbors = small_motif_graph.neighbors(node)
        scores = {(node, int(n)): float(i) for i, n in enumerate(neighbors)}
        explanation = NodeExplanation(node=node, edge_scores=scores)
        ranked = explanation.ranked_neighbors(small_motif_graph)
        assert ranked[0][0] == int(neighbors[-1])

    def test_candidate_edges_within_neighborhood(self, small_motif_graph):
        candidates = candidate_edges_for_nodes(small_motif_graph, [0], hops=1)
        allowed = set(small_motif_graph.subgraph_nodes(0, 1).tolist()) | {0}
        assert set(candidates.ravel().tolist()) <= allowed

    def test_evaluate_edge_auc_requires_ground_truth(self, small_cora):
        with pytest.raises(ValueError):
            evaluate_edge_auc({}, small_cora, [0])

    def test_sample_motif_nodes_caps(self, small_motif_graph):
        rng = np.random.default_rng(0)
        all_nodes = sample_motif_nodes(small_motif_graph, 10_000, rng)
        np.testing.assert_array_equal(all_nodes, small_motif_graph.extra["motif_nodes"])


class TestGrad:
    def test_edge_scores_cover_all_edges(self, trained_gcn, small_motif_graph):
        explainer = GradExplainer(trained_gcn.model, small_motif_graph)
        scores = explainer.edge_scores()
        assert len(scores) == small_motif_graph.num_edges

    def test_scores_nonnegative(self, trained_gcn, small_motif_graph):
        explainer = GradExplainer(trained_gcn.model, small_motif_graph)
        assert all(v >= 0 for v in explainer.edge_scores().values())

    def test_explain_node_has_features(self, trained_gcn, small_motif_graph):
        explanation = GradExplainer(trained_gcn.model, small_motif_graph).explain_node(3)
        assert explanation.feature_scores.shape == (small_motif_graph.num_features,)

    def test_auc_above_chance(self, trained_gcn, small_motif_graph, eval_nodes):
        explainer = GradExplainer(trained_gcn.model, small_motif_graph)
        auc = evaluate_edge_auc(explainer.edge_scores(eval_nodes), small_motif_graph, eval_nodes)
        assert auc > 0.5


class TestAttention:
    def test_requires_attention_model(self, trained_gcn, small_motif_graph):
        explainer = AttentionExplainer(trained_gcn.model, small_motif_graph)
        with pytest.raises(TypeError):
            explainer.edge_scores()

    def test_scores_drop_self_loops(self, trained_gat, small_motif_graph):
        explainer = AttentionExplainer(trained_gat.model, small_motif_graph)
        scores = explainer.edge_scores()
        assert all(u != v for u, v in scores)

    def test_auc_above_chance(self, trained_gat, small_motif_graph, eval_nodes):
        explainer = AttentionExplainer(trained_gat.model, small_motif_graph)
        auc = evaluate_edge_auc(explainer.edge_scores(), small_motif_graph, eval_nodes)
        assert auc > 0.5


class TestGNNExplainer:
    def test_masks_in_unit_interval(self, trained_gcn, small_motif_graph):
        explainer = GNNExplainer(trained_gcn.model, small_motif_graph, epochs=20, seed=0)
        explanation = explainer.explain_node(int(small_motif_graph.extra["motif_nodes"][0]))
        values = np.array(list(explanation.edge_scores.values()))
        assert (values > 0).all() and (values < 1).all()

    def test_scores_limited_to_subgraph(self, trained_gcn, small_motif_graph):
        node = int(small_motif_graph.extra["motif_nodes"][0])
        explainer = GNNExplainer(trained_gcn.model, small_motif_graph, epochs=10, seed=0)
        explanation = explainer.explain_node(node)
        allowed = set(small_motif_graph.subgraph_nodes(node, 2).tolist()) | {node}
        touched = {u for u, _ in explanation.edge_scores} | {
            v for _, v in explanation.edge_scores
        }
        assert touched <= allowed

    def test_isolated_node_explanation_is_empty(self, trained_gcn, small_motif_graph):
        import scipy.sparse as sp
        from repro.graph import Graph

        lonely = Graph(
            adjacency=sp.csr_matrix((3, 3)),
            features=np.ones((3, small_motif_graph.num_features)),
        )
        explainer = GNNExplainer(trained_gcn.model, lonely, epochs=2, seed=0)
        explanation = explainer.explain_node(0)
        assert explanation.edge_scores == {}

    def test_auc_above_chance(self, trained_gcn, small_motif_graph, eval_nodes):
        explainer = GNNExplainer(trained_gcn.model, small_motif_graph, epochs=60, seed=0)
        auc = evaluate_edge_auc(
            explainer.edge_scores(eval_nodes), small_motif_graph, eval_nodes
        )
        assert auc > 0.5


class TestPGExplainer:
    def test_fit_then_scores_all_edges(self, trained_gcn, small_motif_graph):
        explainer = PGExplainer(trained_gcn.model, small_motif_graph, epochs=5, seed=0)
        scores = explainer.edge_scores()
        assert len(scores) == small_motif_graph.num_edges

    def test_explicit_train_nodes(self, trained_gcn, small_motif_graph):
        motif_nodes = small_motif_graph.extra["motif_nodes"]
        explainer = PGExplainer(
            trained_gcn.model, small_motif_graph, epochs=5,
            train_nodes=motif_nodes, seed=0,
        )
        np.testing.assert_array_equal(explainer.train_nodes, motif_nodes)

    def test_auc_above_chance(self, trained_gcn, small_motif_graph, eval_nodes):
        explainer = PGExplainer(
            trained_gcn.model, small_motif_graph, epochs=25,
            train_nodes=small_motif_graph.extra["motif_nodes"], seed=0,
        ).fit()
        auc = evaluate_edge_auc(explainer.edge_scores(), small_motif_graph, eval_nodes)
        assert auc > 0.5


class _ParentPGExplainer(PGExplainer):
    """The pre-fusion edge scorer: concatenate gathered endpoints, apply the
    MLP, and recompute the target model's embeddings on every call."""

    def _edge_logits(self, embeddings=None):
        from repro.tensor import Tensor, functional as F, gather_rows

        embeddings = Tensor(self._node_embeddings())
        src, dst = self.edge_index
        pair_features = F.concatenate(
            [gather_rows(embeddings, src), gather_rows(embeddings, dst)], axis=1
        )
        return self.edge_mlp(pair_features).reshape(-1)


class TestPGExplainerPairScorer:
    def test_training_and_scores_match_parent_path(self, trained_gcn, small_motif_graph):
        runs = []
        for cls in (PGExplainer, _ParentPGExplainer):
            explainer = cls(trained_gcn.model, small_motif_graph, epochs=8, seed=0)
            scores = explainer.edge_scores()
            runs.append((explainer.edge_mlp.state_dict(), scores))
        (fused_state, fused_scores), (parent_state, parent_scores) = runs
        assert fused_state.keys() == parent_state.keys()
        for name, array in parent_state.items():
            np.testing.assert_allclose(fused_state[name], array, rtol=1e-9, atol=1e-12)
        assert fused_scores.keys() == parent_scores.keys()
        np.testing.assert_allclose(
            list(fused_scores.values()), list(parent_scores.values()), rtol=1e-9
        )


class TestPGMExplainer:
    def test_explanation_structure(self, trained_gcn, small_motif_graph):
        node = int(small_motif_graph.extra["motif_nodes"][0])
        explainer = PGMExplainer(trained_gcn.model, small_motif_graph, num_samples=30, seed=0)
        explanation = explainer.explain_node(node)
        assert all(v >= 0 for v in explanation.edge_scores.values())

    def test_handles_degenerate_neighborhood(self, trained_gcn):
        import scipy.sparse as sp
        from repro.graph import Graph

        pair = Graph.from_edges(2, np.array([(0, 1)]), features=np.ones((2, 10)))
        explainer = PGMExplainer(trained_gcn.model, pair, num_samples=10, seed=0)
        explanation = explainer.explain_node(0)
        assert isinstance(explanation, NodeExplanation)


class TestGraphLIME:
    def test_feature_scores_nonnegative(self, trained_gcn, small_motif_graph):
        explainer = GraphLIME(trained_gcn.model, small_motif_graph, seed=0)
        explanation = explainer.explain_node(int(small_motif_graph.extra["motif_nodes"][0]))
        assert (explanation.feature_scores >= 0).all()

    def test_tiny_neighborhood_returns_zeros(self, trained_gcn):
        from repro.graph import Graph

        pair = Graph.from_edges(2, np.array([(0, 1)]), features=np.ones((2, 10)))
        explainer = GraphLIME(trained_gcn.model, pair, seed=0)
        explanation = explainer.explain_node(0)
        np.testing.assert_allclose(explanation.feature_scores, 0.0)

    def test_selects_informative_feature(self, small_cora):
        """On the citation surrogate the degree/topic features drive the
        model; GraphLIME should put nonzero weight on at least one of them."""
        classifier = train_node_classifier(small_cora, "gcn", hidden=16, epochs=60, seed=0)
        explainer = GraphLIME(classifier.model, small_cora, rho=0.05, seed=0)
        hub = int(np.argmax(small_cora.degrees()))
        explanation = explainer.explain_node(hub)
        assert explanation.feature_scores.sum() > 0
