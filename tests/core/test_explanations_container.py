"""Unit tests for the Explanations container (paper §4.2 outputs)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Explanations


@pytest.fixture()
def explanations():
    features = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    feature_mask = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.3]])
    structure = sp.csr_matrix(np.array([[0.0, 0.7], [0.4, 0.0]]))
    edge_index = np.array([[0, 1], [1, 0]])
    return Explanations(
        feature_mask=feature_mask,
        feature_explanation=feature_mask * features,
        structure_mask=structure,
        subgraph_explanation=structure,
        khop_edge_index=edge_index,
    )


class TestExplanations:
    def test_edge_scores_dict(self, explanations):
        scores = explanations.edge_scores()
        assert scores == {(0, 1): 0.7, (1, 0): 0.4}

    def test_edge_importance_known_edge(self, explanations):
        assert explanations.subgraph_explanation[0, 1] == pytest.approx(0.7)

    def test_edge_importance_missing_edge_is_zero(self, explanations):
        assert explanations.subgraph_explanation[0, 0] == 0.0

    def test_top_features_respects_explanation_values(self, explanations):
        # Node 0: E_feat = [0.9, 0.0, 1.0] → feature 2 first, then 0.
        top = explanations.top_features(0, k=2)
        assert list(top) == [2, 0]

    def test_ranked_neighbors_descending(self, explanations):
        ranked = explanations.ranked_neighbors(0)
        assert ranked == [(1, pytest.approx(0.7))]

    def test_ranked_neighbors_empty_for_isolated(self):
        structure = sp.csr_matrix((3, 3))
        bundle = Explanations(
            feature_mask=np.zeros((3, 1)),
            feature_explanation=np.zeros((3, 1)),
            structure_mask=structure,
            subgraph_explanation=structure,
            khop_edge_index=np.zeros((2, 0), dtype=np.int64),
        )
        assert bundle.ranked_neighbors(0) == []

    def test_num_nodes(self, explanations):
        assert explanations.num_nodes == 2
