"""Unit tests for the shared GraphEncoder."""

import numpy as np
import pytest

from repro.nn import GraphEncoder
from repro.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    edges = np.array([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    edge_index = np.hstack([edges.T, edges.T[::-1]])
    x = Tensor(rng.normal(size=(5, 8)))
    return x, edge_index.astype(np.int64)


class TestGraphEncoder:
    @pytest.mark.parametrize("backbone", ["gcn", "gat", "fusedgat"])
    def test_logit_shape(self, setup, backbone):
        x, edge_index = setup
        encoder = GraphEncoder(8, 16, 3, backbone=backbone, heads=2,
                               rng=np.random.default_rng(0))
        assert encoder(x, edge_index, 5).shape == (5, 3)

    def test_forward_with_hidden_shapes(self, setup):
        x, edge_index = setup
        encoder = GraphEncoder(8, 16, 3, rng=np.random.default_rng(0))
        hidden, logits = encoder.forward_with_hidden(x, edge_index, 5)
        assert hidden.shape == (5, 16)
        assert logits.shape == (5, 3)

    def test_representation_head_widths(self, setup):
        x, edge_index = setup
        encoder = GraphEncoder(
            8, 16, 3, representation_head=True, rng=np.random.default_rng(0)
        )
        hidden, representation, logits = encoder.forward_full(x, edge_index, 5)
        assert hidden.shape == (5, 16)
        assert representation.shape == (5, 16)
        assert logits.shape == (5, 3)

    def test_without_head_representation_is_logits(self, setup):
        x, edge_index = setup
        encoder = GraphEncoder(8, 16, 3, rng=np.random.default_rng(0))
        _, representation, logits = encoder.forward_full(x, edge_index, 5)
        np.testing.assert_allclose(representation.data, logits.data)

    def test_dropout_only_in_training(self, setup):
        x, edge_index = setup
        encoder = GraphEncoder(8, 16, 3, dropout=0.9, rng=np.random.default_rng(0))
        encoder.eval()
        with no_grad():
            a = encoder(x, edge_index, 5).data
            b = encoder(x, edge_index, 5).data
        np.testing.assert_allclose(a, b)
        encoder.train()
        c = encoder(x, edge_index, 5).data
        d = encoder(x, edge_index, 5).data
        assert not np.allclose(c, d)

    def test_unknown_backbone_raises(self):
        with pytest.raises(ValueError):
            GraphEncoder(8, 16, 3, backbone="mamba")

    def test_attention_scores_for_gat_only(self, setup):
        """The ATT explainer reads attention from ``conv1`` where it exists."""
        x, edge_index = setup
        gcn = GraphEncoder(8, 16, 3, backbone="gcn", rng=np.random.default_rng(0))
        gcn(x, edge_index, 5)
        assert not hasattr(gcn.conv1, "edge_attention_scores")
        gat = GraphEncoder(8, 16, 3, backbone="gat", heads=2,
                           rng=np.random.default_rng(0))
        gat(x, edge_index, 5)
        assert gat.conv1.edge_attention_scores().shape[0] == edge_index.shape[1] + 5

    def test_masked_forward_differs_from_plain(self, setup):
        x, edge_index = setup
        encoder = GraphEncoder(8, 16, 3, dropout=0.0, rng=np.random.default_rng(0))
        plain = encoder(x, edge_index, 5).data
        weights = Tensor(np.linspace(0.1, 1.0, edge_index.shape[1]))
        masked = encoder(x, edge_index, 5, edge_weight=weights).data
        assert np.abs(plain - masked).max() > 1e-8
