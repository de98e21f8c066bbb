"""Unit tests for the graph convolution layers."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.nn import ASDGNConv, FusedGATConv, GATConv, GCNConv, TransformerConv
from repro.tensor import Tensor, scatter, sparse
from tests.oracles import gcn_normalized_adjacency


@pytest.fixture(scope="module")
def toy():
    edges = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    graph = Graph.from_edges(4, edges, features=np.eye(4))
    return graph, graph.edge_index(), Tensor(graph.features)


ALL_CONVS = [
    ("gcn", lambda rng: GCNConv(4, 6, rng=rng)),
    ("gat", lambda rng: GATConv(4, 6, heads=2, rng=rng)),
    ("fusedgat", lambda rng: FusedGATConv(4, 6, heads=2, rng=rng)),
    ("transformer", lambda rng: TransformerConv(4, 6, heads=2, rng=rng)),
]


class TestShapesAndGradients:
    @pytest.mark.parametrize("name,builder", ALL_CONVS, ids=[n for n, _ in ALL_CONVS])
    def test_output_shape(self, name, builder, toy, rng):
        graph, edge_index, x = toy
        conv = builder(np.random.default_rng(0))
        assert conv(x, edge_index, 4).shape == (4, 6)

    @pytest.mark.parametrize("name,builder", ALL_CONVS, ids=[n for n, _ in ALL_CONVS])
    def test_edge_weight_receives_gradient(self, name, builder, toy, rng):
        graph, edge_index, x = toy
        conv = builder(np.random.default_rng(0))
        weight = Tensor(np.full(edge_index.shape[1], 0.7), requires_grad=True)
        out = conv(x, edge_index, 4, edge_weight=weight)
        (out ** 2).sum().backward()
        assert weight.grad is not None
        assert np.abs(weight.grad).sum() > 0

    @pytest.mark.parametrize("name,builder", ALL_CONVS, ids=[n for n, _ in ALL_CONVS])
    def test_parameters_receive_gradients(self, name, builder, toy, rng):
        graph, edge_index, x = toy
        conv = builder(np.random.default_rng(0))
        conv(x, edge_index, 4).sum().backward()
        grads = [p.grad for p in conv.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


@pytest.mark.parametrize("name,builder", ALL_CONVS, ids=[n for n, _ in ALL_CONVS])
def test_repeated_masked_forward_needs_no_layout_lookup(name, builder, toy, monkeypatch):
    """Every layout a masked forward and backward use, the self-loop
    weights' included, comes from the conv's edge cache: a repeat never
    consults the content-hashed global layout memo."""
    graph, edge_index, x = toy
    conv = builder(np.random.default_rng(0))
    weight = Tensor(np.full(edge_index.shape[1], 0.7), requires_grad=True)
    conv(x, edge_index, 4, edge_weight=weight).sum().backward()
    calls = []
    for module in (scatter, sparse):
        lookup = module.cached_layout
        monkeypatch.setattr(
            module, "cached_layout", lambda *a, _f=lookup: calls.append(a) or _f(*a)
        )
    conv(x, edge_index, 4, edge_weight=weight).sum().backward()
    assert calls == []


class TestGCN:
    def test_matches_manual_normalized_aggregation(self, toy):
        graph, edge_index, x = toy
        conv = GCNConv(4, 3, rng=np.random.default_rng(0))
        conv.bias.data[:] = [0.5, -1.0, 2.0]
        expected = gcn_normalized_adjacency(graph) @ (x.data @ conv.weight.data) + conv.bias.data
        np.testing.assert_allclose(conv(x, edge_index, 4).data, expected, atol=1e-10)

    def test_masked_uniform_scaling_invariance(self, toy):
        """Scaling all mask weights by a constant must not change the output
        (degree renormalisation + mean-scaled self-loops cancel it)."""
        graph, edge_index, x = toy
        conv = GCNConv(4, 3, rng=np.random.default_rng(0))
        base = np.random.default_rng(1).uniform(0.2, 1.0, edge_index.shape[1])
        out1 = conv(x, edge_index, 4, edge_weight=Tensor(base))
        out2 = conv(x, edge_index, 4, edge_weight=Tensor(base * 7.0))
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-8)

    def test_masked_reweighting_changes_output(self, toy):
        graph, edge_index, x = toy
        conv = GCNConv(4, 3, rng=np.random.default_rng(0))
        uniform = conv(x, edge_index, 4, edge_weight=Tensor(np.ones(edge_index.shape[1])))
        skewed_weights = np.ones(edge_index.shape[1])
        skewed_weights[0] = 0.01
        skewed = conv(x, edge_index, 4, edge_weight=Tensor(skewed_weights))
        assert np.abs(uniform.data - skewed.data).max() > 1e-6


class TestGAT:
    def test_fused_matches_gat_exactly(self, toy):
        graph, edge_index, x = toy
        gat = GATConv(4, 6, heads=2, rng=np.random.default_rng(5))
        fused = FusedGATConv(4, 6, heads=2, rng=np.random.default_rng(5))
        np.testing.assert_allclose(
            gat(x, edge_index, 4).data, fused(x, edge_index, 4).data
        )

    def test_fused_matches_gat_with_mask(self, toy):
        graph, edge_index, x = toy
        weights = Tensor(np.random.default_rng(2).uniform(0.1, 1.0, edge_index.shape[1]))
        gat = GATConv(4, 6, heads=2, rng=np.random.default_rng(5))
        fused = FusedGATConv(4, 6, heads=2, rng=np.random.default_rng(5))
        np.testing.assert_allclose(
            gat(x, edge_index, 4, edge_weight=weights).data,
            fused(x, edge_index, 4, edge_weight=weights).data,
            atol=1e-10,
        )

    def test_attention_recorded(self, toy):
        graph, edge_index, x = toy
        conv = GATConv(4, 6, heads=3, rng=np.random.default_rng(0))
        conv(x, edge_index, 4)
        scores = conv.edge_attention_scores()
        assert scores.shape == (edge_index.shape[1] + 4,)  # + self loops

    def test_attention_requires_forward(self):
        conv = GATConv(4, 6, heads=2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            conv.edge_attention_scores()

    def test_attention_sums_to_one_per_destination(self, toy):
        graph, edge_index, x = toy
        conv = GATConv(4, 4, heads=1, rng=np.random.default_rng(0))
        conv(x, edge_index, 4)
        src, dst = conv.last_edge_index
        for node in range(4):
            total = conv.last_attention[dst == node].sum()
            np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_indivisible_heads_raise(self):
        with pytest.raises(ValueError):
            GATConv(4, 5, heads=2, rng=np.random.default_rng(0))


class TestOthers:
    def test_asdgn_requires_matching_width(self, toy):
        graph, edge_index, x = toy
        conv = ASDGNConv(8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv(x, edge_index, 4)

    def test_asdgn_residual_updates_are_bounded(self, toy):
        graph, edge_index, x = toy
        conv = ASDGNConv(4, num_iters=3, epsilon=0.1, rng=np.random.default_rng(0))
        out = conv(x, edge_index, 4)
        # tanh updates scaled by eps: change per iteration bounded by eps.
        assert np.abs(out.data - x.data).max() <= 0.1 * 3 + 1e-9

    def test_transformer_indivisible_heads_raise(self):
        with pytest.raises(ValueError):
            TransformerConv(4, 5, heads=2, rng=np.random.default_rng(0))

    def test_conv_cache_differentiates_edge_sets(self, toy):
        """Different subgraphs through the same conv must not collide."""
        graph, edge_index, x = toy
        conv = GCNConv(4, 3, rng=np.random.default_rng(0))
        out_full = conv(x, edge_index, 4)
        sub_edges = edge_index[:, :4]
        out_sub = conv(x, sub_edges, 4)
        out_full_again = conv(x, edge_index, 4)
        np.testing.assert_allclose(out_full.data, out_full_again.data)
        assert not np.allclose(out_full.data, out_sub.data)
