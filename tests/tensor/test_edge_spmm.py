"""The fused edge-weighted product ``edge_spmm`` against the composed path.

``edge_spmm(h, w, edge_index, N)`` computes ``out[v] = Σ_{dst_e = v} w_e ·
h[src_e]`` without an ``(E, d)`` message array.  The composed
``gather_rows → * w → segment_sum`` path it replaced in the convs is kept
here as the oracle: same products, same summation order, so forward and
both gradients must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph.khop import khop_edge_index
from repro.nn import GCNConv
from repro.nn.base import looped_constants
from repro.obs import OpProfiler
from repro.tensor import AllocationTracker, Tensor, edge_spmm, gather_rows, segment_sum
from repro.tensor.csr import edge_layouts
from tests.tensor.gradcheck import assert_grad_close


def composed(h, w, edge_index, num_nodes, layouts=None):
    """The reference: gather source rows, scale per edge, segment-sum."""
    src, dst = edge_index
    messages = gather_rows(h, src, layout=layouts.src if layouts else None)
    if h.ndim > 1:
        w = w.reshape(-1, *([1] * (h.ndim - 1)))
    return segment_sum(messages * w, dst, num_nodes, layout=layouts.dst if layouts else None)


RNG = np.random.default_rng(11)

# Duplicate edge (0→1 twice), self-loops (2→2, 4→4), node 3 isolated.
EDGES = np.array([[0, 0, 1, 2, 2, 4, 4], [1, 1, 2, 2, 0, 4, 1]], dtype=np.int64)
NUM_NODES = 5
EMPTY = np.zeros((2, 0), dtype=np.int64)


@pytest.mark.parametrize("trailing", [(), (3,)], ids=["vector", "matrix"])
@pytest.mark.parametrize(
    "h_grad,w_grad", [(True, True), (True, False), (False, True)], ids=["both", "h", "w"]
)
def test_gradcheck(trailing, h_grad, w_grad):
    h = Tensor(RNG.normal(size=(NUM_NODES, *trailing)), requires_grad=h_grad)
    w = Tensor(RNG.uniform(0.2, 1.5, size=EDGES.shape[1]), requires_grad=w_grad)
    trainable = [t for t in (h, w) if t.requires_grad]

    def fn(*_):
        return edge_spmm(h, w, EDGES, NUM_NODES)

    assert_grad_close(fn, *trainable)


@pytest.mark.parametrize("trailing", [(), (3,)], ids=["vector", "matrix"])
def test_empty_edge_list(trailing):
    h = Tensor(RNG.normal(size=(NUM_NODES, *trailing)), requires_grad=True)
    w = Tensor(np.zeros(0), requires_grad=True)
    out = edge_spmm(h, w, EMPTY, NUM_NODES)
    assert out.shape == (NUM_NODES, *trailing) and not out.data.any()
    out.backward(np.ones(out.shape))
    assert not h.grad.any()
    assert w.grad is None or w.grad.shape == (0,)


def test_constant_weights_and_no_grad_inputs():
    h = Tensor(RNG.normal(size=(NUM_NODES, 2)))
    out = edge_spmm(h, np.ones(EDGES.shape[1]), EDGES, NUM_NODES)
    assert not out.requires_grad
    expected = np.zeros((NUM_NODES, 2))
    np.add.at(expected, EDGES[1], h.data[EDGES[0]])
    np.testing.assert_allclose(out.data, expected)
    assert not out.data[3].any()  # isolated node


@pytest.mark.parametrize("trailing", [(), (3,)], ids=["vector", "matrix"])
def test_matches_oracle_on_small_graph(trailing):
    layouts = edge_layouts(EDGES, NUM_NODES)
    _assert_bit_equal(EDGES, NUM_NODES, (NUM_NODES, *trailing), layouts)


def test_layout_mismatch_raises():
    h = Tensor(np.ones((NUM_NODES, 2)))
    layouts = edge_layouts(EDGES, NUM_NODES + 1)
    with pytest.raises(ValueError, match="layouts cover"):
        edge_spmm(h, np.ones(EDGES.shape[1]), EDGES, NUM_NODES, layouts=layouts)


def _assert_bit_equal(edge_index, num_nodes, h_shape, layouts):
    h_init = RNG.normal(size=h_shape)
    w_init = RNG.uniform(0.05, 1.0, size=edge_index.shape[1])
    seed = RNG.normal(size=(num_nodes, *h_shape[1:]))
    results = []
    for op in (edge_spmm, composed):
        h = Tensor(h_init.copy(), requires_grad=True)
        w = Tensor(w_init.copy(), requires_grad=True)
        out = op(h, w, edge_index, num_nodes, layouts=layouts)
        out.backward(seed)
        results.append((out.data, h.grad, w.grad))
    for fused, reference in zip(*results):
        assert np.array_equal(fused, reference)


@pytest.fixture(scope="module")
def khop_graph():
    """The k-hop edge list of a fit-full run (cora N=1000, k=2), self-looped."""
    graph = load_dataset("cora", seed=0, scale=1.0)
    full_index, layouts, _ = looped_constants(khop_edge_index(graph, 2), graph.num_nodes)
    return full_index, graph.num_nodes, layouts


@pytest.mark.parametrize("width", [32, 7])
def test_bit_equal_to_composed_on_fit_full_khop_graph(khop_graph, width):
    full_index, num_nodes, layouts = khop_graph
    assert full_index.shape[1] > 30 * num_nodes
    _assert_bit_equal(full_index, num_nodes, (num_nodes, width), layouts)


def test_masked_gcn_layer_keeps_no_message_array(khop_graph, monkeypatch):
    """At E ≫ N, one masked GCN layer's forward+backward allocates no graph
    tensor with E rows and d columns."""
    full_index, num_nodes, _ = khop_graph
    edge_index = full_index[:, : full_index.shape[1] - num_nodes]  # drop the loops
    num_edges, width = edge_index.shape[1], 32
    conv = GCNConv(16, width, rng=np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(num_nodes, 16)))
    mask = Tensor(RNG.uniform(0.1, 0.9, size=num_edges), requires_grad=True)
    shapes = []
    track = AllocationTracker.track
    monkeypatch.setattr(
        AllocationTracker, "track", lambda self, t: shapes.append(t.shape) or track(self, t)
    )
    with OpProfiler() as prof:
        conv(x, edge_index, num_nodes, edge_weight=mask).sum().backward()
    assert "edge_spmm" in prof.stats
    assert mask.grad is not None and conv.weight.grad is not None
    assert all(len(shape) < 2 or shape[0] < num_edges for shape in shapes), shapes
