"""Finite-difference gradient checks for every conv layer.

The SES masks receive gradients *through* the convs' edge-weight path, so
these checks are the ground truth for the whole co-training mechanism:
for each layer we verify d loss / d edge_weight and d loss / d x against
central differences.
"""

import numpy as np
import pytest

from repro.nn import ASDGNConv, FusedGATConv, GATConv, GCNConv, TransformerConv
from repro.tensor import Tensor
from tests.conftest import numeric_gradient

N, F_IN, F_OUT = 5, 3, 4

CONVS = [
    ("gcn", lambda rng: GCNConv(F_IN, F_OUT, rng=rng)),
    ("gat", lambda rng: GATConv(F_IN, F_OUT, heads=2, rng=rng)),
    ("fusedgat", lambda rng: FusedGATConv(F_IN, F_OUT, heads=2, rng=rng)),
    ("transformer", lambda rng: TransformerConv(F_IN, F_OUT, heads=2, rng=rng)),
]


@pytest.fixture()
def setup():
    rng = np.random.default_rng(3)
    edges = np.array([[0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 0, 2]], dtype=np.int64)
    x = rng.normal(size=(N, F_IN))
    weights = rng.uniform(0.3, 0.9, edges.shape[1])
    target = rng.normal(size=(N, F_OUT))
    return edges, x, weights, target


@pytest.mark.parametrize("name,builder", CONVS, ids=[c[0] for c in CONVS])
def test_edge_weight_gradient_matches_finite_difference(name, builder, setup):
    edges, x, weights, target = setup
    conv = builder(np.random.default_rng(0))
    weight_tensor = Tensor(weights.copy(), requires_grad=True)

    def loss_value():
        out = conv(Tensor(x), edges, N, edge_weight=Tensor(weight_tensor.data))
        return float(((out.data - target) ** 2).sum())

    out = conv(Tensor(x), edges, N, edge_weight=weight_tensor)
    ((out - Tensor(target)) ** 2).sum().backward()
    expected = numeric_gradient(loss_value, weight_tensor.data, eps=1e-6)
    np.testing.assert_allclose(weight_tensor.grad, expected, atol=5e-5, rtol=1e-4)


@pytest.mark.parametrize("name,builder", CONVS, ids=[c[0] for c in CONVS])
def test_input_gradient_matches_finite_difference(name, builder, setup):
    edges, x, weights, target = setup
    conv = builder(np.random.default_rng(0))
    x_tensor = Tensor(x.copy(), requires_grad=True)

    def loss_value():
        out = conv(Tensor(x_tensor.data), edges, N)
        return float(((out.data - target) ** 2).sum())

    out = conv(x_tensor, edges, N)
    ((out - Tensor(target)) ** 2).sum().backward()
    expected = numeric_gradient(loss_value, x_tensor.data, eps=1e-6)
    np.testing.assert_allclose(x_tensor.grad, expected, atol=5e-5, rtol=1e-4)


def test_asdgn_input_gradient(setup):
    edges, x, weights, target = setup
    conv = ASDGNConv(F_IN, num_iters=2, rng=np.random.default_rng(0))
    target_matched = np.random.default_rng(1).normal(size=(N, F_IN))
    x_tensor = Tensor(x.copy(), requires_grad=True)

    def loss_value():
        out = conv(Tensor(x_tensor.data), edges, N)
        return float(((out.data - target_matched) ** 2).sum())

    out = conv(x_tensor, edges, N)
    ((out - Tensor(target_matched)) ** 2).sum().backward()
    expected = numeric_gradient(loss_value, x_tensor.data, eps=1e-6)
    np.testing.assert_allclose(x_tensor.grad, expected, atol=5e-5, rtol=1e-4)
