"""Permutation-equivariance property tests for every conv layer.

A graph convolution must commute with node relabelling:
``conv(P x, P edge_index) == P conv(x, edge_index)`` for any permutation
``P``.  This is a strong whole-layer correctness check — it catches
indexing bugs that shape tests cannot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import FusedGATConv, GATConv, GCNConv, TransformerConv
from repro.tensor import Tensor

settings.register_profile("equivariance", max_examples=10, deadline=None)
settings.load_profile("equivariance")

N, F_IN, F_OUT = 7, 5, 6

CONVS = [
    ("gcn", lambda rng: GCNConv(F_IN, F_OUT, rng=rng)),
    ("gat", lambda rng: GATConv(F_IN, F_OUT, heads=2, rng=rng)),
    ("fusedgat", lambda rng: FusedGATConv(F_IN, F_OUT, heads=2, rng=rng)),
    ("transformer", lambda rng: TransformerConv(F_IN, F_OUT, heads=2, rng=rng)),
]


def _fixed_graph():
    rng = np.random.default_rng(7)
    edges = np.array([[0, 1, 2, 3, 4, 5, 6, 2], [1, 2, 3, 4, 5, 6, 0, 5]])
    x = rng.normal(size=(N, F_IN))
    weights = rng.uniform(0.2, 1.0, edges.shape[1])
    return edges.astype(np.int64), x, weights


@pytest.mark.parametrize("name,builder", CONVS, ids=[n for n, _ in CONVS])
@given(permutation_seed=st.integers(0, 10_000))
def test_permutation_equivariance(name, builder, permutation_seed):
    edges, x, weights = _fixed_graph()
    conv = builder(np.random.default_rng(0))
    permutation = np.random.default_rng(permutation_seed).permutation(N)
    inverse = np.argsort(permutation)

    out = conv(Tensor(x), edges, N).data
    permuted_edges = inverse[edges]  # node i becomes inverse[i]
    out_permuted = conv(Tensor(x[permutation]), permuted_edges, N).data
    np.testing.assert_allclose(out_permuted, out[permutation], atol=1e-9)


@pytest.mark.parametrize("name,builder", CONVS, ids=[n for n, _ in CONVS])
@given(permutation_seed=st.integers(0, 10_000))
def test_permutation_equivariance_with_edge_weights(name, builder, permutation_seed):
    edges, x, weights = _fixed_graph()
    conv = builder(np.random.default_rng(0))
    permutation = np.random.default_rng(permutation_seed).permutation(N)
    inverse = np.argsort(permutation)

    out = conv(Tensor(x), edges, N, edge_weight=Tensor(weights)).data
    out_permuted = conv(
        Tensor(x[permutation]), inverse[edges], N, edge_weight=Tensor(weights)
    ).data
    np.testing.assert_allclose(out_permuted, out[permutation], atol=1e-9)
