"""Gradcheck sweep over every differentiable scatter/sparse/functional op.

Each test pins one op's analytic backward against central differences via
:func:`tests.tensor.gradcheck.assert_grad_close` (max relative error
< 1e-5).  The scatter ops are checked on both the library's CSR kernels
and the dense ``np.add.at`` reference in ``tests/oracles.py`` (the oracle of
the differential tests), including duplicate destinations and an empty
segment; the conv sweep runs one forward of each of the five layers.
``softmax`` exists only as the reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro.tensor
from repro.nn import ASDGNConv, FusedGATConv, GATConv, GCNConv, TransformerConv
from repro.tensor import (
    MLP,
    Tensor,
    edge_spmm,
    functional as F,
    gather_rows,
    pair_mlp,
)
from tests import oracles
from tests.tensor.gradcheck import assert_grad_close

RNG = np.random.default_rng(42)

# Duplicate destinations (segment 1) and an empty segment (3 of 4).
SEGMENT_IDS = np.array([1, 0, 1, 2, 1, 0], dtype=np.int64)
NUM_SEGMENTS = 4
GATHER_INDEX = np.array([2, 0, 1, 1, 3, 0], dtype=np.int64)


def _param(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


# ----------------------------------------------------------------------
# Scatter ops — CSR kernels and the dense reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ops", [repro.tensor, oracles], ids=["csr", "naive"])
class TestScatterGradients:
    def test_gather_rows(self, ops):
        x = _param((4, 3))
        assert_grad_close(lambda t: ops.gather_rows(t, GATHER_INDEX), x)

    def test_segment_sum_vector(self, ops):
        values = _param((6,))
        assert_grad_close(lambda t: ops.segment_sum(t, SEGMENT_IDS, NUM_SEGMENTS), values)

    def test_segment_sum_multihead(self, ops):
        values = _param((6, 2))
        assert_grad_close(lambda t: ops.segment_sum(t, SEGMENT_IDS, NUM_SEGMENTS), values)

    def test_segment_mean(self, ops):
        values = _param((6, 3))
        assert_grad_close(lambda t: ops.segment_mean(t, SEGMENT_IDS, NUM_SEGMENTS), values)

    def test_segment_softmax_vector(self, ops):
        scores = _param((6,))
        assert_grad_close(
            lambda t: ops.segment_softmax(t, SEGMENT_IDS, NUM_SEGMENTS), scores
        )

    def test_segment_softmax_multihead(self, ops):
        scores = _param((6, 2))
        assert_grad_close(
            lambda t: ops.segment_softmax(t, SEGMENT_IDS, NUM_SEGMENTS), scores
        )

    def test_gather_then_segment_sum(self, ops):
        x = _param((4, 2))
        assert_grad_close(
            lambda t: ops.segment_sum(
                ops.gather_rows(t, GATHER_INDEX), SEGMENT_IDS, NUM_SEGMENTS
            ),
            x,
        )


def test_gather_rows_2d_index_gradient():
    x = _param((5, 2))
    index = np.array([[0, 2], [4, 4]], dtype=np.int64)
    assert_grad_close(lambda t: gather_rows(t, index), x)


# ----------------------------------------------------------------------
# Pair scorer (SES Eq. 4)
# ----------------------------------------------------------------------
# Duplicate pairs (0, 1), self pairs (2, 2) / (3, 3), and node 4 in no pair.
PAIRS = np.array([[0, 2, 0, 1, 3, 1], [1, 2, 1, 3, 3, 0]], dtype=np.int64)


@pytest.mark.parametrize("blocks", [2, 3], ids=["2d", "3d"])
@pytest.mark.parametrize("hidden_grad", [True, False], ids=["hidden_grad", "hidden_const"])
def test_pair_mlp_gradient(blocks, hidden_grad):
    hidden = Tensor(RNG.normal(size=(5, 3)), requires_grad=hidden_grad)
    mlp = MLP((blocks * 3, 4, 1), rng=np.random.default_rng(3))
    for param in mlp.parameters():
        param.data[...] = RNG.normal(size=param.shape)
    assert_grad_close(
        lambda h, *params: pair_mlp(mlp, h, PAIRS), hidden, *mlp.parameters()
    )


# ----------------------------------------------------------------------
# Sparse
# ----------------------------------------------------------------------
def test_spmm_gradient():
    coo = sp.random(5, 4, density=0.5, random_state=7).tocoo()
    edge_index = np.vstack([coo.col, coo.row]).astype(np.int64)
    x = _param((4, 3))
    assert_grad_close(lambda t: edge_spmm(t, coo.data, edge_index, 5), x)


# ----------------------------------------------------------------------
# Functional ops
# ----------------------------------------------------------------------
def _kink_free(shape, margin=0.15):
    """Random data bounded away from zero (where relu/abs kinks live)."""
    data = RNG.normal(size=shape)
    data = np.where(np.abs(data) < margin, np.sign(data) * margin + data, data)
    return Tensor(data, requires_grad=True)


class TestFunctionalGradients:
    def test_relu(self):
        assert_grad_close(F.relu, _kink_free((4, 3)))

    def test_leaky_relu(self):
        assert_grad_close(F.leaky_relu, _kink_free((4, 3)))

    def test_elu(self):
        assert_grad_close(lambda t: F.elu(t, alpha=1.0), _kink_free((4, 3)))

    def test_sigmoid(self):
        assert_grad_close(F.sigmoid, _param((4, 3)))

    def test_tanh(self):
        assert_grad_close(F.tanh, _param((4, 3)))

    def test_softmax(self):
        assert_grad_close(lambda t: oracles.softmax(t, axis=-1), _param((3, 4)))

    def test_log_softmax(self):
        assert_grad_close(lambda t: F.log_softmax(t, axis=-1), _param((3, 4)))

    def test_concatenate(self):
        a, b = _param((3, 2)), _param((2, 2))
        assert_grad_close(lambda s, t: F.concatenate([s, t], axis=0), a, b)

    def test_stack(self):
        a, b = _param((2, 3)), _param((2, 3))
        assert_grad_close(lambda s, t: F.stack([s, t], axis=0), a, b)

    def test_where(self):
        condition = np.array([[True, False, True], [False, True, False]])
        a, b = _param((2, 3)), _param((2, 3))
        assert_grad_close(lambda s, t: F.where(condition, s, t), a, b)

    def test_maximum(self):
        a, b = _param((3, 3)), _param((3, 3))
        assert_grad_close(F.maximum, a, b)

    def test_dropout(self):
        x = _param((4, 4))
        assert_grad_close(
            lambda t: F.dropout(t, 0.4, training=True, rng=np.random.default_rng(11)), x
        )

    def test_cross_entropy(self):
        logits = _param((5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        mask = np.array([True, True, False, True, True])
        assert_grad_close(lambda t: F.cross_entropy(t, labels, mask=mask), logits)

    def test_l1_loss(self):
        prediction = _param((4, 2))
        target = prediction.data + RNG.uniform(0.2, 1.0, size=(4, 2))
        assert_grad_close(lambda t: F.l1_loss(t, target), prediction)

    def test_pairwise_l2(self):
        a, b = _param((4, 3)), _param((4, 3))
        assert_grad_close(F.pairwise_l2, a, b)

    def test_triplet_margin_loss(self):
        anchor, positive, negative = _param((3, 4)), _param((3, 4)), _param((3, 4))
        assert_grad_close(
            lambda s, t, u: F.triplet_margin_loss(s, t, u, margin=1.0),
            anchor,
            positive,
            negative,
        )


# ----------------------------------------------------------------------
# One forward of each of the five conv layers
# ----------------------------------------------------------------------
N, F_IN, F_OUT = 5, 3, 4
CONV_EDGES = np.array([[0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 0, 2]], dtype=np.int64)

CONVS = [
    ("gcn", lambda rng: GCNConv(F_IN, F_OUT, rng=rng)),
    ("gat", lambda rng: GATConv(F_IN, F_OUT, heads=2, rng=rng)),
    ("fusedgat", lambda rng: FusedGATConv(F_IN, F_OUT, heads=2, rng=rng)),
    ("transformer", lambda rng: TransformerConv(F_IN, F_OUT, heads=2, rng=rng)),
    ("asdgn", lambda rng: ASDGNConv(F_IN, num_iters=2, rng=rng)),
]


@pytest.mark.slow
@pytest.mark.parametrize("name,builder", CONVS, ids=[c[0] for c in CONVS])
def test_conv_forward_gradcheck(name, builder):
    conv = builder(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(N, F_IN)), requires_grad=True)
    assert_grad_close(lambda t: conv(t, CONV_EDGES, N), x)
