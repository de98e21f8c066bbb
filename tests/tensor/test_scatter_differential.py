"""Property-based differential tests: CSR kernels vs the dense reference.

Every scatter primitive runs on CSR segment kernels; ``tests/oracles.py``
holds the dense-scatter reference written with ``np.add.at`` /
``np.maximum.at``.  Hypothesis drives both with the same randomly generated
problems (duplicate destinations, empty segments, single-node graphs,
``(E, H)`` multi-head values, empty edge lists) and requires forward
outputs and backward gradients to agree to float64 summation-order
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

pytestmark = pytest.mark.slow

from repro.tensor import (
    Tensor,
    gather_rows,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from tests import oracles

# Summation order differs between the CSR (sorted) and reference (edge-order)
# accumulations, so exact equality is not guaranteed — only float64
# round-off-level agreement.
RTOL, ATOL = 1e-9, 1e-12

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def segment_problems(draw, max_heads=0, min_segments=1):
    """A (values, segment_ids, num_segments) triple with tricky shapes."""
    num_segments = draw(st.integers(min_segments, 8))
    num_items = draw(st.integers(0, 24))
    ids = np.array(
        draw(
            st.lists(
                st.integers(0, num_segments - 1),
                min_size=num_items,
                max_size=num_items,
            )
        ),
        dtype=np.int64,
    )
    shape = (num_items,)
    if max_heads:
        heads = draw(st.integers(1, max_heads))
        shape = (num_items, heads)
    flat = draw(
        st.lists(finite, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
    )
    values = np.array(flat, dtype=np.float64).reshape(shape)
    return values, ids, num_segments


def forward_backward(op, values, *args):
    """Output and input gradient of ``op(values, *args)`` under a fixed
    random upstream gradient."""
    tensor = Tensor(values.copy(), requires_grad=True)
    out = op(tensor, *args)
    upstream = np.random.default_rng(0).standard_normal(out.data.shape)
    (out * Tensor(upstream)).sum().backward()
    grad = np.zeros_like(values) if tensor.grad is None else tensor.grad
    return out.data.copy(), grad.copy()


def assert_paths_agree(op, values, *args):
    """``op`` and its namesake in ``tests/oracles.py`` agree forward and back."""
    csr_out, csr_grad = forward_backward(op, values, *args)
    ref_out, ref_grad = forward_backward(getattr(oracles, op.__name__), values, *args)
    np.testing.assert_allclose(csr_out, ref_out, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(csr_grad, ref_grad, rtol=RTOL, atol=ATOL)


@settings(deadline=None, max_examples=80)
@given(problem=segment_problems())
@example(problem=(np.zeros(0), np.zeros(0, dtype=np.int64), 3))  # empty edge list
@example(  # duplicate edges into one segment, plus empty segments
    problem=(np.array([1.0, 2.0, 3.0, -4.0]), np.array([2, 2, 2, 0]), 5)
)
@example(problem=(np.array([7.5]), np.array([0]), 1))  # single-node graph
def test_segment_sum_matches_reference(problem):
    assert_paths_agree(segment_sum, *problem)


@settings(deadline=None, max_examples=60)
@given(problem=segment_problems(max_heads=3))
def test_segment_sum_multihead_matches_reference(problem):
    assert_paths_agree(segment_sum, *problem)


@settings(deadline=None, max_examples=60)
@given(problem=segment_problems())
@example(problem=(np.array([1.0, 1.0, 1.0]), np.array([1, 1, 1]), 4))
def test_segment_mean_matches_reference(problem):
    assert_paths_agree(segment_mean, *problem)


@settings(deadline=None, max_examples=80)
@given(problem=segment_problems())
@example(problem=(np.zeros(0), np.zeros(0, dtype=np.int64), 2))  # all segments empty
@example(problem=(np.array([3.0]), np.array([0]), 1))  # single node, self segment
def test_segment_softmax_matches_reference(problem):
    assert_paths_agree(segment_softmax, *problem)


@settings(deadline=None, max_examples=60)
@given(problem=segment_problems(max_heads=3))
def test_segment_softmax_multihead_matches_reference(problem):
    assert_paths_agree(segment_softmax, *problem)


SOFTMAXES = [segment_softmax, oracles.segment_softmax]


class TestSegmentSoftmaxEmptySegments:
    """Regression: empty segments must yield zero gradients, never NaNs.

    A segment with no member rows has ``-inf`` as its running max; the op
    substitutes ``0.0`` before the (never-executed) gather so neither the
    forward pass nor the adjoint can produce ``inf - inf`` NaNs.
    """

    IDS = np.array([0, 3, 3, 0], dtype=np.int64)  # segments 1, 2, 4 empty
    NUM_SEGMENTS = 5

    @pytest.mark.parametrize("softmax", SOFTMAXES, ids=["csr", "naive"])
    @pytest.mark.parametrize("shape", [(4,), (4, 3)], ids=["vector", "multihead"])
    def test_empty_segments_nan_free_with_zero_gradient(self, softmax, shape):
        rng = np.random.default_rng(5)
        scores = Tensor(rng.normal(size=shape), requires_grad=True)
        out = softmax(scores, self.IDS, self.NUM_SEGMENTS)
        assert np.isfinite(out.data).all()
        # Each non-empty segment normalises to exactly one...
        sums = np.zeros((self.NUM_SEGMENTS, *shape[1:]))
        np.add.at(sums, self.IDS, out.data)
        np.testing.assert_allclose(sums[[0, 3]], 1.0, rtol=1e-12)
        np.testing.assert_allclose(sums[[1, 2, 4]], 0.0)
        # ...so with an all-ones upstream the score gradient is identically
        # zero (softmax outputs sum to a constant) and must be NaN-free.
        out.sum().backward()
        assert np.isfinite(scores.grad).all()
        np.testing.assert_allclose(scores.grad, 0.0, atol=1e-12)

    @pytest.mark.parametrize("softmax", SOFTMAXES, ids=["csr", "naive"])
    @pytest.mark.parametrize("heads", [None, 2], ids=["vector", "multihead"])
    def test_all_segments_empty(self, softmax, heads):
        shape = (0,) if heads is None else (0, heads)
        scores = Tensor(np.zeros(shape), requires_grad=True)
        ids = np.zeros(0, dtype=np.int64)
        out = softmax(scores, ids, 3)
        assert out.shape == shape
        assert np.isfinite(out.data).all()
        out.sum().backward()
        assert scores.grad is None or np.isfinite(scores.grad).all()


@st.composite
def gather_problems(draw):
    num_rows = draw(st.integers(1, 8))
    num_cols = draw(st.integers(1, 4))
    num_gathered = draw(st.integers(0, 20))
    index = np.array(
        draw(
            st.lists(
                st.integers(0, num_rows - 1),
                min_size=num_gathered,
                max_size=num_gathered,
            )
        ),
        dtype=np.int64,
    )
    flat = draw(
        st.lists(finite, min_size=num_rows * num_cols, max_size=num_rows * num_cols)
    )
    x = np.array(flat, dtype=np.float64).reshape(num_rows, num_cols)
    return x, index


@settings(deadline=None, max_examples=80)
@given(problem=gather_problems())
@example(problem=(np.array([[1.0, 2.0]]), np.array([0, 0, 0], dtype=np.int64)))
def test_gather_rows_matches_reference(problem):
    assert_paths_agree(gather_rows, *problem)
