"""Algebraic property tests for the autograd engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import Tensor, functional as F

settings.register_profile("algebra", max_examples=20, deadline=None)
settings.load_profile("algebra")

small_floats = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestForwardAlgebra:
    @given(
        arrays(np.float64, (3, 4), elements=small_floats),
        arrays(np.float64, (4, 2), elements=small_floats),
        arrays(np.float64, (2, 5), elements=small_floats),
    )
    def test_matmul_associative(self, a, b, c):
        left = ((Tensor(a) @ Tensor(b)) @ Tensor(c)).data
        right = (Tensor(a) @ (Tensor(b) @ Tensor(c))).data
        np.testing.assert_allclose(left, right, atol=1e-8)

    @given(
        arrays(np.float64, (3, 3), elements=small_floats),
        arrays(np.float64, (3, 3), elements=small_floats),
    )
    def test_addition_commutative(self, a, b):
        np.testing.assert_allclose(
            (Tensor(a) + Tensor(b)).data, (Tensor(b) + Tensor(a)).data
        )

    @given(arrays(np.float64, (4, 3), elements=small_floats))
    def test_double_transpose_identity(self, a):
        np.testing.assert_allclose(Tensor(a).T.T.data, a)

    @given(arrays(np.float64, (4,), elements=st.floats(0.1, 10)))
    def test_exp_log_inverse(self, a):
        np.testing.assert_allclose(Tensor(a).log().exp().data, a, rtol=1e-10)

    @given(arrays(np.float64, (5,), elements=small_floats))
    def test_relu_idempotent(self, a):
        once = F.relu(Tensor(a)).data
        twice = F.relu(F.relu(Tensor(a))).data
        np.testing.assert_allclose(once, twice)

    @given(arrays(np.float64, (5,), elements=small_floats))
    def test_sigmoid_symmetry(self, a):
        """sigmoid(-x) == 1 - sigmoid(x)."""
        left = F.sigmoid(Tensor(-a)).data
        right = 1.0 - F.sigmoid(Tensor(a)).data
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestGradientAlgebra:
    @given(
        arrays(np.float64, (3, 3), elements=small_floats),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_scalar_multiple_scales_gradient(self, a, c):
        """grad of (c*x).sum() is c * grad of x.sum()."""
        x1 = Tensor(a, requires_grad=True)
        (x1 * c).sum().backward()
        np.testing.assert_allclose(x1.grad, np.full_like(a, c), atol=1e-12)

    @given(arrays(np.float64, (4,), elements=small_floats))
    def test_sum_of_parts_equals_whole(self, a):
        """Gradient distributes over slicing + concatenation."""
        x = Tensor(a, requires_grad=True)
        first = x[np.array([0, 1])]
        second = x[np.array([2, 3])]
        F.concatenate([first, second], axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(4))

    @given(
        arrays(np.float64, (3, 2), elements=small_floats),
        arrays(np.float64, (3, 2), elements=small_floats),
    )
    def test_product_rule(self, a, b):
        """d/da sum(a*b) == b exactly."""
        x = Tensor(a, requires_grad=True)
        y = Tensor(b)
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, b)

    @given(arrays(np.float64, (3, 4), elements=small_floats))
    def test_chain_through_reshape_preserves_gradient(self, a):
        x = Tensor(a, requires_grad=True)
        (x.reshape(4, 3).reshape(12) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(a, 2.0))
