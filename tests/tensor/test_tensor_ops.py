"""Unit tests for the core Tensor arithmetic and autograd mechanics."""

import numpy as np
import pytest

from repro.tensor import Tensor, as_tensor, no_grad, ones, unbroadcast, zeros
from tests.conftest import numeric_gradient


class TestConstruction:
    def test_wraps_array(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_requires_grad_default_off(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        assert as_tensor(3.0).item() == 3.0

    def test_zeros_ones(self):
        assert zeros(2, 3).data.sum() == 0
        assert ones(2, 3).data.sum() == 6

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12


class TestArithmetic:
    def test_add_forward(self):
        c = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(c.data, [4.0, 6.0])

    def test_add_gradient_accumulates_to_both(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_radd_scalar(self):
        a = Tensor([1.0], requires_grad=True)
        (2.0 + a).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1.0])

    def test_mul_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_gradient(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1.0 / 3.0])
        np.testing.assert_allclose(b.grad, [-6.0 / 9.0])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_rsub(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_pow_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3, 4)

    def test_matmul_numeric_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def run():
            return ((a @ b) ** 2).sum()

        run().backward()
        expected_a = numeric_gradient(lambda: run().item(), a.data)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-6)


class TestBroadcasting:
    def test_unbroadcast_sums_new_axes(self):
        grad = np.ones((4, 3))
        reduced = unbroadcast(grad, (3,))
        np.testing.assert_allclose(reduced, [4.0, 4.0, 4.0])

    def test_unbroadcast_sums_stretched_axes(self):
        grad = np.ones((4, 3))
        reduced = unbroadcast(grad, (4, 1))
        np.testing.assert_allclose(reduced, np.full((4, 1), 3.0))

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_mul_gradient_numeric(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)

        def run():
            return ((a * b) ** 2).sum()

        run().backward()
        np.testing.assert_allclose(
            b.grad, numeric_gradient(lambda: run().item(), b.data), atol=1e-6
        )


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.T
        assert out.shape == (3, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_transpose_with_axes(self):
        a = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        assert a.transpose(2, 0, 1).shape == (4, 2, 3)

    def test_getitem_rows(self):
        a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        a[np.array([0, 2, 2])].sum().backward()
        np.testing.assert_allclose(a.grad[:, 0], [1.0, 0.0, 2.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 0.25))

    def test_max_global(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_splits_ties(self):
        a = Tensor([5.0, 5.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [1.0, 0.0]])


class TestElementwiseMath:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "abs"])
    def test_numeric_gradients(self, op, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)

        def run():
            return getattr(a, op)().sum()

        run().backward()
        np.testing.assert_allclose(
            a.grad, numeric_gradient(lambda: run().item(), a.data), atol=1e-5
        )

    def test_clip_blocks_gradient_outside(self):
        a = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_abs_sign(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.abs().sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, 1.0])


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_grad(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_backward_shape_mismatch(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward(np.ones(3))

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [7.0])

    def test_reused_tensor_in_two_ops(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [4.0])

    def test_deep_chain_does_not_recurse(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 1.0
        x.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1.0])

    def test_no_grad_blocks_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad

    def test_no_grad_restores_state(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (a * 2).requires_grad  # the inner exit kept it off
        assert (a * 2).requires_grad

    def test_intermediate_grads_released(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2
        c = b * 3
        c.backward(np.array([1.0]))
        assert b.grad is None
        assert a.grad is not None

    def test_second_backward_accumulates_leaf_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward(np.array([1.0]))
        (a * 2).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward(np.array([1.0]))
        a.zero_grad()
        assert a.grad is None
