"""Tests for parameter initialisers and remaining tensor surface."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    xavier_uniform,
    xavier_uniform_shape,
    zeros_init,
)


class TestInitializers:
    def test_xavier_uniform_shape_and_grad_flag(self):
        rng = np.random.default_rng(0)
        weight = xavier_uniform(30, 50, rng)
        assert weight.shape == (30, 50)
        assert weight.requires_grad

    def test_xavier_bound(self):
        rng = np.random.default_rng(0)
        fan_in, fan_out = 40, 60
        weight = xavier_uniform(fan_in, fan_out, rng)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(weight.data).max() <= bound

    def test_xavier_gain_scales_bound(self):
        rng = np.random.default_rng(0)
        small = xavier_uniform(40, 40, np.random.default_rng(1), gain=0.5)
        large = xavier_uniform(40, 40, np.random.default_rng(1), gain=2.0)
        assert np.abs(large.data).max() > np.abs(small.data).max()

    def test_xavier_shape_arbitrary_dims(self):
        rng = np.random.default_rng(0)
        weight = xavier_uniform_shape((3, 5, 7), rng)
        assert weight.shape == (3, 5, 7)

    def test_xavier_shape_1d(self):
        rng = np.random.default_rng(0)
        weight = xavier_uniform_shape((6,), rng)
        assert weight.shape == (6,)

    def test_zeros_init(self):
        bias = zeros_init((4,))
        assert bias.requires_grad
        np.testing.assert_allclose(bias.data, 0.0)

    def test_mean_near_zero(self):
        rng = np.random.default_rng(0)
        weight = xavier_uniform(200, 200, rng)
        assert abs(weight.data.mean()) < 0.005


class TestTensorRemaining:
    def test_item_requires_scalar(self):
        with pytest.raises(Exception):
            Tensor([1.0, 2.0]).item()

    def test_copy_is_independent(self):
        original = Tensor([1.0, 2.0])
        duplicate = original.copy()
        duplicate.data[0] = 99.0
        assert original.data[0] == 1.0

    def test_named_tensor_repr(self):
        tensor = Tensor([1.0], name="weights")
        assert "weights" in repr(tensor)

    def test_mean_multi_axis(self):
        tensor = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = tensor.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full((2, 3, 4), 1.0 / 8.0))

    def test_clip_one_sided(self):
        tensor = Tensor([-5.0, 5.0], requires_grad=True)
        tensor.clip(low=0.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 1.0])

    def test_matmul_matrix_vector(self):
        matrix = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        vector = Tensor(np.ones(3), requires_grad=True)
        out = matrix @ vector
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(vector.grad, matrix.data.sum(axis=0))

    def test_matmul_vector_matrix(self):
        vector = Tensor(np.ones(2), requires_grad=True)
        matrix = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = vector @ matrix
        assert out.shape == (3,)
        out.sum().backward()
        np.testing.assert_allclose(matrix.grad, np.ones((2, 3)))
