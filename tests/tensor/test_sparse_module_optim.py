"""Unit tests for edge_spmm, the Module system, and the optimisers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import (
    MLP,
    Adam,
    Linear,
    Module,
    Tensor,
    edge_spmm,
    functional as F,
)
from tests.conftest import numeric_gradient


def _edges(matrix):
    """``(edge_index, weight)`` of a sparse matrix: ``A[v, u]`` is edge u→v."""
    coo = matrix.tocoo()
    return np.vstack([coo.col, coo.row]).astype(np.int64), coo.data


class TestSpmm:
    def test_matches_dense_product(self, rng):
        matrix = sp.random(6, 5, density=0.4, random_state=0, format="csr")
        edge_index, weight = _edges(matrix)
        x = Tensor(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(
            edge_spmm(x, weight, edge_index, 6).data, matrix.toarray() @ x.data
        )

    def test_gradient_is_transpose_product(self, rng):
        matrix = sp.random(6, 5, density=0.5, random_state=1, format="csr")
        edge_index, weight = _edges(matrix)
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)

        def run():
            return (edge_spmm(x, weight, edge_index, 6) ** 2).sum()

        run().backward()
        np.testing.assert_allclose(
            x.grad, numeric_gradient(lambda: run().item(), x.data), atol=1e-6
        )
        grad = 2 * (matrix @ x.data)
        np.testing.assert_allclose(x.grad, matrix.T @ grad)

    def test_shape_mismatch_raises(self):
        edge_index, weight = _edges(sp.identity(3, format="csr"))
        with pytest.raises(ValueError):
            edge_spmm(Tensor(np.ones((2, 2))), weight, edge_index, 3)
        with pytest.raises(ValueError):
            edge_spmm(Tensor(np.ones((3, 2))), weight[:2], edge_index, 3)


class TestModule:
    def test_parameter_registration(self, rng):
        layer = Linear(3, 2, rng=rng)
        names = {name for name, _ in layer.named_parameters()}
        assert names == {"weight", "bias"}

    def test_nested_module_parameters(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.first = Linear(3, 4, rng=rng)
                self.second = Linear(4, 2, rng=rng)

        net = Net()
        assert len(net.parameters()) == 4
        assert sum(param.size for param in net.parameters()) == 3 * 4 + 4 + 4 * 2 + 2

    def test_train_eval_propagates(self, rng):
        net = MLP((2, 4, 2), rng=rng)
        net.eval()
        assert not any(layer.training for layer in net.linears)
        net.train()
        assert all(layer.training for layer in net.linears)

    def test_zero_grad_clears(self, rng):
        layer = Linear(2, 1, rng=rng)
        layer(Tensor(np.ones((3, 2)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        a = Linear(3, 2, rng=np.random.default_rng(0))
        b = Linear(3, 2, rng=np.random.default_rng(1))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_rejects_mismatch(self, rng):
        layer = Linear(3, 2, rng=rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((3, 2))})

    def test_load_state_dict_rejects_bad_shape(self, rng):
        layer = Linear(3, 2, rng=rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)


class TestLinearAndMLP:
    def test_linear_forward(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_linear_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_mlp_shapes(self, rng):
        mlp = MLP((5, 8, 3), rng=rng)
        assert mlp(Tensor(np.zeros((2, 5)))).shape == (2, 3)

    def test_mlp_final_activation(self, rng):
        mlp = MLP((4, 4, 2), final_activation=F.sigmoid, rng=rng)
        out = mlp(Tensor(rng.normal(size=(3, 4)) * 10))
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_mlp_requires_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP((4,), rng=rng)

    def test_xavier_bounds(self, rng):
        layer = Linear(100, 100, rng=rng)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound


class TestOptimizers:
    @staticmethod
    def _quadratic_step(optimizer, parameter):
        optimizer.zero_grad()
        loss = (parameter * parameter).sum()
        loss.backward()
        optimizer.step()
        return loss.item()

    def test_adam_converges(self):
        parameter = Tensor(np.array([3.0, -4.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(200):
            self._quadratic_step(optimizer, parameter)
        assert np.abs(parameter.data).max() < 1e-2

    def test_weight_decay_shrinks_parameters(self):
        parameter = Tensor([1.0], requires_grad=True)
        optimizer = Adam([parameter], lr=0.1, weight_decay=0.5)
        optimizer.zero_grad()
        parameter.grad = np.zeros(1)
        optimizer.step()
        assert parameter.data[0] < 1.0

    def test_skips_parameters_without_grad(self):
        parameter = Tensor([1.0], requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        optimizer.step()  # no backward happened — must not crash
        np.testing.assert_allclose(parameter.data, [1.0])

    def test_rejects_empty_parameter_list(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0])], lr=0.1)  # requires_grad is False
