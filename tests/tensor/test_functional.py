"""Unit tests for activations, structural ops and losses."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from tests.conftest import numeric_gradient
from tests.oracles import softmax


class TestActivations:
    @pytest.mark.parametrize(
        "fn",
        [F.relu, F.sigmoid, F.tanh, F.elu, F.leaky_relu],
        ids=["relu", "sigmoid", "tanh", "elu", "leaky_relu"],
    )
    def test_numeric_gradient(self, fn, rng):
        a = Tensor(rng.normal(size=(4, 3)) + 0.05, requires_grad=True)

        def run():
            return (fn(a) ** 2).sum()

        run().backward()
        np.testing.assert_allclose(
            a.grad, numeric_gradient(lambda: run().item(), a.data), atol=1e-5
        )

    def test_relu_zeroes_negative(self):
        out = F.relu(Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_leaky_relu_slope(self):
        out = F.leaky_relu(Tensor([-10.0]))
        np.testing.assert_allclose(out.data, [-2.0])

    def test_sigmoid_range(self, rng):
        out = F.sigmoid(Tensor(rng.normal(size=100) * 10))
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_elu_continuity_at_zero(self):
        eps = 1e-7
        lo = F.elu(Tensor([-eps])).data[0]
        hi = F.elu(Tensor([eps])).data[0]
        assert abs(hi - lo) < 1e-5


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.log_softmax(Tensor(rng.normal(size=(5, 7))), axis=1)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(5))

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 4))
        a = F.log_softmax(Tensor(x)).data
        b = F.log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(softmax(x).data), atol=1e-12
        )

    def test_softmax_numeric_gradient(self, rng):
        """The reference softmax's own adjoint."""
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        weights = rng.normal(size=(3, 4))

        def run():
            return (softmax(a, axis=1) * weights).sum()

        run().backward()
        np.testing.assert_allclose(
            a.grad, numeric_gradient(lambda: run().item(), a.data), atol=1e-6
        )

    def test_log_softmax_numeric_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        weights = rng.normal(size=(3, 4))

        def run():
            return (F.log_softmax(a, axis=1) * weights).sum()

        run().backward()
        np.testing.assert_allclose(
            a.grad, numeric_gradient(lambda: run().item(), a.data), atol=1e-6
        )

    def test_extreme_values_stable(self):
        out = F.log_softmax(Tensor([[1000.0, -1000.0]]))
        assert np.isfinite(out.data).all()


class TestStructuralOps:
    def test_concatenate_forward_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = F.concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (3, 2)

    def test_concatenate_axis1(self):
        a = Tensor(np.zeros((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert F.concatenate([a, b], axis=1).shape == (2, 5)

    def test_stack_new_axis(self):
        a, b = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0], requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_stack_axis1(self):
        columns = [Tensor(np.arange(3.0)) for _ in range(4)]
        assert F.stack(columns, axis=1).shape == (3, 4)

    def test_where_routes_gradients(self):
        condition = np.array([True, False])
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        F.where(condition, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_maximum_prefers_a_on_tie(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        F.maximum(a, b).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [0.0])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_probability_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.5, training=True)

    def test_gradient_respects_mask(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(1))
        out.sum().backward()
        dropped = out.data == 0
        assert (x.grad[dropped] == 0).all()
        assert (x.grad[~dropped] == 2.0).all()


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor([[2.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 1])
        expected = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
        assert abs(F.cross_entropy(logits, labels).item() - expected) < 1e-9

    def test_cross_entropy_mask_selects_rows(self):
        logits = Tensor([[10.0, 0.0], [0.0, 10.0], [10.0, 0.0]])
        labels = np.array([0, 0, 0])
        masked = F.cross_entropy(logits, labels, mask=np.array([True, False, True]))
        assert masked.item() < 0.01

    def test_cross_entropy_index_mask(self):
        logits = Tensor(np.zeros((4, 3)))
        labels = np.array([0, 1, 2, 0])
        out = F.cross_entropy(logits, labels, mask=np.array([1, 3]))
        assert abs(out.item() - np.log(3.0)) < 1e-9

    def test_cross_entropy_gradient(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 1, 0])

        def run():
            return F.cross_entropy(logits, labels)

        run().backward()
        np.testing.assert_allclose(
            logits.grad, numeric_gradient(lambda: run().item(), logits.data), atol=1e-6
        )

    def test_nll_consistent_with_cross_entropy(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        via_nll = -log_probs[np.arange(4), labels].mean()
        via_ce = F.cross_entropy(Tensor(logits), labels).item()
        assert abs(via_nll - via_ce) < 1e-9

    def test_l1_loss(self):
        pred = Tensor([1.0, 2.0, 3.0])
        assert abs(F.l1_loss(pred, np.array([0.0, 2.0, 5.0])).item() - 1.0) < 1e-9

    def test_pairwise_l2(self):
        a = Tensor([[0.0, 0.0], [1.0, 1.0]])
        b = Tensor([[3.0, 4.0], [1.0, 1.0]])
        np.testing.assert_allclose(F.pairwise_l2(a, b).data, [5.0, 0.0], atol=1e-5)

    def test_triplet_zero_when_margin_satisfied(self):
        anchor = Tensor([[0.0, 0.0]])
        positive = Tensor([[0.1, 0.0]])
        negative = Tensor([[100.0, 0.0]])
        assert F.triplet_margin_loss(anchor, positive, negative, margin=1.0).item() == 0.0

    def test_triplet_active_when_violated(self):
        anchor = Tensor([[0.0, 0.0]])
        positive = Tensor([[2.0, 0.0]])
        negative = Tensor([[1.0, 0.0]])
        loss = F.triplet_margin_loss(anchor, positive, negative, margin=1.0)
        assert abs(loss.item() - 2.0) < 1e-6

    def test_triplet_gradient(self, rng):
        anchor = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        positive = Tensor(rng.normal(size=(4, 3)))
        negative = Tensor(rng.normal(size=(4, 3)))

        def run():
            return F.triplet_margin_loss(anchor, positive, negative, margin=1.0)

        run().backward()
        np.testing.assert_allclose(
            anchor.grad, numeric_gradient(lambda: run().item(), anchor.data), atol=1e-5
        )
