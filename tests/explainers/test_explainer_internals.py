"""Unit tests for explainer-internal math helpers."""

import numpy as np

from repro.explainers.gnn_explainer import _bernoulli_entropy
from repro.explainers.pg_explainer import _entropy
from repro.tensor import Tensor


class TestEntropyHelpers:
    def test_maximal_at_half(self):
        half = _bernoulli_entropy(Tensor(np.array([0.5]))).item()
        quarter = _bernoulli_entropy(Tensor(np.array([0.25]))).item()
        assert half > quarter
        np.testing.assert_allclose(half, np.log(2.0), atol=1e-9)

    def test_zero_at_extremes(self):
        extreme = _bernoulli_entropy(Tensor(np.array([1e-12, 1.0 - 1e-12]))).item()
        assert extreme < 1e-6

    def test_pg_entropy_matches_gnnx_entropy(self, rng):
        values = Tensor(rng.uniform(0.05, 0.95, size=10))
        np.testing.assert_allclose(
            _entropy(values).item(), _bernoulli_entropy(values).item(), atol=1e-12
        )

    def test_entropy_gradient_pushes_towards_extremes(self):
        p = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        _bernoulli_entropy(p).backward(np.array(1.0))
        # d/dp -[p log p + (1-p) log(1-p)] = log((1-p)/p): positive below
        # 0.5, negative above — minimising entropy pushes p to the extremes.
        assert p.grad[0] > 0
        assert p.grad[1] < 0


class TestConcreteSampling:
    def test_samples_in_unit_interval(self, small_cora, rng):
        from repro.explainers import PGExplainer
        from repro.models import train_node_classifier

        classifier = train_node_classifier(small_cora, "gcn", hidden=16, epochs=5, seed=0)
        explainer = PGExplainer(classifier.model, small_cora, epochs=2, seed=0)
        logits = explainer._edge_logits()
        for temperature in (5.0, 1.0, 0.2):
            sample = explainer._concrete_sample(logits, temperature)
            assert (sample.data > 0).all() and (sample.data < 1).all()

    def test_lower_temperature_sharper(self, small_cora):
        from repro.explainers import PGExplainer
        from repro.models import train_node_classifier

        classifier = train_node_classifier(small_cora, "gcn", hidden=16, epochs=5, seed=0)
        explainer = PGExplainer(classifier.model, small_cora, epochs=2, seed=0)
        logits = explainer._edge_logits()
        soft = explainer._concrete_sample(logits, 10.0).data
        hard = explainer._concrete_sample(logits, 0.1).data
        # Sharper samples sit closer to {0, 1}.
        assert np.abs(hard - 0.5).mean() > np.abs(soft - 0.5).mean()
