"""Tests for t-SNE, sensitivity sweeps and mask-dynamics diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    SweepResult,
    ascii_heatmap,
    pca,
    snapshot_stats,
    summarize_snapshots,
    sweep_alpha_beta,
    sweep_lr_khop,
    tsne,
)


class TestPCA:
    def test_output_shape(self, rng):
        assert pca(rng.normal(size=(20, 8)), components=2).shape == (20, 2)

    def test_first_component_captures_spread(self, rng):
        x = rng.normal(size=(50, 3))
        x[:, 0] *= 100
        projected = pca(x, components=1)
        assert np.corrcoef(projected[:, 0], x[:, 0] - x[:, 0].mean())[0, 1] ** 2 > 0.99


class TestTsne:
    def _blobs(self, rng=None, separation=12.0):
        # Own generator: the session rng's state depends on test order.
        local = np.random.default_rng(42)
        a = local.normal(size=(25, 6))
        b = local.normal(size=(25, 6)) + separation
        return np.vstack([a, b]), np.array([0] * 25 + [1] * 25)

    def test_output_shape(self, rng):
        x, _ = self._blobs(rng)
        assert tsne(x, iterations=50, seed=0).shape == (50, 2)

    def test_separated_blobs_stay_separated(self, rng):
        x, labels = self._blobs(rng)
        projected = tsne(x, iterations=150, seed=0)
        # 1-NN accuracy in the projection: well-separated input blobs must
        # stay locally pure after the embedding.
        from repro.metrics.clustering import _pairwise_distances

        distances = _pairwise_distances(projected)
        np.fill_diagonal(distances, np.inf)
        nearest = distances.argmin(axis=1)
        assert (labels[nearest] == labels).mean() > 0.9

    def test_deterministic(self, rng):
        x, _ = self._blobs(rng)
        a = tsne(x, iterations=30, seed=3)
        b = tsne(x, iterations=30, seed=3)
        np.testing.assert_allclose(a, b)

    def test_rejects_oversized_input(self, rng):
        with pytest.raises(ValueError):
            tsne(rng.normal(size=(50, 2)), max_points=10)

    def test_small_n_clamps_perplexity(self, rng):
        out = tsne(rng.normal(size=(6, 3)), perplexity=50.0, iterations=20, seed=0)
        assert np.isfinite(out).all()


class TestSweeps:
    def test_sweep_result_best(self):
        result = SweepResult("a", "b", [1, 2], [3, 4], np.array([[0.1, 0.9], [0.2, 0.3]]))
        assert result.best() == (1, 4, pytest.approx(0.9))

    def test_render_contains_values(self):
        result = SweepResult("a", "b", [1], [2], np.array([[0.5]]))
        assert "0.500" in result.render()

    def test_lr_khop_sweep_shapes(self, small_cora):
        from repro.core import fast_config

        config = fast_config("gcn", explainable_epochs=3, predictive_epochs=1)
        sweep = sweep_lr_khop(small_cora, config, learning_rates=(0.01,), k_values=(1, 2))
        assert sweep.accuracy.shape == (1, 2)
        assert (sweep.accuracy >= 0).all()

    def test_alpha_beta_sweep_shapes(self, small_cora):
        from repro.core import fast_config

        config = fast_config("gcn", explainable_epochs=3, predictive_epochs=1)
        sweep = sweep_alpha_beta(small_cora, config, alphas=(0.5,), betas=(0.2, 0.8))
        assert sweep.accuracy.shape == (1, 2)


class TestMaskDynamics:
    def test_snapshot_stats(self):
        mask = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        stats = snapshot_stats(5, mask)
        assert stats.epoch == 5
        assert stats.polarization == pytest.approx(4 / 5)

    def test_summarize_orders_epochs(self):
        snapshots = {
            10: (np.ones((2, 2)) * 0.5, np.ones(4) * 0.5),
            0: (np.zeros((2, 2)), np.zeros(4)),
        }
        summary = summarize_snapshots(snapshots)
        assert list(summary["feature"].keys()) == [0, 10]

    def test_ascii_heatmap_dimensions(self):
        art = ascii_heatmap(np.random.default_rng(0).random((100, 300)), max_rows=10, max_cols=50)
        lines = art.split("\n")
        assert len(lines) <= 11
        assert all(len(line) <= 60 for line in lines)

    def test_ascii_heatmap_constant_input(self):
        art = ascii_heatmap(np.full((3, 3), 0.5))
        assert isinstance(art, str)
