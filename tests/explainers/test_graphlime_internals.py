"""Unit tests for GraphLIME's numerical building blocks."""

import numpy as np

from repro.explainers.graphlime import _center, _nonnegative_lasso, _rbf


class TestKernelHelpers:
    def test_center_makes_rows_and_columns_zero_mean(self, rng):
        kernel = rng.random((6, 6))
        kernel = kernel + kernel.T
        centered = _center(kernel)
        np.testing.assert_allclose(centered.sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(centered.sum(axis=1), 0.0, atol=1e-10)

    def test_center_idempotent(self, rng):
        kernel = rng.random((5, 5))
        once = _center(kernel)
        twice = _center(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_rbf_diagonal_is_one(self, rng):
        values = rng.normal(size=8)
        kernel = _rbf(values, gamma=0.7)
        np.testing.assert_allclose(np.diag(kernel), 1.0)

    def test_rbf_decreases_with_distance(self):
        kernel = _rbf(np.array([0.0, 1.0, 10.0]), gamma=1.0)
        assert kernel[0, 1] > kernel[0, 2]

    def test_rbf_symmetric(self, rng):
        kernel = _rbf(rng.normal(size=6), gamma=0.5)
        np.testing.assert_allclose(kernel, kernel.T)


class TestNonnegativeLasso:
    def test_recovers_sparse_nonnegative_signal(self, rng):
        n, p = 40, 8
        design = rng.normal(size=(n, p))
        true_beta = np.zeros(p)
        true_beta[2] = 1.5
        true_beta[5] = 0.7
        response = design @ true_beta
        beta = _nonnegative_lasso(design, response, rho=0.01)
        assert beta[2] > 1.0
        assert beta[5] > 0.3
        inactive = [i for i in range(p) if i not in (2, 5)]
        assert np.abs(beta[inactive]).max() < 0.2

    def test_never_negative(self, rng):
        design = rng.normal(size=(20, 5))
        response = design @ np.array([-2.0, 0.0, 1.0, 0.0, 0.0])
        beta = _nonnegative_lasso(design, response, rho=0.1)
        assert (beta >= 0).all()

    def test_large_penalty_kills_everything(self, rng):
        design = rng.normal(size=(20, 5))
        response = design @ np.ones(5) * 0.01
        beta = _nonnegative_lasso(design, response, rho=1e6)
        np.testing.assert_allclose(beta, 0.0)

    def test_zero_columns_are_skipped(self, rng):
        design = rng.normal(size=(20, 3))
        design[:, 1] = 0.0
        response = design[:, 0].copy()
        beta = _nonnegative_lasso(design, response, rho=0.01)
        assert beta[1] == 0.0
        assert np.isfinite(beta).all()
