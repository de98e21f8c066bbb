"""Unit tests for classification, explanation and clustering metrics."""

import numpy as np
import pytest

from repro.metrics import (
    accuracy,
    calinski_harabasz_score,
    fidelity_plus,
    logits_to_predictions,
    roc_auc_score,
    silhouette_score,
)


class TestClassification:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_with_mask(self):
        out = accuracy(np.array([1, 0, 1]), np.array([1, 1, 1]),
                       mask=np.array([True, False, True]))
        assert out == 1.0

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2]), np.array([1]))

    def test_accuracy_empty_mask(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1]), mask=np.array([False]))

    def test_logits_to_predictions(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        np.testing.assert_array_equal(logits_to_predictions(logits), [1, 0])


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc_score(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc_score(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_random_ties_give_half(self):
        assert roc_auc_score(np.array([0, 1, 0, 1]), np.zeros(4)) == 0.5

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=50).astype(bool)
        labels[0], labels[1] = True, False
        scores = rng.normal(size=50)
        positives = scores[labels]
        negatives = scores[~labels]
        wins = sum((p > n) + 0.5 * (p == n) for p in positives for n in negatives)
        expected = wins / (len(positives) * len(negatives))
        assert roc_auc_score(labels, scores) == pytest.approx(expected)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(4), np.arange(4.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(3), np.arange(4.0))

    @staticmethod
    def _reference_auc(labels, scores):
        """The pre-vectorisation midrank loop, kept as a differential oracle."""
        labels = np.asarray(labels).astype(bool)
        scores = np.asarray(scores, dtype=np.float64)
        order = np.argsort(scores, kind="stable")
        ranks = np.empty(len(scores))
        i = 0
        while i < len(scores):
            j = i
            while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
                j += 1
            ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
        return float(u / (n_pos * n_neg))

    @pytest.mark.parametrize("tie_levels", [None, 2, 5])
    def test_differential_against_midrank_loop(self, tie_levels):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1  # both classes present
            if tie_levels is None:
                scores = rng.normal(size=n)
            else:
                scores = rng.integers(0, tie_levels, size=n).astype(np.float64)
            assert roc_auc_score(labels, scores) == pytest.approx(
                self._reference_auc(labels, scores), abs=1e-12
            )


class TestFidelity:
    def test_removing_used_features_drops_accuracy(self):
        # Predictor keys entirely on feature 0.
        def predict(features):
            return (features[:, 0] > 0.5).astype(int)

        features = np.zeros((4, 3))
        features[:2, 0] = 1.0
        labels = np.array([1, 1, 0, 0])
        importance = np.zeros_like(features)
        importance[:, 0] = 1.0
        score = fidelity_plus(predict, features, labels, importance, top_k=1)
        assert score == 0.5  # the two class-1 nodes flip

    def test_unimportant_features_score_zero(self):
        def predict(features):
            return (features[:, 0] > 0.5).astype(int)

        features = np.zeros((4, 3))
        features[:2, 0] = 1.0
        labels = np.array([1, 1, 0, 0])
        importance = np.zeros_like(features)
        importance[:, 2] = 1.0  # wrongly marks an unused feature
        assert fidelity_plus(predict, features, labels, importance, top_k=1) == 0.0

    def test_mask_restricts_evaluation(self):
        def predict(features):
            return (features[:, 0] > 0.5).astype(int)

        features = np.zeros((4, 2))
        features[:2, 0] = 1.0
        labels = np.array([1, 1, 0, 0])
        importance = np.zeros_like(features)
        importance[:, 0] = 1.0
        score = fidelity_plus(
            predict, features, labels, importance, top_k=1,
            mask=np.array([True, False, False, False]),
        )
        assert score == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            fidelity_plus(lambda f: f[:, 0], np.ones((2, 2)), np.ones(2), np.ones((3, 2)))

    def test_top_k_beyond_feature_count_removes_everything(self):
        def predict(features):
            return (features[:, 0] > 0.5).astype(int)

        features = np.zeros((4, 3))
        features[:2, 0] = 1.0
        labels = np.array([1, 1, 0, 0])
        importance = np.ones_like(features)
        # Regression: top_k > F used to raise an IndexError on fancy indexing.
        oversized = fidelity_plus(predict, features, labels, importance, top_k=8)
        assert oversized == fidelity_plus(
            predict, features, labels, importance, top_k=3
        )


class TestClustering:
    def _blobs(self, separation: float):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(30, 4))
        b = rng.normal(size=(30, 4)) + separation
        return np.vstack([a, b]), np.array([0] * 30 + [1] * 30)

    def test_silhouette_higher_for_separated_clusters(self):
        tight, labels = self._blobs(10.0)
        loose, _ = self._blobs(0.5)
        assert silhouette_score(tight, labels) > silhouette_score(loose, labels)

    def test_silhouette_range(self):
        x, labels = self._blobs(3.0)
        assert -1.0 <= silhouette_score(x, labels) <= 1.0

    def test_silhouette_requires_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette_score(np.ones((5, 2)), np.zeros(5))

    def test_singleton_cluster_contributes_zero(self):
        x = np.array([[0.0], [10.0], [10.1]])
        labels = np.array([0, 1, 1])
        score = silhouette_score(x, labels)
        assert np.isfinite(score)

    def test_calinski_harabasz_higher_for_separated(self):
        tight, labels = self._blobs(10.0)
        loose, _ = self._blobs(0.5)
        assert calinski_harabasz_score(tight, labels) > calinski_harabasz_score(loose, labels)

    def test_calinski_known_value(self):
        # Two perfectly separated single-point-ish clusters.
        x = np.array([[0.0], [0.0], [10.0], [10.0]])
        labels = np.array([0, 0, 1, 1])
        assert calinski_harabasz_score(x, labels) == float("inf")

    def test_calinski_requires_valid_cluster_count(self):
        with pytest.raises(ValueError):
            calinski_harabasz_score(np.ones((3, 1)), np.array([0, 1, 2]))
