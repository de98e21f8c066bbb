"""Integration tests for the two-phase SES trainer."""

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config


@pytest.fixture(scope="module")
def trained(small_cora):
    config = fast_config("gcn", explainable_epochs=30, predictive_epochs=5, seed=0)
    trainer = SESTrainer(small_cora, config)
    result = trainer.fit(snapshot_epochs=(0, 29))
    return trainer, result


class TestTraining:
    def test_requires_labels_and_masks(self, small_cora):
        from repro.graph import Graph

        bare = Graph(adjacency=small_cora.adjacency, features=small_cora.features)
        with pytest.raises(ValueError):
            SESTrainer(bare, fast_config())

    def test_loss_decreases(self, trained):
        _, result = trained
        losses = result.history.phase1_loss
        assert losses[-1] < losses[0]

    def test_beats_majority_class(self, trained, small_cora):
        _, result = trained
        majority = max(np.bincount(small_cora.labels)) / small_cora.num_nodes
        assert result.test_accuracy > majority

    def test_history_lengths(self, trained):
        _, result = trained
        assert len(result.history.phase1_loss) == 30
        assert len(result.history.phase2_loss) == 5
        assert len(result.history.phase1_val_accuracy) == 30

    def test_mask_snapshots_recorded(self, trained):
        _, result = trained
        assert set(result.history.mask_snapshots) == {0, 29}
        feature_mask, structure_mask = result.history.mask_snapshots[0]
        assert feature_mask.ndim == 2
        assert structure_mask.ndim == 1

    def test_masks_polarize_during_training(self, trained):
        _, result = trained
        _, early = result.history.mask_snapshots[0]
        _, late = result.history.mask_snapshots[29]
        assert late.std() > early.std()

    def test_timings_recorded(self, trained):
        _, result = trained
        assert set(result.timings) == {"explainable", "pairs", "predictive"}
        assert result.timings["explainable"] > 0
        assert result.training_time >= result.timings["explainable"]


class TestExplanations:
    def test_shapes(self, trained, small_cora):
        _, result = trained
        explanations = result.explanations
        assert explanations.feature_mask.shape == small_cora.features.shape
        assert explanations.feature_explanation.shape == small_cora.features.shape
        assert explanations.structure_mask.shape == (
            small_cora.num_nodes, small_cora.num_nodes
        )

    def test_feature_explanation_is_product(self, trained, small_cora):
        _, result = trained
        explanations = result.explanations
        np.testing.assert_allclose(
            explanations.feature_explanation,
            explanations.feature_mask * small_cora.features,
        )

    def test_structure_mask_covers_khop(self, trained):
        trainer, result = trained
        assert result.explanations.structure_mask.nnz == trainer.khop_edges.shape[1]

    def test_edge_scores_in_unit_interval(self, trained):
        _, result = trained
        scores = np.array(list(result.explanations.edge_scores().values()))
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_ranked_neighbors_sorted(self, trained):
        _, result = trained
        ranked = result.explanations.ranked_neighbors(0)
        weights = [w for _, w in ranked]
        assert weights == sorted(weights, reverse=True)

    def test_top_features_count(self, trained):
        _, result = trained
        assert len(result.explanations.top_features(0, k=3)) == 3

    def test_explanations_before_training_raise(self, small_cora):
        trainer = SESTrainer(small_cora, fast_config())
        with pytest.raises(RuntimeError):
            trainer.explanations()

    def test_build_pairs_before_training_raises(self, small_cora):
        trainer = SESTrainer(small_cora, fast_config())
        with pytest.raises(RuntimeError):
            trainer.build_pairs()


class TestPredictionPaths:
    def test_predict_matches_result(self, trained, small_cora):
        trainer, result = trained
        np.testing.assert_array_equal(trainer.predict(), result.predictions)

    def test_predict_with_perturbed_features_changes(self, trained, small_cora):
        trainer, _ = trained
        zeroed = np.zeros_like(small_cora.features)
        perturbed = trainer.predict(zeroed)
        assert (perturbed != trainer.predict()).any()

    def test_hidden_embeddings_width(self, trained):
        trainer, result = trained
        assert result.hidden.shape[1] == trainer.config.hidden_features

    def test_readout_selection(self, trained):
        trainer, _ = trained
        assert trainer.active_readout() in ("masked", "plain")


class TestAblationsAndVariants:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_feature_mask": False},
            {"use_structure_mask": False},
            {"use_masked_xent": False},
            {"use_triplet": False},
            {"use_xent_in_phase2": False},
            {"triplet_pooling": "sum"},
            {"subgraph_target": "structure"},
        ],
    )
    def test_variants_train(self, small_cora, overrides):
        config = fast_config(
            "gcn", explainable_epochs=6, predictive_epochs=2, seed=0, **overrides
        )
        result = SESTrainer(small_cora, config).fit()
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_gat_backbone(self, small_cora):
        config = fast_config("gat", explainable_epochs=6, predictive_epochs=2, seed=0)
        result = SESTrainer(small_cora, config).fit()
        assert result.test_accuracy > 0.2

    def test_external_masks(self, small_cora):
        config = fast_config("gcn", explainable_epochs=6, predictive_epochs=2, seed=0)
        trainer = SESTrainer(small_cora, config)
        trainer.train_explainable()
        features = np.full(small_cora.features.shape, 0.5)
        structure = np.full(trainer.khop_edges.shape[1], 0.5)
        trainer.set_external_masks(features, structure)
        np.testing.assert_allclose(trainer._frozen_feature_mask, 0.5)
        trainer.build_pairs()
        trainer.train_predictive()

    def test_external_masks_shape_validation(self, small_cora):
        trainer = SESTrainer(small_cora, fast_config(explainable_epochs=3))
        trainer.train_explainable()
        with pytest.raises(ValueError):
            trainer.set_external_masks(np.ones((2, 2)), np.ones(trainer.khop_edges.shape[1]))
        with pytest.raises(ValueError):
            trainer.set_external_masks(np.ones(small_cora.features.shape), np.ones(3))

    def test_k1_configuration(self, small_cora):
        config = fast_config("gcn", k_hops=1, explainable_epochs=5, predictive_epochs=2)
        result = SESTrainer(small_cora, config).fit()
        assert result.test_accuracy > 0.2

    def test_determinism_given_seed(self, small_cora):
        config = fast_config("gcn", explainable_epochs=5, predictive_epochs=2, seed=9)
        a = SESTrainer(small_cora, config).fit()
        b = SESTrainer(small_cora, config).fit()
        assert a.test_accuracy == b.test_accuracy
        np.testing.assert_allclose(a.logits, b.logits)
