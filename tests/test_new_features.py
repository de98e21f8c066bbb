"""Tests for reproduction-specific features added on top of the paper:
sensitivity explanations, scorer temperature, CLI."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MaskGenerator, SESConfig, SESTrainer, fast_config
from repro.core.ses import explanation_edge_values
from repro.tensor import Tensor, pair_mlp


def edge_values(trainer):
    return explanation_edge_values(
        trainer.config.structure_explanation,
        trainer._frozen_structure_values,
        trainer._edge_sensitivity,
    )


@pytest.fixture(scope="module")
def trained_trainer(small_cora):
    config = fast_config("gcn", explainable_epochs=20, predictive_epochs=2, seed=0)
    trainer = SESTrainer(small_cora, config)
    trainer.train_explainable()
    return trainer


class TestSensitivityExplanations:
    def test_sensitivity_accumulated(self, trained_trainer):
        assert trained_trainer._edge_sensitivity.shape == (
            trained_trainer.khop_edges.shape[1],
        )
        assert trained_trainer._edge_sensitivity.max() > 0

    def test_mask_mode_returns_raw_mask(self, trained_trainer):
        trained_trainer.config = replace(trained_trainer.config, structure_explanation="mask")
        values = edge_values(trained_trainer)
        np.testing.assert_allclose(values, trained_trainer._frozen_structure_values)

    def test_sensitivity_mode_is_rank_normalised(self, trained_trainer):
        trained_trainer.config = replace(
            trained_trainer.config, structure_explanation="sensitivity"
        )
        values = edge_values(trained_trainer)
        assert values.min() >= 0.0 and values.max() <= 1.0
        # Rank-normalised values of a mostly-distinct signal are ~uniform.
        assert len(np.unique(values)) > len(values) // 2

    def test_no_masked_xent_falls_back_to_mask(self, small_cora):
        config = fast_config(
            "gcn", explainable_epochs=5, predictive_epochs=1,
            use_masked_xent=False, structure_explanation="sensitivity", seed=0,
        )
        trainer = SESTrainer(small_cora, config)
        trainer.train_explainable()
        assert trainer._edge_sensitivity.max() == 0
        values = edge_values(trainer)
        np.testing.assert_allclose(values, trainer._frozen_structure_values)

    def test_config_validation(self):
        for mode in ("oracle", "blend"):
            with pytest.raises(ValueError):
                SESConfig(structure_explanation=mode)


class TestScorerOptions:
    def test_temperature_softens_outputs(self, rng):
        hidden = Tensor(rng.normal(size=(10, 8)) * 5)
        edges = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        generator = MaskGenerator(8, 4, rng=np.random.default_rng(0))
        logits = pair_mlp(generator.edge_scorer, hidden, edges).data
        scores = generator.structure_mask(hidden, edges).data
        np.testing.assert_allclose(scores, 1.0 / (1.0 + np.exp(-logits / 3.0)), rtol=1e-12)
        # Dividing the logits by 3 pulls every score towards 0.5.
        raw = 1.0 / (1.0 + np.exp(-logits))
        assert np.abs(scores - 0.5).mean() < np.abs(raw - 0.5).mean()


class TestCLI:
    def test_main_module_runs_cheap_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "quick")
        from repro.__main__ import main

        assert main(["table8"]) == 0
        output = capsys.readouterr().out
        assert "Table 8" in output

    def test_examples_cli_rejects_unknown(self):
        import sys
        sys.path.insert(0, "examples")
        try:
            from run_experiments import main as examples_main

            with pytest.raises(SystemExit):
                examples_main(["not_an_experiment"])
        finally:
            sys.path.pop(0)
