"""Tests for reproduction-specific features added on top of the paper:
sensitivity explanations, scorer temperature, deep encoders, CLI."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MaskGenerator, SESConfig, SESTrainer, fast_config
from repro.core.ses import explanation_edge_values
from repro.datasets import cora_like
from repro.graph import classification_split
from repro.nn import GraphEncoder
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


class TestDeepEncoder:
    def test_three_layer_forward(self, rng):
        edges = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        encoder = GraphEncoder(4, 8, 2, num_layers=3, rng=np.random.default_rng(0))
        out = encoder(Tensor(np.eye(4)), edges, 4)
        assert out.shape == (4, 2)
        assert len(encoder.middle_convs) == 1

    def test_deep_encoder_trains(self, rng):
        from repro.tensor import Adam, functional as F

        edges = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        encoder = GraphEncoder(4, 8, 2, num_layers=4, dropout=0.0,
                               rng=np.random.default_rng(0))
        optimizer = Adam(encoder.parameters(), lr=0.01)
        labels = np.array([0, 1, 0, 1])
        x = Tensor(np.eye(4))
        losses = []
        for _ in range(40):
            optimizer.zero_grad()
            loss = F.cross_entropy(encoder(x, edges, 4), labels)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            GraphEncoder(4, 8, 2, num_layers=1)


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
