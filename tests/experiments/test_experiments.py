"""Smoke/integration tests for the experiment harnesses.

Full table runs execute under the benchmarks; here we verify the shared
machinery plus the cheapest harnesses end to end on micro profiles.
"""

import numpy as np
import pytest

from repro.experiments import ALL_EXPERIMENTS, TableResult, get_profile
from repro.experiments.common import (
    Profile,
    mean_std,
    prepare_real_world,
    prepare_synthetic,
    run_ses,
    ses_config,
)

MICRO = Profile(
    name="quick",  # reuses quick-type branches in harnesses
    scale=0.12,
    runs=1,
    classifier_epochs=15,
    ses_explainable_epochs=10,
    ses_predictive_epochs=3,
    hidden=16,
    explainer_nodes=4,
    gnn_explainer_epochs=8,
    pg_explainer_epochs=5,
    pgm_samples=15,
    segnn_epochs=5,
    protgnn_epochs=10,
)


class TestCommon:
    def test_get_profile_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert get_profile().name == "quick"

    def test_get_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "standard")
        assert get_profile().name == "standard"

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError):
            get_profile("hyperspeed")

    def test_prepare_real_world_split(self):
        graph = prepare_real_world("cora", MICRO, seed=0)
        assert abs(graph.train_mask.mean() - 0.6) < 0.1

    def test_prepare_synthetic_split(self):
        graph = prepare_synthetic("ba_shapes", MICRO, seed=0)
        assert abs(graph.train_mask.mean() - 0.8) < 0.1

    def test_ses_config_respects_profile(self):
        config = ses_config(MICRO, "gat", seed=1)
        assert config.hidden_features == 16
        assert config.backbone == "gat"
        assert config.explainable_epochs == 10

    def test_mean_std_formats(self):
        assert mean_std([0.5]) == "50.00"
        rendered = mean_std([0.5, 0.7])
        assert "±" in rendered
        assert rendered.startswith("60.00")

    def test_table_result_renders(self):
        result = TableResult("T", ["a", "b"], [["x", 1.234]], notes=["n"])
        text = str(result)
        assert "T" in text and "note: n" in text

    def test_all_experiments_registered(self):
        expected = {f"table{i}" for i in range(3, 11)} | {f"fig{i}" for i in range(4, 9)}
        assert set(ALL_EXPERIMENTS) == expected

    def test_run_ses_end_to_end(self):
        graph = prepare_real_world("cora", MICRO, seed=0)
        result = run_ses(graph, MICRO, backbone="gcn", seed=0)
        assert 0.0 <= result.test_accuracy <= 1.0


class TestCheapHarnesses:
    def test_table8_scaling(self):
        from repro.experiments import table8

        result = table8.run(MICRO)
        times = result.raw
        assert len(times) == 3
        sizes = sorted(times)
        # Cost must grow with node count.
        assert times[sizes[-1]] > times[sizes[0]]

    def test_fig7_mask_dynamics(self):
        from repro.experiments import fig7

        result = fig7.run(MICRO)
        assert len(result.raw["loss_curve"]) == MICRO.ses_explainable_epochs
        stats = result.raw["stats"]
        assert set(stats) == {"feature", "structure"}
        assert len(result.raw["heatmaps"]) == 3

    def test_table7_times(self):
        from repro.experiments import table7

        result = table7.run(MICRO)
        assert len(result.rows) == 2
        for dataset, times in result.raw.items():
            assert times["training"] >= times["inference"] > 0

    def test_fig8_rankings(self):
        from repro.experiments import fig8

        result = fig8.run(MICRO)
        assert len(result.rows) == 4
        for dataset, data in result.raw.items():
            assert set(data["rankings"]) == {"SES", "GEX", "PGE", "PGM"}

    def test_table9_metric_table(self):
        from repro.experiments import table9

        result = table9.run(MICRO)
        assert [row[0] for row in result.rows] == [
            "SES (GCN)", "SES (GAT)", "SEGNN", "ProtGNN",
        ]
        for scores in result.raw.values():
            assert np.isfinite(scores["silhouette"])
