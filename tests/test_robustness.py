"""Failure-injection and edge-case robustness tests.

Degenerate graphs (isolated nodes, single class, stars), pathological
features, and wrong-usage errors — the pipeline should either handle them
gracefully or fail loudly with a clear message, never produce NaNs.
"""

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.graph import Graph
from repro.models import train_node_classifier
from repro.nn import GCNConv, GraphEncoder
from repro.tensor import Tensor
from tests.damage import truncate_file


def _make_labelled(edges, labels, features=None, num_nodes=None):
    num_nodes = num_nodes or len(labels)
    graph = Graph.from_edges(
        num_nodes, np.array(edges),
        features=features if features is not None else np.eye(num_nodes),
        labels=np.array(labels),
    )
    rng = np.random.default_rng(0)
    graph.train_mask = rng.random(num_nodes) < 0.7
    graph.train_mask[0] = True
    graph.train_mask[-1] = False  # guarantee a non-empty test set
    graph.val_mask = ~graph.train_mask
    graph.test_mask = ~graph.train_mask
    return graph


class TestDegenerateGraphs:
    def test_isolated_nodes_survive_full_pipeline(self):
        # Nodes 6 and 7 have no edges at all.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        labels = [0, 0, 0, 1, 1, 1, 0, 1]
        graph = _make_labelled(edges, labels)
        config = fast_config("gcn", explainable_epochs=5, predictive_epochs=2, seed=0)
        result = SESTrainer(graph, config).fit()
        assert np.isfinite(result.logits).all()

    def test_star_graph(self):
        edges = [(0, i) for i in range(1, 10)]
        labels = [0] + [1] * 9
        graph = _make_labelled(edges, labels)
        result = train_node_classifier(graph, "gcn", hidden=8, epochs=20, seed=0)
        assert np.isfinite(result.logits).all()

    def test_single_class_graph_trains(self):
        edges = [(i, i + 1) for i in range(9)]
        labels = [0] * 10
        graph = _make_labelled(edges, labels)
        config = fast_config("gcn", explainable_epochs=4, predictive_epochs=1, seed=0)
        result = SESTrainer(graph, config).fit()
        assert (result.predictions == 0).all()

    def test_two_node_graph(self):
        graph = _make_labelled([(0, 1)], [0, 1])
        config = fast_config("gcn", explainable_epochs=3, predictive_epochs=1, seed=0)
        result = SESTrainer(graph, config).fit()
        assert result.logits.shape == (2, 2)

    def test_complete_graph(self):
        n = 8
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        labels = [i % 2 for i in range(n)]
        graph = _make_labelled(edges, labels)
        config = fast_config("gcn", explainable_epochs=4, predictive_epochs=1, seed=0)
        result = SESTrainer(graph, config).fit()
        assert np.isfinite(result.logits).all()


class TestPathologicalInputs:
    def test_zero_feature_matrix(self):
        edges = [(i, (i + 1) % 8) for i in range(8)]
        graph = _make_labelled(edges, [i % 2 for i in range(8)],
                               features=np.zeros((8, 4)))
        result = train_node_classifier(graph, "gcn", hidden=8, epochs=10, seed=0)
        assert np.isfinite(result.logits).all()

    def test_huge_feature_scale(self):
        edges = [(i, (i + 1) % 8) for i in range(8)]
        graph = _make_labelled(edges, [i % 2 for i in range(8)],
                               features=np.eye(8) * 1e6)
        result = train_node_classifier(graph, "gcn", hidden=8, epochs=5, seed=0)
        assert np.isfinite(result.logits).all()

    def test_conv_handles_empty_edge_list(self):
        conv = GCNConv(4, 3, rng=np.random.default_rng(0))
        out = conv(Tensor(np.eye(4)), np.zeros((2, 0), dtype=np.int64), 4)
        assert np.isfinite(out.data).all()

    def test_encoder_single_node(self):
        encoder = GraphEncoder(3, 4, 2, dropout=0.0, rng=np.random.default_rng(0))
        out = encoder(Tensor(np.ones((1, 3))), np.zeros((2, 0), dtype=np.int64), 1)
        assert out.shape == (1, 2)


class TestUsageErrors:
    def test_trainer_without_val_mask_still_works(self):
        edges = [(i, (i + 1) % 10) for i in range(10)]
        graph = Graph.from_edges(10, np.array(edges), features=np.eye(10),
                                 labels=np.array([i % 2 for i in range(10)]))
        graph.train_mask = np.ones(10, dtype=bool)
        graph.test_mask = np.ones(10, dtype=bool)
        config = fast_config("gcn", explainable_epochs=3, predictive_epochs=1, seed=0)
        result = SESTrainer(graph, config).fit()
        assert np.isnan(result.val_accuracy)

    def test_mismatched_masks_rejected_at_graph_level(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, np.array([(0, 1)]),
                             train_mask=np.ones(5, dtype=bool))

    def test_epoch_zero_is_rejected_by_config(self):
        with pytest.raises(ValueError):
            fast_config(explainable_epochs=0)

    def test_predict_with_wrong_feature_shape_raises(self, small_cora):
        config = fast_config("gcn", explainable_epochs=3, predictive_epochs=1, seed=0)
        trainer = SESTrainer(small_cora, config)
        trainer.fit()
        with pytest.raises(Exception):
            trainer.predict(np.ones((3, 3)))


class TestNumericalStability:
    def test_long_training_stays_finite(self, small_cora):
        config = fast_config("gcn", explainable_epochs=60, predictive_epochs=10,
                             learning_rate=0.05, seed=0)  # aggressive lr
        result = SESTrainer(small_cora, config).fit()
        assert np.isfinite(result.logits).all()
        assert all(np.isfinite(l) for l in result.history.phase1_loss)

    def test_gat_on_isolated_nodes_finite(self):
        edges = [(0, 1)]
        labels = [0, 1, 0, 1]
        graph = _make_labelled(edges, labels, num_nodes=4)
        result = train_node_classifier(graph, "gat", hidden=8, epochs=10,
                                       heads=2, seed=0)
        assert np.isfinite(result.logits).all()


class TestCheckpointDurability:
    """Satellite coverage for docs/ROBUSTNESS.md: crash-safe io + resume."""

    def _config(self):
        return fast_config("gcn", explainable_epochs=4, predictive_epochs=2, seed=0)

    def test_truncated_graph_archive_raises_checkpoint_error(self, small_cora, tmp_path):
        from repro import io
        from repro.resilience import CheckpointError

        path = tmp_path / "graph.npz"
        io.save_graph(small_cora, path)
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CheckpointError, match="graph.npz"):
            io.load_graph(path)

    def test_missing_checkpoint_raises_checkpoint_error(self, tmp_path):
        from repro import io
        from repro.resilience import CheckpointError

        with pytest.raises(CheckpointError, match="nowhere.npz"):
            io.load_graph(tmp_path / "nowhere.npz")

    def test_save_leaves_no_tmp_files(self, small_cora, tmp_path):
        from repro import io

        io.save_graph(small_cora, tmp_path / "graph.npz")
        assert not list(tmp_path.glob("*.tmp"))

    def test_empty_gt_edge_mask_round_trips(self, tmp_path):
        # An explicitly-empty ground-truth mask ({}) means "annotated with
        # zero positive edges" and must survive the round trip — it used to
        # be dropped by a truthiness check.
        from repro import io

        edges = [(i, (i + 1) % 6) for i in range(6)]
        graph = _make_labelled(edges, [i % 2 for i in range(6)])
        graph.extra["gt_edge_mask"] = {}
        path = tmp_path / "graph.npz"
        io.save_graph(graph, path)
        loaded = io.load_graph(path)
        assert loaded.extra.get("gt_edge_mask") == {}

    def test_resume_from_truncated_snapshot_refuses(self, small_cora, tmp_path):
        from repro.resilience import CheckpointError

        trainer = SESTrainer(small_cora, self._config())
        trainer.train_explainable(epochs=2)
        path = trainer.save_snapshot_to(tmp_path)
        truncate_file(path, keep_fraction=0.4)
        fresh = SESTrainer(small_cora, self._config())
        with pytest.raises(CheckpointError):
            fresh.resume(path)

    def test_resume_with_mismatched_config_refuses_loudly(self, small_cora, tmp_path):
        from repro.resilience import CheckpointError

        trainer = SESTrainer(small_cora, self._config())
        trainer.train_explainable(epochs=2)
        path = trainer.save_snapshot_to(tmp_path)
        other = SESTrainer(
            small_cora,
            fast_config("gcn", explainable_epochs=4, predictive_epochs=2,
                        seed=0, alpha=0.9),
        )
        with pytest.raises(CheckpointError, match="config hash"):
            other.fit(resume_from=path)

    def test_double_resume_is_idempotent(self, small_cora, tmp_path):
        baseline = SESTrainer(small_cora, self._config()).fit()

        trainer = SESTrainer(small_cora, self._config())
        trainer.train_explainable(epochs=2)
        path = trainer.save_snapshot_to(tmp_path)

        once = SESTrainer(small_cora, self._config()).fit(resume_from=path)
        twice = SESTrainer(small_cora, self._config()).fit(resume_from=path)
        assert once.history.phase1_loss == twice.history.phase1_loss
        assert once.history.phase2_loss == twice.history.phase2_loss
        np.testing.assert_array_equal(once.logits, twice.logits)
        # ...and both equal the uninterrupted run.
        np.testing.assert_array_equal(once.logits, baseline.logits)

    def test_resume_from_completed_snapshot_reproduces_result(self, small_cora, tmp_path):
        trainer = SESTrainer(small_cora, self._config())
        baseline = trainer.fit()
        path = trainer.save_snapshot_to(tmp_path)
        replay = SESTrainer(small_cora, self._config()).fit(resume_from=path)
        np.testing.assert_array_equal(replay.logits, baseline.logits)
        assert replay.test_accuracy == baseline.test_accuracy
