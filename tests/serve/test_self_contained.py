"""A snapshot serves on its own: no dataset generator, no trainer, and the
fitted trainer's outputs bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

import repro.datasets
import repro.datasets.registry
from repro.core import SESConfig, SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.obs import config_hash
from repro.resilience import CheckpointError, load_snapshot, save_snapshot
from repro.serve import load_serving_state

EPOCHS = (3, 4)  # explainable, predictive


def fit_with_checkpoints(graph, directory, **overrides):
    config = fast_config(
        "gcn", explainable_epochs=EPOCHS[0], predictive_epochs=EPOCHS[1],
        seed=0, **overrides,
    )
    trainer = SESTrainer(graph, config)
    trainer.fit(checkpoint_every=1, checkpoint_dir=directory, checkpoint_keep=0)
    return trainer


def assert_serves_fit(state, logits, explanations):
    np.testing.assert_array_equal(state.logits, logits)
    np.testing.assert_array_equal(state.predictions, logits.argmax(axis=-1))
    served = state.explanations
    np.testing.assert_array_equal(served.feature_explanation, explanations.feature_explanation)
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(served.subgraph_explanation, part),
            getattr(explanations.subgraph_explanation, part),
        )


@pytest.mark.parametrize("keep_best", [True, False])
@pytest.mark.parametrize("readout", ["plain", "masked"])
def test_served_outputs_are_the_fitted_trainers(small_cora, tmp_path, readout, keep_best):
    trainer = fit_with_checkpoints(small_cora, tmp_path, keep_best=keep_best)
    # The newest snapshot is the last predictive epoch's, written before
    # fit() loads the best-validation parameters back.  Serving answers
    # with the readout the snapshot names: name the one under test in the
    # snapshot and in the trainer alike.
    newest = tmp_path / f"snap-predictive-{EPOCHS[1]:04d}.npz"
    snapshot = load_snapshot(newest)
    snapshot.manifest["best_readout"] = trainer._best_readout = readout
    save_snapshot(snapshot, newest)
    state = load_serving_state(tmp_path)
    assert state.snapshot_name == newest.name
    assert state.readout == readout
    assert_serves_fit(state, trainer.final_logits(), trainer.explanations())
    if keep_best:
        last, best = snapshot.section("model"), snapshot.section("best")
        assert any(not np.array_equal(last[k], best[k]) for k in last), (
            "the best epoch is the last one, so serving best/ is not exercised"
        )


def test_serving_builds_no_trainer_and_regenerates_no_dataset(snapshot_dir, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("serving must read the snapshot alone")

    monkeypatch.setattr(repro.datasets, "load_dataset", refuse)
    monkeypatch.setattr(repro.datasets.registry, "load_dataset", refuse)
    monkeypatch.setattr(SESTrainer, "__init__", refuse)
    state = load_serving_state(snapshot_dir)
    assert state.predictions.shape == (state.num_nodes,)


def test_scaled_synthetic_snapshot_serves_without_flags(tmp_path):
    graph = classification_split(load_dataset("ba_shapes", scale=0.15, seed=0), seed=0)
    trainer = fit_with_checkpoints(graph, tmp_path)
    state = load_serving_state(tmp_path)
    assert state.num_nodes == graph.num_nodes
    assert state.graph.extra["gt_edge_mask"] == graph.extra["gt_edge_mask"]
    assert_serves_fit(state, trainer.final_logits(), trainer.explanations())


def test_version_1_snapshot_is_refused_in_one_line(predictive_snapshots, small_cora, tmp_path):
    snapshot = load_snapshot(predictive_snapshots[-1])
    snapshot.manifest["version"] = 1
    path = save_snapshot(snapshot, tmp_path / "v1.npz")
    trainer = SESTrainer(small_cora, fast_config("gcn", seed=0))
    attempts = (
        lambda: load_serving_state(path),
        lambda: trainer.resume(path),
        lambda: trainer.restore(snapshot),
    )
    for attempt in attempts:
        with pytest.raises(CheckpointError, match="version 1") as excinfo:
            attempt()
        assert "\n" not in str(excinfo.value)


# SESConfig fields that became constants, at the defaults every snapshot
# written before then carries in its manifest.
REMOVED_CONFIG_FIELDS = {
    "structure_scorer_input": "representation",
    "sub_loss_weight": 1.0,
    "predictive_lr_scale": 0.3,
    "readout": "auto",
    "resample_negatives": False,
    "max_khop_per_node": 0,
    "max_negatives_per_node": 64,
}


def test_snapshot_with_removed_config_fields_serves_but_refuses_strict_resume(
    predictive_snapshots, tmp_path
):
    source = predictive_snapshots[-1]
    reference = load_serving_state(source)
    snapshot = load_snapshot(source)
    config = snapshot.manifest["config"]
    assert not set(REMOVED_CONFIG_FIELDS) & set(config)
    config.update(REMOVED_CONFIG_FIELDS)
    snapshot.manifest["config_hash"] = config_hash(config)
    path = save_snapshot(snapshot, tmp_path / "older.npz")

    state = load_serving_state(path)
    np.testing.assert_array_equal(state.logits, reference.logits)

    current = {name: value for name, value in config.items() if name not in REMOVED_CONFIG_FIELDS}
    trainer = SESTrainer(state.graph, SESConfig(**current))
    with pytest.raises(CheckpointError, match="config hash") as excinfo:
        trainer.resume(path)
    assert "\n" not in str(excinfo.value)
    # The hash is all that stands in the way.
    trainer.resume(path, strict_config=False)
