"""One telemetry pipe: each training fact is reported once, as an event.

The seven training metric families are derived from the run-record
events (``epoch``, ``snapshot_event``, ``recovery_event``), whether a run
record is written or not.  These tests pin the agreement between the
registry, the training history, the record and ``obs-report`` in every
execution mode, and that telemetry never perturbs the trajectory.
"""

import io
import json

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.obs import RunRecorder, default_registry, summarize_run
from repro.resilience import FaultPlan, RecoveryPolicy

EPOCHS = {"explainable": 4, "predictive": 2}
MODES = {
    "full": {},
    "minibatch": {"batch_size": 64},
    "parallel": {"workers": 1},
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("REPRO_TELEMETRY", "REPRO_RECOVERY", "REPRO_FAULTS"):
        monkeypatch.delenv(name, raising=False)


def _config(explainable=EPOCHS["explainable"], predictive=EPOCHS["predictive"]):
    return fast_config(
        "gcn", explainable_epochs=explainable, predictive_epochs=predictive,
        hidden_features=16, mask_mlp_hidden=16, seed=0,
    )


def _fit(graph, directory, telemetry, config=None, fit_kwargs=None, **trainer_kwargs):
    """One fit with a fresh registry; returns (trainer, result, registry, events)."""
    registry = default_registry()
    registry.reset()
    buffer = io.StringIO()
    recorder = RunRecorder(run_id="pipe", path=buffer) if telemetry else None
    trainer = SESTrainer(graph, config or _config(), recorder=recorder, **trainer_kwargs)
    result = trainer.fit(
        checkpoint_every=1, checkpoint_dir=directory, **(fit_kwargs or {})
    )
    text = buffer.getvalue().strip()
    events = [json.loads(line) for line in text.split("\n")] if text else []
    return trainer, result, registry, events


def _family(registry, name):
    metric = registry.get(name)
    assert metric is not None, f"{name} is not registered"
    return metric


def _batches_per_epoch(trainer):
    return trainer._sampler.num_batches


def _losses(history):
    return {"explainable": history.phase1_loss, "predictive": history.phase2_loss}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
def test_families_match_history(small_cora, tmp_path, mode, telemetry):
    trainer, result, registry, _ = _fit(
        small_cora, tmp_path / "ckpt", telemetry, fit_kwargs=MODES[mode]
    )
    per_epoch = _batches_per_epoch(trainer)
    for phase, losses in _losses(result.history).items():
        epochs = len(losses)
        assert epochs == EPOCHS[phase]
        assert _family(registry, "repro_train_epochs_total").value(phase=phase) == epochs
        assert _family(registry, "repro_train_epoch").value(phase=phase) == epochs
        assert (
            _family(registry, "repro_train_batches_total").value(phase=phase)
            == epochs * per_epoch
        )
        assert _family(registry, "repro_epoch_seconds").count(phase=phase) == epochs
        assert _family(registry, "repro_train_loss").value(phase=phase) == losses[-1]
        # checkpoint_every=1: one snapshot write per committed epoch.
        assert (
            _family(registry, "repro_snapshot_write_seconds").count(phase=phase) == epochs
        )
    recoveries = registry.get("repro_recovery_events_total")
    assert recoveries is None or list(recoveries.samples()) == []


@pytest.mark.parametrize("mode", sorted(MODES))
def test_telemetry_does_not_perturb_training(small_cora, tmp_path, mode):
    _, off, _, _ = _fit(small_cora, tmp_path / "off", False, fit_kwargs=MODES[mode])
    _, on, _, events = _fit(small_cora, tmp_path / "on", True, fit_kwargs=MODES[mode])
    assert events, "telemetry on wrote no record"
    for field in ("phase1_loss", "phase1_val_accuracy", "phase2_loss", "phase2_val_accuracy"):
        assert getattr(on.history, field) == getattr(off.history, field), field
    np.testing.assert_array_equal(on.logits, off.logits)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_record_is_the_registry_source(small_cora, tmp_path, mode):
    """One epoch event per committed epoch, carrying what the families read."""
    trainer, result, registry, events = _fit(
        small_cora, tmp_path / "ckpt", True, fit_kwargs=MODES[mode]
    )
    per_epoch = _batches_per_epoch(trainer)
    for phase, losses in _losses(result.history).items():
        epochs = [e for e in events if e["event"] == "epoch" and e["phase"] == phase]
        assert [e["epoch"] for e in epochs] == list(range(len(losses)))
        assert [e["loss"] for e in epochs] == losses
        assert all(e["num_batches"] == per_epoch for e in epochs)
        assert "num_shards" not in epochs[0]
        seconds = [e["seconds"] for e in epochs]
        assert _family(registry, "repro_epoch_seconds").sum(phase=phase) == pytest.approx(
            sum(seconds), rel=1e-12
        )
        writes = [e for e in events if e["event"] == "snapshot_event" and e["phase"] == phase]
        assert len(writes) == len(losses)
        assert _family(registry, "repro_snapshot_write_seconds").sum(
            phase=phase
        ) == pytest.approx(sum(e["seconds"] for e in writes), rel=1e-12)


def test_recovered_run_reports_committed_epochs_only(small_cora, tmp_path):
    """A rolled-back epoch leaves no trace in the record, history or registry."""
    trainer, result, registry, events = _fit(
        small_cora, tmp_path / "ckpt", True, config=_config(explainable=5),
        recovery=RecoveryPolicy(), faults=FaultPlan.parse("nan@explainable:1"),
    )
    history = result.history
    assert trainer.recovery.total_rollbacks == 1
    assert len(history.phase1_loss) == 5
    epoch_losses = [
        e["loss"] for e in events if e["event"] == "epoch" and e["phase"] == "explainable"
    ]
    assert epoch_losses == history.phase1_loss
    assert summarize_run(events)["phases"]["explainable"]["epochs"] == 5
    assert _family(registry, "repro_train_epochs_total").value(phase="explainable") == 5
    assert _family(registry, "repro_epoch_seconds").count(phase="explainable") == 5
    recoveries = _family(registry, "repro_recovery_events_total")
    assert recoveries.value(action="rollback", phase="explainable") == 1
    assert [e["action"] for e in events if e["event"] == "recovery_event"] == ["rollback"]
