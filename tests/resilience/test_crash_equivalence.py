"""Crash-equivalence: a killed-and-resumed run equals the uninterrupted one.

The strong claim of docs/ROBUSTNESS.md — resuming from a snapshot reproduces
the uninterrupted run *bit-for-bit* — is checked here three ways:

* fast cases killing training mid-phase-1 and mid-phase-2;
* a comparison against the committed baseline run record
  (``results/runs/resilience_baseline_cora_small.jsonl``) under the
  determinism contract of ``tests/determinism.py``, which pins the
  trajectory across machines/BLAS builds;
* an exhaustive (``slow``-marked) sweep killing training at *every* epoch
  boundary of both phases.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.resilience import FaultPlan, SimulatedCrash
from tests.determinism import assert_within_record, load_run_record

REPO = Path(__file__).resolve().parent.parent.parent
BASELINE_RECORD = REPO / "results" / "runs" / "resilience_baseline_cora_small.jsonl"

EXPLAINABLE_EPOCHS = 8
PREDICTIVE_EPOCHS = 3


def _graph():
    return classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)


def _config():
    return fast_config(
        "gcn",
        explainable_epochs=EXPLAINABLE_EPOCHS,
        predictive_epochs=PREDICTIVE_EPOCHS,
        seed=0,
    )


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted reference run (same session → bit-comparable)."""
    return SESTrainer(_graph(), _config()).fit()


def _crash_and_resume(spec: str, tmp_path):
    crashed = SESTrainer(_graph(), _config(), faults=FaultPlan.parse(spec))
    with pytest.raises(SimulatedCrash):
        crashed.fit(checkpoint_every=1, checkpoint_dir=tmp_path, checkpoint_keep=0)
    resumed = SESTrainer(_graph(), _config())
    return resumed.fit(resume_from=tmp_path)


def _assert_bit_identical(resumed, baseline):
    assert resumed.history.phase1_loss == baseline.history.phase1_loss
    assert resumed.history.phase1_val_accuracy == baseline.history.phase1_val_accuracy
    assert resumed.history.phase2_loss == baseline.history.phase2_loss
    assert resumed.history.phase2_val_accuracy == baseline.history.phase2_val_accuracy
    np.testing.assert_array_equal(resumed.logits, baseline.logits)
    np.testing.assert_array_equal(
        resumed.explanations.feature_mask, baseline.explanations.feature_mask
    )
    assert resumed.test_accuracy == baseline.test_accuracy
    assert resumed.val_accuracy == baseline.val_accuracy


class TestCrashEquivalenceFast:
    def test_kill_mid_phase1(self, baseline, tmp_path):
        resumed = _crash_and_resume("crash@explainable:4", tmp_path)
        _assert_bit_identical(resumed, baseline)

    def test_kill_mid_phase2(self, baseline, tmp_path):
        resumed = _crash_and_resume("crash@predictive:1", tmp_path)
        _assert_bit_identical(resumed, baseline)

    def test_kill_at_phase_boundary(self, baseline, tmp_path):
        # Crash after the last phase-1 epoch, before pairs are built: the
        # resumed run must redo pair construction from the restored RNG
        # state, not skip it.
        resumed = _crash_and_resume("crash@predictive:0", tmp_path)
        _assert_bit_identical(resumed, baseline)

    def test_double_kill_double_resume(self, baseline, tmp_path):
        # Crash, resume into a second crash, resume again — counters and
        # RNG state must thread through both restarts.
        first = SESTrainer(
            _graph(), _config(), faults=FaultPlan.parse("crash@explainable:3")
        )
        with pytest.raises(SimulatedCrash):
            first.fit(checkpoint_every=1, checkpoint_dir=tmp_path, checkpoint_keep=0)
        second = SESTrainer(
            _graph(), _config(), faults=FaultPlan.parse("crash@predictive:2")
        )
        with pytest.raises(SimulatedCrash):
            second.fit(
                resume_from=tmp_path,
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                checkpoint_keep=0,
            )
        resumed = SESTrainer(_graph(), _config()).fit(resume_from=tmp_path)
        _assert_bit_identical(resumed, baseline)


class TestCommittedBaseline:
    def test_matches_committed_run_record(self, baseline):
        """The trajectory is pinned against the committed telemetry record.

        Within tolerance, not bit-exact: the record was produced on one
        specific BLAS build; any real regression moves losses by far more
        than cross-build rounding noise.
        """
        record = load_run_record(BASELINE_RECORD)
        assert len(record["phase1_loss"]) == EXPLAINABLE_EPOCHS
        assert len(record["phase2_loss"]) == PREDICTIVE_EPOCHS
        assert_within_record(
            record,
            losses={
                "phase1_loss": baseline.history.phase1_loss,
                "phase2_loss": baseline.history.phase2_loss,
            },
            accuracies={
                "test_accuracy": baseline.test_accuracy,
                "val_accuracy": baseline.val_accuracy,
            },
        )


@pytest.mark.slow
class TestCrashEquivalenceExhaustive:
    """Kill training at every epoch boundary; every resume must be exact."""

    @pytest.mark.parametrize("epoch", range(1, EXPLAINABLE_EPOCHS))
    def test_every_phase1_boundary(self, baseline, tmp_path, epoch):
        resumed = _crash_and_resume(f"crash@explainable:{epoch}", tmp_path)
        _assert_bit_identical(resumed, baseline)

    @pytest.mark.parametrize("epoch", range(PREDICTIVE_EPOCHS))
    def test_every_phase2_boundary(self, baseline, tmp_path, epoch):
        resumed = _crash_and_resume(f"crash@predictive:{epoch}", tmp_path)
        _assert_bit_identical(resumed, baseline)
