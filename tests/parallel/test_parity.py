"""Data-parallel training parity (docs/PARALLEL.md).

The headline guarantee: ``fit(workers=N)`` is bit-identical to
``fit(workers=1)`` for any N — the shard structure and the fixed-order tree
reduction are worker-independent.  Checked in-session across worker counts
and against the committed baseline run record, and the same holds with a
worker killed at every phase boundary (recovery restarts are invisible in
the numbers).  The committed record is checked under the determinism
contract of ``tests/determinism.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.resilience import FaultPlan
from tests.determinism import (
    assert_record_digests,
    assert_within_record,
    sha256_arrays,
)

REPO = Path(__file__).resolve().parent.parent.parent
BASELINE_RECORD = REPO / "results" / "runs" / "parallel_baseline_cora_small.json"

EXPLAINABLE_EPOCHS = 8
PREDICTIVE_EPOCHS = 3

pytestmark = pytest.mark.parallel


def _graph():
    return classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)


def _config():
    return fast_config(
        "gcn",
        explainable_epochs=EXPLAINABLE_EPOCHS,
        predictive_epochs=PREDICTIVE_EPOCHS,
        seed=0,
    )


def _assert_bit_identical(result, reference):
    assert result.history.phase1_loss == reference.history.phase1_loss
    assert result.history.phase1_val_accuracy == reference.history.phase1_val_accuracy
    assert result.history.phase2_loss == reference.history.phase2_loss
    assert result.history.phase2_val_accuracy == reference.history.phase2_val_accuracy
    np.testing.assert_array_equal(result.logits, reference.logits)
    np.testing.assert_array_equal(
        result.explanations.feature_mask, reference.explanations.feature_mask
    )
    np.testing.assert_array_equal(
        result.explanations.subgraph_explanation.toarray(),
        reference.explanations.subgraph_explanation.toarray(),
    )
    np.testing.assert_array_equal(result.hidden, reference.hidden)
    assert result.test_accuracy == reference.test_accuracy
    assert result.val_accuracy == reference.val_accuracy


@pytest.fixture(scope="module")
def single_worker():
    """The in-process (workers=1) reference run, with its trainer."""
    trainer = SESTrainer(_graph(), _config())
    result = trainer.fit(workers=1)
    return trainer, result


class TestCommittedBaseline:
    """The committed record under the determinism contract (tests/determinism.py)."""

    def test_single_worker_matches_committed_record(self, single_worker):
        trainer, result = single_worker
        record = json.loads(BASELINE_RECORD.read_text())
        assert record["workers"] == 1
        assert trainer._sampler.num_batches == record["shards"]
        history = trainer.history
        assert_within_record(
            record,
            losses={
                "phase1_loss": history.phase1_loss,
                "phase2_loss": history.phase2_loss,
            },
            accuracies={
                "phase1_val_accuracy": history.phase1_val_accuracy,
                "phase2_val_accuracy": history.phase2_val_accuracy,
                "test_accuracy": result.test_accuracy,
                "val_accuracy": result.val_accuracy,
            },
        )

    def test_digests_match_in_recording_environment(self, single_worker):
        trainer, result = single_worker
        record = json.loads(BASELINE_RECORD.read_text())
        assert_record_digests(
            record,
            {
                "model_sha256": sha256_arrays(trainer.model.state_dict()),
                "logits_sha256": hashlib.sha256(
                    np.ascontiguousarray(result.logits).tobytes()
                ).hexdigest(),
            },
        )


class TestWorkerCountParity:
    def test_two_workers_bit_identical(self, single_worker):
        _, reference = single_worker
        result = SESTrainer(_graph(), _config()).fit(workers=2)
        _assert_bit_identical(result, reference)

    def test_four_workers_bit_identical(self, single_worker):
        _, reference = single_worker
        result = SESTrainer(_graph(), _config()).fit(workers=4)
        _assert_bit_identical(result, reference)

    def test_more_workers_than_shards(self, single_worker):
        # 6 workers, 4 shards: two ranks idle every epoch; still identical.
        _, reference = single_worker
        result = SESTrainer(_graph(), _config()).fit(workers=6)
        _assert_bit_identical(result, reference)


class TestKillRecoveryParity:
    """A worker killed at every phase boundary recovers bit-identically."""

    @pytest.mark.parametrize(
        "spec",
        [
            "kill_worker@explainable:0:0",        # first epoch of phase 1
            f"kill_worker@explainable:{EXPLAINABLE_EPOCHS - 1}:1",  # last
            "kill_worker@predictive:0:1",         # phase transition
            f"kill_worker@predictive:{PREDICTIVE_EPOCHS - 1}:0",    # last
        ],
    )
    def test_kill_at_phase_boundary(self, single_worker, spec):
        _, reference = single_worker
        trainer = SESTrainer(_graph(), _config(), faults=FaultPlan.parse(spec))
        result = trainer.fit(workers=2)
        assert trainer._parallel.total_restarts == 1
        _assert_bit_identical(result, reference)

    def test_kill_in_both_phases_same_run(self, single_worker):
        _, reference = single_worker
        plan = FaultPlan.parse(
            "kill_worker@explainable:2:0,kill_worker@predictive:1:1"
        )
        trainer = SESTrainer(_graph(), _config(), faults=plan)
        result = trainer.fit(workers=2)
        assert trainer._parallel.total_restarts == 2
        _assert_bit_identical(result, reference)
