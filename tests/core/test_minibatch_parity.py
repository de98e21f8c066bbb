"""Minibatch training parity and robustness (docs/PERF.md).

The headline guarantee of the neighbor-sampled path: ``fit(batch_size=N)``
with a covering batch reproduces the full-batch trajectory *bit-for-bit* —
checked in-session against an uninterrupted full-batch run and, under the determinism
contract of ``tests/determinism.py``, against the committed baseline run
record.  Small-batch mode is covered by
smoke tests, crash/resume equivalence, and a degenerate-graph sweep.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.graph import Graph, classification_split
from repro.resilience import CheckpointError, FaultPlan, SimulatedCrash
from tests.determinism import assert_within_record, load_run_record

REPO = Path(__file__).resolve().parent.parent.parent
BASELINE_RECORD = REPO / "results" / "runs" / "resilience_baseline_cora_small.jsonl"

EXPLAINABLE_EPOCHS = 8
PREDICTIVE_EPOCHS = 3
SMALL_BATCH = 64


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
def full_batch():
    """The uninterrupted full-batch reference run."""
    return SESTrainer(_graph(), _config()).fit()


@pytest.fixture(scope="module")
def small_batch():
    """The uninterrupted small-batch (3 batches/epoch) reference run."""
    return SESTrainer(_graph(), _config()).fit(batch_size=SMALL_BATCH)


class TestCoveringBatchParity:
    def test_covering_batch_matches_full_batch(self, full_batch):
        graph = _graph()
        covering = SESTrainer(graph, _config()).fit(batch_size=graph.num_nodes)
        _assert_bit_identical(covering, full_batch)

    def test_oversized_batch_matches_full_batch(self, full_batch):
        covering = SESTrainer(_graph(), _config()).fit(batch_size=10_000)
        _assert_bit_identical(covering, full_batch)

    def test_covering_batch_matches_committed_record(self):
        """``fit(batch_size=num_nodes)`` reproduces the committed *full-batch*
        baseline run record (within the cross-environment tolerance)."""
        graph = _graph()
        result = SESTrainer(graph, _config()).fit(batch_size=graph.num_nodes)
        record = load_run_record(BASELINE_RECORD)
        assert len(record["phase1_loss"]) == EXPLAINABLE_EPOCHS
        assert len(record["phase2_loss"]) == PREDICTIVE_EPOCHS
        assert_within_record(
            record,
            losses={
                "phase1_loss": result.history.phase1_loss,
                "phase2_loss": result.history.phase2_loss,
            },
            accuracies={
                "test_accuracy": result.test_accuracy,
                "val_accuracy": result.val_accuracy,
            },
        )

    def test_mask_snapshots_match_full_batch(self):
        graph = _graph()
        full = SESTrainer(graph, _config()).fit(snapshot_epochs=(0, 7))
        covering = SESTrainer(_graph(), _config()).fit(
            snapshot_epochs=(0, 7), batch_size=graph.num_nodes
        )
        assert set(full.history.mask_snapshots) == {0, 7}
        for epoch, (feature, structure) in full.history.mask_snapshots.items():
            other_feature, other_structure = covering.history.mask_snapshots[epoch]
            np.testing.assert_array_equal(feature, other_feature)
            np.testing.assert_array_equal(structure, other_structure)


class TestSmallBatchTraining:
    def test_trains_to_sane_accuracy(self, small_batch):
        assert len(small_batch.history.phase1_loss) == EXPLAINABLE_EPOCHS
        assert len(small_batch.history.phase2_loss) == PREDICTIVE_EPOCHS
        assert np.isfinite(small_batch.history.phase1_loss).all()
        assert np.isfinite(small_batch.logits).all()
        graph = _graph()
        majority = max(np.bincount(graph.labels)) / graph.num_nodes
        assert small_batch.test_accuracy > majority

    def test_deterministic_given_seed(self, small_batch):
        repeat = SESTrainer(_graph(), _config()).fit(batch_size=SMALL_BATCH)
        _assert_bit_identical(repeat, small_batch)

    def test_batch_size_property(self):
        trainer = SESTrainer(_graph(), _config())
        assert trainer.batch_size is None
        trainer._configure(batch_size=SMALL_BATCH)
        assert trainer.batch_size == SMALL_BATCH

    def test_switching_batch_size_raises(self):
        trainer = SESTrainer(_graph(), _config())
        trainer._configure(batch_size=SMALL_BATCH)
        with pytest.raises(ValueError):
            trainer._configure(batch_size=SMALL_BATCH + 1)

    def test_invalid_batch_size_raises(self):
        with pytest.raises(ValueError):
            SESTrainer(_graph(), _config()).fit(batch_size=0)


class TestMinibatchCrashResume:
    def _crash_and_resume(self, spec, tmp_path, resume_batch_size=None):
        crashed = SESTrainer(_graph(), _config(), faults=FaultPlan.parse(spec))
        with pytest.raises(SimulatedCrash):
            crashed.fit(
                batch_size=SMALL_BATCH,
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                checkpoint_keep=0,
            )
        resumed = SESTrainer(_graph(), _config())
        return resumed.fit(resume_from=tmp_path, batch_size=resume_batch_size)

    def test_kill_mid_phase1(self, small_batch, tmp_path):
        # The resumed trainer is constructed *without* batch_size: the
        # snapshot's sampler state must switch it into minibatch mode.
        resumed = self._crash_and_resume("crash@explainable:4", tmp_path)
        _assert_bit_identical(resumed, small_batch)

    def test_kill_mid_phase2(self, small_batch, tmp_path):
        resumed = self._crash_and_resume(
            "crash@predictive:1", tmp_path, resume_batch_size=SMALL_BATCH
        )
        _assert_bit_identical(resumed, small_batch)

    def test_full_batch_snapshot_rejects_minibatch_trainer(self, tmp_path):
        crashed = SESTrainer(
            _graph(), _config(), faults=FaultPlan.parse("crash@explainable:2")
        )
        with pytest.raises(SimulatedCrash):
            crashed.fit(checkpoint_every=1, checkpoint_dir=tmp_path, checkpoint_keep=0)
        with pytest.raises(CheckpointError):
            SESTrainer(_graph(), _config()).fit(
                resume_from=tmp_path, batch_size=SMALL_BATCH
            )

    def test_minibatch_snapshot_rejects_other_batch_size(self, tmp_path):
        crashed = SESTrainer(
            _graph(), _config(), faults=FaultPlan.parse("crash@explainable:2")
        )
        with pytest.raises(SimulatedCrash):
            crashed.fit(
                batch_size=SMALL_BATCH,
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                checkpoint_keep=0,
            )
        with pytest.raises(CheckpointError):
            SESTrainer(_graph(), _config()).fit(
                resume_from=tmp_path, batch_size=SMALL_BATCH + 9
            )


def _degenerate_config():
    return fast_config("gcn", explainable_epochs=2, predictive_epochs=1, seed=0)


def _with_masks(graph):
    n = graph.num_nodes
    train = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    if n == 1:
        train[0] = test[0] = True
    else:
        train[: max(1, n - 1)] = True
        test[n - 1] = True
    graph.train_mask, graph.test_mask = train, test
    graph.val_mask = np.zeros(n, dtype=bool)
    return graph


class TestDegenerateGraphs:
    """0-edge / single-node / single-class graphs through both fit modes.

    These drive the empty-``supervised`` branch of ``subgraph_loss`` and the
    empty-``PairSets`` branch of ``pooled_pair_indices``.
    """

    def _edgeless(self):
        graph = Graph.from_edges(
            4,
            np.empty((0, 2), dtype=np.int64),
            features=np.eye(4),
            labels=np.array([0, 1, 0, 1]),
        )
        return _with_masks(graph)

    def _single_node(self):
        graph = Graph.from_edges(
            1,
            np.empty((0, 2), dtype=np.int64),
            features=np.ones((1, 3)),
            labels=np.array([0]),
        )
        return _with_masks(graph)

    def _single_class(self):
        edges = np.array([(0, 1), (1, 2), (2, 3)])
        graph = Graph.from_edges(
            4, edges, features=np.eye(4), labels=np.zeros(4, dtype=int)
        )
        return _with_masks(graph)

    @pytest.mark.parametrize("builder", ["_edgeless", "_single_node", "_single_class"])
    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_fit_completes(self, builder, batch_size):
        graph = getattr(self, builder)()
        if batch_size is not None:
            batch_size = min(batch_size, graph.num_nodes)
        trainer = SESTrainer(graph, _degenerate_config())
        result = trainer.fit(batch_size=batch_size)
        assert np.isfinite(result.history.phase1_loss).all()
        assert np.isfinite(result.history.phase2_loss).all()
        assert np.isfinite(result.logits).all()
        assert 0.0 <= result.test_accuracy <= 1.0
